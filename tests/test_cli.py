"""The command line surface: pinned outputs, exit codes, report determinism."""

import json

import pytest

from pricedbool.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_pivot_pairs(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--f", "fstar:2")
    assert code == 0
    assert "PROOF: 4" in out and "k: 2" in out and "l: 4" in out


def test_analyze_parity_profile(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--f", "parity:5")
    assert code == 0
    assert "PROOF: 5" in out and "spread: 1" in out


def test_analyze_malformed_dnf(capsys):
    code, _, err = run_cli(capsys, "analyze", "--f", "x1 &")
    assert code == 2
    assert "parse error at token 3" in err


def test_ratio_symmetric_formula_verdict(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--f", "sym:00111",
                           "--alg", "greedy", "--cost", "unit")
    assert code == 0
    assert "ratio: 2" in out
    assert "equals the symmetric formula: pass" in out


def test_ratio_two_phase_bound(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--f", "fstar:2",
                           "--alg", "bf2", "--cost", "random:7")
    assert code == 0
    assert "within s+1: pass" in out


def test_ratio_guided_reader_on_parity(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--f", "parity:4",
                           "--alg", "lpa", "--cost", "unit")
    assert code == 0
    assert "ratio: 1\n" in out


def test_bf2_needs_pivot_pairs(capsys):
    code, _, err = run_cli(capsys, "ratio", "--f", "g", "--alg", "bf2")
    assert code == 2
    assert "bf2 runs only on fstar:<s> instances" in err


def test_adversary_builds_its_own_costs(capsys):
    code, _, err = run_cli(capsys, "ratio", "--f", "fstar:1",
                           "--adversary", "winners", "--cost", "unit")
    assert code == 2
    assert "constructs its own costs" in err


def test_lp_solve_report(capsys, tmp_path):
    path = tmp_path / "sol.json"
    code, out, _ = run_cli(capsys, "lp", "solve", "--f", "parity:3",
                           "--json", str(path))
    assert code == 0
    assert "s(x0) = 1/3" in out
    report = json.loads(path.read_text())
    assert report["results"]["solution"] == {
        "s": {"x0": "1/3", "x1": "1/3", "x2": "1/3"}, "objective": "1", "rows": 1}


def test_lp_delta_on_the_switch_example(capsys):
    code, out, _ = run_cli(capsys, "lp", "delta", "--f", "g")
    assert code == 0
    assert "delta: 3" in out and "PROOF: 4" in out


def test_lp_family_verdicts(capsys):
    code, out, _ = run_cli(capsys, "lp", "family", "--f", "family:1,2")
    assert code == 0
    assert out.count(": pass") == 2


def test_lp_lemma2_certifies_the_sweep_value(capsys):
    code, out, _ = run_cli(capsys, "lp", "lemma2", "--f", "g")
    assert code == 0
    assert "target: 3" in out
    assert "FAIL" not in out


def test_lp_lemma2_needs_a_switch(capsys):
    code, _, err = run_cli(capsys, "lp", "lemma2", "--f", "x0 & x1")
    assert code == 2
    assert "no variable appears in both polarities" in err


def test_quad_fstar_emits_dnf_text(capsys):
    code, out, _ = run_cli(capsys, "quad", "fstar", "--s", "2")
    assert code == 0
    assert out.splitlines()[0] == "x0 & x4 | x1 & x4 | x2 & !x4 | x3 & !x4"


def test_quad_analyze_report(capsys, tmp_path):
    path = tmp_path / "quad.json"
    code, out, _ = run_cli(capsys, "quad", "analyze", "--f", "fstar:2",
                           "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    results = report["results"]
    assert results["maxterm"] == ["x0", "x1", "x2", "x3"]
    assert results["survivors"] == ["x2", "x3"]
    assert results["outside_assignment"] == {"x4": 0}


def test_sym_rejects_non_symmetric_input(capsys):
    code, _, err = run_cli(capsys, "sym", "--f", "x0 & x1 | x2")
    assert code == 2
    assert "symmetric" in err


def test_sym_spread_verdicts(capsys):
    code, out, _ = run_cli(capsys, "sym", "--f", "sym:00111")
    assert code == 0
    assert "spread: 3" in out
    assert "extremal costs attain the spread: pass" in out


def test_gen_output_feeds_back_in(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--f", "majority:3")
    assert code == 0
    path = tmp_path / "maj3.txt"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "analyze", "--f", str(path))
    assert code == 0
    assert "n: 3" in out2 and "PROOF: 2" in out2


def test_gen_dnf_generators_print_dnf(capsys):
    code, out, _ = run_cli(capsys, "gen", "--f", "g")
    assert code == 0
    assert out == "x2 & x3 & x4 | x0 & x1 & !x4\n"


def test_unknown_cost_source(capsys):
    code, _, err = run_cli(capsys, "ratio", "--f", "parity:2", "--cost", "bogus")
    assert code == 2
    assert "unknown cost source" in err


def test_random_cost_seed_is_recorded(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "ratio", "--f", "majority:3",
                         "--cost", "random:9", "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text())["inputs"]["cost"] == "random:9"


def test_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    outs = []
    for path in (a, b):
        _, out, _ = run_cli(capsys, "ratio", "--f", "sym:0101", "--alg", "lpa",
                            "--cost", "random:5", "--json", str(path))
        outs.append(out)
    assert outs[0] == outs[1]
    assert a.read_bytes() == b.read_bytes()


def test_verify_suite_runs_deterministically(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "lemma2", "--seed", "0")
    code2, out2, _ = run_cli(capsys, "verify", "lemma2", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "suite lemma2: passed" in out1


def test_verify_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


@pytest.mark.parametrize("token, n", [("parity:40", 40), ("sym:" + "01" * 20 + "1", 40),
                                      ("x40", 41)])
def test_tables_past_the_cap_are_refused_before_allocation(capsys, token, n):
    code, _, err = run_cli(capsys, "analyze", "--f", token)
    assert code == 2
    assert err == f"error: instance too large: n={n} exceeds table cap 24\n"


def test_cap_n_zero_is_honoured(capsys):
    code, _, err = run_cli(capsys, "ratio", "--f", "sym:0110", "--cap-n", "0")
    assert code == 2
    assert "n=3 exceeds cap 0" in err


def test_gen_reads_a_wide_dnf_without_building_its_table(capsys):
    code, out, err = run_cli(capsys, "gen", "--f", "x30 & x1")
    assert (code, out, err) == (0, "x1 & x30\n", "")


def test_gen_still_refuses_a_table_past_the_cap(capsys):
    code, out, err = run_cli(capsys, "gen", "--f", "parity:30")
    assert (code, out) == (2, "")
    assert err == "error: instance too large: n=30 exceeds table cap 24\n"


@pytest.mark.parametrize("argv", [
    ("lp", "lpa", "--f", "g", "--alg", "greedy"),
    ("analyze", "--f", "parity:3", "--cost", "nonsense"),
    ("analyze", "--f", "parity:3", "--adversary", "bogus"),
    ("lp", "solve", "--f", "parity:3", "--cost", "unit"),
    ("sym", "--f", "sym:0110", "--alg", "greedy"),
    ("quad", "analyze", "--f", "fstar:2", "--adversary", "winners"),
    ("gen", "--f", "g", "--cost", "unit"),
])
def test_flags_a_verb_ignores_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["parity:0", "x0 | !x0", "sym:11"])
def test_lpa_refuses_a_constant_function(capsys, token):
    code, out, err = run_cli(capsys, "lp", "lpa", "--f", token)
    assert (code, out) == (2, "")
    assert err == "error: the guided-reader bound is undefined for constant functions\n"


def test_ratio_of_the_zero_variable_function_is_one(capsys):
    code, out, err = run_cli(capsys, "ratio", "--f", "parity:0")
    assert (code, err) == (0, "")
    assert "ratio: 1\n" in out and "symmetric formula" not in out


@pytest.mark.parametrize("token, n", [("parity:-1", -1), ("majority:-3", -3)])
def test_negative_variable_counts_are_named(capsys, token, n):
    code, _, err = run_cli(capsys, "analyze", "--f", token)
    assert code == 2
    assert err == f"error: a function needs n >= 0 variables, got n={n}\n"


@pytest.mark.parametrize("argv, verdict", [
    (("--f", "x0 | x1", "--adversary", "winners"),
     "check the winners adversary holds greedy within the formula value: pass (2 <= 2)"),
    (("--f", "sym:00111", "--adversary", "survivors"),
     "check the survivors adversary holds greedy within the formula value: pass (3 <= 3)"),
])
def test_maxterm_adversary_verdict_names_the_adversary_that_ran(capsys, argv, verdict):
    code, out, _ = run_cli(capsys, "ratio", *argv)
    assert code == 0
    assert verdict in out.splitlines()
    assert "symmetric adversary" not in out
