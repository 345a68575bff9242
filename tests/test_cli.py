"""The command line surface: pinned outputs, exit codes, report determinism."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricedbool import cli
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
    for source, report in (("majority:3", ["n: 3", "PROOF: 2"]),
                           ("parity:0", ["n: 0", "constant: 0"]),
                           ("majority:0", ["n: 0", "constant: 0"])):
        code, out, _ = run_cli(capsys, "gen", "--f", source)
        assert code == 0
        path = tmp_path / "f.txt"
        path.write_text(out)
        code, out2, err = run_cli(capsys, "analyze", "--f", str(path))
        assert code == 0, (source, err)
        assert out2.splitlines()[:2] == report, (source, out2)


@pytest.mark.parametrize("text", ["3\n0x_f\n", "3\n-0\n", "3\n+f\n", "3\nf_f\n", "1\n0X1\n",
                                  "\u0662\nf\n", "2\n\u0661\n"], ids=repr)
def test_table_files_take_plain_ascii_digits_only(capsys, tmp_path, text):
    # int() reads all of these: signs, "_", "0x" and Arabic-Indic digits
    path = tmp_path / "f.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gen", "--f", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and ("bad variable count" in err or "not hex" in err)


@pytest.mark.parametrize("argv", [("analyze", "--f", "x\u0663 & x1 | x0"),
                                  ("gen", "--f", "x\uff11 | x0")], ids=repr)
def test_dnf_variable_indices_take_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected literal" in err


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


_INTEGER_OPTIONS = [
    ("ratio", "--f", "x0 | x1", "--cost", "random", "--seed"),
    ("gen", "--f", "g", "--seed"),
    ("verify", "lemma2", "--seed"),
    ("analyze", "--f", "x0 | x1", "--cap-n"),
    ("quad", "fstar", "--s"),
]


@pytest.mark.parametrize("value", ["\u0663", "\uff13", " 3 ", "3_0", "+3"])
@pytest.mark.parametrize("argv", _INTEGER_OPTIONS)
def test_integer_options_take_ascii_digits_only(argv, value):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, value])
    assert exit_info.value.code == 2


def test_a_seed_has_no_sign():
    for argv in [a for a in _INTEGER_OPTIONS if a[-1] == "--seed"]:
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "-5"])
        assert exit_info.value.code == 2


def test_ascii_integer_options_still_parse(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--f", "x0 | x1", "--cost", "random",
                           "--seed", "3", "--cap-n", "03")
    assert (code, out) == run_cli(capsys, "ratio", "--f", "x0 | x1", "--cost", "random:3")[:2]
    assert code == 0
    for s in ("0", "-1"):
        code, _, err = run_cli(capsys, "quad", "fstar", "--s", s)
        assert (code, err) == (2, "error: the pivot family needs s >= 1\n")


@pytest.mark.parametrize("argv", [("lp", "solve", "--f", "majority:3"),
                                  ("quad", "analyze", "--f", "fstar:2")])
def test_proof_enumerating_verbs_honour_cap_n(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--cap-n", "0")
    assert (code, out) == (2, "")
    assert "exceeds cap 0" in err


def test_gen_reads_a_wide_dnf_without_building_its_table(capsys):
    code, out, err = run_cli(capsys, "gen", "--f", "x30 & x1")
    assert (code, out, err) == (0, "x1 & x30\n", "")


def test_gen_still_refuses_a_table_past_the_cap(capsys):
    code, out, err = run_cli(capsys, "gen", "--f", "parity:30")
    assert (code, out) == (2, "")
    assert err == "error: instance too large: n=30 exceeds table cap 24\n"


@pytest.mark.parametrize("argv, n", [(("gen", "--f", "fstar:100000000"), 200000001),
                                     (("analyze", "--f", "family:22,1"), 4194326)])
def test_generator_parameters_meet_the_table_cap_before_the_dnf(capsys, argv, n):
    # the DNF alone would hold 10**8 terms, or 2**22 terms of 23 literals
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: instance too large: n={n} exceeds table cap 24\n"


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


# an Arabic-Indic three and a fullwidth one: str.isdigit() and int() take both
@pytest.mark.parametrize("token", ["fstar:\u0663", "parity:\uff13", "majority:-\u0663",
                                   "family:1,\u0662", "family:\uff11,1"])
def test_generator_parameters_take_ascii_digits_only(capsys, token):
    code, out, err = run_cli(capsys, "gen", "--f", token)
    name = token.split(":")[0]
    assert (code, out) == (2, "")
    assert err.startswith(f"error: generator {name} needs {name}:<int>")
    assert err.endswith(f"got {token!r}\n")


@pytest.mark.parametrize("token", ["random:\u0663", "random:-3", "random:+3", "random:3_0",
                                   "random:abc", "random:"])
def test_random_cost_seeds_take_ascii_digits_only(capsys, token):
    code, out, err = run_cli(capsys, "ratio", "--f", "x0 | x1", "--cost", token)
    assert (code, out) == (2, "")
    assert err == (f"error: unknown cost source {token!r}; use unit, extremal, "
                   "random:<seed>, or a JSON object\n")


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


def _outcome(argv):
    """Exit code, stdout and stderr of one in-process run; argparse exits count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


_MIXED = [
    ("analyze", "--f", "fstar:2"),
    ("--version",),
    ("lp", "solve", "--f", "majority:3"),
    ("ratio", "--f", "sym:0110", "--cost", "nope"),
    ("lp", "delta", "--f", "g", "--cost", "unit"),
    ("nosuchverb",),
    ("--help",),
    ("sym", "--f", "majority:4", "--seed", "x"),
    ("lp", "--help"),
    ("analyze", "--f", "x0 & x1 | x2"),
]


def test_the_parser_is_built_once_and_gives_fresh_bytes(monkeypatch):
    fresh = []
    for argv in _MIXED:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_outcome(argv))
    assert {code for code, _, _ in fresh} == {0, 2}
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(2):
        assert [_outcome(argv) for argv in _MIXED] == fresh
    assert len(builds) == 1


# Command lines of random verbs and --f/--cost/--cap-n tokens, all with n <= 6.
# Each verb carries whether it takes --cost, so most lines get past argparse.
_VERBS = st.sampled_from([
    (("analyze",), False), (("ratio",), True), (("ratio", "--alg", "bf2"), True),
    (("ratio", "--alg", "lpa"), True), (("ratio", "--adversary", "symmetric"), True),
    (("ratio", "--adversary", "winners"), True), (("lp", "solve"), False),
    (("lp", "delta"), False), (("lp", "lpa"), True), (("lp", "family"), False),
    (("lp", "lemma2"), False), (("quad", "analyze"), False), (("sym",), True),
    (("gen",), False), (("lp",), False), (("nosuchverb",), False),
])
_SMALL = st.integers(-2, 6)
_LITERAL = st.tuples(st.sampled_from(["", "!"]), st.integers(0, 5)).map("{0[0]}x{0[1]}".format)
_DNF = st.lists(st.lists(_LITERAL, min_size=1, max_size=3).map(" & ".join),
                min_size=1, max_size=4).map(" | ".join)
_F = st.one_of(
    _SMALL.map("majority:{}".format), _SMALL.map("parity:{}".format),
    st.text("01", max_size=7).map("sym:{}".format),
    st.sampled_from(["family:1,1", "family:1,2", "family:2,1", "family:0,1", "family:1,x",
                     "fstar:1", "fstar:2", "fstar:0", "fstar:", "g"]),
    _DNF,
    st.text("x012345!&| ", max_size=12).filter(lambda t: not re.search(r"\d\d", t)),
)
_COST_VALUE = st.one_of(st.integers(-2, 9), st.sampled_from(["1/2", "1/0", "x", "", "0.5"]))
_COST = st.one_of(
    st.sampled_from(["unit", "extremal", "random", "random:3", "random:-1", "random:x",
                     "{}", "[1]", "{bad", "nope"]),
    st.lists(_COST_VALUE, max_size=7).map(
        lambda values: json.dumps({f"x{v}": c for v, c in enumerate(values)})),
)
_CAP = st.integers(-2, 8).map(str) | st.just("x")


@settings(max_examples=120, deadline=None)
@given(_VERBS, _F, st.none() | _COST, st.none() | _CAP)
def test_random_command_lines_keep_the_error_contract(verb, f, cost, cap):
    words, takes_cost = verb
    argv = [*words, "--f", f]
    if cost is not None and takes_cost:
        argv += ["--cost", cost]
    if cap is not None:
        argv += ["--cap-n", cap]
    code, _, err = _outcome(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


@pytest.mark.parametrize("exc, line", [
    (KeyError("x3"), "error: internal error: KeyError: 'x3'\n"),
    (ZeroDivisionError("division by zero"),
     "error: internal error: ZeroDivisionError: division by zero\n"),
])
def test_an_escaped_fault_is_a_named_exit_2(monkeypatch, exc, line):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "sym", broken)
    code, out, err = _outcome(["sym", "--f", "majority:3"])
    assert (code, out, err) == (2, "", line)
