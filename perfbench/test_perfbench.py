"""Tests of the benchmark itself: request lists, span accounting, failure counting.

    python3 -m pytest -q perfbench
"""

import math

import client
import workloads
from tracer import Tracer
from workloads import Request

program = client.import_program()


def test_same_seed_same_list_other_seed_same_mix(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.requests(name, 7, 0, 48, str(tmp_path))
        again = workloads.requests(name, 7, 0, 48, str(tmp_path))
        other = workloads.requests(name, 8, 0, 48, str(tmp_path))
        assert first == again
        assert len(other) == len(first)
        assert [(r.kind, r.n) for r in other] == [(r.kind, r.n) for r in first]
        assert other != first


def test_a_later_chunk_continues_the_same_list(tmp_path):
    whole = workloads.requests("guided", 3, 0, 20, str(tmp_path))
    assert workloads.requests("guided", 3, 12, 8, str(tmp_path)) == whole[12:]


def test_self_times_sum_to_the_traced_main_total(tmp_path):
    inputs = client.Inputs("guided", 1, tmp_path, program.core)
    inputs.extend(4)
    tracer = Tracer()
    tracer.install()
    try:
        loop = client.run_loop(inputs, program.cli, None, 4)
        program.cli.main(["ratio", "--f", "sym:0110", "--alg", "greedy", "--cost", "random:1"])
    finally:
        tracer.uninstall()
    assert [rc for rc, _, _ in loop["results"]] == [0, 0, 0, 0]
    rows = tracer.summary()
    main = rows["cli.main"]
    assert main["calls"] == 5
    assert {"simplex.simplex_min", "lp.lp_solution", "harness.run", "core.is_determined"} <= set(rows)
    assert math.isclose(sum(r["self_s"] for r in rows.values()), main["total_s"], rel_tol=1e-9)
    assert all(r["self_s"] >= 0 for r in rows.values())


def test_uninstall_restores_every_binding():
    before = program.cli.main, program.core.BooleanFunction.is_determined, program.lp.simplex_min
    tracer = Tracer()
    tracer.install()
    assert program.lp.simplex_min is not before[2]
    tracer.uninstall()
    after = program.cli.main, program.core.BooleanFunction.is_determined, program.lp.simplex_min
    assert after == before


def test_a_request_that_exits_2_is_one_failure_out_of_all_attempted(tmp_path):
    inputs = client.Inputs("certificates", 0, tmp_path, program.core)
    inputs.extend(4)
    inputs.items[1] = Request(1, "ratio", ("ratio", "--f", "no/such/file"), 0)
    loop = client.run_loop(inputs, program.cli, None, 4)
    assert [rc for rc, _, _ in loop["results"]] == [0, 2, 0, 0]
    failures, _, _ = client.check(inputs, loop["results"])
    assert len(loop["latencies"]) == 4
    assert len(failures) == 1 and "exit 2" in failures[0]


def test_count_is_a_floor_under_the_time_limit_and_fixes_the_rss_reading(tmp_path):
    inputs = client.Inputs("sweep", 2, tmp_path, program.core)
    inputs.extend(4)
    loop = client.run_loop(inputs, program.cli, 0.0, 3)
    assert len(loop["latencies"]) == 3 and loop["peak_rss_kib"] > 0


def test_every_seed_replays_the_reference_prefix(tmp_path, monkeypatch):
    failures, replayed = client.replay_reference("sweep", tmp_path / "ok", program)
    assert failures == [] and replayed == client.REPLAY
    monkeypatch.setattr(client, "load_reference", lambda workload: ["0" * 16] * client.REPLAY)
    failures, _ = client.replay_reference("sweep", tmp_path / "bad", program)
    assert len(failures) == client.REPLAY
    assert all("reference digest" in why for why in failures)


def test_argparse_rejection_is_a_failed_request_not_a_crash():
    latency, rc, _, err = client.call(program.cli.main, ("ratio", "--no-such-flag"))
    assert rc == 2 and latency > 0 and "usage" in err


def test_certificate_oracle_counts_minimal_terms():
    terms = (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({1, 0}))
    assert workloads.minimal_term_count(terms) == 2
    req = Request(0, "analyze", ("analyze",), 4, terms=terms)
    assert workloads.check_certificates(req, "n: 4\nminterms: 2\n") is None
    assert workloads.check_certificates(req, "n: 4\nminterms: 3\n") is not None


def test_covering_oracle_rejects_a_bad_weight_vector():
    f = program.core.majority(3)
    sets = program.core.proof_variable_sets(f)
    good = program.lp.lp_solution(f)
    text = "\n".join([f"objective: {good.objective}", f"rows: {good.row_count}"] +
                     [f"s(x{v}) = {w}" for v, w in enumerate(good.values)]) + "\n"
    assert workloads.check_covering(text, sets, 2) is None
    short = text.replace("s(x0) = 1/2", "s(x0) = 0")
    assert short != text
    assert workloads.check_covering(short, sets, 2) is not None
