"""One benchmark client: a fresh interpreter that sets up, runs requests and checks them.

    python3 perfbench/client.py --workload W --seed N --mode setup|run|traced|record
                                [--seconds S] [--count K]

Set-up imports pricedbool from the checkout's src/ and materializes the
first chunk of the workload's request list (argv and table files).  The
client then calls pricedbool.cli.main(argv) on one request after the
other, closed loop, with stdout and stderr captured:

  setup    stop after set-up
  run      run requests until --seconds have passed and --count are done
  traced   the same, with spans recorded
  record   run the first --count requests and print their stdout digests,
           the reference that later runs of seed 0 are compared against

Outputs are checked after the loop, outside the timed region.  A run of
any other seed than 0 then also replays the first REPLAY requests of seed
0 and compares their stdout with the stored digests, so the exact-output
check holds whatever seed is asked for.  The last line of stdout is one
JSON object for perfbench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CHUNK = 128
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 0
REPLAY = 8


class Inputs:
    """The materialized prefix of one workload's request list."""

    def __init__(self, workload: str, seed: int, table_dir: Path, core):
        self.workload, self.seed = workload, seed
        self.table_dir = table_dir
        self.core = core
        self.items: list[workloads.Request] = []

    def function(self, req: workloads.Request):
        return self.core.BooleanFunction([req.table >> b & 1 for b in range(1 << req.n)])

    def extend(self, count: int = CHUNK) -> None:
        batch = workloads.requests(self.workload, self.seed, len(self.items), count,
                                   str(self.table_dir))
        for req in batch:
            if req.table is not None:
                Path(req.path).write_text(self.core.table_to_text(self.function(req)))
        self.items.extend(batch)


def import_program():
    """Import pricedbool from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "pricedbool" / "__init__.py").is_file():
        raise SystemExit(f"no pricedbool sources under {src}")
    sys.path.insert(0, str(src))
    import pricedbool.cli
    import pricedbool.core
    if Path(pricedbool.__file__).resolve().parent != (src / "pricedbool").resolve():
        raise SystemExit(f"imported pricedbool from {pricedbool.__file__}, not {src}")
    return pricedbool


def call(main, argv) -> tuple[float, int, str, str]:
    """One request: latency, exit code, captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as e:       # argparse rejects bad argv this way
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:        # the loop must go on; the request counts as failed
        rc = -1
        err.write(f"{type(e).__name__}: {e}\n")
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_loop(inputs: Inputs, cli, seconds: float | None, count: int | None) -> dict:
    """Closed loop over the request list, until `seconds` have passed and `count` are done.

    A limit left as None is met from the start.  The peak RSS is read when
    request `count` returns, so it does not depend on how many requests the
    time allowed.
    """
    latencies, results = [], []
    building = 0.0
    peak_kib = None
    start = time.perf_counter()
    while True:
        i = len(latencies)
        if i == count:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if ((count is None or i >= count) and
                (seconds is None or time.perf_counter() - start - building >= seconds)):
            break
        if i == len(inputs.items):
            t = time.perf_counter()
            inputs.extend()
            building += time.perf_counter() - t
        latency, rc, out, err = call(cli.main, inputs.items[i].argv)
        latencies.append(latency)
        results.append((rc, out, err))
    wall = time.perf_counter() - start - building
    if peak_kib is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies": latencies, "results": results, "wall_s": wall, "peak_rss_kib": peak_kib}


def load_reference(workload: str) -> list[str]:
    return json.loads(REFERENCE.read_text()).get(workload, [])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(inputs: Inputs, results) -> tuple[list[str], str, int]:
    """Failure reasons (one per failed request), the run digest, and digests compared."""
    core = inputs.core
    reference = load_reference(inputs.workload) if inputs.seed == REFERENCE_SEED else []
    failures = []
    run_hash = hashlib.sha256()
    for req, (rc, out, err) in zip(inputs.items, results):
        run_hash.update(out.encode() + b"\0")
        why = None
        if rc != 0:
            why = f"exit {rc}: {err.strip()[:200]}"
        elif inputs.workload == "covering":
            f = inputs.function(req)
            why = workloads.check_covering(out, core.proof_variable_sets(f),
                                           core.max_proof_size(f))
        elif inputs.workload == "certificates":
            why = workloads.check_certificates(req, out)
        if why is None and req.index < len(reference) and digest(out) != reference[req.index]:
            why = "stdout differs from the reference digest"
        if why is not None:
            failures.append(f"request {req.index} ({' '.join(req.argv)[:80]}): {why}")
    return failures, run_hash.hexdigest()[:16], min(len(results), len(reference))


def replay_reference(workload: str, table_dir: Path, program) -> tuple[list[str], int]:
    """Run the first REPLAY requests of the reference seed; failures and requests run."""
    table_dir.mkdir(exist_ok=True)
    inputs = Inputs(workload, REFERENCE_SEED, table_dir, program.core)
    inputs.extend(REPLAY)
    loop = run_loop(inputs, program.cli, None, REPLAY)
    failures, _, _ = check(inputs, loop["results"])
    return [f"reference {why}" for why in failures], REPLAY


def per_layer(tracer) -> dict:
    rows = tracer.summary()

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    out = {}
    for name in ("harness.run", "harness.next_query", "core.is_determined",
                 "core.minimal_witness_domains", "simplex.simplex_min", "simplex.simplex_max",
                 "core.restrict", "lp.solve_lp", "lp.lpa_next_query", "lp.lp_solution",
                 "lp.lp_objective"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("harness.run", "harness.next_query", "harness.competitive_ratio_exhaustive",
                 "core.is_determined", "core.cheapest_proof_costs", "core.minterms",
                 "core.maxterms", "core.enumerate_proofs", "core.minimal_witness_domains",
                 "simplex.simplex_min", "simplex.simplex_max", "lp.solve_lp", "lp.build_lp",
                 "lp.max_restriction_objective", "lp.lpa_next_query",
                 "symmetric.profile_of", "symmetric.ratio_formula", "cli.main"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["simplex.tableau_cells"] = tracer.tableau_cells
    for name, child in (("lp.lp_solution", "lp.solve_lp"), ("lp.lp_objective", "lp.build_lp")):
        calls = get(name, "calls")
        out[f"{name}.hit_ratio"] = tracer.calls_without_child(name, child) / calls if calls else 0.0
    out["cli.main.total_s"] = get("cli.main", "total_s")
    out["self_s_by_layer"] = by_layer(rows)
    out["self_s_by_function"] = {name: row["self_s"] for name, row in rows.items()}
    return out


def by_layer(rows: dict) -> dict:
    """Self seconds summed per layer (the part of a span name before the first dot)."""
    out: dict[str, float] = {}
    for name, row in rows.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "traced", "record"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    args = ap.parse_args(argv)

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        program = import_program()
        inputs = Inputs(args.workload, args.seed, work, program.core)
        inputs.extend()
        ready = time.monotonic()
        result: dict = {"ready_at": ready}
        if args.mode != "setup":
            tracer = None
            if args.mode == "traced":
                tracer = Tracer()
                tracer.install()
            try:
                loop = run_loop(inputs, program.cli, args.seconds, args.count)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            failures, run_digest, compared = check(inputs, loop["results"])
            replayed = 0
            if args.mode != "record" and args.seed != REFERENCE_SEED:
                more, replayed = replay_reference(args.workload, work / "reference", program)
                failures += more
            result.update(latencies=loop["latencies"], wall_s=loop["wall_s"],
                          attempted=len(loop["latencies"]) + replayed, failed=len(failures),
                          failures=failures[:5], digest=run_digest,
                          digests_compared=compared + replayed, peak_rss_kib=loop["peak_rss_kib"])
            if tracer is not None:
                result["per_layer"] = per_layer(tracer)
            if args.mode == "record":
                if failures:
                    raise SystemExit("not recording a failing run:\n" + "\n".join(failures))
                result = {"digests": [digest(out) for _, out, _ in loop["results"]]}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()     # only once no other client is using it


if __name__ == "__main__":
    sys.exit(main())
