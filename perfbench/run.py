"""The pricedbool benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep|covering|guided|certificates
                             --seed N --seconds S --trace 0|1

Every measurement happens in a fresh interpreter (perfbench/client.py),
one process at a time, so the program's process-lifetime caches start
empty and nothing else competes for the two cores:

  --trace 0  SETUP_REPEATS set-up-only clients, then one timed client that
             runs the closed request loop for S seconds and at least
             MIN_REQUESTS requests.  Prints the end-to-end metrics.
  --trace 1  one untraced client on the first TRACE_REQUESTS requests, then
             one traced client on the same requests.  Prints the per-layer
             metrics of the traced client and the tracing overhead between
             the two.

All clients of a run share one deadline, RUN_BUDGET_S after the start; a
client still running then fails the run.

Lines before the last are a readable report; the last line is the JSON
result.  A run whose requests failed still prints its result, with
"correct": false.  A run that could not measure exits nonzero without a
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 4
MIN_REQUESTS = 128        # >= 100 latencies for p90, and the request at which RSS is read
TRACE_REQUESTS = 64
RUN_BUDGET_S = 170
DEADLINE = time.monotonic() + RUN_BUDGET_S

END_TO_END_UNITS = {"requests_per_s": "1/s", "request_s_p50": "s", "request_s_p90": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def client(workload: str, seed: int, mode: str, *extra: str) -> tuple[dict, float]:
    """Run one client to completion; its JSON result and its set-up seconds."""
    argv = [sys.executable, str(HERE / "client.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE - started))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"client {mode} timed out after {e.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"client {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["ready_at"] - started


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setups = [client(workload, seed, "setup")[1] for _ in range(SETUP_REPEATS)]
    run, setup = client(workload, seed, "run", "--seconds", str(seconds),
                        "--count", str(MIN_REQUESTS))
    setups.append(setup)
    lat = run["latencies"]
    values = {
        "requests_per_s": len(lat) / run["wall_s"],
        "request_s_p50": statistics.median(lat),
        "request_s_p90": quantile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_kib"] / 1024,
    }
    metrics = {name: metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}
    info = {"requests": len(lat), "beyond_p90": sum(1 for x in lat if x > values["request_s_p90"]),
            "setup_samples": len(setups)}
    return metrics, {**run, **info}


LAYER_UNITS = (("calls", "count"), ("self_s", "s"), ("hit_ratio", "1"), ("tableau_cells", "count"))


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Per-layer metrics from a fixed count of requests; `seconds` plays no part."""
    plain, _ = client(workload, seed, "run", "--count", str(TRACE_REQUESTS))
    run, _ = client(workload, seed, "traced", "--count", str(TRACE_REQUESTS))
    layers = run.pop("per_layer")
    by_layer = layers.pop("self_s_by_layer")
    by_function = layers.pop("self_s_by_function")
    main_total = layers.pop("cli.main.total_s")
    metrics = {name: metric(v, layer_unit(name)) for name, v in sorted(layers.items())}
    overhead = TRACE_REQUESTS / plain["wall_s"] - TRACE_REQUESTS / run["wall_s"]
    metrics["trace.overhead_requests_per_s"] = metric(overhead, "1/s")
    failures = plain["failures"] + run["failures"]
    failed = plain["failed"] + run["failed"]
    if run["digest"] != plain["digest"]:
        failures.append("the traced client printed other output than the untraced one")
        failed = plain["failed"] + run["attempted"]
    info = {**run, "attempted": run["attempted"] + plain["attempted"], "failed": failed,
            "failures": failures, "self_s_by_layer": by_layer, "self_s_by_function": by_function,
            "cli_main_total_s": main_total}
    return metrics, info


def report(workload: str, seed: int, metrics: dict, info: dict) -> list[str]:
    lines = [f"workload {workload}  seed {seed}  requests {info['attempted']}  "
             f"failed {info['failed']}  failed_ratio {info['failed'] / info['attempted']:.4f} 1"]
    if "beyond_p90" in info:
        lines.append(f"  latency samples {info['requests']} ({info['beyond_p90']} beyond p90); "
                     f"setup samples {info['setup_samples']}")
    for name, m in metrics.items():
        lines.append(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if "self_s_by_layer" in info:
        total = info["cli_main_total_s"] or 1.0
        for what in ("layer", "function"):
            shares = sorted(info[f"self_s_by_{what}"].items(), key=lambda kv: -kv[1])[:6]
            lines.append(f"  self-time share by {what}: " +
                         ", ".join(f"{name} {100 * s / total:.1f}%" for name, s in shares))
    lines.append(f"  stdout digest {info['digest']}; {info['digests_compared']} requests "
                 "compared with the reference digests")
    lines += [f"  FAILED {why}" for why in info["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pricedbool" / "__init__.py").is_file():
        print(f"error: no pricedbool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    try:
        metrics, info = measure(args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in report(args.workload, args.seed, metrics, info):
        print(line)
    print(json.dumps({"correct": info["failed"] == 0, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
