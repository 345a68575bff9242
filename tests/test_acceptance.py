"""The acceptance gate: ten checks, one pass/fail line each, exact arithmetic.

Each check either replays a deterministic verification battery at seed 0
or drives the installed command line tool.  Tolerances are zero
throughout; every comparison is an equality or inequality of rationals.
"""

import hashlib
import shutil
import subprocess
import sys
import time

from pricedbool import verify

SEED = 0
# sha256 prefix of the `verify all --seed 0` stdout; any change to the
# verified numbers or their formatting shows up here
VERIFY_ALL_DIGEST = "c3b66a9fb1487a81"


def _gate(label: str, report: dict) -> None:
    status = "pass" if report["pass"] else "FAIL"
    print(f"{status}: {label} [{report['cases']} cases]")
    assert report["pass"], report["failures"]


def test_01_greedy_matches_the_symmetric_formula_everywhere():
    # every non-constant profile to n=7, sampled profiles at n=8 and 9;
    # exhaustive sweep, closed formula, and forced adversary ratio coincide
    _gate("exhaustive greedy ratio equals the closed symmetric formula",
          verify.check_symmetric_formula(SEED))


def test_02_extremal_costs_attain_the_spread_and_nothing_exceeds_it():
    _gate("the spread is attained at extremal costs and never exceeded",
          verify.check_extremal_spread(SEED))


def test_03_parity_evaluates_at_ratio_one_with_full_proofs():
    # n = 2..10, twenty strictly positive cost vectors each, both readers
    _gate("parity pays exactly its cheapest proof and needs all n variables",
          verify.check_parity(SEED))


def test_04_two_phase_reader_stays_within_its_additive_bound():
    report = verify.check_pivot_two_phase(SEED)
    _gate("the two-phase reader is (s+1)-competitive on pivot pairs", report)
    # evidence the bound bites: the worst tested ratio per group size,
    # annotated when no cost vector pushed past s-1
    print("    worst observed ratios:", report["worst_ratio_by_s"])


def test_05_maxterm_adversaries_force_a_third_of_the_maxterm():
    _gate("charged adversaries force ratio >= largest maxterm / 3",
          verify.check_maxterm_lower_bound(SEED))


def test_06_count_determination_matches_exhaustive_completions():
    _gate("count-based determination agrees with completion search",
          verify.check_counting_determination(SEED))


def test_07_covering_bounds_line_up_with_largest_proofs():
    # objective <= PROOF always; sweep = PROOF on monotone instances;
    # the five-variable example and the switch families split the gauges
    _gate("covering objectives and sweeps sit where the proofs put them",
          verify.check_lp_bounds(SEED))


def test_08_guided_reader_never_exceeds_the_restriction_sweep():
    _gate("the guided reader is bounded by the restriction sweep value",
          verify.check_lpa_restriction_bound(SEED))


def test_09_switch_instances_certify_their_sweep_value():
    _gate("switch families certify sweep = switches + branch proof size",
          verify.check_switch_certification(SEED))


def test_10_full_verification_is_deterministic_and_fast():
    command = [shutil.which("pricedbool") or sys.executable]
    if command == [sys.executable]:
        command += ["-m", "pricedbool.cli"]
    command += ["verify", "all", "--seed", str(SEED)]
    started = time.monotonic()
    first = subprocess.run(command, capture_output=True, timeout=1800)
    second = subprocess.run(command, capture_output=True, timeout=1800)
    elapsed = time.monotonic() - started
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and elapsed < 1800)
    print(f"{'pass' if ok else 'FAIL'}: full verification is byte-stable "
          f"[2 runs, {elapsed:.1f}s]")
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest()[:16] == VERIFY_ALL_DIGEST
    assert elapsed < 1800
