"""Deterministic verification suites behind the ``verify`` command.

Each check replays a fixed battery of instances derived from one seed
and returns a report dictionary: a name, the case count, a pass flag,
and the first few failures spelled out.  Arithmetic is exact, so every
pass is an equality or inequality of rationals, never a tolerance.  The
batteries take about 4 s in all at seed 0 on a 2-CPU machine while
still sweeping every small instance class exhaustively.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import core, harness, lp, quadratic, symmetric
from .core import BooleanFunction, PartialAssignment

__all__ = [
    "SUITE_NAMES",
    "check_counting_determination",
    "check_extremal_spread",
    "check_lp_bounds",
    "check_lpa_restriction_bound",
    "check_maxterm_lower_bound",
    "check_parity",
    "check_pivot_two_phase",
    "check_switch_certification",
    "check_symmetric_formula",
    "run_suite",
]

FAILURE_LIMIT = 12


def _report(name: str, cases: int, failures: list, **extra) -> dict:
    out = {
        "name": name,
        "cases": cases,
        "pass": not failures,
        "failures": failures[:FAILURE_LIMIT],
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# symmetric functions


def _sample_profiles(rng: random.Random, n: int, count: int) -> list:
    seen = set()
    out = []
    full = (1 << (n + 1)) - 1
    while len(out) < count:
        code = rng.getrandbits(n + 1)
        if code in (0, full) or code in seen:
            continue
        seen.add(code)
        out.append(format(code, f"0{n + 1}b"))
    return out


def _symmetric_battery(seed: int):
    """Profiles paired with seeded cost vectors: every non-constant profile
    up to n=7 with five vectors, then 25 sampled profiles at n=8 and n=9
    with ten vectors each."""
    for n in range(1, 8):
        for code in range(1, (1 << (n + 1)) - 1):
            text = format(code, f"0{n + 1}b")
            profile = symmetric.SymmetricProfile.from_string(text)
            rng = random.Random(f"{seed}|symmetric-costs|{text}")
            yield profile, [core.random_cost_vector(n, rng) for _ in range(5)]
    for n in (8, 9):
        sampler = random.Random(f"{seed}|symmetric-profiles|{n}")
        for text in _sample_profiles(sampler, n, 25):
            profile = symmetric.SymmetricProfile.from_string(text)
            rng = random.Random(f"{seed}|symmetric-costs|{text}")
            yield profile, [core.random_cost_vector(n, rng) for _ in range(10)]


def check_symmetric_formula(seed: int) -> dict:
    """Exhaustive greedy ratio, the closed formula, and the forced ratio agree."""
    failures = []
    cases = 0
    for profile, cost_list in _symmetric_battery(seed):
        f = profile.function()
        for costs in cost_list:
            cases += 1
            formula = symmetric.ratio_formula(profile, costs)
            greedy = harness.GreedyStrategy(costs)
            swept = harness.competitive_ratio_exhaustive(greedy, f, costs).ratio
            adversary = symmetric.symmetric_adversary(profile, costs)
            forced = harness.adversarial_ratio(greedy, f, adversary, costs).ratio
            if not formula == swept == forced:
                failures.append(
                    f"profile {profile.text()} costs {core.cost_text(costs)}: formula "
                    f"{harness.ratio_string(formula)}, sweep {harness.ratio_string(swept)}, "
                    f"forced {harness.ratio_string(forced)}")
    return _report("greedy ratio equals the symmetric formula", cases, failures)


def check_extremal_spread(seed: int) -> dict:
    """Extremal costs attain the spread and no tested costs exceed it."""
    failures = []
    cases = 0
    for profile, cost_list in _symmetric_battery(seed):
        s = symmetric.spread(profile)
        cases += 1
        at_extremal = symmetric.ratio_formula(profile, symmetric.extremal_cost_vector(profile))
        if at_extremal != s:
            failures.append(f"profile {profile.text()}: extremal formula "
                            f"{harness.ratio_string(at_extremal)} != spread {s}")
        for costs in cost_list:
            cases += 1
            value = symmetric.ratio_formula(profile, costs)
            if not value <= s:
                failures.append(f"profile {profile.text()} costs {core.cost_text(costs)}: "
                                f"formula {harness.ratio_string(value)} > spread {s}")
    return _report("the spread caps the symmetric formula", cases, failures)


def check_parity(seed: int) -> dict:
    """Parity pays exactly its cheapest proof under any positive costs."""
    failures = []
    cases = 0
    for n in range(2, 11):
        f = core.parity(n)
        if core.max_proof_size(f) != n:
            failures.append(f"parity n={n}: largest proof is not {n}")
        rng = random.Random(f"{seed}|parity|{n}")
        for _ in range(20):
            costs = core.random_cost_vector(n, rng, positive=True)
            cases += 1
            for label, algorithm in (("greedy", harness.GreedyStrategy(costs)),
                                     ("lpa", lp.LpGuidedStrategy(f, costs))):
                ratio = harness.competitive_ratio_exhaustive(algorithm, f, costs).ratio
                if ratio != 1:
                    failures.append(f"parity n={n} {label} costs {core.cost_text(costs)}: "
                                    f"ratio {harness.ratio_string(ratio)}")
    return _report("parity evaluates at ratio one", cases, failures)


def check_counting_determination(seed: int) -> dict:
    """Count-based determination agrees with the completion check."""
    del seed  # the battery is exhaustive
    failures = []
    cases = 0
    for n in range(1, 8):
        for code in range(1 << (n + 1)):
            text = format(code, f"0{n + 1}b")
            profile = symmetric.SymmetricProfile.from_string(text)
            f = profile.function()
            for ones in range(n + 1):
                for zeros in range(n - ones + 1):
                    cases += 1
                    values = {v: 1 for v in range(ones)}
                    values.update({ones + v: 0 for v in range(zeros)})
                    expected = f.is_determined(PartialAssignment.of(n, values))
                    got = symmetric.determined_by_counts(profile, zeros, ones)
                    if expected != got:
                        failures.append(f"profile {text} zeros={zeros} ones={ones}: "
                                        f"counts say {got}, completions say {expected}")
    return _report("count determination matches completions", cases, failures)


# ---------------------------------------------------------------------------
# quadratic functions


def check_pivot_two_phase(seed: int) -> dict:
    """The two-phase reader never pays more than s+1 times the proof."""
    failures = []
    cases = 0
    worst = {}
    for s in (1, 2, 3):
        pairs = quadratic.PivotPairs(s)
        f = pairs.function()
        rng = random.Random(f"{seed}|two-phase|{s}")
        best = Fraction(0)
        for _ in range(20):
            costs = core.random_cost_vector(f.n, rng)
            cases += 1
            ratio = harness.competitive_ratio_exhaustive(
                quadratic.PivotTwoPhase(pairs, costs), f, costs).ratio
            if not ratio <= s + 1:
                failures.append(f"s={s} costs {core.cost_text(costs)}: "
                                f"ratio {harness.ratio_string(ratio)} > {s + 1}")
            elif ratio > best:
                best = ratio
        note = harness.ratio_string(best)
        if not best > s - 1:
            note += " (no tested costs pushed past s-1)"
        worst[str(s)] = note
    return _report("two-phase reader stays within its bound", cases, failures,
                   worst_ratio_by_s=worst)


def check_maxterm_lower_bound(seed: int) -> dict:
    """The charged adversaries force at least a third of the largest maxterm."""
    failures = []
    cases = 0
    instances = []
    for s in range(1, 5):
        pairs = quadratic.PivotPairs(s)
        instances.append((f"pivot pairs s={s}", pairs.function(), pairs))
    rng = random.Random(f"{seed}|quadratic-samples")
    for index in range(200):
        _, f = quadratic.random_quadratic(rng, max_n=8)
        instances.append((f"sample {index} (n={f.n})", f, None))
    for label, f, pairs in instances:
        cases += 1
        analysis = quadratic.maxterm_analysis(f)
        rest = [lit for lit in analysis.maxterm if lit not in analysis.local_winners]
        if 2 * len(analysis.survivors) < len(rest):
            failures.append(f"{label}: {len(analysis.survivors)} survivors for "
                            f"{len(rest)} unclaimed literals")
            continue
        target = Fraction(len(analysis.maxterm), 3)
        charge_runs = []
        for charge in ("winners", "survivors"):
            if charge == "survivors" and not analysis.survivors:
                continue
            costs, adversary = quadratic.maxterm_adversary(f, charge, analysis)
            charge_runs.append((charge, costs, adversary))
        kinds = ["greedy", "lpa"] + (["two-phase"] if pairs is not None else [])
        for kind in kinds:
            best = None
            for charge, costs, adversary in charge_runs:
                if kind == "greedy":
                    algorithm = harness.GreedyStrategy(costs)
                elif kind == "lpa":
                    algorithm = lp.LpGuidedStrategy(f, costs)
                else:
                    algorithm = quadratic.PivotTwoPhase(pairs, costs)
                played = harness.adversarial_ratio(algorithm, f, adversary, costs)
                if f.evaluate(played.worst_assignment) != 1:
                    failures.append(f"{label} {kind} {charge}: the adversary's "
                                    "assignment does not make the function 1")
                if best is None or played.ratio > best:
                    best = played.ratio
            if not best >= target:
                failures.append(f"{label} {kind}: forced {harness.ratio_string(best)} "
                                f"< {target}")
    return _report("maxterm adversaries force a third of the maxterm", cases, failures)


# ---------------------------------------------------------------------------
# covering programs


def _monotone_battery(seed: int) -> tuple[list, list]:
    """Every monotone table on 4 variables, then 50 sampled at n=5,
    constants excluded."""
    codes = np.arange(1 << 16, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(16, dtype=np.int64)[None, :]) & 1
    keep = np.ones(len(codes), dtype=bool)
    for v in range(4):
        low = np.array([x for x in range(16) if not x >> v & 1])
        keep &= (bits[:, low] <= bits[:, low | 1 << v]).all(axis=1)
    mono4 = [BooleanFunction(np.array(row, dtype=bool))
             for row in bits[keep] if 0 < row.sum() < 16]

    rng = random.Random(f"{seed}|monotone-5")
    highs = [np.array([x for x in range(32) if x >> v & 1]) for v in range(5)]
    seen = set()
    mono5 = []
    while len(mono5) < 50:
        table = np.zeros(32, dtype=bool)
        for _ in range(rng.randint(1, 6)):
            table[rng.randrange(32)] = True
        for v, high in enumerate(highs):
            table[high] |= table[high ^ (1 << v)]
        key = table.tobytes()
        if table.all() or key in seen:
            continue
        seen.add(key)
        mono5.append(BooleanFunction(table))
    return mono4, mono5


def check_lp_bounds(seed: int) -> dict:
    """Covering objectives never beat the largest proof and meet it when monotone."""
    failures = []
    cases = 0
    rng = random.Random(f"{seed}|lp-random")
    for index in range(200):
        n = rng.randint(1, 7)
        f = core.random_function(rng, n)
        cases += 1
        objective = lp.lp_objective(f)
        largest = core.max_proof_size(f)
        if not objective <= largest:
            failures.append(f"sample {index} (n={n}): objective {objective} > "
                            f"largest proof {largest}")
    mono4, mono5 = _monotone_battery(seed)
    cases += 1
    if len(mono4) != 166:
        failures.append(f"expected 166 non-constant monotone tables on 4 variables, "
                        f"found {len(mono4)}")
    for index, f in enumerate(mono4 + mono5):
        cases += 1
        sweep = lp.max_restriction_objective(f)
        largest = core.max_proof_size(f)
        if sweep != largest:
            failures.append(f"monotone instance {index} (n={f.n}): sweep {sweep} != "
                            f"largest proof {largest}")
    g = lp.switch_example().function()
    cases += 1
    if not (lp.max_restriction_objective(g) == 3 and core.max_proof_size(g) == 4):
        failures.append("the five-variable switch example does not separate the gauges")
    for k, t in ((1, 1), (1, 2), (2, 1), (1, 3)):
        family = lp.FamilySpec(k, t)
        f = family.function()
        cases += 1
        sweep = lp.max_restriction_objective(f)
        largest = core.max_proof_size(f)
        if sweep != k + t or largest != t * (1 << k):
            failures.append(f"family k={k} t={t}: sweep {sweep} (want {k + t}), "
                            f"largest proof {largest} (want {t * (1 << k)})")
    return _report("covering bounds line up with largest proofs", cases, failures)


def check_lpa_restriction_bound(seed: int) -> dict:
    """The guided reader never exceeds the restriction sweep value."""
    failures = []
    cases = 0
    rng = random.Random(f"{seed}|guided-bound")
    for index in range(50):
        n = rng.randint(2, 6)
        f = core.random_function(rng, n)
        bound = lp.max_restriction_objective(f)
        for _ in range(5):
            costs = core.random_cost_vector(n, rng)
            cases += 1
            ratio = harness.competitive_ratio_exhaustive(
                lp.LpGuidedStrategy(f, costs), f, costs).ratio
            if not ratio <= bound:
                failures.append(f"sample {index} (n={n}) costs {core.cost_text(costs)}: "
                                f"ratio {harness.ratio_string(ratio)} > {bound}")
    return _report("guided reader within the restriction sweep", cases, failures)


def check_switch_certification(seed: int) -> dict:
    """On switch instances the averaged vector, the adversary, and the sweep
    certify the same value."""
    del seed  # the instance list is fixed
    failures = []
    cases = 0
    instances = [("five-variable example", lp.switch_example())]
    for k, t in ((1, 2), (2, 1), (2, 2)):
        instances.append((f"family k={k} t={t}", lp.FamilySpec(k, t).dnf()))
    for label, dnf in instances:
        cases += 1
        entry = []
        try:
            analysis = lp.SwitchAnalysis(dnf)
            f = analysis.f
            target = len(analysis.switches) + analysis.proof_size
            mixed = analysis.mixed_solution()
            if not mixed.objective <= target:
                entry.append(f"averaged vector objective {mixed.objective} vs "
                             f"bound {target}")
            *_, costs, adversary = analysis.certified_switch()
            for kind, algorithm in (("greedy", harness.GreedyStrategy(costs)),
                                    ("lpa", lp.LpGuidedStrategy(f, costs))):
                forced = harness.adversarial_ratio(algorithm, f, adversary, costs).ratio
                if not forced >= target:
                    entry.append(f"{kind} forced only {harness.ratio_string(forced)}")
            sweep = lp.max_restriction_objective(f)
            if sweep != target:
                entry.append(f"sweep {sweep} != {target}")
        except core.PricedBoolError as err:
            entry.append(str(err))
        failures.extend(f"{label}: {text}" for text in entry)
    return _report("switch instances certify their sweep value", cases, failures)


# ---------------------------------------------------------------------------
# suites


SUITES = {
    "symmetric": (check_symmetric_formula, check_extremal_spread, check_parity,
                  check_counting_determination),
    "quadratic": (check_pivot_two_phase, check_maxterm_lower_bound),
    "lp": (check_lp_bounds, check_lpa_restriction_bound),
    "lemma2": (check_switch_certification,),
}

SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one named suite (or ``all``) and return its report dictionary.

    The same seed always yields the same report, byte for byte once
    serialized, because every random draw goes through a stream keyed by
    the seed and the check's own labels.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from " + ", ".join(SUITE_NAMES))
    parts = tuple(SUITES) if name == "all" else (name,)
    checks = [check(seed) for part in parts for check in SUITES[part]]
    return {
        "suite": name,
        "seed": seed,
        "caps": {
            "proof_enumeration": core.PROOF_ENUM_CAP,
            "search": core.SEARCH_CAP,
            "table": core.TABLE_CAP,
        },
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
