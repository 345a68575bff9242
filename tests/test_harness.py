"""The evaluation harness: transcripts, exhaustive ratios, adversary plumbing."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from pricedbool.core import (
    BooleanFunction,
    ContractViolation,
    CostVector,
    PartialAssignment,
    _scaled_costs,
    cheapest_proof_costs,
    majority,
    parity,
    parse_dnf,
    random_cost_vector,
    random_function,
    unit_costs,
)
from pricedbool.harness import (
    _walk,
    adversarial_ratio,
    competitive_ratio_exhaustive,
    greedy_strategy,
    ratio_of,
    ratio_string,
    run,
)
from pricedbool.lp import SwitchAnalysis, lp_guided_strategy, make_switch_family, switch_example
from pricedbool.quadratic import make_pivot_pairs, maxterm_adversary, pivot_two_phase
from pricedbool.symmetric import SymmetricProfile

MAJ3 = majority(3)


class _Order:
    """Reads a fixed variable order, whatever the answers."""

    def __init__(self, order):
        self.order = tuple(order)

    def next_query(self, mask, bits):
        if mask.bit_count() >= len(self.order):
            raise ContractViolation("the order ran out of reads")
        return self.order[mask.bit_count()]


def test_run_stops_at_determination():
    # greedy on AND at (1, 0): must read both? no, x0=1 does not settle it
    f = parse_dnf("x0 & x1").function()
    t = run(greedy_strategy(unit_costs(2)), f, PartialAssignment.of(2, {0: 1, 1: 0}),
            unit_costs(2))
    assert [r.variable for r in t.reads] == [0, 1]
    assert t.final_value == 0 and t.total_cost == 2
    # undetermined before the last read, forced to the final value by it
    part = PartialAssignment.of(2, {0: 1})
    assert f.is_determined(part) is None
    assert f.is_determined(part.bind(1, 0)) == t.final_value


def test_run_skips_nothing_needed():
    f = parse_dnf("x0 & x1").function()
    t = run(greedy_strategy(unit_costs(2)), f, PartialAssignment.of(2, {0: 0, 1: 1}),
            unit_costs(2))
    assert [r.variable for r in t.reads] == [0]  # x0=0 settles AND


def test_greedy_order_breaks_ties_by_index():
    alg = greedy_strategy(CostVector.of([3, 1, 1]))
    assert alg.next_query(0, 0) == 1
    assert alg.next_query(0b010, 0) == 2
    assert alg.next_query(0b010, 0b010) == 2


def test_replay_exhaustion_is_a_contract_violation():
    f = parity(3)
    with pytest.raises(ContractViolation, match="ran out"):
        run(_Order([0]), f, PartialAssignment.full_from_index(3, 5),
            unit_costs(3))


def test_double_read_is_a_contract_violation():
    f = parity(2)
    with pytest.raises(ContractViolation, match="twice"):
        run(_Order([0, 0]), f, PartialAssignment.full_from_index(2, 0),
            unit_costs(2))


def test_ratio_conventions():
    assert ratio_of(Fraction(0), Fraction(0)) == 1
    assert ratio_of(Fraction(3), Fraction(0)) == math.inf
    assert ratio_of(Fraction(3), Fraction(2)) == Fraction(3, 2)
    assert ratio_string(math.inf) == "inf"
    assert ratio_string(Fraction(3, 2)) == "3/2"


def test_exhaustive_greedy_on_majority_unit():
    rep = competitive_ratio_exhaustive(greedy_strategy(unit_costs(3)), MAJ3,
                                       unit_costs(3))
    assert rep.ratio == Fraction(3, 2)
    assert rep.algorithm_cost == 3 and rep.proof_cost == 2


def test_free_variable_left_unread_gives_infinite_ratio():
    # x1 is irrelevant and expensive; the fixed order pays it anyway
    f = parse_dnf("x0", n=2).function()
    costs = CostVector.of([0, 5])
    rep = competitive_ratio_exhaustive(_Order([1, 0]), f, costs)
    assert rep.ratio == math.inf


def test_ratio_report_json_is_all_strings():
    rep = competitive_ratio_exhaustive(greedy_strategy(unit_costs(3)), MAJ3,
                                       unit_costs(3))
    out = rep.to_json()
    assert out["ratio"] == "3/2"
    assert out["alg_cost"] == "3" and out["proof_cost"] == "2"
    assert set(out["worst_assignment"]) <= {"0", "1"}


def test_adversary_answers_must_be_consistent():
    class Liar:
        def answer(self, variable, mask, bits):
            return 0

        def finalize(self, mask, bits):
            return PartialAssignment.of(2, {0: 1, 1: 1})  # contradicts its answers

    f = parse_dnf("x0 & x1").function()
    with pytest.raises(ContractViolation, match="finalize"):
        adversarial_ratio(greedy_strategy(unit_costs(2)), f, Liar(), unit_costs(2))


@pytest.mark.parametrize("var", [0, 1, 2])
def test_finalize_contradicting_one_answer_raises_only_if_it_was_read(var):
    # greedy reads x0 = x1 = 1 and stops; x2 stays unread, so only it may change
    class FlipOne:
        def answer(self, variable, mask, bits):
            return 1

        def finalize(self, mask, bits):
            return PartialAssignment.full_from_index(3, 0b111 ^ 1 << var)

    play = (greedy_strategy(unit_costs(3)), MAJ3, FlipOne(), unit_costs(3))
    if var == 2:
        assert adversarial_ratio(*play).worst_assignment.bit_string() == "110"
    else:
        with pytest.raises(ContractViolation, match="finalize contradicts an answer"):
            adversarial_ratio(*play)


def test_adversarial_ratio_never_beats_exhaustive():
    rng = random.Random(13)
    for _ in range(10):
        f = random_function(rng, 4)
        costs = random_cost_vector(4, rng, positive=True)

        class Fixed:
            """Answer from a fixed assignment; a legal if toothless adversary."""

            def __init__(self, full):
                self.full = full

            def answer(self, variable, mask, bits):
                return self.full.value(variable)

            def finalize(self, mask, bits):
                return self.full

        full = PartialAssignment.full_from_index(4, rng.randrange(16))
        forced = adversarial_ratio(greedy_strategy(costs), f, Fixed(full), costs)
        sweep = competitive_ratio_exhaustive(greedy_strategy(costs), f, costs)
        assert forced.ratio <= sweep.ratio
        assert forced.algorithm_cost == run(greedy_strategy(costs), f, full, costs).total_cost


def _flip_last_adversaries():
    for label, analysis in (("g", SwitchAnalysis(switch_example())),
                            ("family:1,2", SwitchAnalysis(make_switch_family(1, 2).dnf()))):
        yield label, analysis.certified_switch()[4]
    for s in (1, 2, 3):
        for charge in ("winners", "survivors"):
            yield f"fstar:{s} {charge}", maxterm_adversary(make_pivot_pairs(s).function(),
                                                           charge)[1]


FLIP_LAST = dict(_flip_last_adversaries())


@pytest.mark.parametrize("label", FLIP_LAST)
def test_flip_last_adversary_flips_only_the_last_tracked_read(label):
    adversary = FLIP_LAST[label]
    rng = random.Random(label)
    base, n = adversary.base, adversary.base.n
    tracked = [v for v in range(n) if adversary.tracked >> v & 1]
    untracked = [v for v in range(n) if not adversary.tracked >> v & 1]
    assert tracked and base.is_full
    for order in itertools.permutations(tracked):
        reads = list(order)
        for var in rng.sample(untracked, len(untracked)):
            reads.insert(rng.randint(0, len(reads)), var)
        part = PartialAssignment(n)
        for var in reads:
            val = adversary.answer(var, part.mask, part.bits)
            flipped = var == order[-1]
            assert val == base.value(var) ^ flipped, (order, part, var)
            part = part.bind(var, val)
            full = adversary.finalize(part.mask, part.bits)
            assert full.is_full and full.n == n
            assert all(full.value(v) == b for v, b in part.items())
            assert all(full.value(v) == base.value(v) for v in range(n)
                       if part.value(v) is None)


def test_adversarial_ratio_rejects_mismatched_costs():
    class Zeros:
        def answer(self, variable, mask, bits):
            return 0

        def finalize(self, mask, bits):
            return PartialAssignment.full_from_index(2, 0)

    f = parse_dnf("x0 & x1").function()
    with pytest.raises(ValueError, match="mismatched sizes"):
        adversarial_ratio(greedy_strategy(unit_costs(3)), f, Zeros(), unit_costs(3))


# ---------------------------------------------------------------------------
# the decision-tree walk against one run per assignment


def _loop_report(algorithm, f, costs):
    """The exhaustive sweep done the slow way: `run` on every assignment.
    Returns the worst (ratio, assignment, paid, proof) and what each paid."""
    proof = cheapest_proof_costs(f, costs)
    worst, paid = None, []
    for index in range(1 << f.n):
        assignment = PartialAssignment.full_from_index(f.n, index)
        paid.append(run(algorithm, f, assignment, costs).total_cost)
        r = ratio_of(paid[index], proof[index])
        if worst is None or r > worst[0]:
            worst = (r, assignment, paid[index], proof[index])
    return worst, paid


def _cost_kinds(n, rng):
    """Random, unit, zero-heavy and huge-numerator costs over n variables."""
    return (random_cost_vector(n, rng),
            unit_costs(n),
            CostVector.of(rng.choice((0, 0, 0, 1, 3)) for _ in range(n)),
            CostVector.of(Fraction(10 ** 30 + rng.randint(0, 9), rng.choice((7, 11, 97, 101)))
                          for _ in range(n)))


def _assert_walk_matches_loop(make_algorithm, f, costs):
    rep = competitive_ratio_exhaustive(make_algorithm(costs), f, costs)
    worst, paid = _loop_report(make_algorithm(costs), f, costs)
    assert (rep.ratio, rep.worst_assignment, rep.algorithm_cost, rep.proof_cost) == worst, \
        (f, costs)
    assert type(rep.algorithm_cost) is Fraction and type(rep.proof_cost) is Fraction
    scaled, scale = _scaled_costs(costs)
    walked = _walk(make_algorithm(costs), f, scaled)
    assert [Fraction(a, scale) for a in walked] == paid, (f, costs)


def test_walk_matches_the_loop_on_every_small_symmetric_profile():
    rng = random.Random(71)
    count = 0
    for n in range(1, 7):
        for code in range(1 << (n + 1)):
            f = SymmetricProfile(tuple(code >> k & 1 for k in range(n + 1))).function()
            for costs in _cost_kinds(n, rng):
                _assert_walk_matches_loop(greedy_strategy, f, costs)
            count += 1
    assert count == 252


def test_walk_matches_the_loop_on_random_tables():
    rng = random.Random(72)
    for trial in range(200):
        n = rng.randint(1, 6)
        f = random_function(rng, n, nonconstant=trial % 10 != 0)
        costs = _cost_kinds(n, rng)[trial % 4]
        _assert_walk_matches_loop(greedy_strategy, f, costs)


def test_walk_matches_the_loop_for_the_two_phase_reader():
    rng = random.Random(73)
    for s in (1, 2, 3):
        pairs = make_pivot_pairs(s)
        for costs in _cost_kinds(pairs.n, rng):
            _assert_walk_matches_loop(lambda c: pivot_two_phase(pairs, c), pairs.function(), costs)


def test_walk_matches_the_loop_for_the_guided_reader():
    rng = random.Random(74)
    for n in range(1, 6):
        for costs in _cost_kinds(n, rng):
            f = random_function(rng, n)
            _assert_walk_matches_loop(lambda c: lp_guided_strategy(f, c), f, costs)


def test_walk_on_a_function_without_variables():
    for value in (0, 1):
        f = BooleanFunction([value])
        rep = competitive_ratio_exhaustive(greedy_strategy(unit_costs(0)), f, unit_costs(0))
        assert rep.ratio == 1 and rep.algorithm_cost == rep.proof_cost == 0
        assert rep.worst_assignment.bit_string() == ""
        assert _walk(greedy_strategy(unit_costs(0)), f, []) == [0]


class _Counting:
    """Wraps a strategy and counts its `next_query` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def next_query(self, mask, bits):
        self.calls += 1
        return self.inner.next_query(mask, bits)


def test_walk_asks_once_per_decision_tree_node():
    for n in range(1, 9):
        strategy = _Counting(greedy_strategy(unit_costs(n)))
        competitive_ratio_exhaustive(strategy, parity(n), unit_costs(n))
        assert strategy.calls == (1 << n) - 1
    rng = random.Random(75)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_function(rng, n)
        costs = random_cost_vector(n, rng)
        strategy = _Counting(greedy_strategy(costs))
        competitive_ratio_exhaustive(strategy, f, costs)
        assert 1 <= strategy.calls <= int((f.subcube_table() == 2).sum())


class _Fixed:
    """Returns one answer whatever was read."""

    def __init__(self, var):
        self.var = var

    def next_query(self, mask, bits):
        return self.var


@pytest.mark.parametrize("var", [3, -1, "x0", True, 1.0, None])
def test_walk_rejects_a_bad_query(var):
    with pytest.raises(ContractViolation, match=r"contract violation: bad query"):
        competitive_ratio_exhaustive(_Fixed(var), parity(3), unit_costs(3))


def test_walk_rejects_a_double_query():
    with pytest.raises(ContractViolation, match="contract violation: variable x0 queried twice"):
        competitive_ratio_exhaustive(_Order([0, 0]), parity(2), unit_costs(2))


def test_walk_rejects_an_exhausted_replay():
    with pytest.raises(ContractViolation, match="the order ran out of reads"):
        competitive_ratio_exhaustive(_Order([0]), parity(3), unit_costs(3))


@pytest.mark.parametrize("size", [2, 4])
def test_walk_rejects_mismatched_costs_before_the_first_query(size):
    strategy = _Counting(greedy_strategy(unit_costs(3)))
    with pytest.raises(ValueError, match="mismatched sizes"):
        competitive_ratio_exhaustive(strategy, parity(3), unit_costs(size))
    assert strategy.calls == 0


def test_walk_leaves_no_cyclic_garbage():
    # what a sweep allocates is freed when it returns, not at some later
    # cyclic collection, so back-to-back sweeps do not pile up memory
    gc.collect()
    gc.disable()
    try:
        competitive_ratio_exhaustive(greedy_strategy(unit_costs(5)), majority(5),
                                     unit_costs(5))
        assert gc.collect() == 0
    finally:
        gc.enable()
