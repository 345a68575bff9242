"""Short-conjunction functions: the largest-maxterm adversary and pivot pairs."""

import random
from fractions import Fraction

import pytest

from pricedbool.core import (
    ContractViolation,
    CostVector,
    PartialAssignment,
    PricedBoolError,
    parse_dnf,
    random_cost_vector,
    unit_costs,
)
from pricedbool.harness import (
    GreedyStrategy,
    adversarial_ratio,
    competitive_ratio_exhaustive,
    run,
)
from pricedbool.lp import LpGuidedStrategy
from pricedbool.quadratic import (
    PivotPairs,
    PivotTwoPhase,
    certificate_sizes,
    maxterm_adversary,
    maxterm_analysis,
    random_quadratic,
)


def test_certificate_sizes_on_pivot_pairs():
    f = PivotPairs(2).function()
    assert certificate_sizes(f) == (2, 4)


def test_analysis_on_pivot_pairs():
    a = maxterm_analysis(PivotPairs(2).function())
    assert [lit.text() for lit in a.maxterm] == ["x0", "x1", "x2", "x3"]
    assert a.local_winners == frozenset()
    assert {lit.text() for lit in a.survivors} == {"x2", "x3"}
    assert dict(a.outside_assignment.items()) == {4: 0}
    assert a.winner_costs.values == a.survivor_costs.values


def test_analysis_rejects_wide_minterms():
    with pytest.raises(PricedBoolError, match="quadratic"):
        maxterm_analysis(parse_dnf("x0 & x1 & x2").function())


def test_survivor_charge_can_be_empty():
    # OR has only local winners; there is nothing left to track
    with pytest.raises(PricedBoolError, match="survivor charge set is empty"):
        maxterm_adversary(parse_dnf("x0 | x1").function(), charge="survivors")


def test_claim_half_of_the_undecided_maxterm_survives():
    rng = random.Random(21)
    for _ in range(60):
        _, f = random_quadratic(rng, max_n=6)
        a = maxterm_analysis(f)
        rest = len(a.maxterm) - len(a.local_winners)
        assert 2 * len(a.survivors) >= rest


def test_adversary_forces_a_third_of_the_maxterm():
    rng = random.Random(22)
    for _ in range(40):
        _, f = random_quadratic(rng, max_n=6)
        _, ell = certificate_sizes(f)
        target = Fraction(ell, 3)
        for build in (GreedyStrategy, lambda c: LpGuidedStrategy(f, c)):
            best = Fraction(0)
            for charge in ("winners", "survivors"):
                try:
                    costs, adversary = maxterm_adversary(f, charge=charge)
                except PricedBoolError:
                    continue
                rep = adversarial_ratio(build(costs), f, adversary, costs)
                if rep.ratio > best:
                    best = rep.ratio
            assert best >= target


def test_pivot_pairs_layout():
    pairs = PivotPairs(3)
    assert pairs.n == 7 and pairs.pivot == 6
    assert pairs.group_one == (0, 1, 2) and pairs.group_two == (3, 4, 5)
    assert pairs.dnf().text() == ("x0 & x6 | x1 & x6 | x2 & x6 | "
                                  "x3 & !x6 | x4 & !x6 | x5 & !x6")
    with pytest.raises(ValueError):
        PivotPairs(0)


def test_two_phase_trace_on_unit_costs():
    pairs = PivotPairs(1)
    t = run(PivotTwoPhase(pairs, unit_costs(3)), pairs.function(),
            PartialAssignment.of(3, {0: 1, 1: 0, 2: 0}), unit_costs(3))
    # x0=1 discards the rest of group one; x1 and the pivot follow
    assert [r.variable for r in t.reads] == [0, 1, 2]
    assert t.final_value == 0 and t.total_cost == 3


def test_two_phase_worst_ratio_on_unit_costs():
    pairs = PivotPairs(1)
    rep = competitive_ratio_exhaustive(PivotTwoPhase(pairs, unit_costs(3)),
                                       pairs.function(), unit_costs(3))
    assert rep.ratio == Fraction(3, 2)


def test_two_phase_within_s_plus_one():
    rng = random.Random(23)
    for s in (1, 2, 3):
        pairs = PivotPairs(s)
        for _ in range(8):
            costs = random_cost_vector(pairs.n, rng)
            rep = competitive_ratio_exhaustive(PivotTwoPhase(pairs, costs),
                                               pairs.function(), costs)
            assert rep.ratio <= s + 1


def test_two_phase_rejects_mismatched_costs():
    with pytest.raises(ValueError):
        PivotTwoPhase(PivotPairs(2), unit_costs(3))


class _HistoryTwoPhase:
    """The two-phase reader driven by the (variable, value) reads in order."""

    def __init__(self, pairs, costs):
        self.pairs = pairs
        self.order = costs.sorted_order()

    def _discard(self, history):
        pairs = self.pairs
        for var, val in history:
            if var == pairs.pivot:
                return frozenset(pairs.group_one if val == 0 else pairs.group_two)
            if val == 1:
                return frozenset(pairs.group_one if var in pairs.group_one else pairs.group_two)
        return frozenset()

    def next_query(self, history):
        seen = {var for var, _ in history}
        skip = self._discard(history)
        for var in self.order:
            if var not in seen and var not in skip:
                return var
        raise ContractViolation("contract violation: no variable left to read")


def test_two_phase_reads_as_the_history_reader_at_every_node():
    rng = random.Random(41)
    nodes = 0
    for s in (1, 2, 3, 4):
        pairs = PivotPairs(s)
        f = pairs.function()
        kinds = [random_cost_vector(pairs.n, rng) for _ in range(8)] + [unit_costs(pairs.n)]
        kinds += [CostVector.of(rng.choice((0, 1, 2)) for _ in range(pairs.n)) for _ in range(8)]
        for costs in kinds:
            old, new = _HistoryTwoPhase(pairs, costs), PivotTwoPhase(pairs, costs)
            stack = [((), PartialAssignment(pairs.n))]
            while stack:
                history, part = stack.pop()
                if f.is_determined(part) is None:
                    var = old.next_query(history)
                    assert new.next_query(part.mask, part.bits) == var, (costs, history)
                    stack += [(history + ((var, b),), part.bind(var, b)) for b in (1, 0)]
                    nodes += 1
    assert nodes > 800


def test_two_phase_with_nothing_left_to_read_is_a_contract_violation():
    pairs = PivotPairs(1)
    strategy = PivotTwoPhase(pairs, unit_costs(3))
    with pytest.raises(ContractViolation, match="no variable left"):
        strategy.next_query(0b111, 0)
