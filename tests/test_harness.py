"""The evaluation harness: transcripts, exhaustive ratios, adversary plumbing."""

import math
import random
from fractions import Fraction

import pytest

from pricedbool.core import (
    ContractViolation,
    CostVector,
    PartialAssignment,
    majority,
    parity,
    parse_dnf,
    random_cost_vector,
    random_function,
    unit_costs,
)
from pricedbool.harness import (
    adversarial_ratio,
    competitive_ratio_exhaustive,
    extremal_ratio_search,
    greedy_strategy,
    ratio_of,
    ratio_string,
    replay_strategy,
    run,
    verify_transcript,
)

MAJ3 = majority(3)


def test_run_stops_at_determination():
    # greedy on AND at (1, 0): must read both? no, x0=1 does not settle it
    f = parse_dnf("x0 & x1").function()
    t = run(greedy_strategy(unit_costs(2)), f, PartialAssignment.of(2, {0: 1, 1: 0}),
            unit_costs(2))
    assert [r.variable for r in t.reads] == [0, 1]
    assert t.final_value == 0 and t.total_cost == 2
    assert verify_transcript(f, t)


def test_run_skips_nothing_needed():
    f = parse_dnf("x0 & x1").function()
    t = run(greedy_strategy(unit_costs(2)), f, PartialAssignment.of(2, {0: 0, 1: 1}),
            unit_costs(2))
    assert [r.variable for r in t.reads] == [0]  # x0=0 settles AND


def test_greedy_order_breaks_ties_by_index():
    alg = greedy_strategy(CostVector.of([3, 1, 1]))
    assert alg.next_query(()) == 1
    assert alg.next_query(((1, 0),)) == 2


def test_replay_exhaustion_is_a_contract_violation():
    f = parity(3)
    with pytest.raises(ContractViolation, match="ran out"):
        run(replay_strategy([0]), f, PartialAssignment.full_from_index(3, 5),
            unit_costs(3))


def test_double_read_is_a_contract_violation():
    f = parity(2)
    with pytest.raises(ContractViolation, match="twice"):
        run(replay_strategy([0, 0]), f, PartialAssignment.full_from_index(2, 0),
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


def test_exhaustive_reports_per_assignment_when_asked():
    rep = competitive_ratio_exhaustive(greedy_strategy(unit_costs(3)), MAJ3,
                                       unit_costs(3), per_assignment=True)
    assert len(rep.per_assignment) == 8
    assert max(r for _, r in rep.per_assignment) == rep.ratio


def test_free_variable_left_unread_gives_infinite_ratio():
    # x1 is irrelevant and expensive; the replayed order pays it anyway
    f = parse_dnf("x0", n=2).function()
    costs = CostVector.of([0, 5])
    rep = competitive_ratio_exhaustive(replay_strategy([1, 0]), f, costs)
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
        def answer(self, variable, history):
            return 0

        def finalize(self, history):
            return PartialAssignment.of(2, {0: 1, 1: 1})  # contradicts its answers

    f = parse_dnf("x0 & x1").function()
    with pytest.raises(ContractViolation, match="finalize"):
        adversarial_ratio(greedy_strategy(unit_costs(2)), f, Liar(), unit_costs(2))


def test_adversarial_ratio_never_beats_exhaustive():
    rng = random.Random(13)
    for _ in range(10):
        f = random_function(rng, 4)
        costs = random_cost_vector(4, rng, positive=True)

        class Fixed:
            """Answer from a fixed assignment; a legal if toothless adversary."""

            def __init__(self, full):
                self.full = full

            def answer(self, variable, history):
                return self.full.value(variable)

            def finalize(self, history):
                return self.full

        full = PartialAssignment.full_from_index(4, rng.randrange(16))
        forced = adversarial_ratio(greedy_strategy(costs), f, Fixed(full), costs)
        sweep = competitive_ratio_exhaustive(greedy_strategy(costs), f, costs)
        assert forced.ratio <= sweep.ratio


def test_extremal_search_returns_the_argmax():
    family = [unit_costs(3), CostVector.of([1, 1, 5]), CostVector.of([0, 1, 1])]
    report, costs = extremal_ratio_search(greedy_strategy, MAJ3, family)
    others = [competitive_ratio_exhaustive(greedy_strategy(c), MAJ3, c).ratio
              for c in family]
    assert report.ratio == max(others)
    assert costs in family


def test_adversarial_ratio_rejects_mismatched_costs():
    class Zeros:
        def answer(self, variable, history):
            return 0

        def finalize(self, history):
            return PartialAssignment.full_from_index(2, 0)

    f = parse_dnf("x0 & x1").function()
    with pytest.raises(ValueError, match="mismatched sizes"):
        adversarial_ratio(greedy_strategy(unit_costs(3)), f, Zeros(), unit_costs(3))
