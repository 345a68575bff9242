"""Symmetric functions: profiles, blocks, the exact ratio formula, the adversary."""

import itertools
import random
from fractions import Fraction

import pytest

from pricedbool.core import (
    ConstantFunctionError,
    PartialAssignment,
    cheapest_proof_costs,
    majority,
    parity,
    random_cost_vector,
    unit_costs,
)
from pricedbool.harness import GreedyStrategy, adversarial_ratio, competitive_ratio_exhaustive
from pricedbool.symmetric import (
    SymmetricProfile,
    blocks,
    cheapest_proof_by_counts,
    determined_by_counts,
    extremal_cost_vector,
    profile_of,
    ratio_formula,
    spread,
    symmetric_adversary,
)


def test_profile_of_recognizes_symmetric_functions():
    assert profile_of(majority(3)).values == (0, 0, 1, 1)
    assert profile_of(parity(4)).values == (0, 1, 0, 1, 0)
    # x0 AND x1 OR x2 is not symmetric
    from pricedbool.core import parse_dnf

    assert profile_of(parse_dnf("x0 & x1 | x2").function()) is None


def test_profile_function_round_trip():
    for values in itertools.product((0, 1), repeat=4):
        p = SymmetricProfile(values)
        assert profile_of(p.function()) == p


def test_profile_validation():
    with pytest.raises(ValueError):
        SymmetricProfile((0,))
    with pytest.raises(ValueError):
        SymmetricProfile.from_string("012")


def test_blocks_and_spread():
    p = SymmetricProfile.from_string("00111")
    assert [(b.value, b.lower, b.upper) for b in blocks(p)] == [(0, 0, 1), (1, 2, 4)]
    assert spread(p) == 3
    assert spread(profile_of(parity(5))) == 1


def test_formula_frozen_values():
    assert ratio_formula(profile_of(majority(3)), unit_costs(3)) == Fraction(3, 2)
    assert ratio_formula(SymmetricProfile.from_string("00111"), unit_costs(4)) == 2
    assert ratio_formula(profile_of(parity(6)), unit_costs(6)) == 1


def test_formula_rejects_constants():
    with pytest.raises(ConstantFunctionError):
        ratio_formula(SymmetricProfile.from_string("111"), unit_costs(2))


def test_formula_equals_exhaustive_greedy():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(2, 5)
        p = SymmetricProfile(tuple(rng.randint(0, 1) for _ in range(n + 1)))
        if p.is_constant() is not None:
            continue
        costs = random_cost_vector(n, rng)
        rep = competitive_ratio_exhaustive(GreedyStrategy(costs), p.function(), costs)
        assert rep.ratio == ratio_formula(p, costs)


def test_extremal_costs_attain_the_spread():
    for bits in ("0011", "010", "00111", "110"):
        p = SymmetricProfile.from_string(bits)
        assert ratio_formula(p, extremal_cost_vector(p)) == spread(p)


def test_formula_never_beats_the_spread():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = SymmetricProfile(tuple(rng.randint(0, 1) for _ in range(n + 1)))
        if p.is_constant() is not None:
            continue
        assert ratio_formula(p, random_cost_vector(n, rng)) <= spread(p)


def test_adversary_forces_the_formula_on_greedy():
    rng = random.Random(4)
    for bits in ("0011", "0111", "00101", "1100", "011110"):
        p = SymmetricProfile.from_string(bits)
        costs = random_cost_vector(p.n, rng, positive=True)
        rep = adversarial_ratio(GreedyStrategy(costs), p.function(),
                                symmetric_adversary(p, costs), costs)
        assert rep.ratio == ratio_formula(p, costs), bits


def test_adversary_handles_the_mirrored_profile():
    # widest block touches the all-ones count: the flipped construction runs
    p = SymmetricProfile.from_string("0111")
    costs = unit_costs(3)
    rep = adversarial_ratio(GreedyStrategy(costs), p.function(),
                            symmetric_adversary(p, costs), costs)
    assert rep.ratio == ratio_formula(p, costs) == 3


def test_determination_by_counts_matches_brute_force():
    for values in itertools.product((0, 1), repeat=5):
        p = SymmetricProfile(values)
        f = p.function()
        for zeros in range(5):
            for ones in range(5 - zeros):
                want = _forced_value(f, zeros, ones)
                assert determined_by_counts(p, zeros, ones) == want, (values, zeros, ones)


def _forced_value(f, zeros, ones):
    """The value forced by any placement of the counts, by exhaustive completion."""
    n = f.n
    spot = PartialAssignment.of(n, {v: 0 for v in range(zeros)}
                                | {v: 1 for v in range(zeros, zeros + ones)})
    return f.is_determined(spot)


def test_counts_out_of_range_rejected():
    with pytest.raises(ValueError):
        determined_by_counts(profile_of(majority(3)), 2, 2)


def test_proof_cost_by_counts_matches_the_table_sweep():
    rng = random.Random(41)
    pairs = 0
    for n in range(1, 7):
        for code in range(1, (1 << (n + 1)) - 1):
            p = SymmetricProfile.from_string(format(code, f"0{n + 1}b"))
            costs = random_cost_vector(n, rng)
            table = cheapest_proof_costs(p.function(), costs)
            for index in range(1 << n):
                full = PartialAssignment.full_from_index(n, index)
                assert cheapest_proof_by_counts(p, full, costs) == table[index], (p, costs, index)
                pairs += 1
    assert pairs == 10668
