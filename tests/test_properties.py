"""Randomized structural properties, driven by hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pricedbool.core import BooleanFunction, CostVector, max_proof_size, parse_dnf
from pricedbool.lp import build_lp, lp_objective, lp_solution
from pricedbool.symmetric import SymmetricProfile, ratio_formula, spread

tables = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))

profiles = st.lists(st.integers(0, 1), min_size=2, max_size=8).filter(
    lambda bits: len(set(bits)) > 1)

rationals = st.fractions(min_value=0, max_value=100, max_denominator=10)


@settings(max_examples=60, deadline=None)
@given(tables)
def test_covering_objective_never_beats_the_largest_proof(table):
    f = BooleanFunction(table)
    assert lp_objective(f) <= max_proof_size(f)


@settings(max_examples=60, deadline=None)
@given(tables)
def test_canonical_solution_is_feasible(table):
    f = BooleanFunction(table)
    sol = lp_solution(f)
    assert sum(sol.values) == sol.objective
    for row in build_lp(f).rows:
        assert sum(sol.values[v] for v in row) >= 1


@settings(max_examples=80, deadline=None)
@given(profiles, st.data())
def test_formula_capped_by_spread(bits, data):
    profile = SymmetricProfile(tuple(bits))
    costs = CostVector(tuple(
        data.draw(rationals) for _ in range(profile.n)))
    assert ratio_formula(profile, costs) <= spread(profile)


@settings(max_examples=60, deadline=None)
@given(tables)
def test_dnf_text_round_trips_through_the_parser(table):
    f = BooleanFunction(table)
    if f.is_constant() is not None:
        return
    from pricedbool.core import minterms, term_text

    text = " | ".join(sorted(term_text(t) for t in minterms(f)))
    assert parse_dnf(text, n=f.n).function() == f
