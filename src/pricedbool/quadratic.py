"""Quadratic functions: every minterm has at most two literals.

For these functions a largest maxterm C yields cost maps and adversaries
that force any evaluation strategy to pay at least |C|/3 times the
cheapest proof.  The construction splits C into literals that win on
their own once the rest of C is zeroed (local winners) and literals that
win through a fixed assignment of the outside variables (survivors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    BooleanFunction,
    ConstantFunctionError,
    ContractViolation,
    CostVector,
    Dnf,
    Literal,
    PartialAssignment,
    PricedBoolError,
    certificates,
    cost_json,
    literal_set_key,
)
from .harness import FlipLastAdversary


def certificate_sizes(f: BooleanFunction) -> tuple[int, int]:
    """Largest minterm size and largest maxterm size."""
    if f.is_constant() is not None:
        raise ConstantFunctionError("certificate sizes are undefined for a constant function")
    return tuple(max(len(t) for t in terms) for terms in certificates(f))


@dataclass(frozen=True)
class QuadraticAnalysis:
    """Everything the largest-maxterm adversary needs, precomputed.

    ``maxterm`` is the chosen largest maxterm C.  ``local_winners`` are
    the literals of C that force the function to 1 given the rest of C
    is 0, regardless of the outside variables.  ``outside_assignment``
    fixes the variables outside C by the pairing majority rule, and
    ``survivors`` are the remaining C literals that force 1 under it.
    The two cost maps charge winners plus survivors, or survivors only.
    """

    maxterm: tuple[Literal, ...]
    local_winners: frozenset
    outside_assignment: PartialAssignment
    survivors: frozenset
    winner_costs: CostVector
    survivor_costs: CostVector

    def to_json(self) -> dict:
        return {
            "maxterm": [lit.text() for lit in self.maxterm],
            "local_winners": sorted(lit.text() for lit in self.local_winners),
            "outside_assignment": {f"x{v}": b for v, b in self.outside_assignment.items()},
            "survivors": sorted(lit.text() for lit in self.survivors),
            "winner_costs": cost_json(self.winner_costs),
            "survivor_costs": cost_json(self.survivor_costs),
        }


def maxterm_analysis(f: BooleanFunction) -> QuadraticAnalysis:
    """Build the largest-maxterm data for a non-constant quadratic function."""
    if f.is_constant() is not None:
        raise ConstantFunctionError("analysis is undefined for a constant function")
    mins, mxs = certificates(f)
    term_set = set(mins)
    if any(len(t) > 2 for t in term_set):
        raise PricedBoolError("analysis requires a quadratic function")
    largest = max(len(t) for t in mxs)
    maxterm = min((t for t in mxs if len(t) == largest), key=literal_set_key)
    c_sorted = tuple(sorted(maxterm))

    local = set()
    for lit in maxterm:
        if frozenset({lit}) in term_set:
            local.add(lit)
            continue
        for m in maxterm:
            if m.variable != lit.variable and frozenset({lit, ~m}) in term_set:
                local.add(lit)
                break

    c_vars = {lit.variable for lit in maxterm}
    rest = [lit for lit in maxterm if lit not in local]
    outside = {}
    for x in range(f.n):
        if x in c_vars:
            continue
        with_pos = sum(1 for lit in rest if frozenset({Literal(x), lit}) in term_set)
        with_neg = sum(1 for lit in rest if frozenset({Literal(x, True), lit}) in term_set)
        outside[x] = 1 if with_pos > with_neg else 0
    sigma = PartialAssignment.of(f.n, outside)

    survivors = set()
    for lit in rest:
        forced = f.is_determined(sigma.bind(lit.variable, lit.value_when_true))
        if forced == 1:
            survivors.add(lit)

    wide = {lit.variable for lit in local} | {lit.variable for lit in survivors}
    narrow = {lit.variable for lit in survivors}
    winner_costs = CostVector.of([1 if v in wide else 0 for v in range(f.n)])
    survivor_costs = CostVector.of([1 if v in narrow else 0 for v in range(f.n)])
    return QuadraticAnalysis(c_sorted, frozenset(local), sigma, frozenset(survivors),
                             winner_costs, survivor_costs)


def maxterm_adversary(f: BooleanFunction, charge: str = "winners",
                      analysis: Optional[QuadraticAnalysis] = None):
    """The cost map and adversary for one of the two charge sets.

    The adversary is a `FlipLastAdversary` that zeroes the maxterm and
    answers the outside assignment elsewhere, except that the last
    unread charged variable answers its winning value, making f 1.
    ``charge='winners'`` tracks local winners plus survivors and forces
    ratio at least (|winners| + |survivors|)/2; ``charge='survivors'``
    tracks survivors only (which must exist) and forces |survivors|.
    """
    if analysis is None:
        analysis = maxterm_analysis(f)
    if charge == "winners":
        tracked = analysis.local_winners | analysis.survivors
        costs = analysis.winner_costs
        if not tracked:
            raise PricedBoolError("the winner charge set is empty for this function")
    elif charge == "survivors":
        tracked = analysis.survivors
        costs = analysis.survivor_costs
        if not tracked:
            raise PricedBoolError("the survivor charge set is empty for this function")
    else:
        raise ValueError("charge must be 'winners' or 'survivors'")
    base = dict(analysis.outside_assignment.items())
    base.update((lit.variable, 1 - lit.value_when_true) for lit in analysis.maxterm)
    return costs, FlipLastAdversary(f.n, base, frozenset(lit.variable for lit in tracked))


# ---------------------------------------------------------------------------
# the paired-pivot family and its two-phase strategy


@dataclass(frozen=True)
class PivotPairs:
    """Two groups of s variables sharing one pivot of opposite polarity.

    Group one (indices 0..s-1) pairs with the pivot, group two
    (s..2s-1) with its negation, and every cross pair from group one to
    group two is a minterm as well.  The pivot sits at index 2s so the
    all-groups maxterm is the lexicographically least largest one.
    """

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("the pivot family needs s >= 1")

    @property
    def n(self) -> int:
        return 2 * self.s + 1

    @property
    def pivot(self) -> int:
        return 2 * self.s

    @property
    def group_one(self) -> tuple[int, ...]:
        return tuple(range(self.s))

    @property
    def group_two(self) -> tuple[int, ...]:
        return tuple(range(self.s, 2 * self.s))

    def dnf(self) -> Dnf:
        pivot = self.pivot
        terms = [frozenset({Literal(i), Literal(pivot)}) for i in self.group_one]
        terms += [frozenset({Literal(j), Literal(pivot, True)}) for j in self.group_two]
        return Dnf(self.n, tuple(terms))

    def function(self) -> BooleanFunction:
        return self.dnf().function()


class PivotTwoPhase:
    """Cheapest-first with one mid-course group discard.

    Phase one reads in cost order until the pivot or any 1 shows up.
    That read rules out one group: group one when the pivot came up 0 or
    the 1 was in group one, otherwise group two.  Phase two continues in
    cost order over the rest.
    """

    __slots__ = ("pairs", "order")

    def __init__(self, pairs: PivotPairs, costs: CostVector):
        if costs.n != pairs.n:
            raise ValueError("cost vector size does not match the function")
        self.pairs = pairs
        self.order = costs.sorted_order()

    def _discard(self, mask: int, bits: int) -> int:
        """The ruled-out group as a mask, 0 while phase one lasts.

        A read pivot decides the group by its value; otherwise a 1 rules
        out its own group.  While f is open these triggers all agree: the
        pivot at 1 with a 1 in group one, the pivot at 0 with a 1 in group
        two, or a 1 in each group, would each force f.
        """
        pairs = self.pairs
        one = (1 << pairs.s) - 1
        two = one << pairs.s
        if mask >> pairs.pivot & 1:
            return two if bits >> pairs.pivot & 1 else one
        return one if bits & one else two if bits & two else 0

    def next_query(self, mask: int, bits: int) -> int:
        skip = mask | self._discard(mask, bits)
        for var in self.order:
            if not skip >> var & 1:
                return var
        raise ContractViolation("contract violation: no variable left to read")


def random_quadratic(rng, max_n: int = 8) -> tuple[Dnf, BooleanFunction]:
    """A random non-constant function built from terms of at most two literals.

    Consensus of two-literal terms never grows past two literals, so the
    result is quadratic by construction.
    """
    while True:
        n = rng.randint(3, max_n)
        term_count = rng.randint(1, 2 * n)
        terms = []
        for _ in range(term_count):
            size = rng.randint(1, 2)
            variables = rng.sample(range(n), size)
            terms.append(frozenset(Literal(v, rng.random() < 0.5) for v in variables))
        dnf = Dnf(n, tuple(terms))
        f = dnf.function()
        if f.is_constant() is None:
            return dnf, f
