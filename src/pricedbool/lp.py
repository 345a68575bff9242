"""The proof covering program and the strategies built on it.

Every inclusion-minimal proof variable set of a function becomes a
covering constraint: an evaluation weight vector s must put total weight
at least 1 on each.  The optimum of that program lower-bounds nothing
by itself, but its value maximized over all restrictions of f bounds
the competitive ratio of the weight-guided reader from above, and the
switch constructions below force matching lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    PROOF_ENUM_CAP,
    SEARCH_CAP,
    BooleanFunction,
    ContractViolation,
    CostVector,
    Dnf,
    Literal,
    PartialAssignment,
    PricedBoolError,
    _DIGIT,
    _mask_vars,
    _require_cap,
    _scaled_costs,
    certificates,
    literal_set_key,
    minimal_witness_domains,
)
from .harness import FlipLastAdversary
from .simplex import _scaled, simplex_max

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ProofLp:
    """Covering constraints: one row per inclusion-minimal proof variable set."""

    n: int
    rows: tuple[frozenset, ...]

    def __post_init__(self):
        for row in self.rows:
            if not row:
                raise ValueError("empty covering row; constant functions get no rows")
            if any(not 0 <= v < self.n for v in row):
                raise ValueError("covering row variable out of range")


@dataclass(frozen=True)
class LpSolution:
    """An exact weight vector with its objective and the number of covering rows."""

    values: tuple[Fraction, ...]
    objective: Fraction
    row_count: int

    def to_json(self) -> dict:
        return {
            "s": {f"x{v}": str(value) for v, value in enumerate(self.values)},
            "objective": str(self.objective),
            "rows": self.row_count,
        }


def build_lp(f: BooleanFunction) -> ProofLp:
    """The covering program of f over its minimal proof variable sets.

    Dominated rows are dropped: a superset row's sum can only be larger.
    A constant function gets the empty program with optimum 0.
    """
    if f.is_constant() is not None:
        return ProofLp(f.n, ())
    masks = minimal_witness_domains(f)
    return ProofLp(f.n, tuple(frozenset(_mask_vars(m)) for m in masks))


def _certify(rows, values, objective) -> None:
    # numerators over one common denominator, which is the numerator of 1
    *nums, total, one = _scaled([*values, objective, ONE])
    if any(x < 0 for x in nums):
        raise PricedBoolError("covering program certification failed: negative weight")
    if sum(nums) != total:
        raise PricedBoolError("covering program certification failed: objective mismatch")
    for row in rows:
        if sum(nums[v] for v in row) < one:
            raise PricedBoolError("covering program certification failed: uncovered row")


def _optimal_value(n: int, rows) -> tuple[Fraction, list[Fraction]]:
    """The optimum of the covering program, with a certifying weight vector.

    Solved through the packing dual (one variable per row, one constraint
    per function variable); the dual prices of those constraints are an
    optimal primal vector, and matching objectives certify optimality.
    """
    m = len(rows)
    a = [[1 if i in rows[j] else 0 for j in range(m)] for i in range(n)]
    res = simplex_max(a, [1] * n, [1] * m)
    _certify(rows, res.duals, res.value)
    return res.value, res.duals


def _floor_round(free: list, live: list, budget: Fraction,
                 level: Fraction) -> tuple[Fraction, list]:
    """The highest common floor under the free coordinates, and some of
    the coordinates every point reaching it holds at the floor.

    The floor program, min s over the live rows (sum >= rhs), sum x <= budget
    and x_v + s >= level, goes in as its packing dual: max rhs.w + level*sum mu
    - budget*u subject to sum_{r ni v} w_r + mu_v - u <= 0 per free v and
    sum mu <= 1.  Its right-hand side is nonnegative, so simplex_max starts
    from the slack basis.  The floor is level minus the optimum, and by
    complementary slackness mu_v > 0 pins x_v to the floor.
    """
    k, m = len(free), len(live)
    pos = {v: j for j, v in enumerate(free)}
    # columns: w per live row, mu per free coordinate, then u
    a = [[0] * (m + k + 1) for _ in range(k + 1)]
    for i, (hit, _) in enumerate(live):
        for v in hit:
            a[pos[v]][i] = 1
    for j in range(k):
        a[j][m + j] = 1
        a[j][m + k] = -1
        a[k][m + j] = 1
    res = simplex_max(a, [0] * k + [1], [rhs for _, rhs in live] + [level] * k + [-budget])
    return level - res.value, [v for j, v in enumerate(free) if res.solution[m + j] > 0]


def solve_lp(lp: ProofLp) -> LpSolution:
    """The most even optimal weight vector of the program.

    Among the optimal solutions, the returned point maximizes the
    smallest weight, then the next smallest, and so on.  Each round
    spreads the rest of the optimal budget over the not yet pinned
    coordinates: if the even split covers every row it is the answer,
    and otherwise one packing program finds the highest common floor
    and pins coordinates that no point reaching it can lift.  A single
    full row thus yields the uniform vector rather than a corner of the
    face.
    """
    n = lp.n
    rows = lp.rows
    if not rows:
        return LpSolution((ZERO,) * n, ZERO, 0)
    objective, _ = _optimal_value(n, rows)
    pins: dict[int, Fraction] = {}
    free = list(range(n))
    while free:
        budget = objective - sum(pins.values())
        level = budget / len(free)
        live = []
        for row in rows:
            rhs = 1 - sum(pins[v] for v in row if v in pins)
            if rhs > 0:
                live.append(([v for v in row if v not in pins], rhs))
        if all(level * len(hit) >= rhs for hit, rhs in live):
            blocked, floor = free, level
        else:
            floor, blocked = _floor_round(free, live, budget, level)
        if not blocked:
            raise PricedBoolError("covering program refinement failed to pin")
        for v in blocked:
            pins[v] = floor
        free = [v for v in free if v not in pins]
    values = [pins[v] for v in range(n)]
    _certify(rows, values, objective)
    return LpSolution(tuple(values), objective, len(rows))


# Both caches live as long as the process.  Each keeps at most CACHE_CAP
# entries and drops its oldest first; a 5-variable `lp lpa` request adds
# about six, so thousands of small requests in one process stay cached.
CACHE_CAP = 1 << 15
_OBJECTIVE_CACHE: dict = {}
_SOLUTION_CACHE: dict = {}


def _remember(cache: dict, key, value) -> None:
    if key not in cache and len(cache) >= CACHE_CAP:
        del cache[next(iter(cache))]
    cache[key] = value


def _canonical_key(f: BooleanFunction) -> tuple[int, bytes]:
    # complementing f leaves every witness domain intact, so both share a key
    table = f.table.tobytes()
    other = (~f.table).tobytes()
    return (f.n, min(table, other))


def lp_solution(f: BooleanFunction) -> LpSolution:
    """The canonical optimal solution for f's covering program, cached."""
    key = _canonical_key(f)
    hit = _SOLUTION_CACHE.get(key)
    if hit is None:
        hit = solve_lp(build_lp(f))
        _remember(_SOLUTION_CACHE, key, hit)
        _remember(_OBJECTIVE_CACHE, key, hit.objective)
    return hit


def lp_objective(f: BooleanFunction) -> Fraction:
    """The covering program optimum for f, skipping the canonical tie-break."""
    key = _canonical_key(f)
    hit = _OBJECTIVE_CACHE.get(key)
    if hit is None:
        lp = build_lp(f)
        hit = _optimal_value(f.n, lp.rows)[0] if lp.rows else ZERO
        _remember(_OBJECTIVE_CACHE, key, hit)
    return hit


def max_restriction_objective(f: BooleanFunction, cap: int = SEARCH_CAP) -> Fraction:
    """The covering optimum maximized over every restriction of f.

    All partial assignments count, the empty one included; restrictions
    that collapse to a constant contribute 0.  A restriction with k free
    variables has optimum at most k, since the all-ones vector covers
    every row, so the sweep visits restrictions by decreasing free count
    and stops at the first whose k cannot beat the best so far.
    Restrictions sharing a table (or complementary tables) are solved
    once, and each reads its subcube table as a view of f's.
    """
    _require_cap(f.n, cap, "the restriction sweep")
    table = f.subcube_table()
    best = ZERO
    seen = set()
    digits = np.argwhere(table == 2)
    free = (digits == 2).sum(axis=1)
    for i in np.argsort(-free, kind="stable").tolist():
        if free[i] <= best:
            break
        sub = f._subcube(tuple(_DIGIT[d] for d in digits[i].tolist()))
        key = _canonical_key(sub)
        if key in seen:
            continue
        seen.add(key)
        value = lp_objective(sub)
        if value > best:
            best = value
    return best


class LpGuidedStrategy:
    """Reads the unread variable with the best residual cost per weight.

    Each step solves the covering program of the current restriction and
    charges every unread variable in proportion to its weight, at the
    common rate that first drives some residual cost to zero; that
    variable is read.  Variables already paid off (zero-cost ones
    included) go first and cause no charge; variables the solution
    ignores are never charged.  Ties fall to the lowest index.

    Charging against the whole solution at once, rather than ranking by
    raw cost over weight, is what ties the strategy to the restriction
    sweep: every read is fully absorbed by charges, a step's charges
    total at most the sweep value times its rate, and the cheapest proof
    of the hidden assignment soaks up the full rate every step because
    its unread part always covers some row.  Ranking by raw ratios
    forgets the charges between steps and can be lured past the sweep
    value by a chain of fresh cheap variables.

    The arithmetic is on integers.  Residuals r start as the costs over
    their common denominator and the weights w are the solution's
    numerators over theirs; only r up to a positive factor matters.  The
    read variable u is the first minimizing r_v/w_v (a cross-multiply),
    and the charged residuals r_v*w_u - r_u*w_v are r - (r_u/w_u)*w
    times w_u, then divided by their gcd.
    """

    __slots__ = ("f", "_costs", "_states")

    def __init__(self, f: BooleanFunction, costs: CostVector):
        if costs.n != f.n:
            raise ValueError("cost vector size does not match the function")
        self.f = f
        self._costs = tuple(_scaled_costs(costs)[0])
        # (mask, bits) of each state its own reads reach ->
        # (variable read there, residuals after its charge)
        self._states: dict = {}

    def next_query(self, mask: int, bits: int) -> int:
        entry = self._states.get((mask, bits))
        if entry is not None:
            return entry[0]
        # charge forward from the root along the reader's own reads
        at_mask = at_bits = 0
        residuals = self._costs
        while True:
            entry = self._states.get((at_mask, at_bits))
            if entry is None:
                entry = self._states[at_mask, at_bits] = self._charge(at_mask, at_bits, residuals)
            if at_mask == mask and at_bits == bits:
                return entry[0]
            var, residuals = entry
            if not mask >> var & 1:
                raise ContractViolation("contract violation: the guided reader never "
                                        "reaches this state")
            at_mask |= 1 << var
            at_bits |= bits & 1 << var

    def _charge(self, mask: int, bits: int, residuals: tuple) -> tuple:
        g, kept = self.f.restrict(PartialAssignment(self.f.n, mask, bits))
        if not kept or g.is_constant() is not None:
            raise ContractViolation("contract violation: no variable left to read")
        for v in kept:
            if residuals[v] == 0:
                return v, residuals
        w = _scaled(lp_solution(g).values)
        charged = [(v, w[j]) for j, v in enumerate(kept) if w[j] > 0]
        if not charged:
            raise ContractViolation("contract violation: the covering solution is empty")
        u, wu = charged[0]
        for v, wv in charged:
            if residuals[v] * wu < residuals[u] * wv:
                u, wu = v, wv
        # u is the first variable whose residual the charge drives to 0
        after = [r * wu for r in residuals]
        for v, wv in charged:
            after[v] -= residuals[u] * wv
        common = math.gcd(*after) or 1
        return u, tuple(r // common for r in after)


# ---------------------------------------------------------------------------
# switch families: k steering variables select one of 2^k plain restrictions


@dataclass(frozen=True)
class FamilySpec:
    """t groups of 2^k pick-one variables steered by k switch variables.

    Group i occupies indices i*2^k .. i*2^k + 2^k - 1 and the switches
    come last.  A switch setting a selects slot j(a) = sum a_s 2^s, and
    the function is the OR over groups of the selected slot's variable,
    so every setting leaves a plain OR of t variables.
    """

    switches: int
    groups: int

    def __post_init__(self):
        if self.switches < 1 or self.groups < 1:
            raise ValueError("the switch family needs at least one switch and one group")

    @property
    def slot_count(self) -> int:
        return 1 << self.switches

    @property
    def n(self) -> int:
        return self.groups * self.slot_count + self.switches

    def slot_index(self, group: int, slot: int) -> int:
        return group * self.slot_count + slot

    @property
    def switch_variables(self) -> tuple[int, ...]:
        first = self.groups * self.slot_count
        return tuple(range(first, first + self.switches))

    def dnf(self) -> Dnf:
        terms = []
        for i in range(self.groups):
            for j in range(self.slot_count):
                lits = {Literal(self.slot_index(i, j))}
                for s, z in enumerate(self.switch_variables):
                    lits.add(Literal(z, negated=not j >> s & 1))
                terms.append(frozenset(lits))
        return Dnf(self.n, tuple(terms))

    def function(self) -> BooleanFunction:
        return self.dnf().function()


def switch_example() -> Dnf:
    """Five variables, one switch: the two settings want disjoint pairs.

    The covering sweep tops out at 3 while the largest proof has all
    four plain variables, so the two gauges genuinely differ here.
    """
    high = frozenset({Literal(4), Literal(2), Literal(3)})
    low = frozenset({Literal(4, True), Literal(0), Literal(1)})
    return Dnf(5, (high, low))


class SwitchAnalysis:
    """The switch settings of a DNF, each branch swept once.

    The switches are the variables that occur both plain and negated.
    Every other literal has one polarity, so each setting of the
    switches leaves a DNF that is positive once the variables occurring
    only negated are flipped: every branch is monotone up to that flip.
    Settings run in binary order: bit s of the code is the value of the
    s-th switch in increasing variable order.  One certificate sweep per
    branch gives its minterms and maxterms over the original variables,
    and with them the branch's largest proof.
    """

    def __init__(self, dnf: Dnf):
        literals = [lit for term in dnf.terms for lit in term]
        pos = {lit.variable for lit in literals if not lit.negated}
        neg = {lit.variable for lit in literals if lit.negated}
        self.switches = tuple(sorted(pos & neg))
        if not self.switches:
            raise PricedBoolError("no variable appears in both polarities; "
                                  "there is no switch to analyze")
        # variables occurring only negated certify with value 0
        self._negated = neg - pos
        self.f = f = dnf.function()
        # per setting: the setting, the function it leaves, its variable
        # map, and its certificates by side
        self._branches = []
        for code in range(1 << len(self.switches)):
            setting = tuple(code >> s & 1 for s in range(len(self.switches)))
            assignment = PartialAssignment.of(f.n, dict(zip(self.switches, setting)))
            g, kept = f.restrict(assignment)
            _require_cap(g.n, PROOF_ENUM_CAP, "proof enumeration")
            value = g.is_constant()
            if value is None:
                sides = certificates(g)
            else:
                # a constant branch certifies its value by the empty term,
                # which lies inside every variable set
                sides = ((frozenset(),), ()) if value else ((), (frozenset(),))
            terms = {side: [frozenset(Literal(kept[lit.variable], lit.negated) for lit in term)
                            for term in side_terms]
                     for side, side_terms in zip(("minterm", "maxterm"), sides)}
            self._branches.append((setting, g, kept, terms))
        self.proof_size = max((len(t) for _, _, _, terms in self._branches
                               for side in terms.values() for t in side), default=0)

    def certified_switch(self) -> tuple[tuple, tuple, str, CostVector, FlipLastAdversary]:
        """The first certification passing the check, with its adversary.

        Scans the settings with the largest proofs in binary order, minterms
        before maxterms, certificates of that largest size in literal order,
        and takes the first one no other setting certifies inside; that
        condition is what keeps the adversary's final inverted answer
        unpredictable.  Returns the setting (each switch's value in
        increasing variable order), the certificate's variables, its side,
        unit costs on switches plus certificate, and the adversary that
        forces paying all of them.  Raises when none qualifies.
        """
        if self.proof_size == 0:
            raise PricedBoolError("every switch setting leaves a constant function")
        for code, (setting, _, _, by_side) in enumerate(self._branches):
            for side, side_terms in by_side.items():
                terms = [term for term in side_terms if len(term) == self.proof_size]
                for term in sorted(terms, key=literal_set_key):
                    variables = frozenset(lit.variable for lit in term)
                    if not any({lit.variable for lit in other} <= variables
                               for elsewhere, (_, _, _, others) in enumerate(self._branches)
                               if elsewhere != code
                               for other in others[side]):
                        return (setting, tuple(sorted(variables)), side,
                                *self._adversary(setting, term, side))
        raise PricedBoolError("switch certification hypothesis not met: no largest "
                              "certificate qualifies")

    def _adversary(self, setting: tuple, cert: frozenset,
                   side: str) -> tuple[CostVector, FlipLastAdversary]:
        """A `FlipLastAdversary` tracking switches plus certificate, whose
        base sets the switches, the certificate toward itself, and every
        other variable away from same-side certificates."""
        toward = 1 if side == "minterm" else 0
        base = {z: setting[s] for s, z in enumerate(self.switches)}
        for lit in cert:
            base[lit.variable] = lit.value_when_true if toward else 1 - lit.value_when_true
        away = 1 - toward
        n = self.f.n
        for v in range(n):
            if v not in base:
                base[v] = 1 - away if v in self._negated else away
        tracked = frozenset(self.switches) | {lit.variable for lit in cert}
        costs = CostVector.of([1 if v in tracked else 0 for v in range(n)])
        return costs, FlipLastAdversary(n, base, tracked)

    def mixed_solution(self) -> LpSolution:
        """Averaging the per-setting optima gives a feasible full-program vector.

        Switches get weight 1.  A proof that avoids every switch restricts
        to a proof under each setting, so the averaged cover still reaches
        1; proofs reading a switch are covered by its unit weight.  The
        objective is at most the switch count plus the largest setting
        optimum, which never exceeds the largest branch proof.
        """
        k = len(self.switches)
        values = [ZERO] * self.f.n
        for z in self.switches:
            values[z] = ONE
        share = Fraction(1, 1 << k)
        for _, g, kept, _ in self._branches:
            if g.is_constant() is not None:
                continue
            sol = lp_solution(g)
            for j, v in enumerate(kept):
                values[v] += share * sol.values[j]
        rows = build_lp(self.f).rows
        for row in rows:
            if sum(values[v] for v in row) < 1:
                # a constant branch adds no weight where the argument needs it
                constant = next((setting for setting, g, _, _ in self._branches
                                 if g.is_constant() is not None), None)
                reason = "" if constant is None else \
                    f": switch setting {constant} leaves a constant function"
                raise PricedBoolError("the averaged branch vector misses a covering row" + reason)
        objective = sum(values)
        if objective > k + self.proof_size:
            raise PricedBoolError("the averaged branch vector exceeds its intended bound")
        return LpSolution(tuple(values), objective, len(rows))
