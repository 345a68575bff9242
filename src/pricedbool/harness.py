"""Running evaluation strategies and measuring competitive ratios.

The harness owns the stopping rule: after every read it checks whether
the values seen so far already force the function, and stops the moment
they do.  A strategy only ever picks the next variable.  Ratios compare
what a run paid against the cheapest proof for the same assignment, with
the degenerate cases fixed as 0/0 = 1 and x/0 = infinity for x > 0.

`run` plays one assignment and `adversarial_ratio` one adversary, both
through the same read loop.  Strategies and adversaries see the values
read so far as two bitmasks, ``mask`` and ``bits``: bit v of ``mask``
says x_v was read, and bit v of ``bits`` is its value.  The exhaustive
sweep does not replay the strategy per assignment: since ``next_query``
sees only those values, the strategy is a decision tree, and the sweep
walks that tree once, depth first, reading the stopping rule off f's
subcube table at every node.

``math.inf`` is the lone non-rational value in the package; it never
mixes with Fractions except through comparisons, which are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Protocol

from .core import (
    SEARCH_CAP,
    BooleanFunction,
    ContractViolation,
    CostVector,
    PartialAssignment,
    _cheapest_proof_totals,
    _require_cap,
    _scaled_costs,
    cheapest_proof,
)


class EvaluationAlgorithm(Protocol):
    """A strategy that names the next variable to read.

    ``next_query`` must depend only on the values read so far, handed to
    it as (mask, bits), so one instance is a decision tree that serves
    every assignment.  It is only called while those values leave the
    function undetermined, and must return a variable outside ``mask``.
    """

    def next_query(self, mask: int, bits: int) -> int: ...


class Adversary(Protocol):
    """An answer source that fixes the assignment as it is probed.

    Both calls see the answers given so far as (mask, bits).  ``answer``
    gives the value of an unread variable; ``finalize`` must extend the
    answers to a full assignment that agrees with every one of them.
    """

    def answer(self, variable: int, mask: int, bits: int) -> int: ...

    def finalize(self, mask: int, bits: int) -> PartialAssignment: ...


@dataclass(frozen=True)
class ReadRecord:
    variable: int
    value: int
    cost: Fraction


@dataclass(frozen=True)
class EvaluationTranscript:
    """One complete run: the reads in order, the forced value, the bill."""

    reads: tuple[ReadRecord, ...]
    final_value: int
    total_cost: Fraction


@dataclass(frozen=True)
class RatioReport:
    """A measured ratio plus the assignment and costs that witness it."""

    ratio: object  # Fraction, or math.inf
    worst_assignment: Optional[PartialAssignment]
    algorithm_cost: Fraction
    proof_cost: Fraction

    def to_json(self) -> dict:
        return {
            "ratio": ratio_string(self.ratio),
            "worst_assignment": self.worst_assignment.bit_string() if self.worst_assignment else None,
            "alg_cost": str(self.algorithm_cost),
            "proof_cost": str(self.proof_cost),
        }


def ratio_of(algorithm_cost: Fraction, proof_cost: Fraction):
    """Cost ratio with the 0/0 = 1 and positive/0 = infinity conventions."""
    if proof_cost == 0:
        return Fraction(1) if algorithm_cost == 0 else math.inf
    return Fraction(algorithm_cost, proof_cost)


def ratio_string(r) -> str:
    return "inf" if r == math.inf else str(r)


def _check_query(n: int, mask: int, var) -> int:
    """Pass a strategy's answer through, or raise if it is no unread variable."""
    if not isinstance(var, int) or isinstance(var, bool) or not 0 <= var < n:
        raise ContractViolation(f"contract violation: bad query {var!r}")
    if mask >> var & 1:
        raise ContractViolation(f"contract violation: variable x{var} queried twice")
    return var


def _play(algorithm: EvaluationAlgorithm, f: BooleanFunction,
          answer: Callable[[int, int, int], int]) -> tuple[list[int], PartialAssignment, int]:
    """Read until f is forced: the strategy names each variable, ``answer``
    gives its value.  Returns the variables in read order, the values
    read, and the forced value."""
    order = []
    part = PartialAssignment(f.n)
    value = f.is_determined(part)
    while value is None:
        var = _check_query(f.n, part.mask, algorithm.next_query(part.mask, part.bits))
        val = answer(var, part.mask, part.bits)
        if val not in (0, 1):
            raise ContractViolation(f"contract violation: adversary answered {val!r}")
        order.append(var)
        part = part.bind(var, val)
        value = f.is_determined(part)
    return order, part, value


def run(algorithm: EvaluationAlgorithm, f: BooleanFunction,
        assignment: PartialAssignment, costs: CostVector) -> EvaluationTranscript:
    """Drive one strategy over a fixed full assignment until f is forced."""
    if not assignment.is_full:
        raise ValueError("run needs a full assignment")
    if costs.n != f.n or assignment.n != f.n:
        raise ValueError("mismatched sizes between function, costs, and assignment")
    order, part, value = _play(algorithm, f, lambda var, mask, bits: assignment.value(var))
    reads = tuple(ReadRecord(var, part.value(var), costs[var]) for var in order)
    return EvaluationTranscript(reads, value, sum((r.cost for r in reads), Fraction(0)))


def _walk(algorithm: EvaluationAlgorithm, f: BooleanFunction, scaled: list[int]) -> list[int]:
    """What the strategy pays, in the integer costs ``scaled``, on every
    assignment index.

    One depth-first walk of the strategy's decision tree: ``next_query``
    is asked once per node, 0-branch first.  The walk carries the node's
    index into ``f.subcube_table()``; binding x_v to b subtracts
    (2-b)*3**v from it, so the stopping rule is one lookup.  A node where
    f is constant is a leaf, and every assignment inside it paid the
    leaf's read set.
    """
    n = f.n
    table = f.subcube_table().tobytes()
    full = (1 << n) - 1
    paid = [0] * (1 << n)
    # (mask, bits, node, spent) per node still to visit
    stack = [(0, 0, 3 ** n - 1, 0)]
    while stack:
        mask, bits, node, spent = stack.pop()
        if table[node] != 2:
            # every assignment below the leaf: each subset of the unread variables set to 1
            free = ones = full ^ mask
            while True:
                paid[bits | ones] = spent
                if not ones:
                    break
                ones = (ones - 1) & free
            continue
        var = _check_query(n, mask, algorithm.next_query(mask, bits))
        for b in (1, 0):  # the 0-branch is popped, and so walked, first
            stack.append((mask | 1 << var, bits | b << var,
                          node - (2 - b) * 3 ** var, spent + scaled[var]))
    return paid


def competitive_ratio_exhaustive(algorithm: EvaluationAlgorithm, f: BooleanFunction,
                                 costs: CostVector, cap: int = SEARCH_CAP) -> RatioReport:
    """The exact worst-case ratio of a strategy over every assignment.

    `_walk` gives what the strategy pays on each assignment.  Costs are
    scaled to ints, so the ratios compare by cross-multiplying.  The
    worst assignment is the lowest index among the ties, as if the
    assignments were run one by one in index order.
    """
    n = f.n
    _require_cap(n, cap, "exhaustive ratio sweep")
    if costs.n != n:
        raise ValueError("mismatched sizes between function and costs")
    scaled, scale = _scaled_costs(costs)
    proof = _cheapest_proof_totals(f, scaled)
    paid = _walk(algorithm, f, scaled)
    # a/p beats b/q when a*q > b*p; x/0 for x > 0 is then infinite
    # without special cases, and only 0/0 = 1 needs rewriting
    worst, top, bottom = 0, 0, 1
    for index, (a, p) in enumerate(zip(paid, proof)):
        if a == p == 0:
            a = p = 1
        if a * bottom > top * p:
            worst, top, bottom = index, a, p
    return RatioReport(ratio_of(paid[worst], proof[worst]),
                       PartialAssignment.full_from_index(n, worst),
                       Fraction(paid[worst], scale), Fraction(proof[worst], scale))


class FlipLastAdversary:
    """Answers a fixed full assignment ``base``, except that the last unread
    variable of ``tracked``, a mask, answers the opposite.

    ``lp.SwitchAnalysis.certified_switch`` and ``quadratic.maxterm_adversary``
    choose the two so that f stays open until every tracked variable is
    read, which charges the strategy for all of them.
    """

    __slots__ = ("base", "tracked")

    def __init__(self, n: int, base: dict, tracked: frozenset):
        self.base = PartialAssignment.of(n, base)
        self.tracked = sum(1 << v for v in tracked)

    def answer(self, variable: int, mask: int, bits: int) -> int:
        return self.base.bits >> variable & 1 ^ (self.tracked & ~mask == 1 << variable)

    def finalize(self, mask: int, bits: int) -> PartialAssignment:
        return PartialAssignment(self.base.n, self.base.mask, self.base.bits & ~mask | bits)


def adversarial_ratio(algorithm: EvaluationAlgorithm, f: BooleanFunction,
                      adversary: Adversary, costs: CostVector) -> RatioReport:
    """Play a strategy against an adversary; a lower-bound witness for the ratio."""
    if costs.n != f.n:
        raise ValueError("mismatched sizes between function and costs")
    order, part, _ = _play(algorithm, f, adversary.answer)
    total = costs.cost(order)
    full = adversary.finalize(part.mask, part.bits)
    if not full.is_full or full.n != f.n:
        raise ContractViolation("contract violation: finalize did not return a full assignment")
    if full.bits & part.mask != part.bits:
        raise ContractViolation("contract violation: finalize contradicts an answer")
    _, proof_cost = cheapest_proof(f, full, costs)
    return RatioReport(ratio_of(total, proof_cost), full, total, proof_cost)


# ---------------------------------------------------------------------------
# basic strategies


class GreedyStrategy:
    """Read variables in nondecreasing cost order, ties by lowest index."""

    __slots__ = ("order",)

    def __init__(self, costs: CostVector):
        self.order = costs.sorted_order()

    def next_query(self, mask: int, bits: int) -> int:
        for var in self.order:
            if not mask >> var & 1:
                return var
        raise ContractViolation("contract violation: every variable was already read")
