"""Symmetric functions: value profiles, blocks, and the exact ratio formula.

A symmetric function is determined by its profile, the map from the
number of ones to the output.  Maximal constant runs of the profile are
its blocks; the spread is the widest block.  For any cost vector the
competitive ratio has a closed form over the sorted costs, greedy
achieves it, and an adversary built from the widest block forces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    BooleanFunction,
    ConstantFunctionError,
    CostVector,
    PartialAssignment,
    _popcounts,
)
from .harness import ratio_of


@dataclass(frozen=True)
class Block:
    """A maximal interval of one-counts on which the profile is constant."""

    lower: int
    upper: int
    value: int

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1


@dataclass(frozen=True)
class SymmetricProfile:
    """The output for each possible number of ones among the n variables."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("a profile needs n+1 entries with n >= 1")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("profile entries must be 0 or 1")

    @classmethod
    def from_string(cls, bits: str) -> "SymmetricProfile":
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"profile must be a 0/1 string, got {bits!r}")
        return cls(tuple(int(b) for b in bits))

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def is_constant(self) -> Optional[int]:
        if all(v == self.values[0] for v in self.values):
            return self.values[0]
        return None

    def function(self) -> BooleanFunction:
        return BooleanFunction(np.array(self.values, dtype=bool)[_popcounts(self.n)])

    def text(self) -> str:
        return "".join(str(v) for v in self.values)


def profile_of(f: BooleanFunction) -> Optional[SymmetricProfile]:
    """The profile of f, or None when f is not symmetric or has no variables."""
    if f.n == 0:
        return None
    ones = _popcounts(f.n)
    values = []
    for k in range(f.n + 1):
        group = f.table[ones == k]
        if group.any() != group.all():
            return None
        values.append(int(group[0]))
    return SymmetricProfile(tuple(values))


def blocks(profile: SymmetricProfile) -> tuple[Block, ...]:
    out = []
    start = 0
    for k in range(1, profile.n + 2):
        if k > profile.n or profile.values[k] != profile.values[start]:
            out.append(Block(start, k - 1, profile.values[start]))
            start = k
    return tuple(out)


def spread(profile: SymmetricProfile) -> int:
    return max(b.width for b in blocks(profile))


def block_of(profile: SymmetricProfile, ones: int) -> Block:
    for b in blocks(profile):
        if b.lower <= ones <= b.upper:
            return b
    raise ValueError(f"one-count {ones} out of range 0..{profile.n}")


def determined_by_counts(profile: SymmetricProfile, zeros: int, ones: int) -> Optional[int]:
    """The forced value after seeing the given counts of zeros and ones.

    The function is pinned down exactly when the block holding the
    current one-count reaches past every count still achievable.
    """
    n = profile.n
    if zeros < 0 or ones < 0 or zeros + ones > n:
        raise ValueError(f"impossible counts: {zeros} zeros + {ones} ones on {n} variables")
    b = block_of(profile, ones)
    if b.upper >= n - zeros:
        return b.value
    return None


# ---------------------------------------------------------------------------
# the exact ratio formula


def ratio_formula(profile: SymmetricProfile, costs: CostVector):
    """The exact competitive ratio for a symmetric function under given costs.

    Maximizes d_k / (d_{n-s} + c_k) over k > n-s, where c is sorted
    nondecreasing, d_k sums the k cheapest costs, and s is the spread.
    Degenerate zero-cost instances follow the 0/0 = 1 convention.
    """
    if profile.is_constant() is not None:
        raise ConstantFunctionError("the ratio formula is undefined for a constant function")
    if costs.n != profile.n:
        raise ValueError("cost vector size does not match the profile")
    value, _ = _formula_max(profile, costs)
    return value


def _formula_max(profile: SymmetricProfile, costs: CostVector):
    n = profile.n
    s = spread(profile)
    cs = sorted(costs.values)
    prefix = [Fraction(0)]
    for c in cs:
        prefix.append(prefix[-1] + c)
    best = None
    best_k = None
    for k in range(n - s + 1, n + 1):
        denom = prefix[n - s] + cs[k - 1]
        num = prefix[k]
        term = ratio_of(num, denom)
        if best is None or term > best:
            best, best_k = term, k
    return best, best_k


def extremal_cost_vector(profile: SymmetricProfile) -> CostVector:
    """Costs witnessing the extremal ratio: spread ones, the rest free."""
    if profile.is_constant() is not None:
        raise ConstantFunctionError("no extremal costs for a constant function")
    n, s = profile.n, spread(profile)
    return CostVector.of([0] * (n - s) + [1] * s)


def cheapest_proof_by_counts(profile: SymmetricProfile, assignment: PartialAssignment,
                             costs: CostVector) -> Fraction:
    """Closed-form cheapest proof cost under a full assignment.

    A proof must exhibit n-u zeros and l ones, where [l, u] is the block
    holding the assignment's one-count; picking the cheapest of each kind
    is optimal.  Works directly on counts, so it scales past table caps.
    """
    if not assignment.is_full:
        raise ValueError("cheapest_proof_by_counts needs a full assignment")
    n = profile.n
    ones = [v for v in range(n) if assignment.value(v) == 1]
    zeros = [v for v in range(n) if assignment.value(v) == 0]
    b = block_of(profile, len(ones))
    need_zero, need_one = n - b.upper, b.lower
    zeros.sort(key=lambda v: (costs[v], v))
    ones.sort(key=lambda v: (costs[v], v))
    return costs.cost(zeros[:need_zero]) + costs.cost(ones[:need_one])


# ---------------------------------------------------------------------------
# the block adversary


class SymmetricAdversary:
    """Forces any strategy to pay the formula's worth before settling.

    Commits the cheapest n-u-1 variables to ``low``, hands out the other
    value for the first k-n+u probes elsewhere, then ``low``; the finalize
    step gives ``low`` to the cheapest untouched non-committed variable
    and the other value to the rest.  ``low`` is 0, or 1 when the block
    is mirrored from a profile whose widest block ends at n.
    """

    __slots__ = ("n", "committed", "others", "quota", "low")

    def __init__(self, profile: SymmetricProfile, costs: CostVector,
                 block: Block, k_star: int, low: int):
        ranked = costs.sorted_order()
        self.n = profile.n
        head = self.n - block.upper - 1
        self.committed = sum(1 << var for var in ranked[:head])
        self.others = ranked[head:]
        self.quota = k_star - (self.n - block.upper)
        self.low = low

    def answer(self, variable: int, mask: int, bits: int) -> int:
        if self.committed >> variable & 1:
            return self.low
        given = (mask & ~self.committed).bit_count()
        return self.low ^ (given < self.quota)

    def finalize(self, mask: int, bits: int) -> PartialAssignment:
        full = (1 << self.n) - 1
        unset = [var for var in self.others if not mask >> var & 1]
        # every unread variable gets low but the unset others after the cheapest
        flipped = sum(1 << var for var in unset[1:])
        ones = full & ~mask ^ flipped if self.low else flipped
        return PartialAssignment(self.n, full, bits | ones)


def symmetric_adversary(profile: SymmetricProfile, costs: CostVector):
    """The lower-bound adversary for a non-constant symmetric function.

    Built from the widest block with the smallest upper end.  When that
    block touches the all-ones count the roles of 0 and 1 are exchanged:
    the adversary plays the reversed profile's mirrored block with every
    answer complemented, so it commits variables to 1 (``low`` = 1).
    """
    if profile.is_constant() is not None:
        raise ConstantFunctionError("no adversary for a constant function")
    if costs.n != profile.n:
        raise ValueError("cost vector size does not match the profile")
    widest = max(b.width for b in blocks(profile))
    chosen = min((b for b in blocks(profile) if b.width == widest), key=lambda b: b.upper)
    low = int(chosen.upper == profile.n)
    if low:  # the formula's k depends on the spread only, so it survives the mirror
        chosen = Block(0, profile.n - chosen.lower, chosen.value)
    _, k_star = _formula_max(profile, costs)
    return SymmetricAdversary(profile, costs, chosen, k_star, low)
