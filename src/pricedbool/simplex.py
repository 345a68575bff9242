"""Exact rational simplex for small linear programs.

One entry point.  simplex_max solves max c.y over {A y <= b, y >= 0}
with b >= 0, so the slack basis is feasible from the start and no
phase one is needed; it also reports the dual prices.  Every program
the package solves, the covering optimum and each round of its most
even refinement, is posed in this packing form.  Bland's rule keeps
every run finite and deterministic.

The tableau is fraction-free.  Each row is scaled once to integers, and
its entry in its basic column, always positive, is the denominator the
whole row shares.  A pivot cross-multiplies every row it changes and
divides it by the gcd of its entries (Bareiss-style, but with a
denominator per row, so rows the pivot column misses stay as they are).
The objective row carries its denominator as one extra trailing entry.
The ratio test compares rhs_i * coef_k with rhs_k * coef_i, so the only
Fractions built are the value, solution and duals returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

ZERO = Fraction(0)


class SimplexResult:
    __slots__ = ("value", "solution", "duals")

    def __init__(self, value: Fraction, solution: list[Fraction], duals: list[Fraction]):
        self.value = value
        self.solution = solution
        self.duals = duals


def _rational(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _common_multiple(values) -> int:
    out = 1
    for x in values:
        if out % x:
            out = lcm(out, x)
    return out


def _scaled(values: list) -> list[int]:
    """The values times the least common multiple of their denominators."""
    den = _common_multiple(x.denominator for x in values)
    return [x.numerator * (den // x.denominator) for x in values]


def _reduced(row: list[int]) -> list[int]:
    # pairwise gcd that stops at 1: most rows are already primitive
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    return [x // g for x in row] if g > 1 else row


def _priced_out(obj: list[int], prow: list[int], col: int) -> list[int]:
    """The objective row with column ``col`` cleared by the row ``prow``.

    The objective's last entry, its denominator, only scales.
    """
    p, coef = prow[col], obj[col]
    return _reduced([p * x - coef * y for x, y in zip(obj, prow)] + [p * obj[-1]])


def _solution(rows, basis, n: int) -> list[Fraction]:
    solution = [ZERO] * n
    for row, var in zip(rows, basis):
        if var < n:
            solution[var] = Fraction(row[-1], row[var])
    return solution


def simplex_max(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                c: Sequence[Fraction]) -> SimplexResult:
    """Maximize c.y over {A y <= b, y >= 0}; requires b >= 0 entrywise.

    Returns the optimum, an optimal y, and the dual prices of the rows.
    Raises ValueError if the program is unbounded.
    """
    m = len(a)
    n = len(c)
    b = [_rational(x) for x in b]
    for bi in b:
        if bi < 0:
            raise ValueError("simplex_max needs b >= 0")
    rows = []
    for i in range(m):
        row = [_rational(x) for x in a[i]] + [0] * m + [b[i]]
        row[n + i] = 1
        rows.append(_reduced(_scaled(row)))
    # the pivot loop minimizes, so it runs on the negated objective row;
    # after the slacks and the rhs comes the objective's denominator
    obj = _scaled([-_rational(x) for x in c] + [0] * (m + 1) + [1])
    basis = [n + i for i in range(m)]
    _optimize(rows, obj, basis)

    den = obj[-1]
    return SimplexResult(Fraction(obj[-2], den), _solution(rows, basis, n),
                         [Fraction(x, den) for x in obj[n:n + m]])


def _pivot(rows, obj, basis, leave: int, enter: int) -> None:
    # row i becomes p * row_i - coef_i * prow, so its denominator, the
    # entry in its basic column, is multiplied by p > 0; a unit pivot
    # scales nothing, so those rows skip the gcd reduction
    prow = rows[leave]
    p = prow[enter]
    for i, row in enumerate(rows):
        coef = row[enter]
        if coef and i != leave:
            if p == 1:
                rows[i] = [x - coef * y for x, y in zip(row, prow)]
            else:
                rows[i] = _reduced([p * x - coef * y for x, y in zip(row, prow)])
    if obj[enter]:
        obj[:] = _priced_out(obj, prow, enter)
    basis[leave] = enter


def _optimize(rows, obj, basis) -> None:
    # entering column: first negative reduced cost (Bland); the objective
    # row ends with the rhs and the denominator
    while True:
        enter = -1
        for j in range(len(obj) - 2):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        # leaving row: least rhs / coef, the row denominators cancel;
        # ties go to the lowest basic variable (Bland)
        leave = -1
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                if leave < 0:
                    leave, best_rhs, best_coef = i, row[-1], coef
                    continue
                lhs, rhs = row[-1] * best_coef, best_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, row[-1], coef
        if leave < 0:
            raise ValueError("unbounded linear program")
        _pivot(rows, obj, basis, leave, enter)
