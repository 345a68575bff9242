"""Exact rational simplex for small linear programs.

Two entry points.  simplex_max solves max c.y over {A y <= b, y >= 0}
with b >= 0, so the slack basis is feasible from the start; it also
reports the dual prices, which is how the covering programs are solved
through their packing duals.  simplex_min is a two-phase tableau solver
for arbitrary mixes of <=, >= and == rows, used for the refinement
programs that carve out canonical points of an optimal face.  Bland's
rule keeps every run finite and deterministic.

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
    # the shared loop minimizes, so it runs on the negated objective row;
    # after the slacks and the rhs comes the objective's denominator
    obj = _scaled([-_rational(x) for x in c] + [0] * (m + 1) + [1])
    basis = [n + i for i in range(m)]
    _optimize(rows, obj, basis, n + m)

    den = obj[-1]
    return SimplexResult(Fraction(obj[-2], den), _solution(rows, basis, n),
                         [Fraction(x, den) for x in obj[n:n + m]])


def _pivot(rows, obj, basis, leave: int, enter: int) -> None:
    # row i becomes p * row_i - coef_i * prow, so its denominator, the
    # entry in its basic column, is multiplied by p > 0; a unit pivot
    # scales nothing, so those rows skip the gcd reduction
    prow = rows[leave]
    p = prow[enter]
    if p < 0:
        # only the drive-out of phase one pivots on a negative entry
        prow = rows[leave] = [-x for x in prow]
        p = -p
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


def _optimize(rows, obj, basis, limit: int) -> None:
    # entering column: first negative reduced cost below the limit (Bland)
    while True:
        enter = -1
        for j in range(limit):
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


def simplex_min(c: Sequence[Fraction], constraints: Sequence[tuple]) -> SimplexResult:
    """Minimize c.x over the constraints and x >= 0, exactly.

    Constraints are (coefficients, relation, rhs) triples with relation
    one of "<=", ">=" or "==".  Raises ValueError on an unknown relation
    and on an infeasible or unbounded program.  The duals slot of the
    result is left empty.
    """
    n = len(c)
    norm = []
    for coeffs, rel, rhs in constraints:
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint relation {rel!r}; use <=, >= or ==")
        row = [_rational(x) for x in coeffs]
        if len(row) != n:
            raise ValueError("constraint width does not match the objective")
        rhs = _rational(rhs)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((row, rel, rhs))

    extras = [i for i, (_, rel, _) in enumerate(norm) if rel != "=="]
    art_base = n + len(extras)
    width = art_base + 1
    extra_of = {row: n + k for k, row in enumerate(extras)}
    # Artificial columns are never stored: they never enter, and a row
    # whose basic variable is artificial never needs its denominator.
    # They keep their ids, art_base and up, for Bland's tie-break.
    rows = []
    basis = []
    arts = []  # (row, its artificial entry) for pricing out phase one
    for i, (coeffs, rel, rhs) in enumerate(norm):
        row = coeffs + [0] * len(extras) + [rhs]
        if rel == "<=":
            row[extra_of[i]] = 1
            basis.append(extra_of[i])
            rows.append(_reduced(_scaled(row)))
            continue
        if rel == ">=":
            row[extra_of[i]] = -1
        basis.append(art_base + len(arts))
        row = _reduced(_scaled(row + [1]))
        arts.append((row, row.pop()))
        rows.append(row)

    # phase one: drive the artificial variables to zero; the objective is
    # minus the sum of the artificial rows over a common denominator
    den = _common_multiple(entry for _, entry in arts)
    obj = [0] * width + [den]
    for row, entry in arts:
        scale = den // entry
        obj[:width] = [x - scale * y for x, y in zip(obj, row)]
    obj = _reduced(obj)
    _optimize(rows, obj, basis, art_base)
    if obj[-2] != 0:
        raise ValueError("infeasible linear program")
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art_base:
            enter = next((j for j in range(art_base) if rows[i][j] != 0), None)
            if enter is None:
                continue  # redundant row
            _pivot(rows, obj, basis, i, enter)
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase two: the real objective (slacks, rhs, denominator after c),
    # artificial variables barred by the limit
    obj = _scaled([_rational(x) for x in c] + [0] * len(extras) + [0, 1])
    for row, var in zip(rows, basis):
        if obj[var]:
            obj = _priced_out(obj, row, var)
    _optimize(rows, obj, basis, art_base)

    return SimplexResult(-Fraction(obj[-2], obj[-1]), _solution(rows, basis, n), [])
