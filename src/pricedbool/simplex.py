"""Exact rational simplex for small linear programs.

Two entry points.  simplex_max solves max c.y over {A y <= b, y >= 0}
with b >= 0, so the slack basis is feasible from the start; it also
reports the dual prices, which is how the covering programs are solved
through their packing duals.  simplex_min is a two-phase tableau solver
for arbitrary mixes of <=, >= and == rows, used for the refinement
programs that carve out canonical points of an optimal face.  Bland's
rule keeps every run finite and deterministic.  Dense tableaus of
Fractions are plenty at the few dozen columns this package builds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class SimplexResult:
    __slots__ = ("value", "solution", "duals")

    def __init__(self, value: Fraction, solution: list[Fraction], duals: list[Fraction]):
        self.value = value
        self.solution = solution
        self.duals = duals


def simplex_max(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                c: Sequence[Fraction]) -> SimplexResult:
    """Maximize c.y over {A y <= b, y >= 0}; requires b >= 0 entrywise.

    Returns the optimum, an optimal y, and the dual prices of the rows.
    Raises ValueError if the program is unbounded.
    """
    m = len(a)
    n = len(c)
    for bi in b:
        if bi < 0:
            raise ValueError("simplex_max needs b >= 0")
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in a[i]] + [ZERO] * m + [Fraction(b[i])]
        row[n + i] = ONE
        rows.append(row)
    # the shared loop minimizes, so it runs on the negated objective row
    obj = [-Fraction(x) for x in c] + [ZERO] * (m + 1)
    basis = [n + i for i in range(m)]
    _optimize(rows, obj, basis, n + m)

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][-1]
    return SimplexResult(obj[-1], solution, obj[n:n + m])


def _pivot(rows, obj, basis, leave: int, enter: int) -> None:
    pivot = rows[leave][enter]
    if pivot != ONE:
        rows[leave] = [x / pivot for x in rows[leave]]
    prow = rows[leave]
    for i in range(len(rows)):
        coef = rows[i][enter]
        if i != leave and coef != 0:
            rows[i] = [x - coef * p for x, p in zip(rows[i], prow)]
    coef = obj[enter]
    if coef != 0:
        obj[:] = [x - coef * p for x, p in zip(obj, prow)]
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
        leave = -1
        best = None
        for i in range(len(rows)):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ValueError("unbounded linear program")
        _pivot(rows, obj, basis, leave, enter)


def simplex_min(c: Sequence[Fraction], constraints: Sequence[tuple]) -> SimplexResult:
    """Minimize c.x over the constraints and x >= 0, exactly.

    Constraints are (coefficients, relation, rhs) triples with relation
    one of "<=", ">=" or "==".  Raises ValueError on an infeasible or
    unbounded program.  The duals slot of the result is left empty.
    """
    n = len(c)
    norm = []
    for coeffs, rel, rhs in constraints:
        row = [Fraction(x) for x in coeffs]
        if len(row) != n:
            raise ValueError("constraint width does not match the objective")
        rhs = Fraction(rhs)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((row, rel, rhs))

    extras = [i for i, (_, rel, _) in enumerate(norm) if rel != "=="]
    art_rows = [i for i, (_, rel, _) in enumerate(norm) if rel != "<="]
    art_base = n + len(extras)
    width = art_base + len(art_rows) + 1
    extra_of = {row: n + k for k, row in enumerate(extras)}
    art_of = {row: art_base + k for k, row in enumerate(art_rows)}
    rows = []
    basis = []
    for i, (coeffs, rel, rhs) in enumerate(norm):
        row = coeffs + [ZERO] * (width - n - 1) + [rhs]
        if rel == "<=":
            row[extra_of[i]] = ONE
            basis.append(extra_of[i])
        else:
            if rel == ">=":
                row[extra_of[i]] = -ONE
            row[art_of[i]] = ONE
            basis.append(art_of[i])
        rows.append(row)

    # phase one: drive the artificial variables to zero
    obj = [ZERO] * width
    for i in art_rows:
        obj = [x - y for x, y in zip(obj, rows[i])]
    for i in art_rows:
        obj[art_of[i]] += ONE
    _optimize(rows, obj, basis, art_base)
    if obj[-1] != 0:
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

    # phase two: the real objective, artificial columns barred by the limit
    obj = [Fraction(x) for x in c] + [ZERO] * (width - n)
    for i, var in enumerate(basis):
        coef = obj[var]
        if coef != 0:
            obj = [x - coef * y for x, y in zip(obj, rows[i])]
    _optimize(rows, obj, basis, art_base)

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, solution))
    return SimplexResult(value, solution, [])
