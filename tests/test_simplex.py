"""Exact simplex: hand-checked programs, degenerate cases, and the two-phase
Fraction oracle that the most even covering point is checked against."""

import collections
import random
from fractions import Fraction

import numpy as np
import pytest

from pricedbool import simplex
from pricedbool.core import BooleanFunction, majority, random_function
from pricedbool.lp import FamilySpec, build_lp, solve_lp, switch_example
from pricedbool.simplex import simplex_max
from pricedbool.verify import _monotone_battery

F = Fraction


def test_max_small_packing():
    # max y1 + y2  s.t.  y1 <= 2, y2 <= 3, y1 + y2 <= 4
    res = simplex_max([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
                      [F(2), F(3), F(4)],
                      [F(1), F(1)])
    assert res.value == 4
    assert sum(res.solution) == 4


def test_max_duals_solve_the_covering_side():
    # packing dual of covering x0 >= 1, x0 + x1 >= 1: columns are the rows
    res = simplex_max([[F(1), F(1)], [F(0), F(1)]],
                      [F(1), F(1)],
                      [F(1), F(1)])
    assert res.value == 1
    # dual prices form the covering solution: x = (1, 0)
    assert res.duals == [F(1), F(0)]


def test_min_exactness_no_float_drift():
    # min x/3 + y/7 s.t. x + y >= 1/11, solved as the covering programs
    # are: through its packing dual, whose prices are the minimizer
    res = simplex_max([[F(1)], [F(1)]], [F(1, 3), F(1, 7)], [F(1, 11)])
    assert res.value == F(1, 77)
    assert res.duals == [F(0), F(1, 11)]


def test_degenerate_cycling_guard():
    # Beale's degenerate program, which cycles under the textbook rule;
    # Bland's rule must terminate
    res = simplex_max([[F(1, 4), F(-60), F(-1, 25), F(9)],
                       [F(1, 2), F(-90), F(-1, 50), F(3)],
                       [F(0), F(0), F(1), F(0)]],
                      [F(0), F(0), F(1)],
                      [F(3, 4), F(-150), F(1, 50), F(-6)])
    assert res.value == F(1, 20)


# --- hand checks on the two-phase Fraction oracle (_ref_min, below) ----------


def _oracle_min(c, constraints):
    return _ref_min(c, constraints, [])


def test_min_with_mixed_relations():
    # min 2a + 3b  s.t.  a + b >= 4, a - b == 1, a <= 10
    value, solution, _ = _oracle_min([F(2), F(3)],
                                     [([F(1), F(1)], ">=", F(4)),
                                      ([F(1), F(-1)], "==", F(1)),
                                      ([F(1), F(0)], "<=", F(10))])
    assert solution == [F(5, 2), F(3, 2)]
    assert value == F(19, 2)


def test_min_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        _oracle_min([F(1)], [([F(1)], "<=", F(1)), ([F(1)], ">=", F(2))])


def test_min_unbounded():
    with pytest.raises(ValueError, match="unbounded"):
        _oracle_min([F(-1)], [([F(1)], ">=", F(0))])


def test_min_redundant_equalities():
    # the duplicated row must not trip the artificial drive-out
    value, _, _ = _oracle_min([F(1), F(1)],
                              [([F(1), F(1)], "==", F(2)),
                               ([F(1), F(1)], "==", F(2))])
    assert value == 2


def test_min_negative_rhs_normalized():
    # -a <= -3 is a >= 3 in disguise
    assert _oracle_min([F(1)], [([F(-1)], "<=", F(-3))])[0] == 3


# --- the dense Fraction tableau the integer rows replaced, as an oracle -------


def _ref_pivot(rows, obj, basis, leave, enter, log):
    log.append((leave, enter))
    pivot = rows[leave][enter]
    if pivot != 1:
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


def _ref_optimize(rows, obj, basis, limit, log):
    while True:
        enter = next((j for j in range(limit) if obj[j] < 0), -1)
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
        _ref_pivot(rows, obj, basis, leave, enter, log)


def _ref_max(a, b, c, log):
    m, n = len(a), len(c)
    for bi in b:
        if bi < 0:
            raise ValueError("simplex_max needs b >= 0")
    rows = []
    for i in range(m):
        row = [F(x) for x in a[i]] + [F(0)] * m + [F(b[i])]
        row[n + i] = F(1)
        rows.append(row)
    obj = [-F(x) for x in c] + [F(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    _ref_optimize(rows, obj, basis, n + m, log)
    solution = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][-1]
    return obj[-1], solution, obj[n:n + m]


def _ref_min(c, constraints, log):
    n = len(c)
    norm = []
    for coeffs, rel, rhs in constraints:
        row = [F(x) for x in coeffs]
        rhs = F(rhs)
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
    rows, basis = [], []
    for i, (coeffs, rel, rhs) in enumerate(norm):
        row = coeffs + [F(0)] * (width - n - 1) + [rhs]
        if rel == "<=":
            row[extra_of[i]] = F(1)
            basis.append(extra_of[i])
        else:
            if rel == ">=":
                row[extra_of[i]] = F(-1)
            row[art_of[i]] = F(1)
            basis.append(art_of[i])
        rows.append(row)
    obj = [F(0)] * width
    for i in art_rows:
        obj = [x - y for x, y in zip(obj, rows[i])]
    for i in art_rows:
        obj[art_of[i]] += 1
    _ref_optimize(rows, obj, basis, art_base, log)
    if obj[-1] != 0:
        raise ValueError("infeasible linear program")
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art_base:
            enter = next((j for j in range(art_base) if rows[i][j] != 0), None)
            if enter is None:
                continue
            _ref_pivot(rows, obj, basis, i, enter, log)
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [F(x) for x in c] + [F(0)] * (width - n)
    for i, var in enumerate(basis):
        coef = obj[var]
        if coef != 0:
            obj = [x - coef * y for x, y in zip(obj, rows[i])]
    _ref_optimize(rows, obj, basis, art_base, log)
    solution = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][-1]
    return sum(ci * xi for ci, xi in zip(c, solution)), solution, []


def _outcome(solve):
    try:
        return solve()
    except ValueError as err:
        return str(err)


@pytest.fixture
def pivot_log(monkeypatch):
    """The (leave, enter) pairs simplex._pivot is called with."""
    log = []
    real = simplex._pivot

    def logged(rows, obj, basis, leave, enter):
        log.append((leave, enter))
        real(rows, obj, basis, leave, enter)

    monkeypatch.setattr(simplex, "_pivot", logged)
    return log


def _agree(pivot_log, ours, reference):
    """Same result (or error) and the same pivots from both solvers."""
    pivot_log.clear()
    got = _outcome(lambda: _triple(ours()))
    expected = []
    want = _outcome(lambda: reference(expected))
    assert got == want
    assert pivot_log == expected
    return got


def _triple(res):
    assert all(type(x) is Fraction for x in [res.value, *res.solution, *res.duals])
    return res.value, res.solution, res.duals


def _entry(rng):
    # small integers, zeros for degeneracy, and a few proper fractions
    pick = rng.random()
    if pick < 0.3:
        return 0
    if pick < 0.85:
        return rng.randint(-3, 3)
    return F(rng.randint(-5, 5), rng.randint(2, 4))


def _random_max_program(rng):
    n, m = rng.randint(1, 5), rng.randint(0, 6)
    a = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    b = [0 if rng.random() < 0.3 else abs(_entry(rng)) for _ in range(m)]
    if m and rng.random() < 0.03:
        b[rng.randrange(m)] = -1
    c = [_entry(rng) for _ in range(n)]
    return a, b, c


def test_integer_rows_match_the_fraction_tableau(pivot_log):
    rng = random.Random(2024)
    seen = collections.Counter()
    for _ in range(1000):
        a, b, c = _random_max_program(rng)
        got = _agree(pivot_log, lambda: simplex_max(a, b, c),
                     lambda log: _ref_max(a, b, c, log))
        seen[got if isinstance(got, str) else "optimal"] += 1
        seen["degenerate"] += any(x == 0 for x in b)
    # every kind of outcome turns up often enough to be checked
    assert min(seen[k] for k in ("optimal", "unbounded linear program",
                                 "simplex_max needs b >= 0", "degenerate")) >= 20, seen


def test_covering_duals_match_the_fraction_tableau(pivot_log):
    checked = 0
    for f in _monotone_battery(0)[0]:
        rows = build_lp(f).rows
        a = [[1 if i in row else 0 for row in rows] for i in range(4)]
        b, c = [1] * 4, [1] * len(rows)
        _agree(pivot_log, lambda: simplex_max(a, b, c), lambda log: _ref_max(a, b, c, log))
        checked += 1
    assert checked == 166


# --- the most even refinement against the two-phase oracle -------------------


def _ref_refinement(lp):
    """Progressive filling with two-phase Fraction programs: raise a common
    floor over the free coordinates, then probe each coordinate at the
    floor for the most it can take and pin those that cannot rise."""
    n, rows = lp.n, lp.rows
    if not rows:
        return (F(0),) * n, F(0)
    cover = [([1 if v in row else 0 for v in range(n)], ">=", 1) for row in rows]
    objective = _ref_min([1] * n, cover, [])[0]

    def face(pins, free):
        cons = []
        for row in rows:
            rhs = 1 - sum(pins[v] for v in row if v in pins)
            if rhs > 0:
                cons.append(([1 if v in row else 0 for v in free], ">=", rhs))
        cons.append(([1] * len(free), "==", objective - sum(pins.values())))
        return cons

    pins = {}
    free = list(range(n))
    while free:
        k = len(free)
        cons = [(coeffs + [0], rel, rhs) for coeffs, rel, rhs in face(pins, free)]
        cons += [([1 if i == j else 0 for i in range(k)] + [-1], ">=", 0) for j in range(k)]
        value, witness, _ = _ref_min([0] * k + [-1], cons, [])
        floor = -value
        lifts = [([1 if i == j else 0 for i in range(k)], ">=", floor) for j in range(k)]
        blocked = [v for j, v in enumerate(free) if witness[j] == floor and
                   -_ref_min([-1 if i == j else 0 for i in range(k)],
                             face(pins, free) + lifts, [])[0] == floor]
        assert blocked
        for v in blocked:
            pins[v] = floor
        free = [v for v in free if v not in pins]
    return tuple(pins[v] for v in range(n)), objective


def _padded(rng, f, extra):
    """f with ``extra`` irrelevant variables spliced in at random places."""
    table = f.table.reshape((2,) * f.n)
    for _ in range(extra):
        axis = rng.randint(0, table.ndim)
        table = np.stack([table, table], axis=axis)
    return BooleanFunction(table.reshape(-1))


def _refinement_battery():
    # the dense Fraction oracle takes about a second on a 7-variable table
    # and 43 s on majority(8), so the larger cases are sampled lightly
    yield from _monotone_battery(0)[0]
    rng = random.Random(801)
    for n, count in ((4, 12), (5, 12), (6, 6), (7, 2)):
        for _ in range(count):
            yield random_function(rng, n)
    for _ in range(20):
        yield _padded(rng, random_function(rng, rng.randint(2, 4)), rng.randint(1, 2))
    for n in range(3, 7):
        yield majority(n)
    for k, t in ((1, 1), (1, 2), (2, 1)):
        yield FamilySpec(k, t).function()
    yield switch_example().function()


def test_refinement_matches_the_two_phase_oracle():
    count = 0
    for f in _refinement_battery():
        lp = build_lp(f)
        sol = solve_lp(lp)
        assert (sol.values, sol.objective) == _ref_refinement(lp), f
        count += 1
    assert count == 166 + 32 + 20 + 4 + 4
