"""Boolean functions with priced variables.

Truth-table functions, partial assignments, exact rational cost vectors,
and the certificate machinery on top of them: proofs (variable sets that
pin the function value down for some witness), and cheapest-proof
search.  All of it reads one subcube table per function: f's value on
each of the 3**n subcubes, or 2 where f is not constant.  A proof is a
constant subcube that no freed variable keeps constant; those forcing 1
are the minterms and those forcing 0 the maxterms.  A restriction is a
view of f's tables: one index slices its truth table out of f's, and
its subcube table too once f's is built.  Two folds know the subcube
layout: `_grow` takes a table over the 2**n assignments to one over the
3**n subcubes, and `_shrink` takes it back.

Conventions used throughout the package:

* A function on n variables is a numpy bool table of length 2**n indexed
  little-endian: bit i of the table index is the value of variable i.
* All costs and derived quantities are `fractions.Fraction`; no floats
  enter any comparison.  The sweeps scale the costs to ints by the LCM
  of their denominators and build Fractions only for what they return.
  The only float permitted anywhere is the ``math.inf`` sentinel for
  infinite ratios.
* Everything is immutable and safe to share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

TABLE_CAP = 24
PROOF_ENUM_CAP = 14
SEARCH_CAP = 12


class PricedBoolError(Exception):
    """Base class for all package errors."""


class CapExceeded(PricedBoolError):
    """An operation was asked to sweep an instance above its size guard."""


class ConstantFunctionError(PricedBoolError):
    """The operation is undefined for constant functions."""


class ContractViolation(PricedBoolError):
    """An algorithm or adversary broke the interaction contract."""


class ParseError(PricedBoolError):
    def __init__(self, message: str, token: int | None = None):
        if token is not None:
            message = f"parse error at token {token}: {message}"
        super().__init__(message)
        self.token = token


def _require_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapExceeded(f"instance too large for {what}: n={n} exceeds cap {cap}")


def _require_table_cap(n: int) -> None:
    if n > TABLE_CAP:
        raise CapExceeded(f"instance too large: n={n} exceeds table cap {TABLE_CAP}")


# ---------------------------------------------------------------------------
# assignments


@dataclass(frozen=True)
class PartialAssignment:
    """Values for a subset of the variables, stored as two bitmasks.

    ``mask`` has bit v set when variable v is bound; ``bits`` carries the
    bound values (and is zero outside ``mask``).
    """

    n: int
    mask: int = 0
    bits: int = 0

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("assignment mask out of range")
        if self.bits & ~self.mask:
            raise ValueError("assignment has values outside its domain")

    @classmethod
    def of(cls, n: int, values: Mapping[int, int]) -> "PartialAssignment":
        mask = bits = 0
        for var, val in values.items():
            if not 0 <= var < n:
                raise ValueError(f"variable x{var} out of range for n={n}")
            if val not in (0, 1):
                raise ValueError(f"value for x{var} must be 0 or 1")
            mask |= 1 << var
            bits |= val << var
        return cls(n, mask, bits)

    @classmethod
    def full_from_index(cls, n: int, index: int) -> "PartialAssignment":
        return cls(n, (1 << n) - 1, index)

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def value(self, var: int) -> Optional[int]:
        if self.mask >> var & 1:
            return self.bits >> var & 1
        return None

    def domain(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.mask >> v & 1)

    def items(self) -> Iterator[tuple[int, int]]:
        for v in self.domain():
            yield v, self.bits >> v & 1

    def bind(self, var: int, value: int) -> "PartialAssignment":
        if self.mask >> var & 1:
            raise ValueError(f"variable x{var} is already bound")
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        return PartialAssignment(self.n, self.mask | 1 << var, self.bits | value << var)

    def bit_string(self) -> str:
        """Render a full assignment as the values of x0, x1, ... left to right."""
        if not self.is_full:
            raise ValueError("bit_string requires a full assignment")
        return "".join(str(self.bits >> v & 1) for v in range(self.n))

    def __repr__(self):
        inner = ", ".join(f"x{v}={b}" for v, b in self.items())
        return f"PartialAssignment({self.n}; {inner})"


# ---------------------------------------------------------------------------
# costs


@dataclass(frozen=True)
class CostVector:
    """Nonnegative exact rational cost per variable."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        for c in self.values:
            if not isinstance(c, Fraction):
                raise TypeError("costs must be Fractions; use CostVector.of")
            if c < 0:
                raise ValueError("costs must be nonnegative")

    @classmethod
    def of(cls, values: Iterable) -> "CostVector":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    def cost(self, variables: Iterable[int]) -> Fraction:
        total = Fraction(0)
        for v in variables:
            total += self.values[v]
        return total

    def sorted_order(self) -> tuple[int, ...]:
        """Variable indices in nondecreasing cost order, ties by index."""
        return tuple(sorted(range(self.n), key=lambda v: (self.values[v], v)))

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]


def unit_costs(n: int) -> CostVector:
    return CostVector.of([1] * n)


def random_cost_vector(n: int, rng, positive: bool = False) -> CostVector:
    """Draw per-variable costs p/q with p in [0,100] (or [1,100]) and q in [1,10]."""
    lo = 1 if positive else 0
    return CostVector(tuple(Fraction(rng.randint(lo, 100), rng.randint(1, 10)) for _ in range(n)))


def parse_cost_json(text: str, n: int) -> CostVector:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"cost file is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ParseError("cost file must be a JSON object")
    values = []
    for v in range(n):
        key = f"x{v}"
        if key not in data:
            raise ParseError(f"cost file is missing {key}")
        try:
            values.append(Fraction(str(data[key])))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cost for {key} is not a rational: {data[key]!r}") from None
    extra = set(data) - {f"x{v}" for v in range(n)}
    if extra:
        raise ParseError(f"cost file has unknown keys: {sorted(extra)}")
    return CostVector(tuple(values))


def cost_json(costs: CostVector) -> dict:
    return {f"x{v}": str(c) for v, c in enumerate(costs.values)}


def cost_text(costs: CostVector) -> str:
    """The costs as one line, ``(c0, c1, ...)``."""
    return "(" + ", ".join(str(c) for c in costs.values) + ")"


# ---------------------------------------------------------------------------
# literals and DNF terms


@dataclass(frozen=True, order=True)
class Literal:
    variable: int
    negated: bool = False

    def __invert__(self) -> "Literal":
        return Literal(self.variable, not self.negated)

    @property
    def value_when_true(self) -> int:
        """The variable value that makes this literal 1."""
        return 0 if self.negated else 1

    def text(self) -> str:
        return ("!" if self.negated else "") + f"x{self.variable}"

    def __repr__(self):
        return self.text()


def term_text(term: frozenset) -> str:
    return " & ".join(lit.text() for lit in sorted(term))


@dataclass(frozen=True)
class Dnf:
    """A disjunction of terms, each a conjunction of literals over n variables."""

    n: int
    terms: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a DNF needs at least one term")
        for term in self.terms:
            if not term:
                raise ValueError("empty term in DNF")
            seen = set()
            for lit in term:
                if not 0 <= lit.variable < self.n:
                    raise ValueError(f"literal {lit.text()} out of range for n={self.n}")
                if lit.variable in seen:
                    raise ValueError(f"variable x{lit.variable} appears twice in one term")
                seen.add(lit.variable)

    def function(self) -> "BooleanFunction":
        _require_table_cap(self.n)
        table = np.zeros((2,) * self.n, dtype=bool)
        for term in self.terms:
            # a term is true on exactly one subcube: its literals bound true
            mask = bits = 0
            for lit in term:
                mask |= 1 << lit.variable
                bits |= lit.value_when_true << lit.variable
            table[_subcube_index(PartialAssignment(self.n, mask, bits))] = True
        return BooleanFunction(table)

    def variables(self) -> frozenset[int]:
        return frozenset(lit.variable for term in self.terms for lit in term)

    def text(self) -> str:
        return " | ".join(term_text(t) for t in self.terms)


# ASCII digits only: int() would also read other scripts' decimal digits
_TOKEN = re.compile(r"\s*(!?x[0-9]+|[|&]|\S)")
_LITERAL = re.compile(r"(!?)x([0-9]+)")


def parse_dnf(text: str, n: int | None = None) -> Dnf:
    """Parse ``x1 & !x2 | x3`` style DNF text.

    Terms are separated by ``|`` and literals inside a term by ``&``.
    Variable count defaults to one past the largest index seen.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty DNF")
    terms: list[frozenset] = []
    current: list[Literal] = []
    # literals take the odd token numbers, operators the even ones
    for i, tok in enumerate(tokens, start=1):
        if i % 2:
            m = _LITERAL.fullmatch(tok)
            if m is None:
                raise ParseError(f"expected literal, found {tok!r}", token=i)
            current.append(Literal(int(m.group(2)), negated=bool(m.group(1))))
        elif tok == "|":
            terms.append(frozenset(current))
            current = []
        elif tok != "&":
            raise ParseError(f"expected '&' or '|', found {tok!r}", token=i)
    if len(tokens) % 2 == 0:
        raise ParseError("expected literal", token=len(tokens) + 1)
    terms.append(frozenset(current))
    if n is None:
        n = 1 + max(lit.variable for t in terms for lit in t)
    try:
        return Dnf(n, tuple(terms))
    except ValueError as e:
        raise ParseError(str(e)) from None


# ---------------------------------------------------------------------------
# truth tables


class Restriction(NamedTuple):
    function: "BooleanFunction"
    variables: tuple[int, ...]  # variables[i] = original index of new variable i


class BooleanFunction:
    """An n-variable Boolean function as an immutable truth table."""

    __slots__ = ("n", "table", "_key", "_subcubes")

    def __init__(self, table, n: int | None = None):
        arr = np.array(table, dtype=bool).ravel()
        size = arr.size
        if size == 0 or size & (size - 1):
            raise ValueError("truth table length must be a power of two")
        bits = size.bit_length() - 1
        if n is not None and n != bits:
            raise ValueError(f"table of length {size} does not match n={n}")
        _require_table_cap(bits)
        arr.setflags(write=False)
        self.n = bits
        self.table = arr
        self._key = (bits, arr.tobytes())
        self._subcubes = None

    def __eq__(self, other):
        return isinstance(other, BooleanFunction) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.n <= 5:
            bits = "".join(str(int(b)) for b in self.table)
            return f"BooleanFunction({self.n}; {bits})"
        return f"BooleanFunction(n={self.n})"

    def evaluate(self, assignment: PartialAssignment) -> int:
        if assignment.n != self.n:
            raise ValueError("assignment is over a different variable count")
        if not assignment.is_full:
            raise PricedBoolError("incomplete assignment: bind every variable or use is_determined")
        return int(self.table[assignment.bits])

    def is_constant(self) -> Optional[int]:
        return _constant(self.table)

    def is_determined(self, assignment: PartialAssignment) -> Optional[int]:
        """The forced value of f under the partial assignment, or None."""
        if assignment.n != self.n:
            raise ValueError("assignment is over a different variable count")
        return _constant(self.table.reshape((2,) * self.n)[_subcube_index(assignment)])

    def restrict(self, assignment: PartialAssignment) -> Restriction:
        """The function induced on the unbound variables, with the index map back."""
        if assignment.n != self.n:
            raise ValueError("assignment is over a different variable count")
        kept = tuple(v for v in range(self.n) if not assignment.mask >> v & 1)
        return Restriction(self._subcube(_subcube_index(assignment)), kept)

    def _subcube(self, index: tuple) -> "BooleanFunction":
        """f on the subcube ``index`` picks out of its tables; the subcube
        table, if f's is built, is a view of it and is never folded."""
        sub = BooleanFunction(self.table.reshape((2,) * self.n)[index])
        if self._subcubes is not None:
            sub._subcubes = self._subcubes[index]
        return sub

    def subcube_table(self) -> np.ndarray:
        """f's value on every subcube (see `_build_subcubes`), built once."""
        if self._subcubes is None:
            self._subcubes = _build_subcubes(self)
        return self._subcubes


def _constant(table: np.ndarray) -> Optional[int]:
    if table.all():
        return 1
    if not table.any():
        return 0
    return None


_DIGIT = (0, 1, slice(None))  # subcube digits 0 and 1 bind an axis, 2 keeps it whole


def _subcube_index(assignment: PartialAssignment) -> tuple:
    """The assignment's subcube in a table shaped (2,)*n or (3,)*n.

    Axis k is variable n-1-k, as in `_build_subcubes`; the trailing
    ``...`` keeps a full assignment's subcube a 0-d array.
    """
    mask, bits = assignment.mask, assignment.bits
    return tuple(_DIGIT[bits >> v & 1 if mask >> v & 1 else 2]
                 for v in reversed(range(assignment.n))) + (...,)


def _mask_vars(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _build_subcubes(f: BooleanFunction) -> np.ndarray:
    """The value of f on every subcube, 2 where f is not constant there.

    The table is uint8 with shape (3,)*n.  Axis k is variable n-1-k, as
    in ``f.table.reshape((2,)*n)``; digits 0 and 1 bind the variable to
    that value and digit 2 leaves it free.
    """
    _require_cap(f.n, PROOF_ENUM_CAP, "the subcube table")
    # grow the set of values f takes on each subcube, value b as bit b:
    # a freed digit's set is the union of its halves', and 1, 2, 3 (only
    # 0, only 1, both) less one is the table's entry
    t = _grow(f.table.astype(np.uint8) + 1, lambda a, b: (a, b, a | b))
    t -= 1
    t.setflags(write=False)
    return t


def _grow(t: np.ndarray, planes) -> np.ndarray:
    """2**n entries indexed by assignment as a (3,)*n table: the pass for
    a variable maps the halves that bind it to 0 and to 1 onto the planes
    of its digits 0, 1 and 2 (free), ``planes(half0, half1)``, in t's dtype.

    A pass along variable v works in runs of 3**v contiguous cells, once
    the variables below it have their three digits.  So `_grow` goes
    lowest variable first, and `_shrink` highest first: either way the
    passes over the most cells run along the longest runs.
    """
    n = t.size.bit_length() - 1
    for v in range(n):
        half = t.reshape(-1, 2, 3 ** v)
        t = np.empty((len(half), 3, 3 ** v), t.dtype)
        t[:, 0], t[:, 1], t[:, 2] = planes(half[:, 0], half[:, 1])
    return t.reshape((3,) * n)


def _shrink(t: np.ndarray, planes) -> np.ndarray:
    """A (3,)*n table as 2**n entries: the pass for a variable maps its
    digits 0, 1 and 2 onto two halves, ``planes(d0, d1, free)``."""
    for v in reversed(range(t.ndim)):
        d = t.reshape(-1, 3, 3 ** v)
        t = np.empty((len(d), 2, 3 ** v), t.dtype)
        t[:, 0], t[:, 1] = planes(d[:, 0], d[:, 1], d[:, 2])
    return t.reshape(-1)


def _sweep_minimal(f: BooleanFunction) -> list[tuple[int, int, int]]:
    """Every proof of f as (mask, bits, forced value), by size, mask, bits.

    A subcube is a proof when f is constant on it and freeing any one of
    its bound variables loses that; a freed subcube is wider, so it can
    only force the same value.

    The pass along variable v works in runs of 3**v contiguous cells,
    which are short for the low variables.  So the low half of them,
    h = n // 2, runs on the transpose of the table as a (3**(n-h), 3**h)
    matrix, where v's runs are 3**(v+n-h) long; index j there is the
    cell (j % 3**(n-h)) * 3**h + j // 3**(n-h).
    """
    n, h = f.n, f.n // 2
    table = f.subcube_table().reshape(-1)
    const = table != 2
    minimal = const.copy()
    for v in range(h, n):
        _clear_widened(minimal, const, 3 ** v)
    const, minimal = (a.reshape(-1, 3 ** h).T.copy().reshape(-1) for a in (const, minimal))
    for v in range(h):
        _clear_widened(minimal, const, 3 ** (v + n - h))
    rotated = np.flatnonzero(minimal)
    index = rotated % 3 ** (n - h) * 3 ** h + rotated // 3 ** (n - h)
    mask = np.zeros_like(index)
    bits = np.zeros_like(index)
    for v in range(n):
        digit = index // 3 ** v % 3
        mask |= (digit != 2).astype(np.int64) << v
        bits |= (digit == 1).astype(np.int64) << v
    proofs = zip(mask.tolist(), bits.tolist(), table[index].tolist())
    return sorted(proofs, key=lambda p: (p[0].bit_count(), p[0], p[1]))


def _clear_widened(minimal: np.ndarray, const: np.ndarray, stride: int) -> None:
    """Unmark the cells that bind the digit at ``stride`` (to 0 or 1)
    while the cell that frees it (digit 2) is constant too."""
    free_varies = ~const.reshape(-1, 3, stride)[:, 2]
    cells = minimal.reshape(-1, 3, stride)
    cells[:, 0] &= free_varies
    cells[:, 1] &= free_varies


# ---------------------------------------------------------------------------
# proofs


@dataclass(frozen=True)
class Proof:
    """A set of variables whose values under the witness force f."""

    variables: frozenset[int]
    witness: PartialAssignment


def proof_variable_sets(f: BooleanFunction) -> tuple[frozenset, ...]:
    """The deduplicated variable sets of all proofs, sorted by size then mask."""
    _require_cap(f.n, PROOF_ENUM_CAP, "proof enumeration")
    masks = dict.fromkeys(mask for mask, _, _ in _sweep_minimal(f))
    return tuple(frozenset(_mask_vars(mask)) for mask in masks)


def max_proof_size(f: BooleanFunction) -> int:
    """The largest proof size; 0 exactly for constant functions."""
    _require_cap(f.n, PROOF_ENUM_CAP, "proof enumeration")
    return max(mask.bit_count() for mask, _, _ in _sweep_minimal(f))


def minimal_witness_domains(f: BooleanFunction) -> tuple[int, ...]:
    """Minimal variable masks that admit some forcing witness.

    These are the inclusion-minimal proof variable sets; supersets are
    redundant as covering constraints since their row sums dominate.
    """
    _require_cap(f.n, PROOF_ENUM_CAP, "proof enumeration")
    # shrink each variable's digits to (free, bound): ok[mask] says some
    # subcube with exactly the variables in mask bound is constant
    ok = _shrink(f.subcube_table() != 2, lambda a, b, free: (free, a | b))
    minimal = ok.copy()
    for v in range(f.n):
        minimal.reshape(-1, 2, 2 ** v)[:, 1] &= ~ok.reshape(-1, 2, 2 ** v)[:, 0]
    return tuple(sorted(np.flatnonzero(minimal).tolist(), key=lambda m: (m.bit_count(), m)))


# ---------------------------------------------------------------------------
# minterms and maxterms


def certificates(f: BooleanFunction) -> tuple[tuple[frozenset, ...], tuple[frozenset, ...]]:
    """The minterms and the maxterms of f: its proofs forcing 1 and 0."""
    _require_cap(f.n, PROOF_ENUM_CAP, "certificate enumeration")
    if f.is_constant() is not None:
        raise ConstantFunctionError(f"constant function (value {f.is_constant()}) has no certificates")
    by_value: tuple[list, list] = ([], [])
    for mask, bits, value in _sweep_minimal(f):
        # the literal on x_v that has the forced value under the witness
        by_value[value].append(frozenset(
            Literal(v, negated=(bits >> v & 1) != value) for v in _mask_vars(mask)))
    return tuple(by_value[1]), tuple(by_value[0])


def minterms(f: BooleanFunction) -> tuple[frozenset, ...]:
    """Minimal literal sets that force f to 1 when all are made true."""
    return certificates(f)[0]


def maxterms(f: BooleanFunction) -> tuple[frozenset, ...]:
    """Minimal literal sets that force f to 0 when all are made false."""
    return certificates(f)[1]


def literal_set_key(term: Iterable[Literal]) -> tuple:
    return tuple(sorted((lit.variable, lit.negated) for lit in term))


# ---------------------------------------------------------------------------
# cheapest proofs


def _scaled_costs(costs: CostVector) -> tuple[list[int], int]:
    """The costs times the LCM of their denominators, as ints, and that LCM."""
    scale = math.lcm(*(c.denominator for c in costs.values))
    return [c.numerator * (scale // c.denominator) for c in costs.values], scale


def _subset_costs(costs: list[int]) -> list[int]:
    total = [0]
    for c in costs:
        total += [t + c for t in total]
    return total


def _forced_subsets(f: BooleanFunction, bits: int) -> np.ndarray:
    """f's value on the subcube binding each mask to ``bits``, else 2.

    Entry m is the subcube table's entry with the variables in m bound to
    their values in the full assignment ``bits`` and the rest free.  It is
    folded from f's table in 2^n entries, so any n up to the table cap
    works: each fold turns bit v of the index from x_v into "v bound".
    """
    t = f.table.astype(np.uint8)
    for v in range(f.n):
        t = t.reshape(-1, 2, 1 << v)
        lo, hi = t[:, 0], t[:, 1]
        t = np.stack([np.where(lo == hi, lo, 2), hi if bits >> v & 1 else lo], axis=1)
    return t.reshape(-1)


def cheapest_proof(f: BooleanFunction, assignment: PartialAssignment,
                   costs: CostVector) -> tuple[Proof, Fraction]:
    """The cheapest proof consistent with a full assignment.

    Takes the cheapest variable subset that forces f under the assignment,
    ties to fewer variables, then the lower mask.  Costs are nonnegative,
    so dropping a variable that is not needed never costs more; the
    tie-break on size thus leaves the subset inclusion-minimal.
    """
    if costs.n != f.n or assignment.n != f.n:
        raise ValueError("mismatched sizes between function, costs, and assignment")
    if not assignment.is_full:
        raise PricedBoolError("incomplete assignment: cheapest_proof needs every value")
    scaled, scale = _scaled_costs(costs)
    total = _subset_costs(scaled)
    forced = _forced_subsets(f, assignment.bits)
    keep = min(np.flatnonzero(forced != 2).tolist(), key=lambda m: (total[m], m.bit_count(), m))
    part = PartialAssignment(f.n, keep, assignment.bits & keep)
    return Proof(frozenset(_mask_vars(keep)), part), Fraction(total[keep], scale)


def _cheapest_proof_totals(f: BooleanFunction, costs: list[int]) -> list[int]:
    """Cheapest proof cost for every assignment index, in integer costs."""
    n = f.n
    table = f.subcube_table()  # first: past its cap it refuses before any 3**n spread
    total = _subset_costs(costs)
    # only each assignment's least cost is returned, so ties need no order
    order = sorted(range(len(total)), key=total.__getitem__)
    rank = np.empty(1 << n, dtype=np.int32)
    rank[order] = np.arange(1 << n)
    # spread each bound set's rank over its subcubes: digits 0 and 1 read
    # mask bit 1, the free digit mask bit 0
    rank = _grow(rank, lambda unbound, bound: (bound, bound, unbound))
    rank = np.where(table != 2, rank, 1 << n)
    # push the least rank down every free digit onto the bound ones,
    # dropping the free digit: what is left is indexed by assignment
    rank = _shrink(rank, lambda a, b, free: (np.minimum(a, free), np.minimum(b, free)))
    return [total[order[r]] for r in rank.tolist()]


def cheapest_proof_costs(f: BooleanFunction, costs: CostVector) -> list[Fraction]:
    """Cheapest proof cost for every assignment index at once."""
    _require_cap(f.n, SEARCH_CAP, "cheapest-proof search")
    if costs.n != f.n:
        raise ValueError("mismatched sizes between function and costs")
    scaled, scale = _scaled_costs(costs)
    return [Fraction(t, scale) for t in _cheapest_proof_totals(f, scaled)]


# ---------------------------------------------------------------------------
# named functions and generators


def _popcounts(n: int) -> np.ndarray:
    """The number of ones in every assignment index of an n-variable table."""
    if n < 0:
        raise ValueError(f"a function needs n >= 0 variables, got n={n}")
    _require_table_cap(n)
    # uint8 holds every count, and majority's 2 * count, up to the table cap
    ones = np.zeros(1, np.uint8)
    for _ in range(n):
        ones = np.concatenate([ones, ones + 1])
    return ones


def parity(n: int) -> BooleanFunction:
    return BooleanFunction((_popcounts(n) & 1).astype(bool))


def majority(n: int) -> BooleanFunction:
    return BooleanFunction(_popcounts(n) * 2 > n)


def random_function(rng, n: int, nonconstant: bool = True) -> BooleanFunction:
    while True:
        bits = [rng.randint(0, 1) for _ in range(1 << n)]
        f = BooleanFunction(bits)
        if not nonconstant or f.is_constant() is None:
            return f


# ---------------------------------------------------------------------------
# file formats


def table_to_text(f: BooleanFunction) -> str:
    """Two lines: the variable count, then the 2**n table bits packed as hex.

    Bit b of the hex integer is the table entry at assignment index b.
    """
    value = int.from_bytes(np.packbits(f.table, bitorder="little").tobytes(), "little")
    width = max(1, (1 << f.n) + 3 >> 2)
    return f"{f.n}\n{value:0{width}x}\n"


def parse_table_text(text: str) -> BooleanFunction:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ParseError("truth-table input needs two lines: n, then hex bits")
    # int() would also take signs, "_", "0x" and other scripts' digits
    if not re.fullmatch("[0-9]+", lines[0]):
        raise ParseError(f"bad variable count: {lines[0]!r}")
    n = int(lines[0])
    if not 0 <= n <= TABLE_CAP:
        raise ParseError(f"variable count {n} out of range 0..{TABLE_CAP}")
    if not re.fullmatch("[0-9a-fA-F]+", lines[1]):
        raise ParseError("table bits are not hex")
    value = int(lines[1], 16)
    if value >> (1 << n):
        raise ParseError(f"table has more than 2**{n} bits")
    packed = np.frombuffer(value.to_bytes((1 << n) + 7 >> 3, "little"), dtype=np.uint8)
    return BooleanFunction(np.unpackbits(packed, count=1 << n, bitorder="little"))


def looks_like_table_text(text: str) -> bool:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return len(lines) == 2 and lines[0].isdigit()
