"""Tables, assignments, parsing, costs, and certificate enumeration."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from pricedbool.core import (
    PROOF_ENUM_CAP,
    BooleanFunction,
    CapExceeded,
    ConstantFunctionError,
    CostVector,
    Dnf,
    Literal,
    ParseError,
    PartialAssignment,
    PricedBoolError,
    Proof,
    certificates,
    cheapest_proof,
    cheapest_proof_costs,
    cost_json,
    literal_set_key,
    looks_like_table_text,
    majority,
    max_proof_size,
    maxterms,
    minimal_witness_domains,
    minterms,
    parity,
    parse_cost_json,
    parse_dnf,
    parse_table_text,
    proof_variable_sets,
    random_cost_vector,
    random_function,
    table_to_text,
    term_text,
    unit_costs,
)

AND2 = parse_dnf("x0 & x1").function()
MAJ3 = majority(3)


def test_table_indexes_bits_little_endian():
    f = parse_dnf("x2", n=3).function()
    assert [f.evaluate(PartialAssignment.full_from_index(3, i)) for i in range(8)] == \
        [0, 0, 0, 0, 1, 1, 1, 1]


def test_evaluate_needs_full_assignment():
    with pytest.raises(PricedBoolError, match="incomplete"):
        AND2.evaluate(PartialAssignment.of(2, {0: 1}))
    assert AND2.evaluate(PartialAssignment.of(2, {0: 1, 1: 1})) == 1


def test_is_determined_on_partials():
    assert AND2.is_determined(PartialAssignment.of(2, {0: 0})) == 0
    assert AND2.is_determined(PartialAssignment.of(2, {0: 1})) is None
    assert MAJ3.is_determined(PartialAssignment.of(3, {0: 1, 2: 1})) == 1


def test_restrict_keeps_original_indices():
    g = parse_dnf("x2 & x3 & x4 | x0 & x1 & !x4").function()
    h, kept = g.restrict(PartialAssignment.of(5, {4: 1}))
    assert kept == (0, 1, 2, 3)
    assert h.table.tolist() == [False] * 12 + [True] * 4  # x2 & x3


def test_restrict_and_is_determined_match_a_loop_over_completions():
    # past the proof cap f has no subcube table, so only the truth table is sliced
    rng = random.Random(41)
    for n in (PROOF_ENUM_CAP + 1, PROOF_ENUM_CAP + 2):
        f = BooleanFunction(np.random.default_rng(n).random(1 << n) < 0.9)
        for _ in range(6):
            values = {v: rng.randint(0, 1) for v in rng.sample(range(n), rng.randint(1, n))}
            part = PartialAssignment.of(n, values)
            g, kept = f.restrict(part)
            assert kept == tuple(v for v in range(n) if v not in values)
            completions = [i for i in range(1 << n)
                           if all(i >> v & 1 == b for v, b in values.items())]
            assert g.table.tolist() == f.table[completions].tolist()
            seen = {int(f.table[i]) for i in completions}
            forced = seen.pop() if len(seen) == 1 else None
            assert f.is_determined(part) == forced == g.is_constant()
        assert f._subcubes is None


def test_restrict_to_nothing_and_to_everything():
    f = MAJ3
    f.subcube_table()
    whole, kept = f.restrict(PartialAssignment(3))
    assert whole == f and kept == (0, 1, 2)
    assert whole.subcube_table().tolist() == f.subcube_table().tolist()
    for index in range(8):
        point, kept = f.restrict(PartialAssignment.full_from_index(3, index))
        assert kept == () and point.n == 0
        assert point.table.tolist() == [f.table[index]]
        assert point.subcube_table().shape == () and point.subcube_table() == f.table[index]


def _count_folds(monkeypatch):
    """The n of every subcube table built from here on."""
    from pricedbool import core

    calls = []
    original = core._build_subcubes

    def counted(f):
        calls.append(f.n)
        return original(f)

    monkeypatch.setattr(core, "_build_subcubes", counted)
    return calls


def test_restrict_folds_no_subcube_table(monkeypatch):
    calls = _count_folds(monkeypatch)
    f = parse_dnf("x0 & x1 | x2 & !x3 | x4").function()
    g, _ = f.restrict(PartialAssignment.of(5, {3: 0}))
    assert g._subcubes is None and f._subcubes is None
    g.subcube_table()  # built on demand from g's own table
    assert calls == [4]
    f.subcube_table()
    h, _ = f.restrict(PartialAssignment.of(5, {3: 0}))
    assert h.subcube_table().tolist() == g.subcube_table().tolist()
    assert calls == [4, 5]


def test_constant_detection():
    assert BooleanFunction([0, 0, 0, 0]).is_constant() == 0
    assert BooleanFunction([1, 1]).is_constant() == 1
    assert AND2.is_constant() is None


def test_partial_assignment_bits_and_string():
    a = PartialAssignment.of(4, {0: 1, 2: 0, 3: 1})
    assert a.domain() == (0, 2, 3)
    assert a.value(1) is None
    full = a.bind(1, 0)
    assert full.is_full and full.bit_string() == "1001"
    with pytest.raises(ValueError):
        a.bit_string()  # not full yet
    with pytest.raises(ValueError):
        a.bind(0, 0)  # already set


def test_full_from_index_round_trip():
    for index in range(16):
        a = PartialAssignment.full_from_index(4, index)
        assert sum(v << i for i, v in sorted(a.items())) == index


# --- DNF text -------------------------------------------------------------


def test_parse_dnf_round_trip():
    text = "x0 & x1 | !x2 & x0 | x3"
    d = parse_dnf(text)
    assert d.n == 4
    assert parse_dnf(d.text()).text() == d.text()


def test_parse_dnf_token_errors():
    with pytest.raises(ParseError, match="token 3"):
        parse_dnf("x1 &")
    with pytest.raises(ParseError):
        parse_dnf("x1 | | x2")
    with pytest.raises(ParseError):
        parse_dnf("")


PARSE_OUTCOMES = {
    "": "empty DNF",
    "  ": "empty DNF",
    "x0 &": "parse error at token 3: expected literal",
    "x0 x1": "parse error at token 2: expected '&' or '|', found 'x1'",
    "| x0": "parse error at token 1: expected literal, found '|'",
    "x0 & & x1": "parse error at token 3: expected literal, found '&'",
    "x0 | y": "parse error at token 3: expected literal, found 'y'",
    "!!x0": "parse error at token 1: expected literal, found '!'",
    "x0 & x0": "n=1: x0",
}


@pytest.mark.parametrize("text", PARSE_OUTCOMES, ids=repr)
def test_parse_dnf_pins_each_message(text):
    try:
        dnf = parse_dnf(text)
    except ParseError as err:
        outcome = str(err)
    else:
        outcome = f"n={dnf.n}: {dnf.text()}"
    assert outcome == PARSE_OUTCOMES[text]


def test_term_and_literal_text():
    assert Literal(3).text() == "x3"
    assert (~Literal(3)).text() == "!x3"
    assert term_text(frozenset({Literal(1), Literal(0, negated=True)})) == "!x0 & x1"


def test_contradictory_term_rejected():
    with pytest.raises(ValueError):
        Dnf(2, (frozenset({Literal(0), Literal(0, negated=True)}),))


# --- truth table text ------------------------------------------------------


def test_table_text_round_trip():
    rng = random.Random(5)
    constants = [BooleanFunction([value]) for value in (0, 1)]
    wide = BooleanFunction(np.random.default_rng(5).random(1 << 20) < 0.5)  # a per-bit loop crawls here
    for f in constants + [random_function(rng, rng.randint(1, 6)) for _ in range(25)] + [wide]:
        text = table_to_text(f)
        assert looks_like_table_text(text)
        assert parse_table_text(text) == f


def test_table_text_not_dnf():
    assert not looks_like_table_text("x0 & x1")


# --- costs ------------------------------------------------------------------


def test_cost_vector_requires_fractions():
    with pytest.raises(TypeError):
        CostVector((1, 2))
    assert CostVector.of([1, 2])[0] == Fraction(1)


def test_cost_json_round_trip():
    c = CostVector.of([Fraction(84, 5), 44, Fraction(43, 2), 15])
    assert parse_cost_json(str(cost_json(c)).replace("'", '"'), 4) == c


def test_parse_cost_json_wants_exact_keys():
    with pytest.raises(ParseError, match="missing x1"):
        parse_cost_json('{"x0": "1"}', 2)
    with pytest.raises(ParseError, match="unknown keys"):
        parse_cost_json('{"x0": "1", "x1": "1", "x9": "1"}', 2)


def test_random_cost_vector_deterministic():
    a = random_cost_vector(5, random.Random(11))
    b = random_cost_vector(5, random.Random(11))
    assert a == b
    assert all(c > 0 for c in random_cost_vector(6, random.Random(3), positive=True).values)


def test_sorted_order_breaks_ties_by_index():
    c = CostVector.of([2, 1, 2, 1])
    assert c.sorted_order() == (1, 3, 0, 2)


# --- proofs and certificates -------------------------------------------------


def test_and_proof_sets():
    assert sorted(sorted(s) for s in proof_variable_sets(AND2)) == [[0], [0, 1], [1]]
    assert max_proof_size(AND2) == 2


def test_cheapest_proof_majority():
    got, cost = cheapest_proof(MAJ3, PartialAssignment.of(3, {0: 1, 1: 1, 2: 0}),
                               CostVector.of([5, 1, 7]))
    assert got.variables == frozenset({0, 1})
    assert cost == 6


def test_parity_certificates_are_full():
    f = parity(4)
    assert max_proof_size(f) == 4
    assert all(len(t) == 4 for t in minterms(f))
    assert all(len(t) == 4 for t in maxterms(f))


def test_minterms_of_and():
    (term,) = minterms(AND2)
    assert literal_set_key(term) == ((0, False), (1, False))
    # a maxterm of AND is a single positive literal made false
    assert sorted(literal_set_key(t) for t in maxterms(AND2)) == [
        ((0, False),), ((1, False),)]


def test_constant_has_no_certificates():
    with pytest.raises(ConstantFunctionError):
        minterms(BooleanFunction([1, 1]))


def test_caps_are_enforced():
    n = PROOF_ENUM_CAP + 1
    with pytest.raises(CapExceeded, match=f"n={n} exceeds cap {PROOF_ENUM_CAP}"):
        max_proof_size(parity(n))
    # 2**40 entries would not fit in memory: the cap is checked before allocating
    with pytest.raises(CapExceeded, match="n=40 exceeds table cap 24"):
        parity(40)


def _forced(f, values):
    """The value f takes on every completion of ``values`` (var -> bit), or None."""
    seen = {int(f.table[i]) for i in range(1 << f.n)
            if all(i >> v & 1 == b for v, b in values.items())}
    return seen.pop() if len(seen) == 1 else None


def _brute_certificates(f):
    """Minterms and maxterms from all 3**n literal sets, without the sweep."""
    found = ([], [])
    for choice in itertools.product((None, 0, 1), repeat=f.n):
        values = {v: b for v, b in enumerate(choice) if b is not None}
        value = _forced(f, values)
        if value is None or any(
                _forced(f, {u: b for u, b in values.items() if u != v}) is not None
                for v in values):
            continue
        # a minterm's literals are true under values, a maxterm's false
        found[value].append(literal_set_key(
            Literal(v, negated=b != value) for v, b in values.items()))
    return sorted(found[1]), sorted(found[0])


def _certificate_battery():
    for n in (1, 2, 3):
        for bits in range(1, (1 << (1 << n)) - 1):
            yield BooleanFunction([bits >> i & 1 for i in range(1 << n)])
    rng = random.Random(11)
    for _ in range(40):
        yield random_function(rng, rng.randint(4, 5))


def test_certificates_match_a_brute_force_oracle():
    count = 0
    for f in _certificate_battery():
        mins, maxs = certificates(f)
        got = (sorted(map(literal_set_key, mins)), sorted(map(literal_set_key, maxs)))
        assert got == _brute_certificates(f), f
        masks = {sum(1 << lit.variable for lit in t) for t in mins + maxs}
        assert proof_variable_sets(f) == tuple(
            frozenset(v for v in range(f.n) if m >> v & 1)
            for m in sorted(masks, key=lambda m: (m.bit_count(), m)))
        assert max_proof_size(f) == max(len(t) for t in mins + maxs)
        count += 1
    assert count == 270 + 40


def test_analyze_builds_one_subcube_table(monkeypatch, capsys):
    from pricedbool import cli

    calls = _count_folds(monkeypatch)
    assert cli.main(["analyze", "--f", "x0 & x1 | x2 & !x3 | x4"]) == 0
    assert "proofs: " in capsys.readouterr().out
    assert calls == [5]


def _subcube_battery():
    for n in (1, 2, 3):
        for bits in range(1, (1 << (1 << n)) - 1):
            yield BooleanFunction([bits >> i & 1 for i in range(1 << n)])
    rng = random.Random(23)
    for _ in range(40):
        yield random_function(rng, rng.randint(4, 6))


def _subcubes(n):
    """Every subcube as (digits by axis, partial assignment); digit 2 is free."""
    for digits in itertools.product((0, 1, 2), repeat=n):
        mask = bits = 0
        for axis, d in enumerate(digits):
            v = n - 1 - axis
            if d != 2:
                mask |= 1 << v
                bits |= d << v
        yield digits, PartialAssignment(n, mask, bits)


def test_subcube_table_matches_is_determined():
    count = 0
    for f in _subcube_battery():
        table = f.subcube_table()
        assert table.shape == (3,) * f.n and table.dtype == np.uint8
        assert f.subcube_table() is table
        for digits, part in _subcubes(f.n):
            forced = f.is_determined(part)
            assert table[digits] == (2 if forced is None else forced), (f, part)
        count += 1
    assert count == 270 + 40


def test_minimal_witness_domains_match_a_brute_force_scan():
    for f in _subcube_battery():
        ok = {mask: any(f.is_determined(PartialAssignment(f.n, mask, bits)) is not None
                        for bits in range(1 << f.n) if not bits & ~mask)
              for mask in range(1 << f.n)}
        expected = [mask for mask in sorted(ok, key=lambda m: (m.bit_count(), m))
                    if ok[mask] and not any(ok[mask ^ 1 << v]
                                            for v in range(f.n) if mask >> v & 1)]
        assert list(minimal_witness_domains(f)) == expected, f


def test_cheapest_proof_costs_match_the_per_assignment_search():
    rng = random.Random(29)
    functions = [f for f in _subcube_battery() if f.n >= 3][::6]
    for f in functions:
        huge = CostVector.of(Fraction(10 ** 30 + rng.randint(0, 9), rng.choice((7, 11, 97, 101)))
                             for _ in range(f.n))
        for costs in (random_cost_vector(f.n, rng), huge, unit_costs(f.n)):
            got = cheapest_proof_costs(f, costs)
            assert got == [cheapest_proof(f, PartialAssignment.full_from_index(f.n, i), costs)[1]
                           for i in range(1 << f.n)], (f, costs)


def _scan_cheapest_proof(f, assignment, costs):
    """The subset scan cheapest_proof replaced: subsets in nondecreasing
    cost, then size, then mask, each tested with is_determined; the first
    hit is trimmed in ascending index order."""
    total = {mask: costs.cost(v for v in range(f.n) if mask >> v & 1)
             for mask in range(1 << f.n)}
    for mask in sorted(total, key=lambda m: (total[m], m.bit_count(), m)):
        if f.is_determined(PartialAssignment(f.n, mask, assignment.bits & mask)) is None:
            continue
        keep = mask
        for v in range(f.n):
            trimmed = keep ^ 1 << v
            if mask >> v & 1 and f.is_determined(
                    PartialAssignment(f.n, trimmed, assignment.bits & trimmed)) is not None:
                keep = trimmed
        return Proof(frozenset(v for v in range(f.n) if keep >> v & 1),
                     PartialAssignment(f.n, keep, assignment.bits & keep)), total[keep]


def test_cheapest_proof_matches_the_subset_scan():
    from pricedbool.symmetric import SymmetricProfile

    rng = random.Random(30)
    functions = [SymmetricProfile.from_string(format(code, f"0{n + 1}b")).function()
                 for n in range(1, 7) for code in range(1, (1 << n + 1) - 1)]
    functions += [random_function(rng, rng.randint(1, 6)) for _ in range(40)]
    for f in functions:
        # zero costs make the trimming step matter
        zeros = CostVector.of(rng.choice((0, 0, 1, 2)) for _ in range(f.n))
        for costs in (random_cost_vector(f.n, rng), zeros, unit_costs(f.n)):
            for index in rng.sample(range(1 << f.n), min(4, 1 << f.n)):
                full = PartialAssignment.full_from_index(f.n, index)
                assert cheapest_proof(f, full, costs) == _scan_cheapest_proof(f, full, costs), \
                    (f, costs, index)
    assert len(functions) == 240 + 40


# --- the subcube folds at the benchmark's sizes ------------------------------
# Each _loop_* is the fold as it ran before the passes were reordered, one
# variable at a time from the lowest, at stride 3**v; the reordered folds
# must give the same bytes.


def _loop_subcubes(f):
    t = f.table.astype(np.uint8)
    for v in range(f.n):
        t = t.reshape(-1, 2, 3 ** v)
        lo, hi = t[:, :1], t[:, 1:]
        t = np.concatenate([t, np.where(lo == hi, lo, 2)], axis=1)
    return t.reshape((3,) * f.n)


def _loop_sweep_minimal(f):
    n = f.n
    table = _loop_subcubes(f).reshape(-1)
    const = table != 2
    minimal = const.copy()
    for v in range(n):
        minimal.reshape(-1, 3, 3 ** v)[:, :2] &= ~const.reshape(-1, 3, 3 ** v)[:, 2:]
    index = np.flatnonzero(minimal)
    mask = np.zeros_like(index)
    bits = np.zeros_like(index)
    for v in range(n):
        digit = index // 3 ** v % 3
        mask |= (digit != 2).astype(np.int64) << v
        bits |= (digit == 1).astype(np.int64) << v
    proofs = zip(mask.tolist(), bits.tolist(), table[index].tolist())
    return sorted(proofs, key=lambda p: (p[0].bit_count(), p[0], p[1]))


def _loop_witness_domains(f):
    ok = _loop_subcubes(f) != 2
    for v in range(f.n):
        d = ok.reshape(-1, 3, 2 ** v)
        ok = np.stack([d[:, 2], d[:, 0] | d[:, 1]], axis=1)
    ok = ok.reshape(-1)
    minimal = ok.copy()
    for v in range(f.n):
        minimal.reshape(-1, 2, 2 ** v)[:, 1] &= ~ok.reshape(-1, 2, 2 ** v)[:, 0]
    return tuple(sorted(np.flatnonzero(minimal).tolist(), key=lambda m: (m.bit_count(), m)))


def _loop_cheapest_proof_totals(f, costs):
    n = f.n
    table = _loop_subcubes(f).reshape(-1)
    total = [sum(costs[v] for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
    order = sorted(range(len(total)), key=total.__getitem__)
    rank = np.empty(1 << n, dtype=np.int32)
    rank[order] = np.arange(1 << n)
    for v in range(n):
        rank = rank.reshape(-1, 2, 3 ** v)[:, [1, 1, 0]]
    rank = np.where(table != 2, rank.reshape(-1), 1 << n)
    for v in range(n):
        r = rank.reshape(-1, 3, 3 ** v)
        np.minimum(r[:, :2], r[:, 2:], out=r[:, :2])
    full = rank.reshape((3,) * n)[(slice(0, 2),) * n].reshape(-1)
    return [total[order[r]] for r in full.tolist()]


def _benchmark_sized_battery():
    """Random tables, monotone DNFs drawn as the certificates workload
    draws them, and symmetric profiles, at n = 7..11; then every function
    of n <= 1 and some of n = 2, where the low half has 0 or 1 variables."""
    from pricedbool.symmetric import SymmetricProfile

    rng = random.Random(41)
    for n in range(7, 12):
        yield random_function(rng, n)
        for _ in range(2):
            terms = [rng.sample(range(n), rng.randint(2, 5)) for _ in range(rng.randint(6, 14))]
            yield Dnf(n, tuple(frozenset(map(Literal, t)) for t in terms)).function()
        bits = [1, 0] + [rng.randint(0, 1) for _ in range(n - 1)]
        rng.shuffle(bits)
        yield SymmetricProfile(tuple(bits)).function()
    yield from (BooleanFunction([value]) for value in (0, 1))
    yield from (BooleanFunction([a, b]) for a in (0, 1) for b in (0, 1))
    yield from (random_function(rng, 2, nonconstant=False) for _ in range(6))


def test_subcube_folds_match_the_stride_loops_at_benchmark_sizes():
    from pricedbool.core import _cheapest_proof_totals, _scaled_costs, _sweep_minimal

    rng = random.Random(43)
    sizes = []
    for f in _benchmark_sized_battery():
        assert np.array_equal(f.subcube_table(), _loop_subcubes(f)), f
        proofs = _loop_sweep_minimal(f)
        assert _sweep_minimal(f) == proofs, f
        assert minimal_witness_domains(f) == _loop_witness_domains(f), f
        if f.is_constant() is None:
            by_value = ([], [])
            for mask, bits, value in proofs:
                by_value[value].append(frozenset(
                    Literal(v, negated=(bits >> v & 1) != value)
                    for v in range(f.n) if mask >> v & 1))
            assert certificates(f) == (tuple(by_value[1]), tuple(by_value[0])), f
            masks = dict.fromkeys(mask for mask, _, _ in proofs)
            assert proof_variable_sets(f) == tuple(
                frozenset(v for v in range(f.n) if m >> v & 1) for m in masks), f
            assert max_proof_size(f) == max(mask.bit_count() for mask in masks), f
        huge = CostVector.of(Fraction(10 ** 30 + rng.randint(0, 9), rng.choice((7, 11, 97)))
                             for _ in range(f.n))
        for costs in (unit_costs(f.n), random_cost_vector(f.n, rng), huge):
            scaled = _scaled_costs(costs)[0]
            assert _cheapest_proof_totals(f, scaled) == _loop_cheapest_proof_totals(f, scaled), \
                (f, costs)
        sizes.append(f.n)
    assert sizes.count(7) == sizes.count(11) == 4 and sizes.count(2) == 6


def test_dnf_tables_match_literal_by_literal_evaluation():
    rng = random.Random(47)
    dnfs = [parse_dnf("x0 & !x1 | x0 & !x1 | !x2", n=3),  # a repeated term
            parse_dnf("x2 & !x0 & x1 & !x3 | !x1 & x3"),    # a term binding every variable
            parse_dnf("!x0 & !x1 & !x2 & !x3 & !x4 & !x5 & !x6 & !x7 & !x8")]
    for n in (1, 4, 7, 10):
        for _ in range(5):
            terms = [frozenset(Literal(v, negated=rng.random() < 0.5)
                               for v in rng.sample(range(n), rng.randint(1, n)))
                     for _ in range(rng.randint(1, 8))]
            dnfs.append(Dnf(n, tuple(terms + terms[:1])))
    for dnf in dnfs:
        expected = [any(all(i >> lit.variable & 1 == lit.value_when_true for lit in term)
                        for term in dnf.terms) for i in range(1 << dnf.n)]
        assert dnf.function().table.tolist() == expected, dnf.text()


def test_cheapest_proof_needs_no_subcube_table():
    # an adversary's final assignment may come from a function past the
    # proof-enumeration cap; the proof search reads 2**n entries, not 3**n
    n = PROOF_ENUM_CAP + 2
    f = majority(n)
    full = PartialAssignment.full_from_index(n, (1 << n) - 1)
    proof, cost = cheapest_proof(f, full, unit_costs(n))
    assert proof.variables == frozenset(range(n // 2 + 1)) and cost == n // 2 + 1
    assert f._subcubes is None


def test_subcube_table_refuses_past_the_proof_cap():
    import tracemalloc

    from pricedbool.harness import competitive_ratio_exhaustive, greedy_strategy
    from pricedbool.lp import max_restriction_objective

    n = PROOF_ENUM_CAP + 1
    f = parity(n)
    costs = unit_costs(n)
    tracemalloc.start()
    try:
        # a larger caller cap does not lift the table's own guard
        with pytest.raises(CapExceeded, match=f"n={n} exceeds cap {PROOF_ENUM_CAP}"):
            competitive_ratio_exhaustive(greedy_strategy(costs), f, costs, cap=20)
        for sweep in (lambda: cheapest_proof_costs(f, costs),
                      lambda: minimal_witness_domains(f),
                      lambda: max_restriction_objective(f, cap=20),
                      f.subcube_table):
            with pytest.raises(CapExceeded):
                sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 ** n // 8  # nothing near the 3**n-entry table was allocated
