"""The covering program, its canonical solution, the guided reader, switches."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from pricedbool.core import (
    BooleanFunction,
    ContractViolation,
    CostVector,
    Dnf,
    Literal,
    PartialAssignment,
    PricedBoolError,
    majority,
    max_proof_size,
    minterms,
    parity,
    parse_dnf,
    random_cost_vector,
    random_function,
    table_to_text,
)
from pricedbool.harness import competitive_ratio_exhaustive, greedy_strategy
from pricedbool.lp import (
    ProofLp,
    SwitchAnalysis,
    _certify,
    build_lp,
    lp_guided_strategy,
    lp_objective,
    lp_solution,
    make_switch_family,
    max_restriction_objective,
    solve_lp,
    switch_example,
)
from pricedbool.quadratic import make_pivot_pairs
from pricedbool.verify import _monotone_battery

F = Fraction

# 4-variable function whose covering rows are {x1} and {x0, x2}; under the
# right costs a reader ranking raw cost over weight overshoots the sweep bound
TRICKY = BooleanFunction([0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1])
TRICKY_COSTS = CostVector.of([F(84, 5), 44, F(43, 2), 15])


def test_build_lp_rows_are_minimal_witness_sets():
    assert sorted(sorted(r) for r in build_lp(parse_dnf("x0 & x1").function()).rows) \
        == [[0], [1]]
    assert sorted(sorted(r) for r in build_lp(TRICKY).rows) == [[0, 2], [1]]


def test_constant_gets_the_empty_program():
    lp = build_lp(BooleanFunction([1, 1]))
    assert lp.rows == ()
    sol = solve_lp(ProofLp(3, ()))
    assert sol.values == (0, 0, 0) and sol.objective == 0


def test_empty_row_rejected():
    with pytest.raises(ValueError):
        ProofLp(2, (frozenset(),))


def test_solution_objectives():
    assert lp_objective(parse_dnf("x0 & x1").function()) == 2
    assert lp_objective(parity(4)) == 1
    assert lp_objective(majority(3)) == F(3, 2)


def test_canonical_solution_is_the_most_even_one():
    assert lp_solution(parse_dnf("x0 & x1").function()).values == (1, 1)
    assert lp_solution(parity(3)).values == (F(1, 3),) * 3
    assert lp_solution(majority(3)).values == (F(1, 2),) * 3
    # irrelevant variables get weight 0, not an arbitrary vertex split
    assert lp_solution(parse_dnf("x0", n=3).function()).values == (1, 0, 0)
    assert lp_solution(TRICKY).values == (F(1, 2), 1, F(1, 2), 0)


def test_canonical_solution_commutes_with_relabeling():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 5)
        f = random_function(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        table = [0] * (1 << n)
        for index in range(1 << n):
            image = sum((index >> v & 1) << perm[v] for v in range(n))
            table[image] = f.table[index]
        base = lp_solution(f).values
        assert lp_solution(BooleanFunction(table)).values == \
            tuple(base[perm.index(v)] for v in range(n))


def test_solution_is_feasible_and_tight():
    rng = random.Random(32)
    for _ in range(15):
        f = random_function(rng, rng.randint(2, 5))
        lp = build_lp(f)
        sol = lp_solution(f)
        assert sum(sol.values) == sol.objective
        assert all(v >= 0 for v in sol.values)
        for row in lp.rows:
            assert sum(sol.values[v] for v in row) >= 1


def test_objective_within_the_largest_proof():
    rng = random.Random(33)
    for _ in range(30):
        f = random_function(rng, rng.randint(2, 6))
        assert lp_objective(f) <= max_proof_size(f)


def _gate_functions():
    yield from _monotone_battery(0)[0]
    rng = random.Random(500)
    for _ in range(300):
        yield random_function(rng, rng.randint(4, 6))
    for n in range(3, 8):
        yield majority(n)
    for k, t in ((1, 2), (2, 1)):
        yield make_switch_family(k, t).function()


def test_lp_solution_bytes_are_pinned():
    # sha256 prefix recorded before the simplex moved to integer rows; the
    # lex-max-min point is unique, so any correct solver reproduces it
    digest = hashlib.sha256()
    count = 0
    for f in _gate_functions():
        digest.update(json.dumps(lp_solution(f).to_json(), sort_keys=True).encode())
        count += 1
    assert count == 166 + 300 + 5 + 2
    assert digest.hexdigest()[:16] == "6b5995b932c845a0"


def test_lpa_and_delta_bytes_are_pinned(capsys, tmp_path):
    # sha256 prefixes recorded before the restriction sweep stopped at the
    # free-variable bound and the guided reader moved to integer residuals
    from pricedbool.cli import main

    rng = random.Random(2020)
    digests = {"lpa": hashlib.sha256(), "delta": hashlib.sha256()}
    for i, n in enumerate([2, 3, 4, 5, 6] * 20):
        path = tmp_path / f"t{i}.txt"
        path.write_text(table_to_text(random_function(rng, n)))
        extra = {"lpa": ["--cost", f"random:{rng.randrange(1000)}"], "delta": []}
        for verb, digest in digests.items():
            code = main(["lp", verb, "--f", str(path), *extra[verb]])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert {verb: d.hexdigest()[:16] for verb, d in digests.items()} == \
        {"lpa": "30f25d126a20bcec", "delta": "b4534e3a151f5000"}


def test_certify_names_each_broken_condition():
    rows = build_lp(majority(3)).rows
    _certify(rows, [F(1, 2)] * 3, F(3, 2))
    for values, objective, reason in (([F(-1, 2), 1, 1], F(3, 2), "negative weight"),
                                      ([F(1, 2)] * 3, 2, "objective mismatch"),
                                      ([F(1, 2), F(1, 2), 0], 1, "uncovered row")):
        with pytest.raises(PricedBoolError, match=reason):
            _certify(rows, values, objective)


def test_solution_json_shape():
    out = lp_solution(parity(3)).to_json()
    assert out == {"s": {"x0": "1/3", "x1": "1/3", "x2": "1/3"},
                   "objective": "1", "rows": 1}


# --- the restriction sweep ----------------------------------------------------


def test_sweep_on_the_switch_example():
    g = switch_example().function()
    assert max_restriction_objective(g) == 3
    assert max_proof_size(g) == 4  # strictly above the sweep value


def test_sweep_on_switch_families():
    for k, t in ((1, 1), (1, 2), (2, 1)):
        fam = make_switch_family(k, t)
        f = fam.function()
        assert max_restriction_objective(f) == k + t
        assert max_proof_size(f) == t * fam.slot_count


def test_sweep_equals_proof_size_on_monotone_functions():
    rng = random.Random(34)
    for _ in range(12):
        f = _random_monotone(rng, 4)
        if f.is_constant() is not None:
            continue
        assert max_restriction_objective(f) == max_proof_size(f)


def _unpruned_sweep(f):
    """The covering optimum maximized over every restriction, one by one."""
    best = 0
    for mask in range(1 << f.n):
        for bits in range(1 << f.n):
            if not bits & ~mask:
                g, _ = f.restrict(PartialAssignment(f.n, mask, bits))
                if g.is_constant() is None:
                    best = max(best, lp_objective(g))
    return best


def _sweep_battery():
    for n in range(1, 4):
        for index in range(1, (1 << (1 << n)) - 1):
            yield BooleanFunction([index >> x & 1 for x in range(1 << n)])
    rng = random.Random(45)
    for n in (4, 5, 6) * 4:
        yield random_function(rng, n)
    yield switch_example().function()
    yield majority(5)
    yield make_switch_family(1, 2).function()


def test_pruned_sweep_matches_the_unpruned_one():
    functions = list(_sweep_battery())
    assert len(functions) == 270 + 12 + 3
    for f in functions:
        assert max_restriction_objective(f) == _unpruned_sweep(f), f.table


def test_sweep_solves_no_restriction_its_free_count_cannot_lift(monkeypatch):
    # k free variables bound the optimum by k, so once the best reaches k
    # no restriction with k or fewer free variables needs its program
    from pricedbool import lp

    objective = lp.lp_objective
    solved = []

    def counted(sub):
        solved.append((sub.n, objective(sub)))
        return solved[-1][1]

    monkeypatch.setattr(lp, "lp_objective", counted)
    for f in _sweep_battery():
        solved.clear()
        delta = max_restriction_objective(f)
        best = 0
        for k, value in solved:
            assert k > best, (f.table, solved)
            best = max(best, value)
        assert best == delta


def _random_monotone(rng, n):
    terms = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, n)
        terms.append(frozenset(Literal(v) for v in rng.sample(range(n), size)))
    return Dnf(n, tuple(terms)).function()


# --- the guided reader --------------------------------------------------------


def test_guided_reader_parity_is_optimal():
    rng = random.Random(35)
    for n in (2, 3, 4):
        costs = random_cost_vector(n, rng, positive=True)
        rep = competitive_ratio_exhaustive(lp_guided_strategy(parity(n), costs),
                                           parity(n), costs)
        assert rep.ratio == 1


def test_guided_reader_reads_free_variables_first():
    costs = CostVector.of([5, 0, 7])
    alg = lp_guided_strategy(majority(3), costs)
    assert alg.next_query(0, 0) == 1


def test_guided_reader_stays_within_the_sweep_value():
    rng = random.Random(36)
    for _ in range(15):
        f = random_function(rng, rng.randint(2, 5))
        delta = max_restriction_objective(f)
        for _ in range(3):
            costs = random_cost_vector(f.n, rng)
            rep = competitive_ratio_exhaustive(lp_guided_strategy(f, costs), f, costs)
            assert rep.ratio <= delta


def _guided_reads(f, costs):
    """The guided reader's read at every node of its decision tree, by (mask, bits)."""
    walked = lp_guided_strategy(f, costs)
    reads, stack = {}, [PartialAssignment(f.n)]
    while stack:
        part = stack.pop()
        if f.is_determined(part) is None:
            reads[part.mask, part.bits] = var = walked.next_query(part.mask, part.bits)
            stack += [part.bind(var, b) for b in (1, 0)]
    return reads


def _fraction_reads(f, costs):
    """The guided reader's reads by (mask, bits), charged in `Fraction`s."""
    reads, stack = {}, [(PartialAssignment(f.n), costs.values)]
    while stack:
        part, residuals = stack.pop()
        if f.is_determined(part) is not None:
            continue
        g, kept = f.restrict(part)
        var = next((v for v in kept if residuals[v] == 0), None)
        if var is None:
            s = lp_solution(g).values
            rate = min(residuals[v] / s[j] for j, v in enumerate(kept) if s[j] > 0)
            after = list(residuals)
            for j, v in enumerate(kept):
                if s[j] > 0:
                    after[v] -= rate * s[j]
                    if after[v] == 0 and var is None:
                        var = v
            residuals = tuple(after)
        reads[part.mask, part.bits] = var
        stack += [(part.bind(var, b), residuals) for b in (1, 0)]
    return reads


def test_integer_charges_read_what_fraction_charges_read():
    rng = random.Random(46)
    kinds = {
        "random": lambda n: random_cost_vector(n, rng).values,
        "tied": lambda n: [F(rng.choice((1, 2)), 3) for _ in range(n)],
        "zeros": lambda n: [rng.choice((0, 0, 1, F(5, 2))) for _ in range(n)],
        "huge": lambda n: [F(rng.randint(1, 10**30), rng.randint(1, 10**30)) for _ in range(n)],
    }
    nodes = 0
    for n in (2, 3, 4, 5, 6):
        for kind, draw in kinds.items():
            for _ in range(5):
                f = random_function(rng, n)
                costs = CostVector.of(draw(n))
                reads = _guided_reads(f, costs)
                assert reads == _fraction_reads(f, costs), (kind, f.table, costs)
                nodes += len(reads)
    assert nodes > 1200


def test_guided_reader_asked_out_of_order_reads_the_same_variables():
    # a walk asks every state after its parent, whose charge is then
    # cached; a fresh reader asked the deepest states first must charge
    # its way from the root to the same answers
    rng = random.Random(37)
    asked = 0
    for n in [2, 3, 4, 5, 6] * 12:
        f = random_function(rng, n)
        costs = random_cost_vector(n, rng)
        reads = _guided_reads(f, costs)
        fresh = lp_guided_strategy(f, costs)
        for mask, bits in sorted(reads, key=lambda state: state[0].bit_count(), reverse=True):
            assert fresh.next_query(mask, bits) == reads[mask, bits], (f, costs, mask, bits)
        asked += len(reads)
    assert asked > 500


def test_guided_reader_refuses_a_state_its_reads_never_reach():
    rng = random.Random(38)
    refused = 0
    for n in [2, 3, 4, 5] * 5:
        f = random_function(rng, n, nonconstant=True)
        costs = random_cost_vector(n, rng)
        reads = _guided_reads(f, costs)
        fresh = lp_guided_strategy(f, costs)
        for mask in range(1, 1 << n):
            for bits in range(1 << n):
                if bits & ~mask or (mask, bits) in reads:
                    continue
                # a state where f is forced is never asked; any other one
                # leaves the reader's own path somewhere above it
                open_ = f.is_determined(PartialAssignment(n, mask, bits)) is None
                with pytest.raises(ContractViolation,
                                   match="never reaches" if open_ else "contract violation"):
                    fresh.next_query(mask, bits)
                refused += open_
        # the refusals leave the reader's own states as they were
        assert {state: fresh.next_query(*state) for state in reads} == reads
    assert refused > 100


def test_guided_reader_charges_survive_a_luring_chain():
    # raw cost-over-weight ranking pays 973/10 here and lands above the
    # sweep value; charging residuals keeps the total at 823/10
    delta = max_restriction_objective(TRICKY)
    assert delta == 2
    rep = competitive_ratio_exhaustive(lp_guided_strategy(TRICKY, TRICKY_COSTS),
                                       TRICKY, TRICKY_COSTS)
    assert rep.ratio == F(823, 440)
    assert rep.ratio <= delta
    greedy = competitive_ratio_exhaustive(greedy_strategy(TRICKY_COSTS),
                                          TRICKY, TRICKY_COSTS)
    assert greedy.ratio == F(973, 440) > delta


# --- switches ------------------------------------------------------------------


def test_a_dnf_without_switches_is_refused_before_any_table(monkeypatch):
    def no_table(dnf):
        raise AssertionError("built a table")

    monkeypatch.setattr(Dnf, "function", no_table)
    for text in ("x0 & x1 | x2", "!x0 & x1 | !x2", "x0 & !x1"):
        with pytest.raises(PricedBoolError, match="^no variable appears in both polarities; "
                                                  "there is no switch to analyze$"):
            SwitchAnalysis(parse_dnf(text))


def _random_dnf(rng):
    n = rng.randint(1, 7)
    terms = []
    for _ in range(rng.randint(1, 5)):
        variables = rng.sample(range(n), rng.randint(1, min(n, 4)))
        terms.append(frozenset(Literal(v, rng.random() < 0.5) for v in variables))
    return Dnf(n, tuple(terms))


def _switch_battery():
    yield switch_example()
    yield make_pivot_pairs(2).dnf()
    for k, t in ((1, 1), (1, 2), (2, 1), (2, 2)):
        yield make_switch_family(k, t).dnf()
    rng = random.Random(24)
    for _ in range(1000):
        yield _random_dnf(rng)


def _is_monotone(table, n):
    return all(table[x] <= table[x | 1 << v]
               for v in range(n) for x in range(1 << n) if not x >> v & 1)


def test_switches_are_both_polarities_and_every_branch_is_monotone_after_flips():
    analyses = 0
    for dnf in _switch_battery():
        pos = {lit.variable for term in dnf.terms for lit in term if not lit.negated}
        neg = {lit.variable for term in dnf.terms for lit in term if lit.negated}
        if not pos & neg:
            with pytest.raises(PricedBoolError, match="no switch to analyze"):
                SwitchAnalysis(dnf)
            continue
        analysis = SwitchAnalysis(dnf)
        analyses += 1
        assert analysis.switches == tuple(sorted(pos & neg))
        assert len(analysis._branches) == 1 << len(analysis.switches)
        for _, g, kept, _ in analysis._branches:
            flips = sum(1 << j for j, v in enumerate(kept) if v in neg - pos)
            table = [int(g.table[x ^ flips]) for x in range(1 << g.n)]
            assert _is_monotone(table, g.n), dnf.text()
    assert analyses > 500


def test_branch_proofs_of_the_switch_example():
    assert SwitchAnalysis(switch_example()).proof_size == 2


def test_mixed_solution_is_feasible_and_small():
    gd = switch_example()
    mixed = SwitchAnalysis(gd).mixed_solution()
    assert mixed.values == (F(1, 2), F(1, 2), F(1, 2), F(1, 2), 1)
    assert mixed.objective == 3  # = switches + branch proof size
    rows = build_lp(gd.function()).rows
    assert all(sum(mixed.values[v] for v in row) >= 1 for row in rows)


def test_certified_switch_oracles():
    assert SwitchAnalysis(switch_example()).certified_switch()[:3] == ((0,), (0, 1), "minterm")
    assert SwitchAnalysis(make_switch_family(2, 1).dnf()).certified_switch()[:3] == \
        ((0, 0), (0,), "minterm")


def test_switch_adversary_forces_the_target():
    from pricedbool.harness import adversarial_ratio

    gd = switch_example()
    # the example's dual certifies by a maxterm: setting x4 = 0 leaves
    # x2 | x3, and the other setting has no maxterm inside {x2, x3}
    dual = parse_dnf("x4 & x0 | x4 & x1 | !x4 & x2 | !x4 & x3")
    for dnf, side in ((gd, "minterm"), (dual, "maxterm")):
        analysis = SwitchAnalysis(dnf)
        g = analysis.f
        _, _, certified_side, costs, adversary = analysis.certified_switch()
        assert certified_side == side
        assert analysis.switches == (4,)
        target = len(analysis.switches) + analysis.proof_size
        for alg in (greedy_strategy(costs), lp_guided_strategy(g, costs)):
            rep = adversarial_ratio(alg, g, adversary, costs)
            assert rep.ratio >= target
        # and the sweep value meets it from above, certifying equality
        assert max_restriction_objective(g) == target == 3


def test_certified_switch_refuses_certificates_another_setting_shares():
    # both settings leave x1, so each certifies inside the other's {x1}
    with pytest.raises(PricedBoolError, match="no largest certificate qualifies"):
        SwitchAnalysis(parse_dnf("x0 & x1 | !x0 & x1")).certified_switch()


def test_constant_branches_certify_inside_every_set():
    # switches x0, x2: setting (1, 0) leaves the constant 1, whose empty
    # minterm lies inside the variables of every other setting's minterms
    analysis = SwitchAnalysis(parse_dnf("x0 & x1 | !x0 & x2 & x3 | x0 & !x2"))
    assert analysis.switches == (0, 2)
    with pytest.raises(PricedBoolError, match="no largest certificate qualifies"):
        analysis.certified_switch()
    # switches x0, x1: settings (1, 0) and (0, 1) leave the constant 0, whose
    # empty maxterm spoils every maxterm of the others but no minterm
    analysis = SwitchAnalysis(parse_dnf("x0 & x1 & x2 | !x0 & !x1 & x3"))
    assert analysis.switches == (0, 1)
    assert analysis.certified_switch()[:3] == ((0, 0), (3,), "minterm")
    with pytest.raises(PricedBoolError, match=r"setting \(1, 0\) leaves a constant function"):
        analysis.mixed_solution()


def test_z_free_proofs_decompose_into_branch_minterms():
    _assert_decomposition(switch_example(), [4])
    for k, t in ((1, 2), (2, 1)):
        fam = make_switch_family(k, t)
        _assert_decomposition(fam.dnf(), list(fam.switch_variables))


def _assert_decomposition(dnf, switch_list):
    """Every proof of 1 avoiding the switches is a union of one minterm
    per switch setting, each realized by the proof's witness."""
    from pricedbool.core import _sweep_minimal

    f = dnf.function()
    branches = []
    for code in range(1 << len(switch_list)):
        setting = {z: code >> s & 1 for s, z in enumerate(switch_list)}
        g, kept = f.restrict(PartialAssignment.of(f.n, setting))
        if g.is_constant() == 1:
            branches.append([frozenset()])
        elif g.is_constant() == 0:
            branches.append([])
        else:
            branches.append([
                frozenset(Literal(kept[lit.variable], lit.negated) for lit in term)
                for term in minterms(g)])
    switch_mask = sum(1 << z for z in switch_list)
    z_free = [(mask, bits) for mask, bits, value in _sweep_minimal(f)
              if not mask & switch_mask and value == 1]
    assert z_free, "expected at least one switch-free proof of 1"
    for mask, bits in z_free:
        variables = {v for v in range(f.n) if mask >> v & 1}
        options = []
        for terms in branches:
            realized = [t for t in terms
                        if {lit.variable for lit in t} <= variables
                        and all(bits >> lit.variable & 1 == lit.value_when_true for lit in t)]
            options.append(realized)
        assert all(options), "some setting has no realized minterm inside the proof"
        assert any(
            frozenset().union(*({lit.variable for lit in t} for t in pick)) == variables
            for pick in itertools.product(*options)), variables


@pytest.mark.parametrize("token, passes", [("g", 2), ("family:2,1", 4)])
def test_lemma2_sweeps_each_branch_once(monkeypatch, capsys, token, passes):
    from pricedbool import cli, core

    calls = []
    original = core._sweep_minimal

    def counted(f):
        calls.append(f.n)
        return original(f)

    monkeypatch.setattr(core, "_sweep_minimal", counted)
    assert cli.main(["lp", "lemma2", "--f", token]) == 0
    assert "certified setting" in capsys.readouterr().out
    assert len(calls) == passes  # one certificate sweep per switch setting


def test_restriction_sweep_folds_one_subcube_table(monkeypatch):
    from pricedbool import core, lp

    fold = core._build_subcubes
    folds = []
    monkeypatch.setattr(core, "_build_subcubes", lambda g: folds.append(g) or fold(g))
    objective = lp.lp_objective

    def checked(sub):
        table = sub.subcube_table()
        assert not table.flags.writeable
        assert (table == fold(BooleanFunction(sub.table))).all()
        return objective(sub)

    monkeypatch.setattr(lp, "lp_objective", checked)
    # an empty cache, so every distinct restriction builds its program
    monkeypatch.setattr(lp, "_OBJECTIVE_CACHE", {})
    rng = random.Random(43)
    functions = [make_switch_family(1, 2).function(), switch_example().function(),
                 majority(5)] + [random_function(rng, n) for n in (3, 4, 5, 6)]
    for f in functions:
        folds.clear()
        max_restriction_objective(f)
        assert folds == [f]  # f's own table, and no restriction's


def test_guided_reader_folds_one_subcube_table(monkeypatch, capsys, tmp_path):
    from pricedbool import cli, core, lp

    fold = core._build_subcubes
    folds = []
    monkeypatch.setattr(core, "_build_subcubes", lambda g: folds.append(g.n) or fold(g))
    solve = lp.lp_solution

    def checked(g):
        table = g.subcube_table()
        assert not table.flags.writeable
        assert (table == fold(BooleanFunction(g.table))).all()
        return solve(g)

    monkeypatch.setattr(lp, "lp_solution", checked)
    monkeypatch.setattr(lp, "_SOLUTION_CACHE", {})
    monkeypatch.setattr(lp, "_OBJECTIVE_CACHE", {})
    path = tmp_path / "f.txt"
    path.write_text("6\n4df5a6c3008b0b0b\n")
    assert cli.main(["lp", "lpa", "--f", str(path), "--cost", "random:3"]) == 0
    # 22 folds, one per restriction the reader solved, before restrictions
    # became views of f's table; the output bytes are those of that version
    assert folds == [6]
    assert capsys.readouterr().out == (
        "ratio: 585/313\ndelta: 4\nworst assignment: 001010\n"
        "check guided reader within the restriction sweep: pass (585/313 <= 4)\n")


def test_guided_reader_past_the_proof_cap_reads_free_variables(monkeypatch):
    from pricedbool import core, lp

    # f is too wide for a subcube table, but after its two free reads the
    # restriction is not, so the reader goes on as before
    n = core.PROOF_ENUM_CAP + 1
    monkeypatch.setattr(lp, "_SOLUTION_CACHE", {})
    alg = lp_guided_strategy(parity(n), CostVector.of([0, 0] + [1] * (n - 2)))
    mask = 0
    for expected in (0, 1, 2):
        assert alg.next_query(mask, mask) == expected
        mask |= 1 << expected


def test_refinement_solves_few_programs(monkeypatch):
    from pricedbool import lp, simplex

    calls, runs = [], []
    real, optimize = lp.simplex_max, simplex._optimize
    monkeypatch.setattr(lp, "simplex_max", lambda *args: calls.append(1) or real(*args))
    # every tableau the package runs, whatever entry point started it
    monkeypatch.setattr(simplex, "_optimize", lambda *args: runs.append(1) or optimize(*args))
    monkeypatch.setattr(lp, "_SOLUTION_CACHE", {})
    monkeypatch.setattr(lp, "_OBJECTIVE_CACHE", {})
    # a variable-transitive function spreads evenly: the optimum and no
    # round; the most even point is unique, so it is the uniform one
    assert lp_solution(majority(9)).values == (F(1, 5),) * 9
    assert len(calls) == len(runs) == 1
    for n in (7, 8):
        assert lp_solution(majority(n)).values == (F(1, (n + 1) // 2),) * n
    # every round pins at least one variable
    for f in _gate_functions():
        calls.clear()
        runs.clear()
        solve_lp(build_lp(f))
        assert len(calls) == len(runs) <= 1 + f.n


# --- cache bounds -------------------------------------------------------------


def test_caches_stay_within_their_cap(monkeypatch):
    from pricedbool import lp

    monkeypatch.setattr(lp, "CACHE_CAP", 8)
    monkeypatch.setattr(lp, "_SOLUTION_CACHE", {})
    monkeypatch.setattr(lp, "_OBJECTIVE_CACHE", {})
    rng = random.Random(44)
    functions = {}
    while len(functions) < 30:
        f = random_function(rng, rng.randint(2, 4))
        functions.setdefault(lp._canonical_key(f), f)
    for f in functions.values():
        want = solve_lp(build_lp(f))
        assert lp_solution(f) == want
        max_restriction_objective(f)  # a burst of objectives, no solutions
        assert len(lp._SOLUTION_CACHE) <= 8 and len(lp._OBJECTIVE_CACHE) <= 8
    # the solution cache keeps the newest keys, in insertion order
    assert list(lp._SOLUTION_CACHE) == list(functions)[-8:]
    # an evicted entry is solved again, to the same answer
    first = next(iter(functions.values()))
    assert lp_solution(first) == solve_lp(build_lp(first))
