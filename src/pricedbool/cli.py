"""The command line surface: one program, seven verbs.

analyze   structural numbers of a function (proof sizes, term counts)
ratio     run an algorithm exhaustively or against a named adversary
lp        covering program: solve | delta | lpa | family | lemma2
quad      largest-maxterm analysis; the pivot-pairs generator
sym       block structure and ratio formula of a symmetric profile
verify    deterministic property suites; nonzero exit on any failure
gen       print a generator's DNF or truth table

Functions come from generator tokens (fstar:<s>, g, family:<k>,<t>,
parity:<n>, majority:<n>, sym:<bits>), from files in either accepted
text format, or from inline DNF text.  Costs come from the presets
unit, extremal and random:<seed>, or from a JSON object.  Reports are
deterministic given the command line; --json writes the report to a
path.  Exit codes: 0 success, 1 a checked inequality failed, 2 bad
input or an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional

from . import __version__
from .core import (
    PROOF_ENUM_CAP,
    SEARCH_CAP,
    BooleanFunction,
    CostVector,
    Dnf,
    PricedBoolError,
    _require_cap,
    _require_table_cap,
    certificates,
    cost_json,
    cost_text,
    looks_like_table_text,
    majority,
    max_proof_size,
    parity,
    parse_cost_json,
    parse_dnf,
    parse_table_text,
    random_cost_vector,
    table_to_text,
    unit_costs,
)
from .harness import (
    GreedyStrategy,
    adversarial_ratio,
    competitive_ratio_exhaustive,
    ratio_string,
)
from .lp import (
    FamilySpec,
    LpGuidedStrategy,
    SwitchAnalysis,
    lp_solution,
    max_restriction_objective,
    switch_example,
)
from .quadratic import (
    PivotPairs,
    PivotTwoPhase,
    maxterm_adversary,
    maxterm_analysis,
)
from .symmetric import (
    SymmetricProfile,
    blocks,
    extremal_cost_vector,
    profile_of,
    ratio_formula,
    spread,
    symmetric_adversary,
)
from .verify import SUITE_NAMES, run_suite

GENERATORS = "fstar:<s>, g, family:<k>,<t>, parity:<n>, majority:<n>, sym:<bits>"


@dataclass
class FunctionSource:
    """A loaded function, its table built on first use, plus its origin's structure."""

    label: str
    build: Callable[[], BooleanFunction]
    dnf: Optional[Dnf] = None
    pairs: Optional[PivotPairs] = None
    family: Optional[FamilySpec] = None

    @cached_property
    def f(self) -> BooleanFunction:
        return self.build()


def _ascii_int(pattern: str) -> Callable[[str], int]:
    """An argparse type: an int spelled as ``pattern`` in ASCII digits, where
    int() alone also takes other scripts' digits, "_", "+" and spaces."""
    def parse(text: str) -> int:
        if not re.fullmatch(pattern, text):
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}; expected {pattern}")
        return int(text)
    return parse


def _int_params(token: str, name: str, count: int) -> list[int]:
    raw = token[len(name) + 1:]
    parts = raw.split(",")
    if len(parts) != count or not all(re.fullmatch("-?[0-9]+", p) for p in parts):
        plural = "," .join(["<int>"] * count)
        raise PricedBoolError(f"generator {name} needs {name}:{plural}, got {token!r}")
    return [int(p) for p in parts]


def load_function(token: str) -> FunctionSource:
    """Resolve --f: generator token, file in either format, or inline DNF."""
    if token == "g":
        dnf = switch_example()
        return FunctionSource("g", dnf.function, dnf=dnf)
    if token.startswith("fstar:"):
        (s,) = _int_params(token, "fstar", 1)
        pairs = PivotPairs(s)
        _require_table_cap(pairs.n)
        return FunctionSource(token, pairs.function, dnf=pairs.dnf(), pairs=pairs)
    if token.startswith("family:"):
        k, t = _int_params(token, "family", 2)
        fam = FamilySpec(k, t)
        _require_table_cap(fam.n)
        return FunctionSource(token, fam.function, dnf=fam.dnf(), family=fam)
    if token.startswith("parity:"):
        (n,) = _int_params(token, "parity", 1)
        return FunctionSource(token, partial(parity, n))
    if token.startswith("majority:"):
        (n,) = _int_params(token, "majority", 1)
        return FunctionSource(token, partial(majority, n))
    if token.startswith("sym:"):
        profile = SymmetricProfile.from_string(token[4:])
        return FunctionSource(token, profile.function)
    if os.path.isfile(token):
        with open(token) as fh:
            text = fh.read()
        if looks_like_table_text(text):
            return FunctionSource(token, partial(parse_table_text, text))
        dnf = parse_dnf(text)
        return FunctionSource(token, dnf.function, dnf=dnf)
    if "/" in token or "\\" in token:
        raise PricedBoolError(f"no such file: {token}")
    dnf = parse_dnf(token)
    return FunctionSource(token, dnf.function, dnf=dnf)


def load_costs(token: Optional[str], src: FunctionSource, seed: int) -> tuple[CostVector, str]:
    n = src.f.n
    if token is None or token == "unit":
        return unit_costs(n), "unit"
    if token == "extremal":
        profile = profile_of(src.f)
        if profile is None:
            raise PricedBoolError("extremal costs are defined for symmetric functions only")
        return extremal_cost_vector(profile), "extremal"
    if token == "random" or re.fullmatch("random:[0-9]+", token):
        used = seed if token == "random" else int(token[len("random:"):])
        return random_cost_vector(n, random.Random(used)), f"random:{used}"
    if os.path.isfile(token):
        with open(token) as fh:
            return parse_cost_json(fh.read(), n), token
    if token.lstrip().startswith("{"):
        return parse_cost_json(token, n), "inline"
    raise PricedBoolError(f"unknown cost source {token!r}; use unit, extremal, "
                          "random:<seed>, or a JSON object")


def _cap(args, fallback: int) -> int:
    cap = getattr(args, "cap_n", None)
    return min(fallback, cap) if cap is not None else fallback


def _verdict(name: str, ok: bool, detail: str = "") -> dict:
    return {"check": name, "pass": bool(ok), "detail": detail}


def _verdict_lines(verdicts: list[dict]) -> list[str]:
    out = []
    for v in verdicts:
        mark = "pass" if v["pass"] else "FAIL"
        tail = f" ({v['detail']})" if v["detail"] else ""
        out.append(f"check {v['check']}: {mark}{tail}")
    return out


def _emit(args, report: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _finish(args, command: str, inputs: dict, results: dict,
            verdicts: list[dict], lines: list[str]) -> int:
    meta = {
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "caps": {"proof_enumeration": PROOF_ENUM_CAP, "search": SEARCH_CAP},
    }
    if getattr(args, "cap_n", None) is not None:
        meta["caps"]["requested"] = args.cap_n
    report = {"command": command, "inputs": inputs, "results": results,
              "verdicts": verdicts, "meta": meta}
    _emit(args, report, lines + _verdict_lines(verdicts))
    return 0 if all(v["pass"] for v in verdicts) else 1


def cmd_analyze(args) -> int:
    src = load_function(args.f)
    f = src.f
    constant = f.is_constant()
    if constant is not None:
        lines = [f"n: {f.n}", f"constant: {constant}"]
        return _finish(args, "analyze", {"f": src.label},
                       {"n": f.n, "constant": constant}, [], lines)
    _require_cap(f.n, _cap(args, PROOF_ENUM_CAP), "proof enumeration")
    # every proof is a minterm or a maxterm, so one sweep gives all counts
    mins, maxs = certificates(f)
    k, ell = (max(len(t) for t in terms) for terms in (mins, maxs))
    largest, n_min, n_max = max(k, ell), len(mins), len(maxs)
    results = {"n": f.n, "proof_size_max": largest, "k": k, "l": ell,
               "minterms": n_min, "maxterms": n_max, "proofs": n_min + n_max}
    lines = [f"n: {f.n}", f"PROOF: {largest}", f"k: {k}", f"l: {ell}",
             f"minterms: {n_min}", f"maxterms: {n_max}", f"proofs: {n_min + n_max}"]
    profile = profile_of(f)
    if profile is not None:
        results["spread"] = spread(profile)
        results["profile"] = profile.text()
        lines.append(f"spread: {spread(profile)} (symmetric, profile {profile.text()})")
    return _finish(args, "analyze", {"f": src.label}, results, [], lines)


def _build_algorithm(name: str, src: FunctionSource, costs: CostVector):
    if name == "greedy":
        return GreedyStrategy(costs)
    if name == "lpa":
        return LpGuidedStrategy(src.f, costs)
    if src.pairs is None:
        raise PricedBoolError("bf2 runs only on fstar:<s> instances")
    return PivotTwoPhase(src.pairs, costs)


def cmd_ratio(args) -> int:
    src = load_function(args.f)
    f = src.f
    alg_name = args.alg or "greedy"
    verdicts: list[dict] = []
    inputs = {"f": src.label, "alg": alg_name}
    analysis = None
    if args.adversary in ("winners", "survivors"):
        if args.cost is not None:
            raise PricedBoolError(f"adversary {args.adversary!r} constructs its own "
                                  "costs; drop --cost")
        analysis = maxterm_analysis(f)
        costs, adversary = maxterm_adversary(f, args.adversary, analysis)
        cost_label = f"{args.adversary} charge"
    else:
        costs, cost_label = load_costs(args.cost, src, args.seed)
        adversary = None
        if args.adversary == "symmetric":
            profile = profile_of(f)
            if profile is None:
                raise PricedBoolError("the symmetric adversary needs a symmetric function")
            adversary = symmetric_adversary(profile, costs)
        elif args.adversary is not None:
            raise PricedBoolError(f"unknown adversary {args.adversary!r}; use "
                                  "symmetric, winners, or survivors")
    inputs["cost"] = cost_label
    algorithm = _build_algorithm(alg_name, src, costs)
    if adversary is None:
        rep = competitive_ratio_exhaustive(algorithm, f, costs, cap=_cap(args, SEARCH_CAP))
        mode = "exhaustive"
    else:
        rep = adversarial_ratio(algorithm, f, adversary, costs)
        mode = f"adversarial:{args.adversary}"
    results = {"mode": mode, "ratio": rep.to_json(), "costs": cost_json(costs)}
    lines = [f"algorithm: {alg_name}", f"mode: {mode}",
             f"ratio: {ratio_string(rep.ratio)}",
             f"algorithm cost: {rep.algorithm_cost}  cheapest proof: {rep.proof_cost}"]
    profile = profile_of(f)
    if profile is not None and profile.is_constant() is None:
        formula = ratio_formula(profile, costs)
        results["formula"] = ratio_string(formula)
        lines.append(f"symmetric formula: {ratio_string(formula)}")
        if alg_name == "greedy" and analysis is not None:
            # any adversary's forced ratio is at most greedy's exhaustive one
            verdicts.append(_verdict(f"the {args.adversary} adversary holds greedy within "
                                     "the formula value", rep.ratio <= formula,
                                     f"{ratio_string(rep.ratio)} <= {ratio_string(formula)}"))
        elif alg_name == "greedy":
            name = ("greedy exhaustive ratio equals the symmetric formula"
                    if adversary is None else
                    "the symmetric adversary forces greedy to the formula value")
            verdicts.append(_verdict(name, rep.ratio == formula,
                                     f"{ratio_string(rep.ratio)} vs {ratio_string(formula)}"))
    if alg_name == "bf2":
        bound = src.pairs.s + 1
        verdicts.append(_verdict("two-phase ratio within s+1", rep.ratio <= bound,
                                 f"{ratio_string(rep.ratio)} <= {bound}"))
    if analysis is not None:
        target = Fraction(len(analysis.maxterm), 3)
        results["maxterm_third"] = str(target)
        lines.append(f"largest maxterm / 3: {target}")
    return _finish(args, "ratio", inputs, results, verdicts, lines)


def cmd_sym(args) -> int:
    src = load_function(args.f)
    profile = profile_of(src.f)
    if profile is None:
        raise PricedBoolError("sym needs a symmetric function; try sym:<bits>")
    if profile.is_constant() is not None:
        raise PricedBoolError("the ratio formula is undefined for constant profiles")
    costs, cost_label = load_costs(args.cost, src, args.seed)
    width = spread(profile)
    formula = ratio_formula(profile, costs)
    extremal = extremal_cost_vector(profile)
    at_extremal = ratio_formula(profile, extremal)
    table = [{"value": b.value, "lower": b.lower, "upper": b.upper, "width": b.width}
             for b in blocks(profile)]
    results = {
        "profile": profile.text(),
        "n": profile.n,
        "blocks": table,
        "spread": width,
        "formula": ratio_string(formula),
        "extremal_costs": cost_json(extremal),
        "formula_at_extremal": ratio_string(at_extremal),
    }
    lines = [f"profile: {profile.text()}  (n = {profile.n})"]
    for b in blocks(profile):
        lines.append(f"block value {b.value}: ones {b.lower}..{b.upper} (width {b.width})")
    lines += [f"spread: {width}", f"formula at {cost_label} costs: {ratio_string(formula)}",
              f"extremal costs: {cost_text(extremal)}"]
    verdicts = [
        _verdict("formula bounded by the spread", formula <= width,
                 f"{ratio_string(formula)} <= {width}"),
        _verdict("extremal costs attain the spread", at_extremal == width,
                 f"{ratio_string(at_extremal)} vs {width}"),
    ]
    return _finish(args, "sym", {"f": src.label, "cost": cost_label},
                   results, verdicts, lines)


def cmd_lp(args) -> int:
    src = load_function(args.f)
    f = src.f
    if args.lp_command == "solve":
        if f.is_constant() is None:
            _require_cap(f.n, _cap(args, PROOF_ENUM_CAP), "proof enumeration")
        sol = lp_solution(f)
        lines = [f"objective: {sol.objective}", f"rows: {sol.row_count}"]
        lines += [f"s(x{v}) = {value}" for v, value in enumerate(sol.values)]
        return _finish(args, "lp solve", {"f": src.label},
                       {"solution": sol.to_json()}, [], lines)
    if args.lp_command == "delta":
        delta = max_restriction_objective(f, cap=_cap(args, SEARCH_CAP))
        largest = max_proof_size(f)
        verdicts = [_verdict("sweep value within the largest proof", delta <= largest,
                             f"{delta} <= {largest}")]
        lines = [f"delta: {delta}", f"PROOF: {largest}"]
        return _finish(args, "lp delta", {"f": src.label},
                       {"delta": str(delta), "proof_size_max": largest}, verdicts, lines)
    if args.lp_command == "lpa":
        if f.is_constant() is not None:
            raise PricedBoolError("the guided-reader bound is undefined for constant functions")
        costs, cost_label = load_costs(args.cost, src, args.seed)
        rep = competitive_ratio_exhaustive(LpGuidedStrategy(f, costs), f, costs,
                                           cap=_cap(args, SEARCH_CAP))
        delta = max_restriction_objective(f, cap=_cap(args, SEARCH_CAP))
        verdicts = [_verdict("guided reader within the restriction sweep",
                             rep.ratio <= delta, f"{ratio_string(rep.ratio)} <= {delta}")]
        lines = [f"ratio: {ratio_string(rep.ratio)}", f"delta: {delta}",
                 f"worst assignment: {rep.worst_assignment.bit_string()}"]
        return _finish(args, "lp lpa", {"f": src.label, "cost": cost_label},
                       {"ratio": rep.to_json(), "delta": str(delta),
                        "costs": cost_json(costs)}, verdicts, lines)
    if args.lp_command == "family":
        if src.family is None:
            raise PricedBoolError("lp family needs --f family:<k>,<t>")
        fam = src.family
        delta = max_restriction_objective(f, cap=_cap(args, SEARCH_CAP))
        largest = max_proof_size(f)
        k, t = fam.switches, fam.groups
        verdicts = [
            _verdict("sweep value is switches plus groups", delta == k + t,
                     f"{delta} vs {k + t}"),
            _verdict("largest proof is groups times settings",
                     largest == t * fam.slot_count, f"{largest} vs {t * fam.slot_count}"),
        ]
        lines = [f"n: {f.n}  switches: {k}  groups: {t}",
                 f"delta: {delta}", f"PROOF: {largest}"]
        return _finish(args, "lp family", {"f": src.label},
                       {"n": f.n, "switches": k, "groups": t, "delta": str(delta),
                        "proof_size_max": largest}, verdicts, lines)
    return _lp_switch_report(args, src)


def _lp_switch_report(args, src: FunctionSource) -> int:
    if src.dnf is None:
        raise PricedBoolError("the switch analysis needs a DNF source "
                              "(a generator or DNF text, not a truth table)")
    f = src.f
    analysis = SwitchAnalysis(src.dnf)
    switches = list(analysis.switches)
    gamma = analysis.proof_size
    target = len(switches) + gamma
    mixed = analysis.mixed_solution()
    setting, certificate, side, adv_costs, adversary = analysis.certified_switch()
    forced = {}
    for name, algorithm in (("greedy", GreedyStrategy(adv_costs)),
                            ("lpa", LpGuidedStrategy(f, adv_costs))):
        forced[name] = adversarial_ratio(algorithm, f, adversary, adv_costs)
    delta = max_restriction_objective(f, cap=_cap(args, SEARCH_CAP))
    verdicts = [
        _verdict("averaged branch vector within switches plus branch proofs",
                 mixed.objective <= target, f"{mixed.objective} <= {target}"),
        _verdict("switch adversary forces greedy to the sweep value",
                 forced["greedy"].ratio >= target,
                 f"{ratio_string(forced['greedy'].ratio)} >= {target}"),
        _verdict("switch adversary forces the guided reader to the sweep value",
                 forced["lpa"].ratio >= target,
                 f"{ratio_string(forced['lpa'].ratio)} >= {target}"),
        _verdict("sweep value equals switches plus branch proofs",
                 delta == target, f"{delta} vs {target}"),
    ]
    results = {
        "switches": switches,
        "branch_proof_size": gamma,
        "target": target,
        "mixed_solution": mixed.to_json(),
        "setting": list(setting),
        "certificate": list(certificate),
        "side": side,
        "adversary_costs": cost_json(adv_costs),
        "forced": {name: rep.to_json() for name, rep in forced.items()},
        "delta": str(delta),
    }
    lines = [
        f"switches: {switches}  branch proof size: {gamma}  target: {target}",
        f"averaged vector objective: {mixed.objective}",
        f"certified setting {list(setting)} {side} {list(certificate)}",
        f"forced greedy: {ratio_string(forced['greedy'].ratio)}  "
        f"forced lpa: {ratio_string(forced['lpa'].ratio)}",
        f"delta: {delta}",
    ]
    return _finish(args, "lp lemma2", {"f": src.label}, results, verdicts, lines)


def cmd_quad(args) -> int:
    if args.quad_command == "fstar":
        pairs = PivotPairs(args.s)
        text = pairs.dnf().text()
        return _finish(args, "quad fstar", {"s": pairs.s},
                       {"n": pairs.n, "dnf": text}, [], [text])
    src = load_function(args.f)
    if src.f.is_constant() is None:
        _require_cap(src.f.n, _cap(args, PROOF_ENUM_CAP), "certificate enumeration")
    analysis = maxterm_analysis(src.f)
    rest = len(analysis.maxterm) - len(analysis.local_winners)
    verdicts = [_verdict("survivors cover half the undecided maxterm",
                         2 * len(analysis.survivors) >= rest,
                         f"2*{len(analysis.survivors)} >= {rest}")]
    lines = [
        "maxterm: " + " ".join(lit.text() for lit in analysis.maxterm),
        "local winners: " + (" ".join(sorted(lit.text() for lit in analysis.local_winners)) or "-"),
        "survivors: " + (" ".join(sorted(lit.text() for lit in analysis.survivors)) or "-"),
        f"outside assignment: {dict(analysis.outside_assignment.items())}",
    ]
    return _finish(args, "quad analyze", {"f": src.label}, analysis.to_json(),
                   verdicts, lines)


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    lines = []
    for chk in report["checks"]:
        mark = "PASS" if chk["pass"] else "FAIL"
        lines.append(f"{mark} {chk['name']} ({chk['cases']} cases)")
        for failure in chk["failures"]:
            lines.append(f"     {failure}")
    lines.append(f"suite {report['suite']}: " + ("passed" if report["passed"] else "FAILED"))
    _emit(args, report, lines)
    return 0 if report["passed"] else 1


def cmd_gen(args) -> int:
    src = load_function(args.f)
    if src.dnf is not None:
        kind, text = "dnf", src.dnf.text() + "\n"
    else:
        kind, text = "table", table_to_text(src.f)
    return _finish(args, "gen", {"f": src.label}, {"kind": kind, "text": text}, [],
                   [text.rstrip("\n")])


def _common_flags(p: argparse.ArgumentParser, cost: bool = False) -> None:
    p.add_argument("--f", metavar="SOURCE", required=True,
                   help=f"function: {GENERATORS}, a file, or DNF text")
    if cost:
        p.add_argument("--cost", metavar="SOURCE",
                       help="unit (default), extremal, random:<seed>, or a JSON object")
    p.add_argument("--seed", type=_ascii_int("[0-9]+"), default=0, metavar="U64")
    p.add_argument("--cap-n", dest="cap_n", type=_ascii_int("[0-9]+"), metavar="N",
                   help="lower the exhaustive-sweep size limit")
    p.add_argument("--json", metavar="PATH", help="also write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pricedbool",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _common_flags(sub.add_parser("analyze", help="structural numbers of a function"))
    ratio = sub.add_parser("ratio", help="competitive ratio of an algorithm")
    _common_flags(ratio, cost=True)
    ratio.add_argument("--alg", choices=("greedy", "bf2", "lpa"), help="algorithm to run")
    ratio.add_argument("--adversary", metavar="NAME", help="symmetric, winners, or survivors")

    lp = sub.add_parser("lp", help="covering program tools")
    lp_sub = lp.add_subparsers(dest="lp_command", required=True)
    for name in ("solve", "delta", "lpa", "family", "lemma2"):
        _common_flags(lp_sub.add_parser(name), cost=name == "lpa")

    quad = sub.add_parser("quad", help="short-conjunction tools")
    quad_sub = quad.add_subparsers(dest="quad_command", required=True)
    _common_flags(quad_sub.add_parser("analyze"))
    fstar = quad_sub.add_parser("fstar")
    fstar.add_argument("--s", type=_ascii_int("-?[0-9]+"), required=True, metavar="S",
                       help="group size of the pivot-pairs function")
    fstar.add_argument("--json", metavar="PATH")

    _common_flags(sub.add_parser("sym", help="symmetric profile report"), cost=True)

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("suite", choices=SUITE_NAMES)
    ver.add_argument("--seed", type=_ascii_int("[0-9]+"), default=0, metavar="U64")
    ver.add_argument("--json", metavar="PATH")

    _common_flags(sub.add_parser("gen", help="print a generator's text form"))
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "ratio": cmd_ratio,
    "lp": cmd_lp,
    "quad": cmd_quad,
    "sym": cmd_sym,
    "verify": cmd_verify,
    "gen": cmd_gen,
}


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:  # built on the first call, reused by every later one
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PricedBoolError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault in the program, not the input; exit 1 is kept for a failed check
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
