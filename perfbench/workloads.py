"""Seeded request lists for the benchmark workloads, and the checks on their output.

Request i of a workload depends only on (workload, seed, i), so a seed
names one fixed, unbounded list however much of it a run materializes.
Every position in a block of requests holds the same request class for
every seed: seeds change the content of the requests, never the size mix.
Nothing here imports the program; it only writes argv lists and the
(n, table bits) or DNF terms each request is about.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("sweep", "covering", "guided", "certificates")

# Request class of each position in a block, per workload.  Each block's
# classes are weighted so that the median latency falls inside one class,
# not on the gap between two: a boundary median jumps from seed to seed.
SWEEP_BLOCK = (("greedy", 8), ("greedy", 9), ("greedy", 10), ("bf2", 3),
               ("greedy", 9), ("greedy", 10), ("greedy", 8), ("bf2", 4),
               ("greedy", 9), ("greedy", 10), ("greedy", 8), ("bf2", 3),
               ("greedy", 9), ("greedy", 10), ("greedy", 9), ("bf2", 4))
COVERING_SIZES = (4, 5, 6)
GUIDED_SIZES = (4, 5, 5)
DNF_SIZES = (8, 9, 10)
DNF_TERMS = (6, 14)
DNF_TERM_WIDTH = (2, 5)


@dataclass(frozen=True)
class Request:
    index: int
    kind: str                            # request class: greedy, bf2, solve, lpa, analyze
    argv: tuple[str, ...]
    n: int
    table: Optional[int] = None          # truth-table bits, bit b = f at assignment b
    terms: Optional[tuple[frozenset, ...]] = None   # monotone DNF terms
    path: Optional[str] = None           # where the table file goes


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # a str seed is hashed with SHA-512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def _cost_token(rng: random.Random) -> str:
    return f"random:{rng.randrange(1 << 32)}"


def _nonconstant_table(rng: random.Random, n: int) -> int:
    full = (1 << (1 << n)) - 1
    while True:
        bits = rng.getrandbits(1 << n)
        if 0 < bits < full:
            return bits


def _profile_bits(rng: random.Random, n: int) -> str:
    while True:
        bits = "".join(rng.choice("01") for _ in range(n + 1))
        if "0" in bits and "1" in bits:
            return bits


def _monotone_terms(rng: random.Random, n: int) -> tuple[frozenset, ...]:
    terms = []
    for _ in range(rng.randint(*DNF_TERMS)):
        width = rng.randint(*DNF_TERM_WIDTH)
        terms.append(frozenset(rng.sample(range(n), width)))
    if not any(n - 1 in t for t in terms):
        # the largest index fixes the variable count the program infers
        first = sorted(terms[0])
        terms[0] = frozenset(first[1:] + [n - 1])
    return tuple(terms)


def dnf_text(terms) -> str:
    return " | ".join(" & ".join(f"x{v}" for v in sorted(t)) for t in terms)


def request(workload: str, seed: int, index: int, table_dir: str) -> Request:
    """Request `index` of the workload's list for `seed`."""
    rng = _rng(workload, seed, index)
    if workload == "sweep":
        alg, size = SWEEP_BLOCK[index % len(SWEEP_BLOCK)]
        if alg == "greedy":
            argv = ("ratio", "--f", f"sym:{_profile_bits(rng, size)}",
                    "--alg", "greedy", "--cost", _cost_token(rng))
            return Request(index, "greedy", argv, size)
        argv = ("ratio", "--f", f"fstar:{size}", "--alg", "bf2", "--cost", _cost_token(rng))
        return Request(index, "bf2", argv, 2 * size + 1)
    if workload in ("covering", "guided"):
        sizes = COVERING_SIZES if workload == "covering" else GUIDED_SIZES
        n = sizes[index % len(sizes)]
        table = _nonconstant_table(rng, n)
        path = os.path.join(table_dir, f"t{index}.txt")
        if workload == "covering":
            kind, argv = "solve", ("lp", "solve", "--f", path)
        else:
            kind, argv = "lpa", ("lp", "lpa", "--f", path, "--cost", _cost_token(rng))
        return Request(index, kind, argv, n, table=table, path=path)
    if workload == "certificates":
        n = DNF_SIZES[index % len(DNF_SIZES)]
        terms = _monotone_terms(rng, n)
        return Request(index, "analyze", ("analyze", "--f", dnf_text(terms)), n, terms=terms)
    raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")


def requests(workload: str, seed: int, start: int, count: int, table_dir: str) -> list[Request]:
    return [request(workload, seed, i, table_dir) for i in range(start, start + count)]


def minimal_term_count(terms) -> int:
    """How many distinct terms no other term is a proper subset of.

    For a monotone DNF these are exactly its minterms.
    """
    distinct = set(terms)
    return sum(1 for t in distinct if not any(u < t for u in distinct))


_MINTERMS = re.compile(r"^minterms: (\d+)$", re.M)
_WEIGHT = re.compile(r"^s\(x(\d+)\) = (\S+)$", re.M)
_OBJECTIVE = re.compile(r"^objective: (\S+)$", re.M)


def check_certificates(req: Request, stdout: str) -> Optional[str]:
    """None when the printed minterm count matches the generated DNF, else why not."""
    m = _MINTERMS.search(stdout)
    if m is None:
        return "no minterms line"
    want = minimal_term_count(req.terms)
    if int(m.group(1)) != want:
        return f"minterms {m.group(1)} != {want} minimal terms"
    return None


def check_covering(stdout: str, proof_sets, max_proof: int) -> Optional[str]:
    """None when the printed weights are a feasible covering of value <= max_proof."""
    m = _OBJECTIVE.search(stdout)
    if m is None:
        return "no objective line"
    objective = Fraction(m.group(1))
    weights = {int(v): Fraction(w) for v, w in _WEIGHT.findall(stdout)}
    if any(w < 0 for w in weights.values()):
        return "negative weight"
    for row in proof_sets:
        if sum(weights.get(v, Fraction(0)) for v in row) < 1:
            return f"proof set {sorted(row)} has weight below 1"
    if sum(weights.values()) != objective:
        return "weights do not sum to the objective"
    if objective > max_proof:
        return f"objective {objective} exceeds the largest proof size {max_proof}"
    return None
