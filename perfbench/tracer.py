"""Spans around the program's public functions, installed from outside.

A wrapped function records one span per call: its name, start, end and
the span that was open when it was called.  `from .x import y` copies a
function into other modules, so each function is replaced in every
`pricedbool.*` namespace that binds it; methods are replaced on their
classes.  Self time is a span's duration minus the time its wrapped
children cover, so the self times of all spans add up to the time of
the outermost ones.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from fractions import Fraction

TRACED_MODULES = ("core", "harness", "symmetric", "lp", "simplex")

# (module, class, method, span name); harness.next_query is the strategy call
# that harness.run makes, for both strategies the sweep workload uses
TRACED_METHODS = (
    ("core", "BooleanFunction", "is_determined", "core.is_determined"),
    ("core", "BooleanFunction", "restrict", "core.restrict"),
    ("harness", "GreedyStrategy", "next_query", "harness.next_query"),
    ("quadratic", "PivotTwoPhase", "next_query", "harness.next_query"),
    ("lp", "LpGuidedStrategy", "next_query", "lp.lpa_next_query"),
)


def _min_cells(c, constraints) -> int:
    # simplex_min's tableau: one row per constraint; columns for x, one slack per
    # inequality, one artificial per >= or == row after sign normalization, and rhs
    arts = extras = 0
    for _, rel, rhs in constraints:
        if Fraction(rhs) < 0:
            rel = {"<=": ">=", ">=": "<="}.get(rel, rel)
        extras += rel != "=="
        arts += rel != "<="
    return len(constraints) * (len(c) + extras + arts + 1)


def _max_cells(a, b, c) -> int:
    # simplex_max's tableau: one row per constraint; columns for y, slacks and rhs
    return len(a) * (len(c) + len(a) + 1)


CELL_COUNTERS = {"simplex.simplex_min": _min_cells, "simplex.simplex_max": _max_cells}


class Tracer:
    """Span recorder; spans are kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tableau_cells = 0
        self._open = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self.names):
            self.names.append(name)
        cells = CELL_COUNTERS.get(name)
        open_ = self._open
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cells is not None:
                self.tableau_cells += cells(*args, **kwargs)
            span = len(start)
            name_of.append(ident)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_.pop()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the traced functions and methods of an imported pricedbool."""
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "pricedbool" or name.startswith("pricedbool.")]
        targets = []
        for short in TRACED_MODULES:
            module = sys.modules[f"pricedbool.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    targets.append((fn, self.wrap(f"{short}.{attr}", fn)))
        cli = sys.modules["pricedbool.cli"]
        targets.append((cli.main, self.wrap("cli.main", cli.main)))
        for fn, traced in targets:
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, traced)
        for short, cls_name, method, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"pricedbool.{short}"], cls_name)
            self._replace(cls, method, self.wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.start)
        for s, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[s] - self.start[s]
        out: dict[str, dict] = {}
        for s, ident in enumerate(self.name_of):
            row = out.setdefault(self.names[ident], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.end[s] - self.start[s]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s]
        return out

    def calls_without_child(self, name: str, child: str) -> int:
        """How many `name` spans have no `child` span directly under them."""
        ident = self._ids.get(name)
        child_ident = self._ids.get(child)
        with_child = {p for s, p in enumerate(self.parent)
                      if self.name_of[s] == child_ident and p >= 0 and self.name_of[p] == ident}
        return sum(1 for i in self.name_of if i == ident) - len(with_child)
