"""In-memory spans around layer functions, for the traced benchmark run.

A layer is a function replaced at the name its callers look it up by:
the solver calls ``max_flow`` through its own module globals, so setting
``treeflow.solver.max_flow`` to a wrapper traces every max flow the
solver runs, while ``treeflow.certify.max_flow`` traces those of the
dual oracle.  The program itself is not changed, and every wrapper is
removed again when the traced pass ends.

Spans are kept in flat arrays while a pass runs and summarised after it.
A span's self time is its duration minus the durations of its direct
children; since a child's duration is its own self time plus that of
its children, the self times of all spans below a root add up to the
root's duration minus the root's self time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0  # sum of the layer's work count over its calls


class Tracer:
    """Records one span per call of every function it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.names: list = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: Dict[str, int] = {}
        self._open: list = []

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """A stand-in for ``fn`` that records a span named ``name`` per call.

        ``work``, when given, is called with the same arguments and its
        result is added to the layer's work count.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(*args, **kwargs)
            i = len(self.names)
            self.names.append(name)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = self.clock()
                self._open.pop()

        return traced

    def summary(self) -> Dict[str, LayerTotals]:
        """Calls, summed self time and work count per span name."""
        child = self._child_time()
        out: Dict[str, LayerTotals] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, LayerTotals())
            rec.calls += 1
            rec.self_s += self.end[i] - self.start[i] - child[i]
        for name, w in self.work.items():
            out.setdefault(name, LayerTotals()).work = w
        return out

    def coverage(self, root: str) -> float:
        """Share of the time in ``root`` spans that spans below them account for."""
        child = self._child_time()
        total = below = 0.0
        for i, name in enumerate(self.names):
            if name == root:
                total += self.end[i] - self.start[i]
                below += child[i]
        return below / total if total > 0 else 0.0

    def _child_time(self) -> list:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return child


@contextlib.contextmanager
def patched(replacements: Iterable[Tuple[object, str, object]]):
    """Set each ``(owner, attribute)`` to its replacement; restore all on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def traced(tracer: Tracer, layers):
    """Context in which every ``(owner, attribute, name, work)`` layer is wrapped."""
    return patched((owner, attr, tracer.wrap(name, vars(owner)[attr], work))
                   for owner, attr, name, work in layers)
