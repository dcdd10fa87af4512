"""Directed multigraphs with integer arc capacities and terminal sets.

These are the public types: vertices and arcs are identified by opaque
hashable ids, and building a Network validates every capacity.  Parallel
and antiparallel arcs are first class; self-loops are dropped on
construction.

Every structure here is frozen.  A Digraph indexes its arcs (by id, and
out of and into each vertex, in arc order) in the same pass that builds
it, and keeps the index for its lifetime; code that needs these lookups
reads them from the graph instead of building its own copy.

Validation happens here and in the other public entry points only.  The
solver interns a validated network once into the integer-indexed form of
indexed.py, normalizes, recurses and undoes the normalization on that
form, and maps only its answer back to these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

from .errors import InputError

VertexId = Hashable
ArcId = Hashable

MAX_CAPACITY = 2**63 - 1


def sort_key(x):
    """Stable ordering key for mixed-type ids."""
    return (x.__class__.__name__, repr(x))


@dataclass(frozen=True)
class Arc:
    id: ArcId
    tail: VertexId
    head: VertexId


@dataclass(frozen=True)
class Digraph:
    """Immutable directed multigraph. Loops are removed on construction.

    Built by build, which fills the index in the same pass: every arc by
    its id, and the arcs out of and into each vertex, in arc order.  The
    per-vertex lists stay lists: on graphs of 8k arcs, turning them into
    tuples cost more than building the rest of the index.
    """

    vertices: frozenset
    arcs: Tuple[Arc, ...]
    _by_id: Mapping[ArcId, Arc] = field(repr=False, compare=False)
    _out: Mapping[VertexId, List[Arc]] = field(repr=False, compare=False)
    _into: Mapping[VertexId, List[Arc]] = field(repr=False, compare=False)

    @staticmethod
    def build(vertices: Iterable[VertexId], arcs: Iterable[Tuple[ArcId, VertexId, VertexId]]) -> "Digraph":
        vset = frozenset(vertices)
        seen = set()
        by_id, out, into = {}, {}, {}
        for aid, tail, head in arcs:
            if aid in seen:
                raise InputError(f"duplicate arc id {aid!r}", code="duplicate-arc")
            seen.add(aid)
            if tail not in vset or head not in vset:
                raise InputError(f"arc {aid!r} references unknown vertex", code="dangling-reference")
            if tail == head:
                continue  # loops carry no flow and no cut capacity
            a = by_id[aid] = Arc(aid, tail, head)
            out.setdefault(tail, []).append(a)
            into.setdefault(head, []).append(a)
        return Digraph(vset, tuple(by_id.values()), by_id, out, into)

    def arcs_by_id(self) -> Mapping[ArcId, Arc]:
        """Every arc by its id; the graph's own copy, not to be modified."""
        return self._by_id

    def out_arcs(self, v: VertexId) -> Sequence[Arc]:
        """Arcs leaving v, in arc order; the graph's own list, not to be modified."""
        return self._out.get(v, ())

    def in_arcs(self, v: VertexId) -> Sequence[Arc]:
        """Arcs entering v, in arc order; the graph's own list, not to be modified."""
        return self._into.get(v, ())


@dataclass(frozen=True)
class Network:
    """A digraph with an ordered terminal set and integer capacities."""

    graph: Digraph
    terminals: Tuple[VertexId, ...]
    capacity: Dict[ArcId, int]

    def __post_init__(self):
        vset = self.graph.vertices
        if len(self.terminals) < 1:
            raise InputError("a network needs at least one terminal", code="no-terminals")
        if len(set(self.terminals)) != len(self.terminals):
            raise InputError("terminal list contains duplicates", code="duplicate-terminal")
        for t in self.terminals:
            if t not in vset:
                raise InputError(f"terminal {t!r} is not a vertex", code="dangling-reference")
        for a in self.graph.arcs:
            if self.capacity.get(a.id) is None:
                raise InputError(f"arc {a.id!r} has no capacity", code="missing-capacity")
        # every entry, also those of loops, which the graph drops
        for aid, c in self.capacity.items():
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputError(f"capacity of arc {aid!r} is not an integer", code="non-integer-capacity")
            if c < 0:
                raise InputError(f"capacity of arc {aid!r} is negative", code="negative-capacity")
            if c > MAX_CAPACITY:
                raise InputError(f"capacity of arc {aid!r} exceeds 64-bit range", code="capacity-overflow")

    @property
    def vertices(self) -> frozenset:
        return self.graph.vertices

    def inner_vertices(self):
        ts = set(self.terminals)
        return [v for v in sorted(self.vertices, key=sort_key) if v not in ts]


@dataclass(frozen=True)
class TerminalPath:
    """A weighted simple directed path between two distinct terminals."""

    source: VertexId
    target: VertexId
    arcs: Tuple[ArcId, ...]
    weight: int


@dataclass(frozen=True)
class Cut:
    """A vertex cut given by its source side X; the sink side is implicit."""

    source_side: frozenset

    def validate(self, net: Network) -> None:
        x = self.source_side
        if not x or not (x < net.vertices):
            raise InputError("cut side must be a nonempty proper vertex subset", code="invalid-cut")


def divergence(net: Network, f: Mapping[ArcId, int], v: VertexId) -> int:
    """Net outflow of f at v: f over out-arcs minus f over in-arcs.  An
    id in f that net.capacity lacks is an InputError; loops have one."""
    for a in f:
        if a not in net.capacity:
            raise InputError(f"unknown arc {a!r}", code="dangling-reference")
    return _divergence(net, f, v)


def _divergence(net: Network, f: Mapping[ArcId, int], v: VertexId) -> int:
    if v not in net.vertices:
        raise InputError(f"unknown vertex {v!r}", code="dangling-reference")
    g = net.graph
    return sum(f.get(a.id, 0) for a in g.out_arcs(v)) - sum(f.get(a.id, 0) for a in g.in_arcs(v))


def is_eulerian_at(net: Network, v: VertexId) -> bool:
    """True iff capacity into v equals capacity out of v."""
    return _divergence(net, net.capacity, v) == 0


def boundary(net: Network, side) -> Tuple[Set[ArcId], Set[ArcId]]:
    """Ids of the arcs leaving and of the arcs entering a vertex set.

    Walks, through the graph index, only the arcs at the vertices of the
    side or of its complement, whichever is smaller: cut sides are mostly
    a few vertices or all but a few.
    """
    g = net.graph
    flip = 2 * len(side) > len(net.vertices)
    walked = net.vertices - side if flip else side
    leaving = {a.id for v in walked for a in g.out_arcs(v) if a.head not in walked}
    entering = {a.id for v in walked for a in g.in_arcs(v) if a.tail not in walked}
    return (entering, leaving) if flip else (leaving, entering)


def cut_capacity(net: Network, cut: Cut) -> int:
    """Total capacity of arcs leaving the cut's source side."""
    cut.validate(net)
    return sum(net.capacity[aid] for aid in boundary(net, cut.source_side)[0])
