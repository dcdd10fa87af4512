"""Directed multigraphs with integer arc capacities and terminal sets.

These are the public types: vertices and arcs are identified by opaque
hashable ids, and building a Network validates every capacity.  Parallel
and antiparallel arcs are first class; self-loops are dropped on
construction.

Every structure here is frozen.  A Digraph's index (Digraph.index), its
graph on numbers, is built on first use and never written; every lookup
beyond the arc list reads it, so a graph's vertex ids are sorted once.

Validation happens here and in the other public entry points only.  The
solver works on a copy of its network's index whose id lists it may
grow (indexed.intern), normalizes, recurses and undoes the normalization
on numbers, and maps only its answer back to these types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

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
    """Immutable directed multigraph. Loops are removed on construction."""

    vertices: frozenset
    arcs: Tuple[Arc, ...]

    @staticmethod
    def build(vertices: Iterable[VertexId], arcs: Iterable[Tuple[ArcId, VertexId, VertexId]]) -> "Digraph":
        vset = frozenset(vertices)
        seen, kept = set(), []
        for aid, tail, head in arcs:
            if aid in seen:
                raise InputError(f"duplicate arc id {aid!r}", code="duplicate-arc")
            seen.add(aid)
            if tail not in vset or head not in vset:
                raise InputError(f"arc {aid!r} references unknown vertex", code="dangling-reference")
            if tail != head:  # loops carry no flow and no cut capacity
                kept.append(Arc(aid, tail, head))
        return Digraph(vset, tuple(kept))

    @cached_property
    def index(self):
        """The graph on numbers (indexed.IntGraph): vertex ids in id order,
        arc k at position k, ids.number and ids.arc_number from ids to
        numbers.  Nothing writes it: a solve grows a copy (indexed.intern)."""
        from .indexed import IdTable, IntGraph  # indexed builds on this module's types
        ids = IdTable(self.vertices, [a.id for a in self.arcs])
        num = ids.number
        return IntGraph(ids, frozenset(num.values()), list(range(len(self.arcs))),
                        [num[a.tail] for a in self.arcs], [num[a.head] for a in self.arcs])

    def arcs_by_id(self) -> Dict[ArcId, Arc]:
        """Every arc by its id, in a new dict."""
        return {aid: self.arcs[k] for aid, k in self.index.ids.arc_number.items()}

    def out_arcs(self, v: VertexId) -> List[Arc]:
        """Arcs leaving v, in arc order; none if v is no vertex."""
        return self._at(v, 0)

    def in_arcs(self, v: VertexId) -> List[Arc]:
        """Arcs entering v, in arc order; none if v is no vertex."""
        return self._at(v, 1)

    def _at(self, v: VertexId, end: int) -> List[Arc]:
        g = self.index
        k = g.ids.number.get(v)
        return [] if k is None else [self.arcs[e >> 1] for e in g.adj[k] if e & 1 == end]


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

    Numbers and walks, through the graph index, only the vertices of the
    side or of its complement, whichever is smaller: cut sides are mostly
    a few vertices or all but a few.  Ids of no vertex are ignored.
    """
    g = net.graph.index
    num, arc_ids, tail, head = g.ids.number, g.ids.arc_ids, g.tail, g.head
    flip = 2 * len(side) > len(net.vertices)
    walked = {num[v] for v in (net.vertices - side if flip else side) if v in num}
    leaving, entering = set(), set()
    for v in walked:  # as indexed.boundary walks, collecting ids instead of positions
        for e in g.adj[v]:
            k = e >> 1
            if e & 1:
                if tail[k] not in walked:
                    entering.add(arc_ids[k])
            elif head[k] not in walked:
                leaving.add(arc_ids[k])
    return (entering, leaving) if flip else (leaving, entering)


def cut_capacity(net: Network, cut: Cut) -> int:
    """Total capacity of arcs leaving the cut's source side."""
    cut.validate(net)
    return sum(net.capacity[aid] for aid in boundary(net, cut.source_side)[0])

