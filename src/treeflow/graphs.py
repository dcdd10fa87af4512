"""Directed multigraphs with integer arc capacities and terminal sets.

These are the public types: vertices and arcs are identified by opaque
hashable ids, and building a Network validates every capacity.  Parallel
and antiparallel arcs are first class; self-loops are dropped on
construction.

Every structure here is frozen.  A Digraph is numbered as it is built
(Digraph.build, Network.build): one sort of the vertex ids and one loop
over the arcs that checks them, drops loops and fills its index, the
graph on numbers, and a Network's capacities by arc position.  Only
library callers build more: the Arc objects of Digraph.arcs on the
first read of an item, and a new container per arcs_by_id, out_arcs or
in_arcs call.

Validation happens here and in the other public entry points only.  The
solver works on a copy of its network's index whose id lists it may
grow (indexed.intern), normalizes, recurses and undoes the normalization
on numbers, and maps only its answer back to these types.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC, Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import InputError

if TYPE_CHECKING:
    from .indexed import IntGraph

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


class _Arcs(SequenceABC):
    """A graph's arcs in arc order.  Its length is read from the index; the
    Arc objects are made on the first read of an item, once."""

    def __init__(self, index: IntGraph):
        self._index = index

    def __len__(self) -> int:
        return len(self._index.tail)

    def __getitem__(self, k):
        return self._items[k]

    def __iter__(self):
        return iter(self._items)

    @cached_property
    def _items(self) -> Tuple[Arc, ...]:
        g = self._index
        vid = g.ids.vertex_ids
        return tuple(map(Arc, g.ids.arc_ids, [vid[t] for t in g.tail], [vid[h] for h in g.head]))


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable directed multigraph, numbered as it is built: its index
    (indexed.IntGraph) holds the vertex ids in id order, arc k at position
    k in arc order, ids.number and ids.arc_number from ids to numbers, and
    the half-arc adjacency.  Nothing writes it: a solve grows a copy
    (indexed.intern).  Loops are removed on construction.  Two digraphs
    are equal only if they are the same object."""

    vertices: frozenset
    index: IntGraph = field(repr=False)

    @cached_property
    def arcs(self) -> Sequence[Arc]:
        """The arcs in arc order, as Arc objects made on first read (_Arcs)."""
        return _Arcs(self.index)

    @staticmethod
    def build(vertices: Iterable[VertexId], arcs: Iterable[Tuple[ArcId, VertexId, VertexId]]) -> "Digraph":
        """The digraph of the vertex ids and the (id, tail, head) arcs, numbered as it is checked."""
        return _number(vertices, arcs, repeat(None))[0]

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


def _number(vertices: Iterable[VertexId], arcs: Iterable[Tuple[ArcId, VertexId, VertexId]],
            caps: Iterable) -> Tuple[Digraph, List, Dict[ArcId, object]]:
    """The digraph, numbered in one pass: the vertex ids sorted once, then
    one loop over the arcs that checks each id and end, drops loops and
    fills the index.  Also the capacities that caps lists beside the arcs,
    by arc position, and by id for the loops; it checks none of them."""
    from .indexed import IdTable, IntGraph  # indexed builds on this module's types
    vset = frozenset(vertices)
    vertex_ids = sorted(vset, key=sort_key)
    number = dict(zip(vertex_ids, range(len(vertex_ids))))
    adj: List[List[int]] = [[] for _ in vertex_ids]
    arc_ids, tail, head, cap, arc_number, loops = [], [], [], [], {}, {}
    k = 0  # the next arc position
    for (aid, t, h), c in zip(arcs, caps):
        if arc_number.setdefault(aid, k) != k:  # a loop's id holds -1 until the loops go
            raise InputError(f"duplicate arc id {aid!r}", code="duplicate-arc")
        t, h = number.get(t), number.get(h)
        if t is None or h is None:
            raise InputError(f"arc {aid!r} references unknown vertex", code="dangling-reference")
        if t == h:  # loops carry no flow and no cut capacity
            arc_number[aid] = -1
            loops[aid] = c
            continue
        arc_ids.append(aid)
        tail.append(t)
        head.append(h)
        cap.append(c)
        adj[t].append(2 * k)
        adj[h].append(2 * k + 1)
        k += 1
    for aid in loops:
        del arc_number[aid]
    ids = IdTable(vertex_ids, number, arc_ids, arc_number)
    index = IntGraph(ids, frozenset(range(len(vertex_ids))), list(arc_number.values()),
                     tail, head, adj, len(tail))
    return Digraph(vset, index), cap, loops


class _Capacities(MappingABC):
    """Capacities by arc id, read in place from a graph's arc numbers and
    its capacities by position (cap), and those of its loops."""

    def __init__(self, arc_number: Dict[ArcId, int], cap: List, loops: Dict[ArcId, object]):
        self.arc_number, self.cap, self.loops = arc_number, cap, loops

    def __getitem__(self, aid):
        k = self.arc_number.get(aid)
        return self.loops[aid] if k is None else self.cap[k]

    def __iter__(self):
        return chain(self.arc_number, self.loops)

    def __len__(self):
        return len(self.arc_number) + len(self.loops)


@dataclass(frozen=True)
class Network:
    """A digraph with an ordered terminal set and integer capacities.

    capacity maps arc ids to capacities, also those of loops, which the
    graph drops; cap holds them by arc position in the graph's index,
    which is what the solver, the verifier and the dual oracle read.
    Building a Network checks the terminals and every capacity, once:
    Network.build numbers the arcs and lists their capacities by position
    in its one pass, and its capacity map is a view of cap."""

    graph: Digraph
    terminals: Tuple[VertexId, ...]
    capacity: Mapping[ArcId, int]
    cap: List[int] = field(init=False, repr=False, compare=False)

    @staticmethod
    def build(vertices: Iterable[VertexId], arcs: Iterable[Tuple[ArcId, VertexId, VertexId]],
              caps: Iterable, terminals: Iterable[VertexId]) -> "Network":
        """Network(Digraph.build(vertices, arcs), terminals, capacity) in one
        pass over the arcs, caps listing each arc's capacity beside it."""
        graph, cap, loops = _number(vertices, arcs, caps)
        return Network(graph, tuple(terminals), _Capacities(graph.index.ids.arc_number, cap, loops))

    def __post_init__(self):
        vset, ids, capacity = self.graph.vertices, self.graph.index.ids, self.capacity
        if len(self.terminals) < 1:
            raise InputError("a network needs at least one terminal", code="no-terminals")
        if len(set(self.terminals)) != len(self.terminals):
            raise InputError("terminal list contains duplicates", code="duplicate-terminal")
        for t in self.terminals:
            if t not in vset:
                raise InputError(f"terminal {t!r} is not a vertex", code="dangling-reference")
        if isinstance(capacity, _Capacities) and capacity.arc_number is ids.arc_number:
            cap, others = capacity.cap, capacity.loops.items()  # listed as the graph was numbered
        else:
            cap = [capacity.get(aid) for aid in ids.arc_ids]
            others = [x for x in capacity.items() if x[0] not in ids.arc_number] if len(capacity) > len(cap) else ()
        # a scan at C speed when the arcs' capacities are fine; else the first fault
        fine = set(map(type, cap)) <= {int} and (not cap or min(cap) >= 0 and max(cap) <= MAX_CAPACITY)
        if not fine and None in cap:
            raise InputError(f"arc {ids.arc_ids[cap.index(None)]!r} has no capacity", code="missing-capacity")
        for aid, c in chain(() if fine else zip(ids.arc_ids, cap), others):
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputError(f"capacity of arc {aid!r} is not an integer", code="non-integer-capacity")
            if c < 0:
                raise InputError(f"capacity of arc {aid!r} is negative", code="negative-capacity")
            if c > MAX_CAPACITY:
                raise InputError(f"capacity of arc {aid!r} exceeds 64-bit range", code="capacity-overflow")
        object.__setattr__(self, "cap", cap)

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
    g = net.graph.index
    k = g.ids.number.get(v)
    if k is None:
        raise InputError(f"unknown vertex {v!r}", code="dangling-reference")
    arc_ids = g.ids.arc_ids
    return sum(-f.get(arc_ids[e >> 1], 0) if e & 1 else f.get(arc_ids[e >> 1], 0) for e in g.adj[k])


def is_eulerian_at(net: Network, v: VertexId) -> bool:
    """True iff capacity into v equals capacity out of v."""
    return _divergence(net, net.capacity, v) == 0


def unbalanced(net: Network) -> Iterator[VertexId]:
    """The vertices whose capacity in and out differ, in id order, summed
    on the index's arc arrays."""
    g = net.graph.index
    excess = [0] * len(g.ids.vertex_ids)
    for t, h, c in zip(g.tail, g.head, net.cap):
        excess[t] += c
        excess[h] -= c
    return (v for v, x in zip(g.ids.vertex_ids, excess) if x)  # number order is id order


def boundary(net: Network, side) -> Tuple[List[int], List[int]]:
    """Positions in the graph's index of the arcs leaving and of the arcs
    entering a vertex set, by indexed.boundary, which walks the smaller of
    the side and its complement.  Ids of no vertex are ignored."""
    from .indexed import boundary as positions  # indexed builds on this module's types
    g = net.graph.index
    num = g.ids.number
    return positions(g, frozenset([num[v] for v in side if v in num]))


def cut_capacity(net: Network, cut: Cut) -> int:
    """Total capacity of arcs leaving the cut's source side."""
    cut.validate(net)
    cap = net.cap
    return sum(cap[k] for k in boundary(net, cut.source_side)[0])
