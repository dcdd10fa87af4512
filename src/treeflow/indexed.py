"""The integer-indexed network the solver works on, and its flow kernels.

A solve interns its validated network once (intern): vertex ids are
numbered in id order, arc ids in arc order, and one IdTable keeps the
ids and their order for every network the solve makes.  Normalization,
the recursion and its undo run on these numbers, which stay stable
across contraction; each vertex or arc made takes the next number, so
it sorts after everything made before it.  Paths and cuts go back to
ids once, when they leave the solver.

An IntGraph lists its arcs in arc order: position k holds arc number
arcs[k] from tail[k] to head[k].  Its adjacency lists, indexed by vertex
number, hold each vertex's residual half-arcs in arc order: 2k where
arc k leaves the vertex, 2k + 1 where it enters.  Max flows, residual
cuts and contraction read these arrays directly.  Contraction is one
pass, a vertex image plus an arc filter, and validates nothing: only
the public entry points (graphs, flows, solver.solve) check input.

Kernels speak numbers: vertex numbers, flows as one entry per arc
position, paths as TerminalPaths of vertex and arc numbers.  Arcs break
ties in arc order and vertices by number, which is id order on input
vertices: Dinic scans arcs in arc order and attaches sources and sinks
in number order; peeling starts at sources in number order and follows
the positive arc that comes first in arc order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ContractViolation
from .graphs import Digraph, Network, TerminalPath, sort_key


@dataclass(frozen=True)
class _Made:
    """The id of a vertex, arc or tree vertex made by a solve or a
    normalization.  Its generation exceeds that of every made id among its
    table's input ids, so it equals no input id, not even one made earlier."""

    generation: int
    number: int


class IdTable:
    """The ids behind the vertex and arc numbers of one interned network,
    or behind the vertex numbers of one numbered tree.

    vertex_ids[v] is the id of vertex v.  Input vertices are numbered in
    id order, and each vertex made afterwards takes the next number
    (new_vertex), so sorting vertex numbers is the tie order.  arc_ids[a]
    is the id of arc a: input arcs are numbered in arc order, made arcs
    after them (new_arc), so arc numbers are the arc tie order.  number
    and arc_number map input ids to their numbers.
    """

    def __init__(self, vertex_ids: Iterable[Hashable], arc_ids: Sequence[Hashable]):
        self._ints: List[int] = []
        self.vertex_ids: List[Hashable] = sorted(vertex_ids, key=sort_key)
        self.number: Dict[Hashable, int] = dict(zip(self.vertex_ids, self.ints(len(self.vertex_ids))))
        self.arc_ids: List[Hashable] = list(arc_ids)
        self._generation = 1 + max((x.generation for x in chain(self.vertex_ids, self.arc_ids)
                                    if x.__class__ is _Made), default=-1)

    def ints(self, n: int) -> List[int]:
        """A list holding at least the numbers 0..n-1, the same int objects
        for every caller.  Ints above 256 are allocated one by one: every
        graph's adjacency holds the numbers 0..2m-1 and every contraction
        maps vertices through an image of 0..n-1, and taking them from
        here keeps one object per number for the whole solve instead of a
        new set per graph, which the allocator cannot give back while
        older graphs are alive."""
        if len(self._ints) < n:
            self._ints.extend(range(len(self._ints), n))
        return self._ints

    @cached_property
    def arc_number(self) -> Dict[Hashable, int]:
        return {a: i for i, a in enumerate(self.arc_ids)}

    def new_vertex(self) -> int:
        """Number of a new vertex, after every vertex so far."""
        v = len(self.vertex_ids)
        self.vertex_ids.append(_Made(self._generation, v))
        return v

    def new_arc(self) -> int:
        """Number of a new arc, after every arc so far."""
        a = len(self.arc_ids)
        self.arc_ids.append(_Made(self._generation, a))
        return a

    def path_ids(self, p: TerminalPath) -> TerminalPath:
        """The path with ids in place of vertex and arc numbers."""
        arc_ids = self.arc_ids
        return TerminalPath(self.vertex_ids[p.source], self.vertex_ids[p.target],
                            tuple([arc_ids[a] for a in p.arcs]), p.weight)


class IntGraph:
    """A directed multigraph on vertex and arc numbers of one IdTable.

    vertices is the set of vertex numbers present.  Position k of the arc
    arrays is arc number arcs[k] from tail[k] to head[k], in arc order;
    no arc is a loop.  adj[v] lists v's residual half-arcs in arc order
    (2k leaving along k, 2k + 1 entering along k); adj is as long as the
    table was when the graph was built.  None of the lists is modified
    after construction.
    """

    def __init__(self, ids: IdTable, vertices: frozenset, arcs: List[int],
                 tail: List[int], head: List[int]):
        self.ids = ids
        self.vertices = vertices
        self.arcs = arcs
        self.tail = tail
        self.head = head
        adj: List = [()] * len(ids.vertex_ids)
        for v in vertices:
            adj[v] = []
        half = ids.ints(2 * len(tail))
        for k, (t, h) in enumerate(zip(tail, head)):
            adj[t].append(half[2 * k])
            adj[h].append(half[2 * k + 1])
        self.adj: List[List[int]] = adj

    def arcs_out(self, v: int) -> List[int]:
        """Positions of the arcs leaving v, in arc order."""
        return [e >> 1 for e in self.adj[v] if not e & 1]

    def arcs_into(self, v: int) -> List[int]:
        """Positions of the arcs entering v, in arc order."""
        return [e >> 1 for e in self.adj[v] if e & 1]

    @cached_property
    def position(self) -> Dict[int, int]:
        """Position of every arc number."""
        return {a: k for k, a in enumerate(self.arcs)}


@dataclass(frozen=True)
class IntNetwork:
    """An IntGraph with terminal vertex numbers and one capacity per arc
    position.  Networks that differ only in capacities share a graph."""

    graph: IntGraph
    terminals: Tuple[int, ...]
    cap: List[int]


def intern_graph(graph: Digraph) -> IntGraph:
    """The graph on numbers of a new IdTable; arc number k is position k."""
    ids = IdTable(graph.vertices, [a.id for a in graph.arcs])
    num = ids.number
    m = len(graph.arcs)
    return IntGraph(ids, frozenset(num.values()), ids.ints(m)[:m],
                    [num[a.tail] for a in graph.arcs], [num[a.head] for a in graph.arcs])


def intern(net: Network) -> IntNetwork:
    """A validated network on numbers of a new IdTable."""
    g = intern_graph(net.graph)
    return IntNetwork(g, tuple(g.ids.number[t] for t in net.terminals),
                      [net.capacity[a] for a in g.ids.arc_ids])


def contract(net: IntNetwork, groups: Mapping[int, Iterable[int]]) -> IntNetwork:
    """Contract disjoint vertex sets, each into its own new vertex.

    groups maps each new vertex number z (from IdTable.new_vertex) to
    the set it replaces.  Arcs inside one set disappear; all others keep
    their numbers, capacities and order.  The terminals become those
    outside the sets, followed by the new vertices in the order of groups.
    """
    g = net.graph
    image = g.ids.ints(len(g.ids.vertex_ids))[:len(g.ids.vertex_ids)]
    for z, members in groups.items():
        for v in members:
            image[v] = z
    arcs: List[int] = []
    tail: List[int] = []
    head: List[int] = []
    cap: List[int] = []
    for a, t, h, c in zip(g.arcs, g.tail, g.head, net.cap):
        t = image[t]
        h = image[h]
        if t != h:
            arcs.append(a)
            tail.append(t)
            head.append(h)
            cap.append(c)
    vertices = frozenset([v for v in g.vertices if image[v] == v]).union(groups)
    terminals = tuple(t for t in net.terminals if image[t] == t) + tuple(groups)
    return IntNetwork(IntGraph(g.ids, vertices, arcs, tail, head), terminals, cap)


def boundary(graph: IntGraph, side: frozenset) -> Tuple[List[int], List[int]]:
    """Positions of the arcs leaving and of the arcs entering a vertex set,
    walking the smaller of the side and its complement."""
    flip = 2 * len(side) > len(graph.vertices)
    walked = graph.vertices - side if flip else side
    tail, head, adj = graph.tail, graph.head, graph.adj
    leaving: List[int] = []
    entering: List[int] = []
    for v in walked:
        for e in adj[v]:
            k = e >> 1
            if e & 1:
                if tail[k] not in walked:
                    entering.append(k)
            elif head[k] not in walked:
                leaving.append(k)
    return (entering, leaving) if flip else (leaving, entering)


class _Dinic:
    """One max-flow run on a network: Dinitz's blocking-flow algorithm
    (1970) on the graph's own adjacency.

    Residual arc 2k is the forward copy of arc position k and 2k + 1 its
    reverse, so the tail of residual arc e is head[e ^ 1].  Vertex
    numbers index the arrays, and the two numbers after the graph's
    arrays are the super-source and the super-sink.  A run starts from
    the zero flow or from a feasible start flow, and owns only what it
    mutates: residual capacities, the residual head list, and copies of
    the arc lists of the vertices it attaches super arcs to.  The
    constructor attaches them, after the real arcs, with a capacity above
    any flow value, so they never limit a path; they are stripped from
    the reported flow.

    Two shortcuts leave every augmenting path as the textbook loop finds
    it, so the flows are identical arc for arc.  A BFS phase stops once
    the super-sink has its level: every vertex still unlabelled is at
    least as far from the super-source, so no path of rising levels
    leads from it to the super-sink, and the DFS would only have found it
    a dead end.  After an augmentation the DFS resumes at the tail of the
    first arc it saturated, keeping the path before it: restarted from
    the super-source it would walk that same prefix, because the arc
    pointers of the prefix vertices still point at the prefix arcs.
    """

    def __init__(self, net: IntNetwork, sources: Sequence[int], sinks: Sequence[int],
                 start: Optional[Sequence[int]] = None):
        g = net.graph
        caps = net.cap
        inf = sum(caps) + 1
        self.m = m = len(caps)
        self.cap = cap = [0] * (2 * m)
        if start is None:
            cap[::2] = caps
        else:
            cap[::2] = [c - w for c, w in zip(caps, start)]
            cap[1::2] = start
        self.head = head = [0] * (2 * m)
        head[::2] = g.head
        head[1::2] = g.tail
        self.adj = adj = g.adj + [[], []]
        self.n = len(adj)
        self.super_s, self.super_t = self.n - 2, self.n - 1
        # new lists, so the graph's own arc lists stay untouched
        for u, v in [(self.super_s, s) for s in sources] + [(t, self.super_t) for t in sinks]:
            adj[u] = adj[u] + [len(head)]
            adj[v] = adj[v] + [len(head) + 1]
            head += (v, u)
            cap += (inf, 0)

    def run(self) -> int:
        """Push blocking flows until the super-sink is unreachable."""
        head, cap, adj, n = self.head, self.cap, self.adj, self.n
        s, t = self.super_s, self.super_t
        total = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:  # BFS; the list grows while it is walked
                lv = level[u] + 1
                for e in adj[u]:
                    v = head[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = lv
                        queue.append(v)
                if level[t] >= 0:
                    break
            else:
                return total
            it = [0] * n
            path: List[int] = []
            u = s
            while True:  # DFS for one blocking flow
                if u == t:
                    bottleneck = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= bottleneck
                        cap[e ^ 1] += bottleneck
                    total += bottleneck
                    k = next(k for k, e in enumerate(path) if cap[e] == 0)
                    u = head[path[k] ^ 1]
                    del path[k:]
                    continue
                arcs = adj[u]
                lv = level[u] + 1
                for i in range(it[u], len(arcs)):
                    e = arcs[i]
                    if cap[e] > 0 and level[head[e]] == lv:
                        it[u] = i
                        path.append(e)
                        u = head[e]
                        break
                else:
                    if not path:
                        break
                    level[u] = -1  # dead end: retreat past the arc into u
                    u = head[path.pop() ^ 1]
                    it[u] += 1

    def flow(self) -> List[int]:
        # the reverse capacity of a real arc equals the flow pushed on it
        return self.cap[1:2 * self.m:2]


def max_flow(net: IntNetwork, sources: Iterable[int], sinks: Iterable[int],
             start: Optional[Sequence[int]] = None) -> Tuple[List[int], int]:
    """Integer maximum flow from a source set to a disjoint sink set: the
    flow on every arc position, and the value it adds to start.  start,
    if given, is a feasible flow from the sources to the sinks, one entry
    per arc position, which the run augments instead of the zero flow."""
    src = sorted(set(sources))
    snk = sorted(set(sinks))
    if not src or not snk:
        return list(start or [0] * len(net.cap)), 0
    d = _Dinic(net, src, snk, start)
    value = d.run()
    return d.flow(), value


def min_cut_source_side(net: IntNetwork, f: Sequence[int], sources: Iterable[int],
                        sinks: Iterable[int] = ()) -> frozenset:
    """Vertices reachable from the sources in the residual network of the
    maximum flow f: the source side of the inclusion-minimal minimum cut.
    A reachable sink means f was not maximum (ContractViolation)."""
    g = net.graph
    tail, head, adj, cap = g.tail, g.head, g.adj, net.cap
    seen = set(sources)
    queue = list(seen)
    for u in queue:  # the list grows while it is walked
        for e in adj[u]:
            k = e >> 1
            if e & 1:
                if f[k] <= 0:
                    continue
                v = tail[k]  # backward residual
            elif cap[k] > f[k]:
                v = head[k]  # forward residual
            else:
                continue
            if v not in seen:
                seen.add(v)
                queue.append(v)
    for t in sinks:
        if t in seen:
            raise ContractViolation("flow is not maximum: a sink is residual-reachable")
    return frozenset(seen)


def lex_max_flow(net: IntNetwork, sources: Iterable[int], primary_sinks: Iterable[int],
                 secondary_sinks: Iterable[int]) -> List[int]:
    """Maximum flow from a source set to all sinks that, among such
    maxima, maximizes the net inflow at the primary sinks.

    Two max flows: one to the primary sinks alone, then one to the full
    sink set that starts from it.  The second never lowers the primary
    inflow: the first one's minimum cut stays saturated.
    """
    primary = list(primary_sinks)
    f, _value = max_flow(net, sources, primary)
    return max_flow(net, sources, [*primary, *secondary_sinks], start=f)[0]


def decompose(g: IntGraph, f: Sequence[int], allowed_sources: Iterable[int],
              allowed_sinks: Iterable[int]) -> List[TerminalPath]:
    """Peel a nonnegative integer flow on a graph (one entry per arc
    position) into weighted simple paths of vertex and arc numbers.

    Walks start at vertices with positive remaining divergence, in number
    order, follow the positive arc that comes first in arc order, and stop
    at the first allowed sink with unmet demand.  Cycles met on the way are
    cancelled and discarded, so the paths' arc function is bounded by f
    and differs from it by a nonnegative circulation.

    A vertex listed both as source and sink takes the role its divergence
    sign dictates.  Any other vertex must have zero divergence.
    """
    tail, head, arcs = g.tail, g.head, g.arcs
    srcs = set(allowed_sources)
    snks = set(allowed_sinks)

    remaining: Dict[int, int] = {}
    div: Dict[int, int] = {}
    out_pos: Dict[int, List[int]] = {}  # each vertex's positive out-arcs in arc order
    for k, w in enumerate(f):
        if w:
            if w < 0:
                raise ContractViolation(f"negative flow on arc position {k}")
            remaining[k] = w
            t, h = tail[k], head[k]
            div[t] = div.get(t, 0) + w
            div[h] = div.get(h, 0) - w
            out_pos.setdefault(t, []).append(k)

    surplus: Dict[int, int] = {}
    demand: Dict[int, int] = {}
    for v, d in div.items():
        if d > 0:
            if v not in srcs:
                raise ContractViolation(f"positive divergence at non-source {g.ids.vertex_ids[v]!r}")
            surplus[v] = d
        elif d < 0:
            if v not in snks:
                raise ContractViolation(f"negative divergence at non-sink {g.ids.vertex_ids[v]!r}")
            demand[v] = -d

    out_ptr: Dict[int, int] = {}

    def next_arc(v) -> Optional[int]:
        lst = out_pos.get(v)
        if not lst:
            return None
        i = out_ptr.get(v, 0)
        while i < len(lst) and remaining[lst[i]] <= 0:
            i += 1
        out_ptr[v] = i
        return lst[i] if i < len(lst) else None

    collected: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}

    for s in sorted(surplus):
        while surplus[s] > 0:
            path_arcs: List[int] = []
            on_path = {s: 0}
            v = s
            while True:
                if v != s and v in snks and demand.get(v, 0) > 0:
                    break
                a = next_arc(v)
                if a is None:
                    raise ContractViolation(f"path peeling stuck at {g.ids.vertex_ids[v]!r}")
                nxt = head[a]
                if nxt in on_path:
                    # cancel the cycle immediately and keep walking
                    k = on_path[nxt]
                    cycle = path_arcs[k:] + [a]
                    theta = min(remaining[c] for c in cycle)
                    for c in cycle:
                        remaining[c] -= theta
                    for c in path_arcs[k:]:
                        del on_path[head[c]]
                    del path_arcs[k:]
                    v = nxt
                    if v != s:
                        on_path[v] = len(path_arcs)
                    continue
                path_arcs.append(a)
                on_path[nxt] = len(path_arcs)
                v = nxt
            t = v
            theta = min(min(remaining[a] for a in path_arcs), surplus[s], demand[t])
            for a in path_arcs:
                remaining[a] -= theta
            surplus[s] -= theta
            demand[t] -= theta
            key = (s, t, tuple(path_arcs))
            collected[key] = collected.get(key, 0) + theta

    if any(surplus.values()) or any(demand.values()):
        raise ContractViolation("decomposition left unmet surplus or demand")
    return [TerminalPath(s, t, tuple([arcs[k] for k in ks]), w) for (s, t, ks), w in collected.items()]
