"""The integer-indexed network the solver works on, and its flow kernels.

A solve interns its validated network once (intern): it takes its
graph's index (graphs.Digraph.index, numbered as the graph was built:
vertex ids in id order, arc ids in arc order) and the network's
capacities by arc position, with a private copy of the IdTable, which
keeps the ids and their order for every network the solve makes.
Normalization, the recursion and its undo run on these numbers, which
stay stable across contraction; each vertex or arc made takes the next
number, so it sorts after everything made before it.  Paths and cuts go
back to ids once, when they leave the solver.

An IntGraph lists its arcs in arc order: position k holds arc number
arcs[k] from tail[k] to head[k].  Its adjacency lists, indexed by vertex
number, hold each vertex's residual half-arcs in arc order: 2k where
arc k leaves the vertex, 2k + 1 where it enters.  Max flows, residual
cuts and contraction read these arrays directly.  An IntNetwork is arcs
and capacities only; a solve reads its terminals from its tree's subtree
map.  Contraction walks only the smaller side: the adjacency of the
sets it contracts, whose arcs it patches into a copy of the parent's
arrays, or that of the few vertices it keeps, from which it builds the
child.  It validates nothing: only the public entry points (graphs,
flows, solver.solve) check input.

Kernels speak numbers: vertex numbers, flows as one entry per arc
position, or for peeling only the positive entries ({position: units}),
and paths as plain tuples (source, target, arcs, weight), which become
TerminalPaths of ids once, on export (IdTable.path_ids).  Arcs break
ties in arc order and vertices by number, which is id order on input
vertices: Dinic adds no vertex or arc, scans arcs in arc order and
starts its paths at sources in number order; peeling starts at sources
in number order and follows the positive arc that comes first in arc
order.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from itertools import chain, compress
from typing import Collection, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ContractViolation
from .graphs import Network, TerminalPath, sort_key

Path = Tuple[int, int, Tuple[int, ...], int]  # (source, target, arcs or positions, weight)


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
    and arc_number map input ids to their numbers; nothing writes them,
    so a copy (intern) shares them and copies only the two id lists.
    A graph's table is filled as the graph is built (graphs._number), a
    tree's by of().  It also holds max_flow's per-vertex scratch arrays.
    """

    def __init__(self, vertex_ids: List[Hashable], number: Dict[Hashable, int],
                 arc_ids: List[Hashable], arc_number: Dict[Hashable, int]):
        self.vertex_ids, self.number, self.arc_ids, self.arc_number = vertex_ids, number, arc_ids, arc_number
        self._generation = 1 + max((x.generation for x in chain(vertex_ids, arc_ids)
                                    if x.__class__ is _Made), default=-1)
        self._scratch: Tuple[List[int], List[int], List[int]] = ([], [], [])

    @classmethod
    def of(cls, vertices: Iterable[Hashable]) -> "IdTable":
        """The table of a vertex set with no arcs, numbered in id order."""
        vertex_ids = sorted(vertices, key=sort_key)
        return cls(vertex_ids, dict(zip(vertex_ids, range(len(vertex_ids)))), [], {})

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

    def path_ids(self, p: Path) -> TerminalPath:
        """The path (source, target, arc numbers, weight) in ids."""
        source, target, arcs, weight = p
        arc_ids = self.arc_ids
        return TerminalPath(self.vertex_ids[source], self.vertex_ids[target],
                            tuple([arc_ids[a] for a in arcs]), weight)


class IntGraph:
    """A directed multigraph on vertex and arc numbers of one IdTable.

    vertices is the set of vertex numbers present.  Position k of the arc
    arrays is arc number arcs[k] from tail[k] to head[k], in arc order;
    no arc is a loop.  adj[v] lists v's residual half-arcs in arc order
    (2k leaving along k, 2k + 1 entering along k); adj is as long as the
    table was when the graph was built.  The positions in some adjacency
    list are the live arcs, and live counts them.  contract (arcs inside
    a contraction vertex) and split_off leave dead positions, in no
    adjacency list, with their old endpoints and capacity 0 in the
    network; both keep the positions at most twice the live arcs.  A
    patched contraction shares the arc list and the adjacency lists of
    the vertices it leaves alone with the graph it came from.  None of the
    lists is modified after construction, so flows and callers read them
    in place.  The one exception is the private copy of a core that the
    splitting fallback (solver._core_by_splitting) owns: it grows and
    shrinks by bypass arcs between max flows, never during one, and the
    bypass positions, past its arc list, have no arc number.

    Given no adj, the constructor builds it from every position, all live.
    """

    def __init__(self, ids: IdTable, vertices: frozenset, arcs: List[int],
                 tail: List[int], head: List[int],
                 adj: Optional[List] = None, live: Optional[int] = None):
        self.ids = ids
        self.vertices = vertices
        self.arcs = arcs
        self.tail = tail
        self.head = head
        if adj is None:
            adj = [()] * len(ids.vertex_ids)
            for v in vertices:
                adj[v] = []
            for k, (t, h) in enumerate(zip(tail, head)):
                adj[t].append(2 * k)
                adj[h].append(2 * k + 1)
            live = len(tail)
        self.adj: List[List[int]] = adj
        self.live: int = live


@dataclass(frozen=True)
class IntNetwork:
    """An IntGraph with one capacity per arc position and no terminals.
    Networks that differ only in capacities share a graph."""

    graph: IntGraph
    cap: List[int]


def intern(net: Network) -> IntNetwork:
    """A validated network on numbers: its graph's index and its
    capacities by arc position, sharing the arrays, with a copy of the
    IdTable whose lists and scratch arrays are the caller's own."""
    g = net.graph.index
    ids = copy(g.ids)  # shares the number maps, which nothing writes
    ids.vertex_ids, ids.arc_ids = ids.vertex_ids[:], ids.arc_ids[:]
    ids._scratch = ([], [], [])
    return IntNetwork(IntGraph(ids, g.vertices, g.arcs, g.tail, g.head, g.adj, g.live), net.cap)


def contract(net: IntNetwork, groups: Mapping[int, Collection[int]]) -> IntNetwork:
    """Contract disjoint vertex sets, each into its own new vertex.

    groups maps each new vertex number z (from IdTable.new_vertex) to
    the set it replaces.  Arcs inside one set leave the graph; all others
    keep their numbers, capacities and order.  The caller's tree holds the
    terminals, the new vertices among them.

    The Python work follows the smaller side, as in Hopcroft's "process
    the smaller half" (1971); only C-speed list copies read everything.
    - One set with more vertices than the rest: the child is built from
      the adjacency of the vertices it keeps, which holds all its arcs.
    - Otherwise the child patches the parent.  It copies the arc arrays,
      the capacities and the outer adjacency list, and walks only the
      members' adjacency: an arc leaving a set gets z as its end there
      and z gets its half-arc, and an arc inside one set becomes a dead
      position.  A half-arc names its arc, not the far vertex, so every
      other vertex keeps the parent's adjacency list object.  Where that
      would leave more than twice as many positions as live arcs, the
      child is rebuilt compactly from its live adjacency instead, which
      bounds what the dead positions cost every later pass over the
      arc positions.
    Either way each live arc keeps its number, endpoints and capacity,
    and each adjacency list its arc order, as a compact contraction gives
    them; dead positions are in no list and have capacity 0.  So max
    flows, decompositions, walk searches and splitting meet the same arcs
    in the same order, and find the same flows.
    """
    g = net.graph
    n = len(g.ids.vertex_ids)
    kept = g.vertices.difference(*groups.values())
    vertices = kept.union(groups)
    if len(groups) == 1 and 2 * len(kept) < len(g.vertices):
        (z,) = groups
        image = [z] * n
        for v in kept:
            image[v] = v
        return _compact(net, kept, image, vertices)

    image = list(range(n))
    for z, members in groups.items():
        for v in members:
            image[v] = z
    g_tail, g_head, g_adj = g.tail, g.head, g.adj
    tail, head, cap = g_tail[:], g_head[:], net.cap[:]
    adj = g_adj + [()] * (n - len(g_adj))
    live = g.live
    for z, members in groups.items():
        z_adj = []
        for v in members:
            for e in g_adj[v]:
                k = e >> 1
                if e & 1:
                    if image[g_tail[k]] == z:
                        continue  # inside the set: dead, counted at its tail
                    head[k] = z
                else:
                    if image[g_head[k]] == z:
                        cap[k] = 0
                        live -= 1
                        continue
                    tail[k] = z
                z_adj.append(e)
            adj[v] = ()
        z_adj.sort()
        adj[z] = z_adj
    child = IntNetwork(IntGraph(g.ids, vertices, g.arcs, tail, head, adj, live), cap)
    if len(tail) > 2 * live:
        return _compact(child, vertices, range(n), vertices)
    return child


def split_off(net: IntNetwork, ends: Collection[int]) -> Tuple[IntNetwork, List[Path]]:
    """The positive arcs between two vertices of the set ends, as one-arc
    paths (tail, head, (arc,), capacity) in arc order, and the network
    without them, nor any arc of capacity 0 at an end, such as the split
    arcs of a terminal isolated in the input (realization.Reduction):
    dead positions, as contract leaves, and the same rule for a compact
    rebuild."""
    g, caps = net.graph, net.cap
    tail, head = g.tail, g.head
    dropped = sorted({e >> 1 for v in ends for e in g.adj[v]
                      if not caps[e >> 1] or not e & 1 and head[e >> 1] in ends})
    if not dropped:
        return net, []
    cap, adj, gone = caps[:], g.adj[:], set(dropped)
    for k in dropped:
        cap[k] = 0
    for v in {x for k in dropped for x in (tail[k], head[k])}:
        adj[v] = [e for e in adj[v] if e >> 1 not in gone]
    live = g.live - len(dropped)
    child = IntNetwork(IntGraph(g.ids, g.vertices, g.arcs, tail, head, adj, live), cap)
    if len(tail) > 2 * live:
        child = _compact(child, g.vertices, range(len(adj)), g.vertices)
    return child, [(tail[k], head[k], (g.arcs[k],), caps[k]) for k in dropped if caps[k]]


def _compact(net: IntNetwork, walked: Iterable[int], image: Sequence[int],
             vertices: frozenset) -> IntNetwork:
    """A network on vertices with no dead positions: the live arcs at the
    walked vertices, in arc order, their endpoints mapped through image,
    which must make no loop."""
    g = net.graph
    positions = sorted({e >> 1 for v in walked for e in g.adj[v]})
    arcs, tail, head, cap = g.arcs, g.tail, g.head, net.cap
    return IntNetwork(IntGraph(g.ids, vertices, [arcs[k] for k in positions],
                               [image[tail[k]] for k in positions],
                               [image[head[k]] for k in positions]),
                      [cap[k] for k in positions])


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


def max_flow(net: IntNetwork, sources: Iterable[int], sinks: Iterable[int],
             start: Optional[Sequence[int]] = None) -> Tuple[List[int], int]:
    """Integer maximum flow from a source set to a disjoint sink set: the
    flow on every arc position, and the value it adds to start.  start,
    if given, is a feasible flow from the sources to the sinks, one entry
    per arc position, which the run augments instead of the zero flow.

    Dinitz's blocking-flow algorithm (1970) on the source and sink sets
    themselves.  It reads the graph's adjacency and arc arrays and the
    network's capacities in place and never writes them; it owns only
    the residual capacities and the residual head list.  Residual arc 2k
    is the forward copy of arc position k and 2k + 1 its reverse, so the
    tail of residual arc e is head[e ^ 1].  Its per-vertex labels (level,
    dist and the DFS arc pointers) are the IdTable's scratch arrays, blank
    between phases: a phase clears only the entries it labelled, so its
    cost follows the vertices it reaches, not the table's length.

    Two shortcuts leave every augmenting path as the textbook loop finds
    it, so the flows are identical arc for arc.  A phase builds its levels
    from both ends (Pohl's bidirectional search): a BFS from the sources,
    which start at level 0, labels distances from them, one backward from
    the sinks, which start at distance 0, distances to them, and each
    step grows the smaller frontier by a layer until a vertex has both
    labels.  Until then no vertex had both, so the shortest residual
    distance d exceeds the sum of the two complete depths; the meeting
    vertex, one layer further, lies on a path of at most that sum plus
    one, so d is the sum of its labels.  Forward labels are levels.  A
    vertex labelled only backward, at distance b to the sinks, gets level
    d - b, which is at most its distance from the sources; so by
    induction from the sources, a vertex the DFS enters by a rising arc
    has its true distance as its level.  Every vertex on a shortest path
    lies within the complete layers of one side, so it is labelled and
    the DFS can enter it.  A vertex the textbook DFS enters and this one
    does not lies on no shortest path, so the textbook DFS finds it a dead
    end.  No rising arc enters a source, and every sink sits at level d,
    so a path ends at the first sink it reaches.  The DFS takes the
    sources in number order.  After an augmentation it resumes at the
    tail of the first arc it saturated, keeping the path before it:
    restarted from the source it would walk that same prefix, because the
    arc pointers of the prefix vertices still point at the prefix arcs.
    """
    src = sorted(set(sources))
    snk = sorted(set(sinks))
    caps = net.cap
    if not src or not snk:
        return list(start or [0] * len(caps)), 0
    g = net.graph
    adj = g.adj
    n = len(adj)
    cap = [0] * (2 * len(caps))
    if start is None:
        cap[::2] = caps
    else:
        cap[::2] = [c - w for c, w in zip(caps, start)]
        cap[1::2] = start
    head = [0] * len(cap)
    head[::2] = g.head
    head[1::2] = g.tail
    # level: distance from the sources, then the DFS level; dist: distance
    # to the sinks; it: the DFS arc pointers.  Blank: -1, -1 and 0.
    level, dist, it = g.ids._scratch
    if len(level) < n:
        level += [-1] * (n - len(level))
        dist += [-1] * (n - len(dist))
        it += [0] * (n - len(it))
    total = 0
    while True:
        for s in src:
            level[s] = 0
        for t in snk:
            dist[t] = 0
        fwd, bwd, back = src, snk, []  # back: the backward layers before bwd
        ahead = src[:]  # the forward layers
        meet = -1
        # grow the smaller frontier by a layer; the two sides' loops are
        # written out, as a call per layer costs more than small graphs' scans
        while meet < 0:
            if not fwd or not bwd:
                for v in chain(ahead, back, bwd):
                    level[v] = dist[v] = -1
                # the reverse capacity of an arc equals the flow pushed on it
                return cap[1::2], total
            layer = []
            if len(fwd) <= len(bwd):
                lv = level[fwd[0]] + 1
                for u in fwd:
                    for e in adj[u]:
                        if cap[e] > 0:
                            v = head[e]
                            if level[v] < 0:
                                level[v] = lv
                                if dist[v] >= 0:  # both sides label v: stop here
                                    meet = v
                                    break
                                layer.append(v)
                    else:
                        continue
                    break
                fwd = layer
                ahead += layer
            else:
                back += bwd
                lv = dist[bwd[0]] + 1
                for u in bwd:
                    for e in adj[u]:
                        if cap[e ^ 1] > 0:  # e ^ 1 runs from head[e] into u
                            v = head[e]
                            if dist[v] < 0:
                                dist[v] = lv
                                if level[v] >= 0:
                                    meet = v
                                    break
                                layer.append(v)
                    else:
                        continue
                    break
                bwd = layer
        d = level[meet] + dist[meet]
        for v in back + bwd:
            if level[v] < 0:
                level[v] = d - dist[v]
        path: List[int] = []
        for u in src:  # DFS for one blocking flow
            while True:
                if dist[u] == 0:  # a sink
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
                        break  # the source is a dead end: take the next one
                    level[u] = -1  # dead end: retreat past the arc into u
                    u = head[path.pop() ^ 1]
                    it[u] += 1
        for v in chain(ahead, back, bwd, (meet,)):  # blank what the phase labelled
            level[v] = dist[v] = -1
            it[v] = 0


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


def sparse(f: Sequence[int]) -> Dict[int, int]:
    """The nonzero entries of a flow given one entry per arc position, as
    {position: units}, found by a scan at C speed."""
    return dict(zip(compress(range(len(f)), f), compress(f, f)))


def decompose(g: IntGraph, f: Mapping[int, int], allowed_sources: Iterable[int],
              allowed_sinks: Iterable[int]) -> List[Path]:
    """Peel a nonnegative integer flow on a graph, {arc position: units},
    into weighted simple paths (source, target, positions, weight).  It
    reads only the entries of f, in position order, and skips zeros: the
    work follows the arcs that carry flow (Ahuja, Magnanti and Orlin,
    Network Flows, 1993, section 3.5), not the graph.

    Walks start at vertices with positive remaining divergence, in number
    order, follow the positive arc that comes first in arc order, and stop
    at the first allowed sink with unmet demand.  Cycles met on the way are
    cancelled and discarded, so the paths' arc function is bounded by f
    and differs from it by a nonnegative circulation.

    A vertex listed both as source and sink takes the role its divergence
    sign dictates.  Any other vertex must have zero divergence.  The paths
    come in peel order, and no two share source, sink and arcs: each peel
    exhausts an arc on its path, its source's surplus or its sink's
    demand, and a walk stops only at a sink with unmet demand.
    """
    tail, head = g.tail, g.head
    srcs = set(allowed_sources)
    snks = set(allowed_sinks)

    remaining: Dict[int, int] = {}
    div: Dict[int, int] = {}
    out_pos: Dict[int, List[int]] = {}  # each vertex's positive out-arcs in arc order
    for k, w in sorted(f.items()):
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

    for lst in out_pos.values():
        lst.reverse()  # a stack: the first positive arc in arc order on top

    paths: List[Path] = []
    for s in sorted(surplus):
        while surplus[s] > 0:
            path_arcs: List[int] = []
            on_path = {s: 0}
            v = s
            while v == s or not demand.get(v):  # only sinks have demand
                lst = out_pos.get(v)
                while lst and not remaining[lst[-1]]:
                    lst.pop()  # flow only ever falls: an empty arc stays empty
                if not lst:
                    raise ContractViolation(f"path peeling stuck at {g.ids.vertex_ids[v]!r}")
                a = lst[-1]
                nxt = head[a]
                if nxt in on_path:
                    # cancel the cycle immediately and keep walking
                    k = on_path[nxt]
                    cycle = path_arcs[k:] + [a]
                    theta = min([remaining[c] for c in cycle])
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
            theta = min(surplus[s], demand[t], *[remaining[a] for a in path_arcs])
            for a in path_arcs:
                remaining[a] -= theta
            surplus[s] -= theta
            demand[t] -= theta
            paths.append((s, t, tuple(path_arcs), theta))

    if any(surplus.values()) or any(demand.values()):
        raise ContractViolation("decomposition left unmet surplus or demand")
    return paths
