"""Integer flow primitives: blocking-flow max flow, residual min cuts,
two-phase lexicographic flows, and decomposition of nonnegative integer
arc functions into weighted simple paths.

All routines are deterministic: arcs are scanned in the order they appear
in the network, and path peeling always follows the lowest-index positive
arc.  Internally vertices and arcs are mapped to dense integer indices;
the public surface speaks in the network's own ids.

Max flows run on a residual skeleton built once per graph (its dense
numbering and twinned residual arcs, without capacities), so flows with
other capacities on the same Digraph only copy what a run mutates.  Only
the latest graph's skeleton is kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError, ContractViolation
from .graphs import MAX_CAPACITY, ArcId, Cut, Digraph, Network, VertexId, sort_key


@dataclass(frozen=True)
class TerminalPath:
    """A weighted simple directed path between two distinct terminals."""

    source: VertexId
    target: VertexId
    arcs: Tuple[ArcId, ...]
    weight: int


@dataclass(frozen=True)
class _Skeleton:
    """The capacity-free part of a graph's residual network.

    Residual arcs are twinned halves: index 2k is the forward copy of arc
    k of the graph, index 2k+1 its reverse, so the tail of residual arc e
    is head[e ^ 1].  Vertices are numbered in the graph's vertex order
    (a relabelling only: every scan follows arc order), and the two
    numbers after them are the super-source and the super-sink, which
    have no arcs yet.  adj holds each vertex's residual arcs in arc order
    as a tuple, so no run can change a skeleton another run shares.
    """

    vid: Dict[VertexId, int]
    head: Tuple[int, ...]
    adj: Tuple[Tuple[int, ...], ...]
    arc_ids: Tuple[ArcId, ...]

    @staticmethod
    def build(graph: Digraph) -> "_Skeleton":
        vid = {v: i for i, v in enumerate(graph.vertices)}
        head: List[int] = []
        adj: List[List[int]] = [[] for _ in range(len(vid) + 2)]
        for a in graph.arcs:
            u, v = vid[a.tail], vid[a.head]
            adj[u].append(len(head))
            head.append(v)
            adj[v].append(len(head))
            head.append(u)
        return _Skeleton(vid, tuple(head), tuple(map(tuple, adj)),
                         tuple(a.id for a in graph.arcs))


# The latest graph's skeleton, as one (graph, skeleton) pair.  One slot
# serves the runs of flows on one graph (a partition step, the minimal
# cuts and bulk flows of a star base, every tree arc of dual_value).  A
# skeleton cached on each Digraph would live as long as its graph, so
# every graph alive in the solver's recursion would keep one.
_slot: Tuple[Optional[Digraph], Optional[_Skeleton]] = (None, None)


def _skeleton(graph: Digraph) -> _Skeleton:
    global _slot
    owner, skel = _slot  # one read: the pair is replaced, never half-written
    if owner is not graph:
        skel = _Skeleton.build(graph)
        _slot = (graph, skel)
    return skel


class _Dinic:
    """One max-flow run on a network: Dinitz's blocking-flow algorithm
    (1970) over the shared skeleton of the network's graph.

    A run owns only what it mutates: the residual capacities (read from
    net.capacity), a copy of the head list, and copies of the arc lists
    of the vertices it attaches super arcs to.  Super-source and
    super-sink arcs are appended after the real ones and are stripped
    from the reported flow.

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

    def __init__(self, net: Network):
        skel = _skeleton(net.graph)
        self.vid = skel.vid
        self.arc_ids = skel.arc_ids
        self.n = len(skel.adj)
        self.super_s = self.n - 2
        self.super_t = self.n - 1
        caps = list(map(net.capacity.__getitem__, skel.arc_ids))
        total = sum(caps)
        if total > MAX_CAPACITY:
            raise ContractViolation("capacity sum exceeds 64-bit range")
        self.inf = total + 1
        self.cap = [0] * len(skel.head)
        self.cap[::2] = caps
        self.head = list(skel.head)
        self.adj = list(skel.adj)

    def _add(self, u: int, v: int, c: int) -> None:
        # tuple concatenation leaves the skeleton's arc lists untouched
        self.adj[u] += (len(self.head),)
        self.head.append(v)
        self.cap.append(c)
        self.adj[v] += (len(self.head),)
        self.head.append(u)
        self.cap.append(0)

    def attach_super(self, sources: Sequence[int], sinks: Sequence[int]) -> None:
        for s in sources:
            self._add(self.super_s, s, self.inf)
        self.add_sinks(sinks)

    def add_sinks(self, sinks: Sequence[int]) -> None:
        for t in sinks:
            self._add(t, self.super_t, self.inf)

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

    def flow_by_arc(self) -> Dict[ArcId, int]:
        # the reverse capacity of a real arc equals the flow pushed on it
        return {aid: used for aid, used in zip(self.arc_ids, self.cap[1::2]) if used}


def _check_endpoint_sets(net: Network, sources, sinks):
    src = sorted(set(sources), key=sort_key)
    snk = sorted(set(sinks), key=sort_key)
    for v in src + snk:
        if v not in net.vertices:
            raise InputError(f"unknown vertex {v!r}", code="dangling-reference")
    if set(src) & set(snk):
        raise InputError("sources and sinks must be disjoint", code="invalid-input")
    return src, snk


def max_flow(net: Network, sources: Iterable[VertexId], sinks: Iterable[VertexId]) -> Tuple[Dict[ArcId, int], int]:
    """Integer maximum flow from a source set to a sink set.

    Returns the flow as a sparse arc-id map together with its value.  The
    flow has zero divergence outside sources and sinks, nonnegative
    divergence at each source and nonpositive at each sink.
    """
    src, snk = _check_endpoint_sets(net, sources, sinks)
    if not src or not snk:
        return {}, 0
    d = _Dinic(net)
    d.attach_super([d.vid[v] for v in src], [d.vid[v] for v in snk])
    value = d.run()
    return d.flow_by_arc(), value


def min_cut_source_side(net: Network, f: Dict[ArcId, int], sources: Iterable[VertexId],
                        sinks: Iterable[VertexId] = ()) -> Cut:
    """Source side of the inclusion-minimal minimum cut for a maximum flow f.

    The side is the set of vertices reachable from the sources in the
    residual graph of f.  If any of the optional sinks is reachable, f was
    not maximum and a ContractViolation is raised.
    """
    src = sorted(set(sources), key=sort_key)
    for v in src:
        if v not in net.vertices:
            raise InputError(f"unknown vertex {v!r}", code="dangling-reference")
    seen = set(src)
    q = deque(src)
    g = net.graph
    while q:
        u = q.popleft()
        for a in g.out_arcs(u):  # forward residual
            if net.capacity[a.id] - f.get(a.id, 0) > 0 and a.head not in seen:
                seen.add(a.head)
                q.append(a.head)
        for a in g.in_arcs(u):  # backward residual
            if f.get(a.id, 0) > 0 and a.tail not in seen:
                seen.add(a.tail)
                q.append(a.tail)
    for t in sinks:
        if t in seen:
            raise ContractViolation("flow is not maximum: a sink is residual-reachable")
    return Cut(frozenset(seen))


def lex_max_flow(net: Network, source: VertexId, primary_sink: VertexId,
                 secondary_sinks: Iterable[VertexId]) -> Dict[ArcId, int]:
    """Maximum flow from source to all sinks that, among such maxima,
    maximizes the net inflow at the primary sink.

    Phase one saturates source -> primary alone; phase two keeps the same
    residual state and augments toward the full sink set.  Phase two never
    disturbs the primary inflow because the phase-one minimum cut stays
    saturated.
    """
    sec = sorted(set(secondary_sinks), key=sort_key)
    src, snk = _check_endpoint_sets(net, [source], [primary_sink] + sec)
    d = _Dinic(net)
    d.attach_super([d.vid[source]], [d.vid[primary_sink]])
    d.run()
    if sec:
        d.add_sinks([d.vid[v] for v in sec])
        d.run()
    return d.flow_by_arc()


def decompose(net: Network, f: Dict[ArcId, int], allowed_sources: Iterable[VertexId],
              allowed_sinks: Iterable[VertexId]) -> List[TerminalPath]:
    """Peel a nonnegative integer arc function into weighted simple paths.

    Walks start at vertices with positive remaining divergence, follow the
    lowest-index positive arc, and stop at the first allowed sink with
    unmet demand.  Cycles encountered on the way are cancelled and
    discarded, so the induced arc function of the result is bounded by f
    and differs from it by a nonnegative circulation.  Each path is a
    TerminalPath from its walk's first vertex to its last.

    A vertex listed both as source and sink takes the role its divergence
    sign dictates.  Any other vertex must have zero divergence.
    """
    srcs = set(allowed_sources)
    snks = set(allowed_sinks)
    for v in srcs | snks:
        if v not in net.vertices:
            raise InputError(f"unknown vertex {v!r}", code="dangling-reference")

    arcs = net.graph.arcs
    remaining = {}
    div: Dict[VertexId, int] = {}
    for a in arcs:
        w = f.get(a.id, 0)
        if w < 0:
            raise InputError(f"negative flow on arc {a.id!r}", code="invalid-input")
        if w:
            remaining[a.id] = w
            div[a.tail] = div.get(a.tail, 0) + w
            div[a.head] = div.get(a.head, 0) - w

    surplus = {}
    demand = {}
    for v, d in div.items():
        if d > 0:
            if v not in srcs:
                raise ContractViolation(f"positive divergence at non-source {v!r}")
            surplus[v] = d
        elif d < 0:
            if v not in snks:
                raise ContractViolation(f"negative divergence at non-sink {v!r}")
            demand[v] = -d

    out_pos: Dict[VertexId, List] = {}
    for a in arcs:
        if remaining.get(a.id, 0) > 0:
            out_pos.setdefault(a.tail, []).append(a)
    for lst in out_pos.values():
        lst.sort(key=lambda a: sort_key(a.id))
    out_ptr: Dict[VertexId, int] = {}

    def next_arc(v):
        lst = out_pos.get(v)
        if not lst:
            return None
        i = out_ptr.get(v, 0)
        while i < len(lst) and remaining.get(lst[i].id, 0) <= 0:
            i += 1
        out_ptr[v] = i
        return lst[i] if i < len(lst) else None

    collected: Dict[Tuple[VertexId, VertexId, Tuple[ArcId, ...]], int] = {}

    for s in sorted(surplus, key=sort_key):
        while surplus.get(s, 0) > 0:
            path_arcs: List = []
            on_path = {s: 0}
            v = s
            while True:
                if v != s and v in snks and demand.get(v, 0) > 0:
                    break
                a = next_arc(v)
                if a is None:
                    raise ContractViolation(f"path peeling stuck at {v!r}")
                nxt = a.head
                if nxt in on_path:
                    # cancel the cycle immediately and keep walking
                    k = on_path[nxt]
                    cycle = path_arcs[k:] + [a]
                    theta = min(remaining[c.id] for c in cycle)
                    for c in cycle:
                        remaining[c.id] -= theta
                    for c in path_arcs[k:]:
                        del on_path[c.head]
                    del path_arcs[k:]
                    v = nxt
                    if v != s:
                        on_path[v] = len(path_arcs)
                    continue
                path_arcs.append(a)
                on_path[nxt] = len(path_arcs)
                v = nxt
            t = v
            theta = min(
                min(remaining[a.id] for a in path_arcs),
                surplus[s],
                demand[t],
            )
            for a in path_arcs:
                remaining[a.id] -= theta
            surplus[s] -= theta
            demand[t] -= theta
            key = (s, t, tuple(a.id for a in path_arcs))
            collected[key] = collected.get(key, 0) + theta

    if any(surplus.values()) or any(demand.values()):
        raise ContractViolation("decomposition left unmet surplus or demand")
    return [TerminalPath(*key, w) for key, w in collected.items()]

