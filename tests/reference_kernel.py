"""The max-flow kernel as it was before its level graphs were built from
both ends: one BFS from the super-source per phase, stopped once the
super-sink has its level.  The tests keep it as the reference that
indexed.max_flow must match arc for arc.
"""

from typing import List, Optional, Sequence, Tuple

from treeflow.indexed import IntNetwork


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


def max_flow(net: IntNetwork, sources: Sequence[int], sinks: Sequence[int],
             start: Optional[Sequence[int]] = None) -> Tuple[List[int], int]:
    """indexed.max_flow on the reference kernel."""
    src = sorted(set(sources))
    snk = sorted(set(sinks))
    if not src or not snk:
        return list(start or [0] * len(net.cap)), 0
    d = _Dinic(net, src, snk, start)
    value = d.run()
    return d.flow(), value
