"""The augmenting-walk search as it was before it ran from both ends: a
one-sided BFS over (vertex, carried commodity) states from the walk's
start, stopping at the first spare arrival at a terminal other than the
carried commodity's home.  It reads the core and changes nothing, so the
tests keep it as an oracle for solver._FreeCore._find_walk.
"""

from collections import deque


def search(core, kappa: int, vertex):
    """(walk or None, labels) of the one-sided BFS on a solver._FreeCore;
    len(labels) is the number of states it labelled."""
    g = core.graph
    tail, head, adj, used, cap, index = g.tail, g.head, g.adj, core.used, core.cap, core.index
    seed = (core.terms[kappa] if vertex is None else vertex, kappa)
    parents = {seed: (None, None)}
    q = deque([seed])
    while q:
        state = q.popleft()
        v, kap = state
        home = core.terms[kap]
        for e in adj[v]:
            if e & 1:
                continue
            a = e >> 1
            h = head[a]
            if used[a] < cap[a]:  # forward
                if h in index:
                    if h != home:
                        end = (h, kap)
                        if end not in parents:
                            parents[end] = (state, ("fwd", a, None))
                            return rebuild(parents, end), parents
                    continue
                nxt = (h, kap)
                if nxt not in parents:
                    parents[nxt] = (state, ("fwd", a, None))
                    q.append(nxt)
            elif h in index and h != home:
                # displace a unit arriving on this full arc
                for donor in core._donors_for(a):
                    nxt = (v, donor[0])
                    if nxt not in parents:
                        parents[nxt] = (state, ("disp", a, donor))
                        q.append(nxt)
        if v in index:
            continue  # departures of other terminals stay untouched
        for e in adj[v]:  # reverse, re-sourcing a unit
            a = e >> 1
            if not e & 1 or used[a] <= 0:
                continue
            t = tail[a]
            for donor in core._donors_for(a):
                k, l = donor
                if l == kap:
                    continue  # splicing would close a path onto its source
                if t == core.terms[k]:
                    resumed = (t, k)
                    if resumed not in parents:
                        parents[resumed] = (state, ("rev", a, donor))
                        q.append(resumed)
                        # the same arc may be re-added at once (net zero)
                        readd = (v, k)
                        if readd not in parents:
                            parents[readd] = (resumed, ("fwd", a, None))
                            q.append(readd)
                else:
                    nxt = (t, k)
                    if nxt not in parents:
                        parents[nxt] = (state, ("rev", a, donor))
                        q.append(nxt)
    return None, parents


def rebuild(parents, end):
    moves = []
    st = end
    while st is not None:
        prev, mv = parents[st]
        if mv is not None:
            moves.append(mv)
        st = prev
    moves.reverse()
    return moves
