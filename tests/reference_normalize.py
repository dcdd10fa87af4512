"""Normalization as it ran before the fixed order, kept as the oracle that
tests compare realization.Reduction.run with.

The five reductions repeat in rounds until a round changes nothing.  C4
and C5 restart their scan from the smallest vertex after every split or
merge, and every reduction reports whether it changed anything.  The
functions read and write a Reduction's state and use only its split,
_new_neighbour and _join, never its run or its other reductions.
"""

from treeflow import ContractViolation


def run(red) -> int:
    """The five reductions in rounds, to a fixed point; the number of
    rounds, the last of which changed nothing."""
    for done in range(10 * (len(red.adj) + len(red.subs)) + 20):
        if not one_round(red):
            return done + 1
    raise ContractViolation("normalization did not reach a fixed point")


def one_round(red) -> bool:
    """C1 to C5 once each; whether any of them changed anything."""
    changed = False
    for s in sorted(red.subs):
        changed |= red.split(s)  # C1
    changed |= drop_bare_leaves(red)  # C2
    changed |= move_simple_terminals(red)  # C3
    changed |= bound_degrees(red)  # C4
    changed |= merge_chains(red)  # C5
    return changed


def drop_bare_leaves(red) -> bool:
    adj, changed = red.adj, False
    while True:
        occupied = {x for sub in red.subs.values() if len(sub) == 1 for x in sub}
        victim = next((v for v in sorted(adj) if len(adj[v]) == 1 and v not in occupied), None)
        if victim is None:
            return changed
        (nb,) = adj.pop(victim)
        adj[nb].remove(victim)
        for a in ((victim, nb), (nb, victim)):
            del red.length[a], red.origin[a]
        for sub in red.subs.values():
            sub.discard(victim)
        changed = True


def move_simple_terminals(red) -> bool:
    at = {}
    for t, sub in red.subs.items():
        if len(sub) == 1:
            at.setdefault(next(iter(sub)), []).append(t)
    changed = False
    for v in sorted(at):
        if len(red.adj[v]) >= 2:
            v2 = red._new_neighbour(v)
            for t in at[v]:
                red.subs[t] = {v2}
            changed = True
    return changed


def bound_degrees(red) -> bool:
    adj, changed = red.adj, False
    while True:
        v = next((x for x in sorted(adj) if len(adj[x]) >= 4), None)
        if v is None:
            return changed
        moved = sorted(adj[v])[2:]
        v2 = red._new_neighbour(v)
        for w in moved:
            adj[v].remove(w)
            adj[w].remove(v)
            adj[w].add(v2)
            adj[v2].add(w)
            red._join([(v, w)], (v2, w))
            red._join([(w, v)], (w, v2))
        for sub in red.subs.values():
            if v in sub and not sub.isdisjoint(moved):
                sub.add(v2)
        changed = True


def merge_chains(red) -> bool:
    adj, changed = red.adj, False
    while True:
        for v in sorted(adj):
            if len(adj[v]) != 2:
                continue
            u, w = sorted(adj[v])
            if any(v in sub and not (u in sub and w in sub) for sub in red.subs.values()):
                continue
            del adj[v]
            adj[u].remove(v)
            adj[u].add(w)
            adj[w].remove(v)
            adj[w].add(u)
            red._join([(u, v), (v, w)], (u, w))
            red._join([(w, v), (v, u)], (w, u))
            for sub in red.subs.values():
                sub.discard(v)
            changed = True
            break
        else:
            return changed
