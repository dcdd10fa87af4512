"""The tree queries as they were before the rooted index, kept as the
oracle that tests compare treeflow's rooted index with.

Every function reads only a tree's ids: its vertices, its arc lengths
and its subtrees.  Distances come from one breadth-first walk per query
with Fraction sums (path_length), tree sides from one set per tree arc
(sides), pi-sets from a subset test of every subtree against those sides,
and the tree checks from a walk per vertex set (connected).
"""

from collections import deque
from fractions import Fraction

from treeflow import ContractViolation, InputError
from treeflow.graphs import sort_key


def neighbours(real):
    """Each tree vertex's neighbours in id order, from the arc lengths."""
    adj = {v: [] for v in real.vertices}
    for (u, v) in real.arc_length:
        adj[u].append(v)
    return {v: sorted(ns, key=sort_key) for v, ns in adj.items()}


def path_length(adj, length, sources, targets) -> Fraction:
    """Length of the directed path from one connected set of tree vertices
    to another.  The path between any two of their vertices contains the
    one joining the sets, and lengths are nonnegative, so that one is the
    shortest."""
    prev = dict.fromkeys(sources)
    queue = list(prev)
    for u in queue:  # the list grows while it is walked
        if u in targets:
            total = Fraction(0)
            while prev[u] is not None:
                total += length[(prev[u], u)]
                u = prev[u]
            return total
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                queue.append(w)
    raise ContractViolation("the tree does not join the two vertex sets")


def connected(vset, adj) -> bool:
    if not vset:
        return False
    start = next(iter(vset))
    seen = {start}
    q = deque([start])
    while q:
        u = q.popleft()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                q.append(w)
    return len(seen) == len(vset)


def sides(real):
    """u's side of every tree arc (u, v), from one walk of the tree."""
    adj = neighbours(real)
    root = next(iter(real.vertices))
    parent = {root: None}
    order = [root]
    for w in order:
        for x in adj[w]:
            if x not in parent:
                parent[x] = w
                order.append(x)
    below = {w: {w} for w in order}
    out = {}
    for w in reversed(order[1:]):
        p = parent[w]
        side = out[(w, p)] = frozenset(below[w])
        out[(p, w)] = real.vertices - side
        below[p] |= side
    return out


def tree_distance(real, x, y) -> Fraction:
    return path_length(neighbours(real), real.arc_length, (x,), {y})


def mu(real, s, t) -> Fraction:
    if s == t:
        return Fraction(0)
    return path_length(neighbours(real), real.arc_length, real.subtrees[s], real.subtrees[t])


def pi_set(real, terminals, a, table=None):
    """(tail-side terminals, head-side terminals) of tree arc a: those whose
    subtree lies within a's tail side, and those within its head side."""
    table = table or sides(real)
    u, v = a
    return (frozenset(s for s in terminals if real.subtrees[s] <= table[(u, v)]),
            frozenset(s for s in terminals if real.subtrees[s] <= table[(v, u)]))


def classify_terminal(real, s) -> str:
    sub = real.subtrees[s]
    if len(sub) == 1:
        return "simple"
    adj, length = neighbours(real), real.arc_length
    ends = []
    for v in sub:
        inside = sum(1 for w in adj[v] if w in sub)
        if inside > 2:
            return "complex"
        if inside == 1:
            ends.append(v)
    if len(ends) != 2:
        return "complex"
    t1, t2 = ends
    zero = path_length(adj, length, (t2,), {t1}) == 0 or path_length(adj, length, (t1,), {t2}) == 0
    return "linear" if zero else "complex"


def choose_balanced_edge(real):
    """The first edge in id order with non-leaf ends whose sides each hold
    at most 2k/3 + 1 leaves, a contraction's new leaf counted; None when
    every edge touches a leaf; an InputError where no edge is balanced and
    a vertex has degree four or more."""
    adj, table = neighbours(real), sides(real)
    leaves = {v for v, ns in adj.items() if len(ns) == 1}
    k = len(leaves)
    edges = sorted(((u, v) for (u, v) in real.arc_length if sort_key(u) < sort_key(v)),
                   key=lambda e: (sort_key(e[0]), sort_key(e[1])))
    eligible = [(u, v) for (u, v) in edges if u not in leaves and v not in leaves]
    if not eligible:
        return None
    for (u, v) in eligible:
        k1 = len(leaves & table[(u, v)]) + 1
        k2 = len(leaves - table[(u, v)]) + 1
        if 3 * k1 <= 2 * k + 3 and 3 * k2 <= 2 * k + 3:
            return (u, v)
    if any(len(ns) >= 4 for ns in adj.values()):
        raise InputError("no balanced partition edge", code="invalid-tree")
    raise ContractViolation("no balanced partition edge in a degree-3 tree")


def fault_code(vertices, edges, subtrees):
    """The InputError code of RealizationTree.build for a tree whose edges
    are well formed: "invalid-tree" unless the edges form a tree, then per
    subtree in order "empty-subtree", "dangling-reference" or
    "disconnected-subtree"; None for a valid tree."""
    vset = frozenset(vertices)
    adj = {v: set() for v in vset}
    for u, v, _luv, _lvu in edges:
        adj[u].add(v)
        adj[v].add(u)
    if len(edges) != len(vset) - 1 or not connected(vset, adj):
        return "invalid-tree"
    for verts in subtrees.values():
        sub = frozenset(verts)
        if not sub:
            return "empty-subtree"
        if not sub <= vset:
            return "dangling-reference"
        if not connected(sub, {v: adj[v] & sub for v in sub}):
            return "disconnected-subtree"
    return None


def error_code(call):
    try:
        call()
    except InputError as e:
        return e.code
    return None
