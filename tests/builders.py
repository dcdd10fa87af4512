"""Short constructors for hand-written test instances."""

from treeflow import Digraph, InputError, Network, RealizationTree
from treeflow.generator import LENGTH_PALETTE


def make_net(vertices, arcs, terminals, caps):
    return Network(Digraph.build(vertices, arcs), tuple(terminals), caps)


def make_real(vertices, edges, subtrees):
    return RealizationTree.build(vertices, edges, subtrees)


def tree_parents(rng, shape, n):
    """parent[i] < i of every vertex i > 0 of an n-vertex tree of the given
    shape: "path", "caterpillar", "spider" or "random"."""
    if shape == "path":
        return [i - 1 for i in range(n)]
    if shape == "caterpillar":
        spine = rng.randint(1, n)
        return [i - 1 if i < spine else rng.randrange(spine) for i in range(n)]
    if shape == "spider":  # each vertex starts a new leg at the centre 0 or extends the last one
        return [0 if i == 1 or rng.random() < 0.3 else i - 1 for i in range(n)]
    return [rng.randrange(i) if i else -1 for i in range(n)]


def shaped_tree(rng, shape, n):
    """An n-vertex tree of the given shape (tree_parents), on the vertices
    p0 to p{n-1}: their names, adjacency sets and edges (u, v, length,
    back length), each length drawn from LENGTH_PALETTE."""
    parent = tree_parents(rng, shape, n)
    tnames = [f"p{i}" for i in range(n)]
    adjacency = {v: set() for v in tnames}
    edges = []
    for i in range(1, n):
        u, v = tnames[parent[i]], tnames[i]
        adjacency[u].add(v)
        adjacency[v].add(u)
        edges.append((u, v, rng.choice(LENGTH_PALETTE), rng.choice(LENGTH_PALETTE)))
    return tnames, adjacency, edges


def divergence(net, f, v):
    """Net outflow of the arc function f (arc id -> amount) at vertex v: f
    over v's out-arcs minus f over its in-arcs, read from the graph index's
    half-arcs.  An arc id or a vertex that net lacks is an InputError."""
    for a in f:
        if a not in net.capacity:
            raise InputError(f"unknown arc {a!r}", code="dangling-reference")
    g = net.graph.index
    k = g.ids.number.get(v)
    if k is None:
        raise InputError(f"unknown vertex {v!r}", code="dangling-reference")
    arc_ids = g.ids.arc_ids
    return sum(-f.get(arc_ids[e >> 1], 0) if e & 1 else f.get(arc_ids[e >> 1], 0) for e in g.adj[k])
