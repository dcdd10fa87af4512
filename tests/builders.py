"""Short constructors for hand-written test instances."""

from treeflow import Digraph, Network, RealizationTree


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
