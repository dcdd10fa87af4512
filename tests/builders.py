"""Short constructors for hand-written test instances."""

from treeflow import Digraph, Network, RealizationTree


def make_net(vertices, arcs, terminals, caps):
    return Network(Digraph.build(vertices, arcs), tuple(terminals), caps)


def make_real(vertices, edges, subtrees):
    return RealizationTree.build(vertices, edges, subtrees)
