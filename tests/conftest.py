from fractions import Fraction

import pytest

from treeflow import Digraph, Network, RealizationTree


def make_net(vertices, arcs, terminals, caps):
    return Network(Digraph.build(vertices, arcs), tuple(terminals), caps)


def make_real(vertices, edges, subtrees):
    return RealizationTree.build(vertices, edges, subtrees)


@pytest.fixture
def e1():
    """Two terminals, forward cap 2 / backward cap 1, lengths 3 and 0."""
    net = make_net(["s", "t"], [("a1", "s", "t"), ("a2", "t", "s")], ["s", "t"],
                   {"a1": 2, "a2": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 3, 0)], {"s": ["v1"], "t": ["v2"]})
    return net, real


@pytest.fixture
def e2():
    """Rotational triangle through a balanced hub; unit lengths on a star."""
    arcs = [("a1", "s1", "x"), ("a2", "x", "s2"), ("a3", "s2", "x"),
            ("a4", "x", "s3"), ("a5", "s3", "x"), ("a6", "x", "s1")]
    net = make_net(["s1", "s2", "s3", "x"], arcs, ["s1", "s2", "s3"],
                   {aid: 1 for aid, _u, _v in arcs})
    real = make_real(["v0", "v1", "v2", "v3"],
                     [("v1", "v0", 1, 1), ("v2", "v0", 1, 1), ("v3", "v0", 1, 1)],
                     {"s1": ["v1"], "s2": ["v2"], "s3": ["v3"]})
    return net, real
