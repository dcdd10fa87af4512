"""indexed.contract against the one-pass reference contraction, and the
structure that lets it copy only the smaller side."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_contract
from treeflow.generator import superpose_walks
from treeflow.graphs import Digraph, Network
from treeflow.indexed import contract, intern, max_flow

from builders import make_net


def live_positions(g):
    """The positions of a graph's live arcs, in arc order: those in some
    vertex's adjacency.  A contraction may leave dead positions besides."""
    return sorted(e >> 1 for v in g.vertices for e in g.adj[v] if not e & 1)


def live_arcs(net):
    """The live arcs as (arc number, tail, head, capacity), in arc order."""
    g = net.graph
    return [(g.arcs[k], g.tail[k], g.head[k], net.cap[k]) for k in live_positions(g)]


def adjacency(g):
    """Every vertex's half-arcs as (arc number, entering), in list order."""
    return {v: [(g.arcs[e >> 1], e & 1) for e in g.adj[v]] for v in g.vertices}


def snapshot(net):
    g = net.graph
    return (g.vertices, list(g.arcs), list(g.tail), list(g.head), list(net.cap),
            [list(lst) for lst in g.adj], g.live)


def assert_matches_reference(net, ref):
    g = net.graph
    live = live_positions(g)
    assert g.vertices == ref.graph.vertices
    assert live_arcs(net) == live_arcs(ref) == list(zip(ref.graph.arcs, ref.graph.tail,
                                                        ref.graph.head, ref.cap))
    assert g.live == len(live) == len(ref.cap)
    assert adjacency(g) == adjacency(ref.graph)
    # dead positions carry nothing and lie in no adjacency list
    dead = set(range(len(g.arcs))).difference(live)
    assert all(net.cap[k] == 0 for k in dead)
    assert not any(e >> 1 in dead for lst in g.adj for e in lst)
    assert len(g.arcs) == len(g.tail) == len(g.head) == len(net.cap) <= 2 * g.live


@st.composite
def contraction_chains(draw):
    """A network of up to 12 vertices with parallel and zero-capacity arcs,
    and one to three rounds of group labels: per vertex, -1 keeps it and
    0..2 name the group it joins."""
    n = draw(st.integers(min_value=2, max_value=12))
    verts = [f"v{i:02d}" for i in range(n)]
    arcs, caps = [], {}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)):
        if u != v:
            aid = f"a{len(arcs):03d}"
            arcs.append((aid, verts[u], verts[v]))
            caps[aid] = draw(st.integers(min_value=0, max_value=3))
    rounds = draw(st.lists(st.lists(st.integers(-1, 2), min_size=n + 3, max_size=n + 3),
                           min_size=1, max_size=3))
    return make_net(verts, arcs, verts[:1], caps), rounds


@settings(max_examples=300, deadline=None)
@given(contraction_chains())
def test_contract_matches_the_reference(chain):
    # each round contracts the previous round's result, the fast contraction
    # its own and the reference its own; patched, built and rebuilt children
    # all show the reference's vertices, arcs and adjacency, and every max
    # flow on them is the reference's on the live arcs
    net, rounds = chain
    fast = ref = intern(net)
    ids = fast.graph.ids
    for labels in rounds:
        order = sorted(fast.graph.vertices)
        members = {}
        for v, label in zip(order, labels):
            if label >= 0:
                members.setdefault(label, []).append(v)
        if not members:
            continue
        groups = {ids.new_vertex(): group for _label, group in sorted(members.items())}
        before = snapshot(fast)
        fast, parent = contract(fast, groups), fast
        ref = reference_contract.contract(ref, groups)
        assert snapshot(parent) == before
        assert_matches_reference(fast, ref)
        order = sorted(fast.graph.vertices)
        if len(order) > 1:
            f, value = max_flow(fast, order[:1], order[-1:])
            rf, rvalue = max_flow(ref, order[:1], order[-1:])
            assert value == rvalue
            assert [f[k] for k in live_positions(fast.graph)] == rf
            assert sum(f) == sum(rf)


def walk_network(n, cycles, seed):
    rng = random.Random(seed)
    verts = [f"x{i:03d}" for i in range(n)]
    arcs, caps = superpose_walks(rng, verts, cycles, 2, verts[:4])
    return intern(Network(Digraph.build(verts, arcs), tuple(verts[:4]), caps))


class Unread(list):
    """An adjacency list that must not be walked."""

    def __iter__(self):
        raise AssertionError("contraction walked a list of the larger side")


def contract_reading(net, groups, walked):
    """contract, with every adjacency list outside walked made Unread for
    the call: the parent's lists are restored afterwards, the child keeps
    the Unread copies of those it shares."""
    adj = net.graph.adj
    saved = list(adj)
    for v in net.graph.vertices.difference(walked):
        adj[v] = Unread(adj[v])
    try:
        return contract(net, groups)
    finally:
        adj[:] = saved


def test_contracting_a_small_set_patches_the_parent():
    net = walk_network(60, 60, 7)
    g = net.graph
    small = sorted(g.vertices)[:3]
    z = g.ids.new_vertex()
    before = snapshot(net)
    child = contract_reading(net, {z: small}, small).graph
    assert snapshot(net) == before
    # the arc list is the parent's, and every adjacency list but z's is a
    # parent's list, never walked
    assert child.arcs is g.arcs
    kept = g.vertices.difference(small)
    assert all(type(child.adj[v]) is Unread and child.adj[v] == g.adj[v] for v in kept)
    assert child.vertices == kept | {z}


def test_contracting_a_large_set_builds_from_the_small_side():
    net = walk_network(60, 60, 7)
    g = net.graph
    small, large = sorted(g.vertices)[:3], sorted(g.vertices)[3:]
    z = g.ids.new_vertex()
    before = snapshot(net)
    child = contract_reading(net, {z: large}, small)
    assert snapshot(net) == before
    # only the arcs at the three kept vertices, each once, no dead position
    assert len(child.graph.arcs) == child.graph.live == len(live_positions(child.graph))
    assert child.graph.vertices == frozenset(small) | {z}


def test_positions_stay_within_twice_the_live_arcs_along_a_chain():
    net = walk_network(80, 80, 11)
    ids = net.graph.ids
    ratios = []
    while len(net.graph.vertices) > 4:
        # contract the two smallest numbers together with the last new vertex,
        # so arcs die inside the set at every step
        small = sorted(net.graph.vertices)[:2]
        prev = [v for v in net.graph.vertices if v >= 80]
        net = contract(net, {ids.new_vertex(): small + prev})
        g = net.graph
        assert len(g.arcs) <= 2 * g.live
        ratios.append(len(g.arcs) / g.live)
    # the chain both patched (dead positions) and rebuilt (none)
    assert max(ratios) > 1 and min(ratios) == 1
