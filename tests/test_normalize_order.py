"""Normalization's fixed order against the round loop it replaced
(reference_normalize.py), over random trees of 2 to 12 vertices and
stars and hubs of 5 to 41, with lengths 0, 1, 2 and 1/2 and simple,
linear and complex terminals, and the two cases the order's argument
rests on."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_normalize as ref
from treeflow import normalize
from treeflow.realization import Reduction, intern_instance

from builders import make_net, make_real

LENGTHS = [0, 0, 1, 2, Fraction(1, 2)]


def _subtree(rng, adj, n):
    """A connected vertex set of 1, 2 or 3 vertices, or the whole tree."""
    grown = [rng.randrange(n)]
    size = min(n, rng.choice([1, 1, 2, 2, 3, n]))
    while len(grown) < size:
        grown.append(rng.choice(sorted({w for v in grown for w in adj[v]} - set(grown))))
    return grown


def _instance(rng, n, hubs=0):
    """A tree of n vertices with shuffled ids and a network of its
    terminals, with random arcs between them.  With hubs, most vertices
    hang off one of the first hubs vertices, so those have high degree;
    otherwise each vertex hangs off a random earlier one or the one just
    before it.  About half the subtrees of two vertices or more get length
    zero in one direction on every edge, so many are linear."""
    if hubs:
        parent = [-1] + [rng.randrange(min(i, hubs)) if rng.random() < 0.9 else rng.randrange(i)
                         for i in range(1, n)]
    else:
        parent = [-1] + [rng.randrange(i) if rng.random() < 0.5 else i - 1 for i in range(1, n)]
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    adj = {i: set() for i in range(n)}
    length = {}
    for i in range(1, n):
        adj[i].add(parent[i])
        adj[parent[i]].add(i)
        length[(i, parent[i])], length[(parent[i], i)] = rng.choice(LENGTHS), rng.choice(LENGTHS)
    subtrees = {}
    for k in range(rng.randint(1, 6)):
        sub = _subtree(rng, adj, n)
        if len(sub) > 1 and rng.random() < 0.5:
            for u in sub:
                for w in adj[u]:
                    if w in sub and u < w:
                        length[(u, w) if rng.random() < 0.5 else (w, u)] = 0
        subtrees[f"t{k}"] = [names[x] for x in sub]
    if hubs:  # simple terminals on most leaves, so that C2 leaves the hubs' degrees high
        for x in range(n):
            if len(adj[x]) == 1 and rng.random() < 0.8:
                subtrees[f"p{x}"] = [names[x]]
    edges = [(names[u], names[w], length[(u, w)], length[(w, u)]) for (u, w) in length if u < w]
    terms = list(subtrees)
    rng.shuffle(terms)
    arcs = [(f"a{j}", rng.choice(terms), rng.choice(terms)) for j in range(rng.randint(0, 8))]
    arcs = [a for a in arcs if a[1] != a[2]]
    net = make_net(terms, arcs, terms, {a[0]: rng.randint(1, 3) for a in arcs})
    return net, make_real(names, edges, subtrees)


def _state(red):
    net = red.network()
    g = net.graph
    return (red.adj, red.length, red.origin, list(red.subs.items()), red.splits, red.record(),
            red.ids.vertex_ids, red.ids.arc_ids, red.tree_ids.vertex_ids,
            sorted(g.vertices), g.arcs, g.tail, g.head, net.cap)


def _assert_the_orders_agree(net, real):
    red, old = Reduction(*intern_instance(net, real)), Reduction(*intern_instance(net, real))
    red.run()
    ref.run(old)
    assert _state(red) == _state(old)
    assert not ref.one_round(red)  # the loop finds nothing left to do


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 12))
def test_the_fixed_order_matches_the_round_loop(rng, n):
    _assert_the_orders_agree(*_instance(rng, n))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(5, 41), st.integers(1, 3))
def test_the_fixed_order_matches_the_round_loop_on_hubs(rng, n, hubs):
    # stars and hubs of degree 4 to 40, which C4 splits many times over
    _assert_the_orders_agree(*_instance(rng, n, hubs))


def test_hubs_reach_the_degree_split_with_high_degree():
    # the degree C4 first meets, after C1 to C3, on single hubs of 40 neighbours
    rng = random.Random(1)
    degrees = []
    for _ in range(20):
        red = Reduction(*intern_instance(*_instance(rng, 41, 1)))
        for s in sorted(red.subs):
            red.split(s)
        red._drop_bare_leaves()
        red._move_simple_terminals()
        degrees.append(max(map(len, red.adj.values())))
    assert min(degrees) >= 20 and max(degrees) >= 30


def test_the_instances_need_the_second_split():
    # a third round of the loop means its second round changed something,
    # which only the second C1 and what follows it can do
    rng = random.Random(0)
    rounds = []
    for _ in range(300):
        red = Reduction(*intern_instance(*_instance(rng, rng.randint(2, 12))))
        rounds.append(ref.run(red))
    assert rounds.count(3) >= 10 and max(rounds) == 3


def test_a_subtree_that_bare_leaves_left_linear_is_split():
    # s covers the star a, b, c, d; dropping the bare leaf d leaves the
    # path a - b - c, of length zero from c to a, which must be split
    net = make_net(["s", "t1", "t2"], [("e1", "t1", "s"), ("e2", "s", "t2"), ("e3", "t2", "t1")],
                   ["s", "t1", "t2"], {"e1": 1, "e2": 1, "e3": 1})
    real = make_real(["a", "b", "c", "d", "x", "y"],
                     [("x", "a", 1, 1), ("a", "b", 1, 0), ("b", "c", 1, 0), ("b", "d", 1, 1), ("c", "y", 1, 1)],
                     {"s": ["a", "b", "c", "d"], "t1": ["x"], "t2": ["y"]})
    net1, real1, rec = normalize(net, real)
    (split,) = rec.splits
    assert split.terminal == "s" and "s" not in real1.subtrees and "s" not in net1.terminals
    adj = real1.adjacency()
    for half in (split.source_half, split.target_half):
        (x,) = real1.subtrees[half]
        assert len(adj[x]) == 1  # on a pendant
    assert "d" not in real1.vertices


def test_a_complex_subtree_shrunk_to_one_vertex_keeps_that_vertex():
    # dropping the smaller bare leaf a first leaves s = {b}, which is then
    # occupied, so b stays
    net = make_net(["s"], [], ["s"], {})
    real = make_real(["a", "b"], [("a", "b", 1, 1)], {"s": ["a", "b"]})
    _net1, real1, rec = normalize(net, real)
    assert real1.vertices == frozenset({"b"})
    assert real1.subtrees == {"s": frozenset({"b"})}
    assert rec.splits == []
