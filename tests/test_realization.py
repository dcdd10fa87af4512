import itertools
import random
from fractions import Fraction

import pytest

from treeflow import (
    InputError,
    Network,
    classify_terminal,
    choose_balanced_edge,
    mu,
    normalize,
    pi_set,
    split_linear_terminal,
    tree_distance,
    validate_instance,
)
from treeflow.generator import generate_network
from treeflow.realization import RealizationTree

from builders import make_net, make_real


def _walk_table(vertices, lengths):
    """For a tree given by its vertices and arc lengths: per ordered vertex
    pair (x, y), the length of the x -> y path and the set of its arcs,
    found by this oracle's own walk from every vertex, not by the library."""
    nbrs = {x: [] for x in vertices}
    for (u, v) in lengths:
        nbrs[u].append(v)
    table = {}
    for x in nbrs:
        table[(x, x)] = (Fraction(0), frozenset())
        stack = [x]
        while stack:
            u = stack.pop()
            du, arcs = table[(x, u)]
            for v in nbrs[u]:
                if (x, v) not in table:
                    table[(x, v)] = (du + lengths[(u, v)], arcs | {(u, v)})
                    stack.append(v)
    return table


_tables = {}
_latest = [None, None]  # the last realization asked about, and its table


def _pair_table(real):
    """The walk table of the tree of real, built once per tree: the cases
    of one tree differ only in their subtrees."""
    if _latest[0] is not real:
        key = (real.vertices, frozenset(real.arc_length.items()))
        if key not in _tables:
            _tables[key] = _walk_table(real.vertices, real.arc_length)
        _latest[:] = [real, _tables[key]]
    return _latest[1]


def brute_mu(real, s, t):
    if s == t:
        return Fraction(0)
    table = _pair_table(real)
    return min(table[(u, v)][0] for u in real.subtrees[s] for v in real.subtrees[t])


def brute_pi_members(real, terminals, arc):
    """Pairwise reading: (s, t) feels the arc iff every distance-minimizing
    subtree pair routes its unique directed path through the arc."""
    table = _pair_table(real)
    members = set()
    for s in terminals:
        for t in terminals:
            if s == t:
                continue
            best = brute_mu(real, s, t)
            mins = [(x, y) for x in real.subtrees[s] for y in real.subtrees[t]
                    if table[(x, y)][0] == best]
            if mins and all(arc in table[(x, y)][1] for x, y in mins):
                members.add((s, t))
    return members


def test_tree_distance_basics():
    real = make_real(["u", "v", "w"], [("u", "v", 1, 4), ("v", "w", 2, 8)],
                     {"s": ["u"]})
    assert tree_distance(real, "u", "u") == 0
    assert tree_distance(real, "u", "v") == 1
    assert tree_distance(real, "v", "u") == 4
    assert tree_distance(real, "u", "w") == 3
    assert tree_distance(real, "w", "u") == 12


@pytest.mark.parametrize("length", ["x", float("nan"), float("inf"), None, "1/0", "1e5", "1E300000"])
def test_tree_length_that_is_no_rational_is_an_input_error(length):
    for luv, lvu in [(length, 1), (1, length)]:
        with pytest.raises(InputError) as exc:
            RealizationTree.build(["u", "v"], [("u", "v", luv, lvu)], {"s": ["u"]})
        assert exc.value.code == "bad-rational"


def test_tree_distance_one_sided_edge():
    real = make_real(["u", "v"], [("u", "v", 3, 0)], {"s": ["u"]})
    assert tree_distance(real, "u", "v") == 3
    assert tree_distance(real, "v", "u") == 0


def test_directed_triangle_inequality():
    rng = random.Random(7)
    for _ in range(30):
        net, real = generate_network(rng.randrange(10**6), 4, 2, 0, 3)
        verts = sorted(real.vertices)
        for x, y, z in itertools.product(verts, repeat=3):
            assert tree_distance(real, x, y) + tree_distance(real, y, z) >= \
                tree_distance(real, x, z)


def test_mu_examples():
    real = make_real(["v1", "v2", "v3"],
                     [("v1", "v2", 3, 1), ("v2", "v3", 2, 2)],
                     {"s": ["v1", "v2"], "t": ["v2", "v3"], "u": ["v1"], "w": ["v2"]})
    assert mu(real, "s", "t") == 0  # overlapping subtrees
    assert mu(real, "s", "s") == 0
    assert mu(real, "u", "w") == 3
    with pytest.raises(InputError):
        mu(real, "s", "missing")


def test_mu_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        net, real = generate_network(rng.randrange(10**6), 5, 3, 1, 3)
        for s in net.terminals:
            for t in net.terminals:
                assert mu(real, s, t) == brute_mu(real, s, t)


def test_classification():
    real = make_real(
        ["a", "b", "c", "d"],
        [("a", "b", 1, 0), ("b", "c", 2, 0), ("b", "d", 1, 1)],
        {"simple": ["a"], "linear": ["a", "b", "c"], "star": ["a", "b", "c", "d"],
         "path_both_ways": ["b", "d"]},
    )
    assert classify_terminal(real, "simple") == "simple"
    assert classify_terminal(real, "linear") == "linear"  # zero length c->b->a
    assert classify_terminal(real, "star") == "complex"
    assert classify_terminal(real, "path_both_ways") == "complex"


def test_split_linear_terminal_balance():
    net = make_net(["s", "p", "q"],
                   [("in1", "p", "s"), ("in2", "q", "s"), ("out1", "s", "p"),
                    ("out2", "s", "q"), ("out3", "s", "q"), ("pq", "q", "p")],
                   ["s", "p", "q"],
                   {"in1": 1, "in2": 1, "out1": 1, "out2": 1, "out3": 1, "pq": 1})
    real = make_real(["v1", "v2", "v3"], [("v1", "v2", 2, 0), ("v2", "v3", 1, 1)],
                     {"s": ["v1", "v2"], "p": ["v2"], "q": ["v3"]})
    assert classify_terminal(real, "s") == "linear"
    net2, real2, rec = split_linear_terminal(net, real, "s")
    # new in/out arcs carry the old in/out capacity; s becomes balanced
    assert net2.capacity[rec.in_arc] == 2 and net2.capacity[rec.out_arc] == 3
    ins = sum(net2.capacity[a.id] for a in net2.graph.arcs if a.head == "s")
    outs = sum(net2.capacity[a.id] for a in net2.graph.arcs if a.tail == "s")
    assert ins == outs == 5
    assert "s" not in net2.terminals
    # distances transfer to the two halves (zero direction runs v2 -> v1)
    for x in ["p", "q"]:
        assert mu(real2, x, rec.target_half) == mu(real, x, "s")
        assert mu(real2, rec.source_half, x) == mu(real, "s", x)


def test_split_linear_no_arcs():
    net = make_net(["s", "t"], [("a", "t", "s")], ["s", "t"], {"a": 0})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 0)],
                     {"s": ["v1", "v2"], "t": ["v1"]})
    net2, real2, rec = split_linear_terminal(net, real, "s")
    assert net2.capacity[rec.in_arc] == 0 and net2.capacity[rec.out_arc] == 0


def test_normalize_idempotent_and_value_safe():
    rng = random.Random(23)
    for _ in range(20):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 6 + seed % 6, 3, 1, 2 + seed % 4)
        net1, real1, rec = normalize(net, real)
        assert validate_instance(net1, real1) is None
        # postconditions
        terms1 = net1.terminals
        for t in terms1:
            assert classify_terminal(real1, t) != "linear"
        adj = real1.adjacency()
        if len(real1.vertices) > 1:
            for v in sorted(real1.vertices, key=repr):
                if len(adj[v]) == 1:
                    assert any(real1.subtrees[t] == {v} for t in terms1)
                else:
                    assert not any(real1.subtrees[t] == {v} for t in terms1)
                    assert len(adj[v]) <= 3
        assert len(real1.vertices) <= 8 * len(net1.terminals) ** 2 + 8
        # second run is a fixed point
        net2, real2, rec2 = normalize(net1, real1)
        assert rec2.splits == []
        assert real2.vertices == real1.vertices
        assert real2.arc_length == real1.arc_length
        assert len(net2.graph.arcs) == len(net1.graph.arcs)


def test_normalize_mu_preserved_for_surviving_and_split_terminals():
    rng = random.Random(31)
    for _ in range(20):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 7, 4, 2, 3)
        net1, real1, rec = normalize(net, real)
        arrive = {r.terminal: r.target_half for r in rec.splits}
        depart = {r.terminal: r.source_half for r in rec.splits}

        def image_out(t):
            return depart.get(t, t)

        def image_in(t):
            return arrive.get(t, t)

        for s in net.terminals:
            for t in net.terminals:
                if s == t:
                    continue
                assert mu(real, s, t) == mu(real1, image_out(s), image_in(t))


def test_normalize_drops_bare_leaf():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 1})
    real = make_real(["v1", "v2", "v3"], [("v1", "v2", 1, 1), ("v2", "v3", 5, 5)],
                     {"s": ["v1"], "t": ["v2"]})
    _net1, real1, _rec = normalize(net, real)
    assert "v3" not in real1.vertices


def test_normalize_moves_inner_simple_terminal():
    net = make_net(["s", "t", "m"], [("a", "s", "m"), ("b", "m", "t")],
                   ["s", "t", "m"], {"a": 1, "b": 1})
    real = make_real(["v1", "v2", "v3"], [("v1", "v2", 1, 1), ("v2", "v3", 2, 2)],
                     {"s": ["v1"], "t": ["v3"], "m": ["v2"]})
    _net1, real1, _rec = normalize(net, real)
    spot = real1.subtrees["m"]
    assert len(spot) == 1
    (x,) = spot
    assert len(real1.adjacency()[x]) == 1  # relocated to a pendant leaf
    assert mu(real1, "s", "m") == mu(real, "s", "m")
    assert mu(real1, "m", "t") == mu(real, "m", "t")


def test_normalize_bounds_degree():
    net = make_net(["a", "b", "c", "d", "e"], [], ["a", "b", "c", "d"],
                   {})
    # a four-leaf star forces a degree split at the hub
    real = make_real(["h", "l1", "l2", "l3", "l4"],
                     [("h", "l1", 1, 1), ("h", "l2", 1, 1), ("h", "l3", 1, 1),
                      ("h", "l4", 1, 1)],
                     {"a": ["l1"], "b": ["l2"], "c": ["l3"], "d": ["l4"]})
    _net1, real1, _rec = normalize(net, real)
    adj = real1.adjacency()
    assert all(len(adj[v]) <= 3 for v in real1.vertices)
    for s in ["a", "b", "c", "d"]:
        for t in ["a", "b", "c", "d"]:
            assert mu(real1, s, t) == mu(real, s, t)


def test_pi_set_three_leaf_star():
    real = make_real(["v0", "v1", "v2", "v3"],
                     [("v1", "v0", 1, 1), ("v2", "v0", 1, 1), ("v3", "v0", 1, 1)],
                     {"s1": ["v1"], "s2": ["v2"], "s3": ["v3"]})
    pi = pi_set(real, ["s1", "s2", "s3"], ("v1", "v0"))
    assert pi.tail_side_terminals == {"s1"}
    assert pi.head_side_terminals == {"s2", "s3"}


def test_pi_set_empty_when_subtrees_span():
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)],
                     {"s": ["v1", "v2"], "t": ["v1", "v2"]})
    pi = pi_set(real, ["s", "t"], ("v1", "v2"))
    assert pi.empty


def _random_subtree(rng, adj, verts):
    start = rng.choice(verts)
    grown = [start]
    frontier = sorted(adj[start])
    size = rng.randint(1, len(verts))
    while len(grown) < size and frontier:
        nxt = frontier.pop(rng.randrange(len(frontier)))
        if nxt in grown:
            continue
        grown.append(nxt)
        frontier.extend(x for x in sorted(adj[nxt]) if x not in grown)
    return grown


def test_pi_set_matches_pairwise_oracle():
    rng = random.Random(5)
    lengths = [0, 0, 1, 2, Fraction(1, 2)]
    cases = 0
    for _ in range(120):
        n = rng.randint(2, 8)
        verts = [f"n{i}" for i in range(n)]
        edges = []
        adj = {v: set() for v in verts}
        for i in range(1, n):
            j = rng.randrange(i)
            edges.append((verts[j], verts[i], rng.choice(lengths), rng.choice(lengths)))
            adj[verts[j]].add(verts[i])
            adj[verts[i]].add(verts[j])
        subtrees = {f"t{k}": _random_subtree(rng, adj, verts) for k in range(rng.randint(2, 4))}
        real = RealizationTree.build(verts, edges, subtrees)
        terms = sorted(subtrees)
        for arc in real.quasi_arcs():
            got = pi_set(real, terms, arc)
            assert got.pairs == brute_pi_members(real, terms, arc)
            cases += 1
    assert cases > 300


def test_component_without_edge_matches_walks():
    # u's side of arc (u, v) holds exactly the vertices whose walk to v
    # ends with that arc; the walks are this file's oracle, not the tree's
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 12)
        verts = [f"n{i}" for i in range(n)]
        edges = [(verts[rng.randrange(i)], verts[i], 1, 1) for i in range(1, n)]
        real = RealizationTree.build(verts, edges, {"s": [verts[0]]})
        table = _walk_table(real.vertices, real.arc_length)
        for (u, v) in real.arc_length:
            side = real.component_without_edge(u, v)
            assert side == {x for x in verts if (u, v) in table[(x, v)][1]}
            assert side is real.component_without_edge(u, v)
    with pytest.raises(InputError) as e:
        real.component_without_edge(verts[0], verts[0])
    assert e.value.code == "dangling-reference"


def test_choose_balanced_edge_base_cases():
    two = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"]})
    assert choose_balanced_edge(two) is None
    star = make_real(["v0", "v1", "v2", "v3"],
                     [("v0", "v1", 1, 1), ("v0", "v2", 1, 1), ("v0", "v3", 1, 1)],
                     {"s": ["v1"]})
    assert choose_balanced_edge(star) is None


def test_choose_balanced_edge_on_path():
    # path a-b-c-d: only bc has two non-leaf endpoints; bound 2 <= 2k/3+1
    real = make_real(["a", "b", "c", "d"],
                     [("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "d", 1, 1)],
                     {"s": ["a"]})
    assert choose_balanced_edge(real) == ("b", "c")


def test_tree_helpers_raise_input_errors_on_caller_input():
    net = make_net(["s", "t"], [("a", "s", "t"), ("b", "t", "s")], ["s", "t"], {"a": 1, "b": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    for s, code in (("s", "invalid-input"), ("nope", "dangling-reference")):
        with pytest.raises(InputError) as e:
            split_linear_terminal(net, real, s)
        assert e.value.code == code
    # a network terminal without a subtree, as normalize reports it
    lone = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"]})
    for call in (split_linear_terminal, lambda n, r, _s: normalize(n, r)):
        with pytest.raises(InputError) as e:
            call(net, lone, "s")
        assert e.value.code == "missing-subtree"
    # a centre of degree 6 with legs of length 2: every eligible edge cuts
    # off one leaf, and no edge is balanced until degrees are bounded
    legs = [(f"m{i}", f"l{i}") for i in range(6)]
    spider = make_real(["c"] + [v for leg in legs for v in leg],
                       [e for m, leaf in legs for e in (("c", m, 1, 1), (m, leaf, 1, 1))],
                       {"s": ["l0"]})
    with pytest.raises(InputError) as e:
        choose_balanced_edge(spider)
    assert e.value.code == "invalid-tree"
