from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeflow import (
    Certificate,
    Cut,
    InputError,
    Multiflow,
    cut_capacity,
    divergence,
    is_eulerian_at,
    validate_instance,
)
from treeflow.graphs import boundary, sort_key
from treeflow.indexed import contract, intern
from treeflow.realization import ValidationIssue

from builders import make_net, make_real
from test_contract import live_arcs, live_positions


def test_divergence_isolated_vertex():
    net = make_net(["a", "b", "c"], [("e", "a", "b")], ["a"], {"e": 1})
    assert divergence(net, {"e": 5}, "c") == 0


def test_divergence_in_out():
    net = make_net(["u", "v", "w"], [("e1", "u", "v"), ("e2", "w", "u")], ["u"],
                   {"e1": 9, "e2": 9})
    assert divergence(net, {"e1": 3, "e2": 1}, "u") == 2


def test_divergence_on_cycle_is_zero():
    net = make_net(["u", "v", "w"],
                   [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")],
                   ["u"], {"e1": 7, "e2": 7, "e3": 7})
    for x in ["u", "v", "w"]:
        assert divergence(net, {"e1": 4, "e2": 4, "e3": 4}, x) == 0


def test_divergence_unknown_vertex():
    net = make_net(["u", "v"], [("e", "u", "v")], ["u"], {"e": 1})
    with pytest.raises(InputError):
        divergence(net, {}, "nope")


def test_eulerian_checks():
    net = make_net(["u", "v", "w", "z"],
                   [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u"), ("e4", "u", "w")],
                   ["u"], {"e1": 1, "e2": 1, "e3": 1, "e4": 2})
    assert is_eulerian_at(net, "v")
    assert not is_eulerian_at(net, "w")  # in 3, out 1
    assert is_eulerian_at(net, "z")  # no incident arcs


def test_cut_capacity_two_vertices():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 2})
    assert cut_capacity(net, Cut(frozenset(["s"]))) == 2
    assert cut_capacity(net, Cut(frozenset(["t"]))) == 0


def test_cut_capacity_three_cycle():
    net = make_net(["u", "v", "w"],
                   [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")],
                   ["u"], {"e1": 1, "e2": 1, "e3": 1})
    assert cut_capacity(net, Cut(frozenset(["u", "v"]))) == 1


def test_cut_validation():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s"], {"a": 1})
    with pytest.raises(InputError):
        cut_capacity(net, Cut(frozenset()))
    with pytest.raises(InputError):
        cut_capacity(net, Cut(frozenset(["s", "t"])))


def contract_ids(net, groups):
    """indexed.contract on the interned network, with ids in and out: the
    new vertex of each group is named by its key in groups.  Returns the
    vertices, the live arcs as (id, tail, head) in arc order and their
    capacities."""
    inet = intern(net)
    ids = inet.graph.ids
    made = {ids.new_vertex(): z for z in groups}
    out = contract(inet, {v: [ids.number[x] for x in groups[z]] for v, z in made.items()})

    def name(v):
        return made.get(v, ids.vertex_ids[v])

    g = out.graph
    live = live_positions(g)
    arcs = [(ids.arc_ids[g.arcs[k]], name(g.tail[k]), name(g.head[k])) for k in live]
    caps = {ids.arc_ids[g.arcs[k]]: out.cap[k] for k in live}
    return {name(v) for v in g.vertices}, arcs, caps


def test_contract_endpoint():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 2})
    vertices, arcs, caps = contract_ids(net, {"z": ["t"]})
    assert vertices == {"s", "z"}
    assert arcs == [("a", "s", "z")] and caps == {"a": 2}


def test_contract_deletes_interior_arcs():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 2})
    vertices, arcs, caps = contract_ids(net, {"z": ["s", "t"]})
    assert vertices == {"z"} and arcs == [] and caps == {}


def test_contract_three_cycle():
    # enumerate by hand: u->v and w->u get rewired, v->w disappears
    net = make_net(["u", "v", "w"],
                   [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")],
                   ["u"], {"e1": 1, "e2": 1, "e3": 1})
    _vertices, arcs, caps = contract_ids(net, {"z": ["v", "w"]})
    assert arcs == [("e1", "u", "z"), ("e3", "z", "u")]
    assert caps == {"e1": 1, "e3": 1}


def test_contract_commutes_for_disjoint_sets():
    net = make_net(list("abcd"),
                   [("1", "a", "b"), ("2", "b", "c"), ("3", "c", "d"), ("4", "d", "a")],
                   ["a"], {"1": 1, "2": 2, "3": 3, "4": 4})
    inet = intern(net)
    ids = inet.graph.ids
    p, q = ids.new_vertex(), ids.new_vertex()
    ab, cd = [ids.number["a"], ids.number["b"]], [ids.number["c"], ids.number["d"]]
    one = contract(contract(inet, {p: ab}), {q: cd})
    two = contract(contract(inet, {q: cd}), {p: ab})
    both = contract(inet, {p: ab, q: cd})

    assert live_arcs(one) == live_arcs(two) == live_arcs(both) == [(1, p, q, 2), (3, q, p, 4)]
    assert one.graph.vertices == two.graph.vertices == both.graph.vertices == {p, q}


def test_validate_instance_cases():
    # two simple terminals and a balanced inner vertex
    net = make_net(["s", "x", "t"],
                   [("a", "s", "x"), ("b", "x", "t")], ["s", "t"], {"a": 1, "b": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    assert validate_instance(net, real) is None

    # complex terminal with unbalanced capacity is flagged
    net2 = make_net(["s", "t", "q"],
                    [("a", "s", "q"), ("b", "q", "t"), ("c", "q", "t")],
                    ["s", "t", "q"], {"a": 1, "b": 1, "c": 1})
    real2 = make_real(["v1", "v2"], [("v1", "v2", 1, 1)],
                      {"s": ["v1"], "t": ["v2"], "q": ["v1", "v2"]})
    issue = validate_instance(net2, real2)
    assert isinstance(issue, ValidationIssue) and issue.vertex == "q"

    # a simple terminal may be unbalanced
    net3 = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 3})
    real3 = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    assert validate_instance(net3, real3) is None

    # missing subtree is a structural error, not a violation report
    with pytest.raises(InputError):
        validate_instance(net3, make_real(["v1"], [], {"s": ["v1"]}))


@pytest.mark.parametrize("inner, first", [("a", "a"), ("z", "q")])
def test_validate_instance_names_the_first_unbalanced_vertex_in_id_order(inner, first):
    # the inner vertex takes in 1 and sends nothing, the complex terminal q
    # takes in 1 and sends 2; whichever id comes first is reported
    net = make_net(["s", "t", "q", inner],
                   [("a1", "s", "q"), ("a2", "q", "t"), ("a3", "q", "t"), ("a4", "s", inner)],
                   ["s", "t", "q"], {"a1": 1, "a2": 1, "a3": 1, "a4": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)],
                     {"s": ["v1"], "t": ["v2"], "q": ["v1", "v2"]})
    reasons = {inner: "inner vertex is not Eulerian", "q": "complex terminal is not Eulerian"}
    assert validate_instance(net, real) == ValidationIssue(first, reasons[first])


@st.composite
def small_nets(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    verts = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=8))
    arcs = []
    caps = {}
    for k in range(m):
        u = draw(st.sampled_from(verts))
        v = draw(st.sampled_from(verts))
        if u == v:
            continue
        arcs.append((f"a{k}", u, v))
        caps[f"a{k}"] = draw(st.integers(min_value=0, max_value=4))
    return make_net(verts, arcs, [verts[0]], caps)


@settings(max_examples=60, deadline=None)
@given(small_nets(), st.data())
def test_total_divergence_is_zero(net, data):
    f = {a.id: data.draw(st.integers(min_value=0, max_value=net.capacity[a.id]))
         for a in net.graph.arcs}
    assert sum(divergence(net, f, v) for v in net.vertices) == 0


@settings(max_examples=60, deadline=None)
@given(small_nets(), st.data())
def test_cut_divergence_identity(net, data):
    verts = sorted(net.vertices)
    side = {v for v in verts if data.draw(st.booleans())}
    if not side or side == set(verts):
        side = {verts[0]}
    if side == set(verts):
        return
    out_cap = cut_capacity(net, Cut(frozenset(side)))
    in_cap = sum(net.capacity[a.id] for a in net.graph.arcs
                 if a.head in side and a.tail not in side)
    assert out_cap - in_cap == sum(divergence(net, net.capacity, v) for v in side)


@settings(max_examples=60, deadline=None)
@given(small_nets(), st.data())
def test_contract_preserves_outside_arcs(net, data):
    verts = sorted(net.vertices)
    side = {v for v in verts if data.draw(st.booleans())} or {verts[0]}
    if side == set(verts):
        side = {verts[0]}
    _vertices, arcs, caps = contract_ids(net, {"fresh": side})
    expected = [a.id for a in net.graph.arcs if not (a.tail in side and a.head in side)]
    assert [aid for aid, _t, _h in arcs] == expected
    lost = sum(net.capacity[a.id] for a in net.graph.arcs
               if a.tail in side and a.head in side)
    assert sum(net.capacity[a.id] for a in net.graph.arcs) - lost == sum(caps.values())


@settings(max_examples=60, deadline=None)
@given(small_nets(), st.data())
def test_arc_index_matches_scan(net, data):
    g = net.graph
    index, ids = g.index, g.index.ids
    # vertices numbered in id order, arc k at position k
    assert ids.vertex_ids == sorted(net.vertices, key=sort_key)
    assert ids.number == {v: i for i, v in enumerate(ids.vertex_ids)}
    assert index.vertices == frozenset(range(len(net.vertices)))
    assert ids.arc_ids == [a.id for a in g.arcs]
    assert ids.arc_number == {a.id: k for k, a in enumerate(g.arcs)}
    assert index.arcs == list(range(len(g.arcs)))
    assert index.tail == [ids.number[a.tail] for a in g.arcs]
    assert index.head == [ids.number[a.head] for a in g.arcs]
    for v in net.vertices:  # half-arcs in arc order: 2k leaving along k, 2k + 1 entering
        assert index.adj[ids.number[v]] == [2 * k if a.tail == v else 2 * k + 1
                                            for k, a in enumerate(g.arcs) if v in (a.tail, a.head)]
    assert len(g.arcs_by_id()) == len(g.arcs)
    for a in g.arcs:
        assert g.arcs_by_id()[a.id] is a
    for v in net.vertices:
        assert list(g.out_arcs(v)) == [a for a in g.arcs if a.tail == v]
        assert list(g.in_arcs(v)) == [a for a in g.arcs if a.head == v]
    assert list(g.out_arcs("absent")) == list(g.in_arcs("absent")) == []
    verts = sorted(net.vertices)
    s = data.draw(st.sampled_from(verts))
    f = {a.id: data.draw(st.integers(min_value=0, max_value=3)) for a in g.arcs}
    by_scan = (sum(f[a.id] for a in g.arcs if a.tail == s)
               - sum(f[a.id] for a in g.arcs if a.head == s))
    assert divergence(net, f, s) == by_scan


@settings(max_examples=60, deadline=None)
@given(small_nets(), st.data())
def test_boundary_matches_scan(net, data):
    side = frozenset(v for v in sorted(net.vertices) if data.draw(st.booleans()))
    leaving, entering = boundary(net, side)  # arc positions, arc k at position k
    arcs = net.graph.arcs
    assert sorted(leaving) == [k for k, a in enumerate(arcs) if a.tail in side and a.head not in side]
    assert sorted(entering) == [k for k, a in enumerate(arcs) if a.head in side and a.tail not in side]


def test_public_types_are_frozen(e1):
    net, real = e1
    for obj, name in [(net.graph, "arcs"), (net.graph, "index"), (net, "terminals"), (net, "capacity"),
                      (real, "arc_length"), (real, "subtrees"),
                      (Multiflow(), "paths"), (Certificate({}), "cuts")]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    # the indexes are built once and shared
    assert net.graph.index is net.graph.index
    assert real.adjacency() is real.adjacency()
