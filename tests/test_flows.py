import itertools
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeflow import (
    ContractViolation,
    InputError,
    Network,
    TerminalPath,
    decompose,
    lex_max_flow,
    max_flow,
    min_cut_source_side,
)
from treeflow import indexed
from treeflow.generator import generate_network
from treeflow.indexed import intern

from builders import make_net


def paths_to_arc_function(paths):
    """Arc function induced by weighted paths: the oracle for decompose."""
    out = {}
    for p in paths:
        for aid in p.arcs:
            out[aid] = out.get(aid, 0) + p.weight
    return out


def brute_force_max_flow(net, sources, sinks):
    """Enumerate every integer arc function and keep the best flow value."""
    arcs = net.graph.arcs
    best = 0
    ranges = [range(net.capacity[a.id] + 1) for a in arcs]
    for combo in itertools.product(*ranges):
        f = {a.id: w for a, w in zip(arcs, combo)}
        ok = True
        value = 0
        for v in net.vertices:
            d = sum(w for a, w in zip(arcs, combo) if a.tail == v) - \
                sum(w for a, w in zip(arcs, combo) if a.head == v)
            if v in sources:
                if d < 0:
                    ok = False
                value += d
            elif v in sinks:
                if d > 0:
                    ok = False
            elif d != 0:
                ok = False
        if ok:
            best = max(best, value)
    return best


def test_max_flow_single_arc():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 2})
    f, v = max_flow(net, ["s"], ["t"])
    assert v == 2 and f == {"a": 2}


def test_max_flow_disconnected():
    net = make_net(["s", "t", "u"], [("a", "t", "u")], ["s", "t"], {"a": 5})
    f, v = max_flow(net, ["s"], ["t"])
    assert v == 0 and f == {}


def test_max_flow_diamond_matches_enumeration():
    arcs = [("sa", "s", "a"), ("sb", "s", "b"), ("at", "a", "t"), ("bt", "b", "t")]
    net = make_net(["s", "a", "b", "t"], arcs, ["s", "t"], {i: 1 for i, _u, _v in arcs})
    expected = brute_force_max_flow(net, {"s"}, {"t"})
    _f, v = max_flow(net, ["s"], ["t"])
    assert v == expected == 2


def test_max_flow_rejects_overlap():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 1})
    with pytest.raises(InputError):
        max_flow(net, ["s"], ["s", "t"])


def test_min_cut_single_arc():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 2})
    f, _v = max_flow(net, ["s"], ["t"])
    assert min_cut_source_side(net, f, ["s"], ["t"]).source_side == {"s"}


def test_min_cut_excludes_disconnected_sink_side():
    net = make_net(["s", "x", "t"], [("a", "s", "x")], ["s", "t"], {"a": 1})
    f, _v = max_flow(net, ["s"], ["t"])
    side = min_cut_source_side(net, f, ["s"], ["t"]).source_side
    assert "t" not in side and side == {"s", "x"}


def test_min_cut_diamond():
    arcs = [("sa", "s", "a"), ("sb", "s", "b"), ("at", "a", "t"), ("bt", "b", "t")]
    net = make_net(["s", "a", "b", "t"], arcs, ["s", "t"], {i: 1 for i, _u, _v in arcs})
    f, _v = max_flow(net, ["s"], ["t"])
    # the unique maximum flow saturates everything, so only s stays reachable
    assert min_cut_source_side(net, f, ["s"], ["t"]).source_side == {"s"}


def test_min_cut_detects_non_maximum_flow():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 2})
    with pytest.raises(ContractViolation):
        min_cut_source_side(net, {"a": 1}, ["s"], ["t"])


def test_lex_flow_primary_only():
    net = make_net(["s", "z"], [("a", "s", "z")], ["s", "z"], {"a": 3})
    g = lex_max_flow(net, "s", "z", [])
    assert g == {"a": 3}


def test_lex_flow_independent_arcs():
    net = make_net(["s", "q", "z"], [("a", "s", "q"), ("b", "s", "z")],
                   ["s", "q", "z"], {"a": 1, "b": 1})
    g = lex_max_flow(net, "s", "z", ["q"])
    assert g == {"a": 1, "b": 1}


def test_lex_flow_prefers_primary():
    # both routings move one unit; the two-phase rule sends it to z
    net = make_net(["s", "x", "z", "q"],
                   [("sx", "s", "x"), ("xz", "x", "z"), ("xq", "x", "q")],
                   ["s", "z", "q"], {"sx": 1, "xz": 1, "xq": 1})
    g = lex_max_flow(net, "s", "z", ["q"])
    assert g == {"sx": 1, "xz": 1}


def test_lex_flow_keeps_primary_value():
    # secondary augmentation must not reduce the primary inflow
    net = make_net(["s", "x", "z", "q"],
                   [("sx", "s", "x"), ("xz", "x", "z"), ("xq", "x", "q"), ("sq", "s", "q")],
                   ["s", "z", "q"], {"sx": 1, "xz": 1, "xq": 1, "sq": 2})
    g = lex_max_flow(net, "s", "z", ["q"])
    phase1 = max_flow(net, ["s"], ["z"])[1]
    inflow_z = g.get("xz", 0)
    assert inflow_z == phase1 == 1
    assert g.get("sq", 0) == 2


def test_decompose_empty():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 5})
    assert decompose(net, {}, ["s"], ["t"]) == []


def test_decompose_single_path():
    net = make_net(["s", "a", "t"], [("e1", "s", "a"), ("e2", "a", "t")],
                   ["s", "t"], {"e1": 5, "e2": 5})
    out = decompose(net, {"e1": 5, "e2": 5}, ["s"], ["t"])
    assert out == [TerminalPath("s", "t", ("e1", "e2"), 5)]


def test_decompose_discards_disjoint_cycle():
    net = make_net(["s", "t", "a", "b"],
                   [("e1", "s", "t"), ("c1", "a", "b"), ("c2", "b", "a")],
                   ["s", "t"], {"e1": 1, "c1": 1, "c2": 1})
    out = decompose(net, {"e1": 1, "c1": 1, "c2": 1}, ["s"], ["t"])
    assert [(p.arcs, p.weight) for p in out] == [(("e1",), 1)]


def test_decompose_breaks_ties_in_arc_order():
    # v's out-arcs are listed against their id order: the first source
    # takes the list-first out-arc
    arcs = [("s1>v", "s1", "v"), ("s2>v", "s2", "v"), ("v>t2", "v", "t2"), ("v>t1", "v", "t1")]
    net = make_net(["s1", "s2", "t1", "t2", "v"], arcs, ["s1", "s2", "t1", "t2"],
                   {a: 1 for a, _u, _v in arcs})
    out = decompose(net, {a: 1 for a, _u, _v in arcs}, ["s1", "s2"], ["t1", "t2"])
    assert out == [TerminalPath("s1", "t2", ("s1>v", "v>t2"), 1),
                   TerminalPath("s2", "t1", ("s2>v", "v>t1"), 1)]


def test_decompose_rejects_bad_divergence():
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 1})
    with pytest.raises(ContractViolation):
        decompose(net, {"a": 1}, ["t"], ["s"])


@st.composite
def flow_instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    verts = [f"v{i}" for i in range(n)]
    arcs = []
    caps = {}
    k = 0
    for u in verts:
        for v in verts:
            if u != v and draw(st.booleans()):
                arcs.append((f"a{k}", u, v))
                caps[f"a{k}"] = draw(st.integers(min_value=1, max_value=3))
                k += 1
    net = make_net(verts, arcs, [verts[0]], caps)
    return net


@settings(max_examples=50, deadline=None)
@given(flow_instances(), st.data())
def test_max_flow_min_cut_equality(net, data):
    verts = sorted(net.vertices)
    # disjoint nonempty endpoint sets: the first vertex is a source, the
    # last a sink, and each other vertex either, or neither
    roles = [data.draw(st.sampled_from("st-")) for _v in verts[1:-1]]
    sources = {verts[0]} | {v for v, r in zip(verts[1:-1], roles) if r == "s"}
    sinks = {verts[-1]} | {v for v, r in zip(verts[1:-1], roles) if r == "t"}
    f, v = max_flow(net, sources, sinks)
    side = min_cut_source_side(net, f, sources, sinks).source_side
    cut = sum(net.capacity[a.id] for a in net.graph.arcs
              if a.tail in side and a.head not in side)
    assert v == cut
    for a in net.graph.arcs:  # inclusion-minimal cut is saturated and dry
        if a.tail in side and a.head not in side:
            assert f.get(a.id, 0) == net.capacity[a.id]
        if a.head in side and a.tail not in side:
            assert f.get(a.id, 0) == 0


@settings(max_examples=50, deadline=None)
@given(flow_instances(), st.data())
def test_max_flow_continues_a_start_flow(net, data):
    # from a maximum flow the kernel adds nothing and returns it, from part
    # of one it reaches the same total, and from the zero flow it finds,
    # arc for arc, the flow it finds without a start
    inet = intern(net)
    num = inet.graph.ids.number
    verts = sorted(net.vertices)
    s, t = [num[verts[0]]], [num[verts[-1]]]
    f, value = indexed.max_flow(inet, s, t)
    assert indexed.max_flow(inet, s, t, start=f) == (f, 0)
    assert indexed.max_flow(inet, s, t, start=[0] * len(f)) == (f, value)
    kept = [p for p in indexed.decompose(inet.graph, f, s, t) if data.draw(st.booleans())]
    part = [0] * len(f)
    for p in kept:
        for a in p.arcs:
            part[inet.graph.position[a]] += p.weight
    g, added = indexed.max_flow(inet, s, t, start=part)
    assert added == value - sum(p.weight for p in kept)
    indexed.min_cut_source_side(inet, g, s, t)  # raises unless g is maximum


@settings(max_examples=50, deadline=None)
@given(flow_instances())
def test_decompose_round_trip(net):
    verts = sorted(net.vertices)
    sources, sinks = {verts[0]}, {verts[-1]}
    f, v = max_flow(net, sources, sinks)
    paths = decompose(net, f, sources, sinks)
    assert sum(p.weight for p in paths) == v
    induced = paths_to_arc_function(paths)
    for aid, w in induced.items():
        assert 0 <= w <= f.get(aid, 0)
    # distinct path count is bounded by the positive-arc count
    assert len(paths) <= sum(1 for w in f.values() if w > 0) or not paths
    again = decompose(net, induced, sources, sinks)
    assert sum(p.weight for p in again) == v
    # per endpoint totals agree between the two decompositions
    by_id = net.graph.arcs_by_id()

    def totals(ps):
        out = {}
        for p in ps:
            key = (by_id[p.arcs[0]].tail, by_id[p.arcs[-1]].head)
            out[key] = out.get(key, 0) + p.weight
        return out

    assert totals(paths) == totals(again)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 14), st.integers(1, 8), st.integers(0, 5),
       st.integers(2, 6))
@example(45, 12, 6, 3, 2)  # x0: out 5, in 4, both short by 3
@example(101, 8, 6, 5, 3)  # x6: out 7, in 8, both short by 4
def test_terminal_shortfall_is_the_same_out_and_in(seed, n, cycles, pairs, leaves):
    # with every inner vertex balanced, a set X holding terminal t and no
    # other terminal has d-(X) = d+(X) - exc(t); so the out-cut and the
    # in-cut of t fall short of t's own arcs by the same amount, even
    # where t itself is unbalanced
    net, _real = generate_network(seed, n, cycles, pairs, leaves)
    for t in net.terminals:
        others = [x for x in net.terminals if x != t]
        d_out = sum(net.capacity[a.id] for a in net.graph.arcs if a.tail == t)
        d_in = sum(net.capacity[a.id] for a in net.graph.arcs if a.head == t)
        assert d_out - max_flow(net, [t], others)[1] == d_in - max_flow(net, others, [t])[1]


@settings(max_examples=40, deadline=None)
@given(flow_instances())
def test_complement_flow_on_balanced_inner(net):
    # on inner-Eulerian nets the capacity complement of a maximum flow is
    # itself a sink-to-source flow
    verts = sorted(net.vertices)
    s, t = verts[0], verts[-1]
    caps = dict(net.capacity)
    # rebalance interior vertices by adding a return arc through t..s chain
    from treeflow import divergence
    inner = [v for v in verts if v not in (s, t)]
    arcs = [(a.id, a.tail, a.head) for a in net.graph.arcs]
    k = 0
    for v in inner:
        d = divergence(net, caps, v)
        if d > 0:
            arcs.append((f"fix{k}", t if False else s, v))  # add inflow
            caps[f"fix{k}"] = d
        elif d < 0:
            arcs.append((f"fix{k}", v, t))
            caps[f"fix{k}"] = -d
        k += 1
    net2 = make_net(verts, arcs, [s, t], caps)
    f, _v = max_flow(net2, [s], [t])
    g = {a.id: net2.capacity[a.id] - f.get(a.id, 0) for a in net2.graph.arcs}
    for v in inner:
        assert divergence(net2, g, v) == 0
    assert divergence(net2, g, t) >= 0


def test_max_flow_tie_breaking_is_pinned():
    # 24 maximum flows run from s to {t, q}; the result documents depend on
    # max_flow and lex_max_flow always returning the same one
    arcs = [("sa", "s", "a"), ("sb", "s", "b"), ("ab", "a", "b"), ("ba", "b", "a"),
            ("at", "a", "t"), ("ac", "a", "c"), ("bc", "b", "c"), ("bt", "b", "t"),
            ("ct", "c", "t"), ("cq", "c", "q"), ("aq", "a", "q")]
    caps = {"sa": 3, "sb": 2, "ab": 1, "ba": 2, "at": 1, "ac": 2, "bc": 1, "bt": 1,
            "ct": 2, "cq": 2, "aq": 1}
    net = make_net(list("sabctq"), arcs, ["s", "t", "q"], caps)
    assert max_flow(net, ["s"], ["t", "q"]) == (
        {"sa": 3, "sb": 2, "at": 1, "ac": 1, "bc": 1, "bt": 1, "ct": 2, "aq": 1}, 5)
    assert max_flow(net, ["s", "b"], ["t"]) == (
        {"ba": 2, "at": 1, "ac": 1, "bc": 1, "bt": 1, "ct": 2}, 4)
    assert lex_max_flow(net, "s", "t", ["q"]) == \
        {"sa": 3, "sb": 2, "ba": 1, "at": 1, "ac": 2, "bt": 1, "ct": 2, "aq": 1}
    assert lex_max_flow(net, "s", "q", ["t"]) == \
        {"sa": 3, "sb": 2, "ba": 1, "at": 1, "ac": 2, "bt": 1, "cq": 2, "aq": 1}


def _run_flow(net, lex):
    verts = sorted(net.vertices)
    if lex:
        return lex_max_flow(net, verts[0], verts[-1], verts[1:-1])
    return max_flow(net, verts[:1], verts[-1:])


def _fresh_copy(net):
    arcs = [(a.id, a.tail, a.head) for a in net.graph.arcs]
    return make_net(sorted(net.vertices), arcs, net.terminals, dict(net.capacity))


@settings(max_examples=50, deadline=None)
@given(flow_instances(), flow_instances(), st.data())
def test_flows_sharing_a_graph_match_fresh_graphs(a, b, data):
    # a and its variant share one Digraph but not their capacities
    variant_caps = {aid: data.draw(st.sampled_from([0, c, c + 2]))
                    for aid, c in sorted(a.capacity.items())}
    nets = [a, Network(a.graph, a.terminals, variant_caps), b]
    calls = data.draw(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=8))
    got = [_run_flow(nets[i], lex) for i, lex in calls]
    assert got == [_run_flow(_fresh_copy(nets[i]), lex) for i, lex in calls]


def test_flows_keep_no_graph_alive_but_the_latest():
    a = make_net(["s", "t"], [("e", "s", "t")], ["s", "t"], {"e": 1})
    b = make_net(["s", "t"], [("e", "s", "t")], ["s", "t"], {"e": 2})
    max_flow(a, ["s"], ["t"])
    graph_a = weakref.ref(a.graph)
    assert max_flow(b, ["s"], ["t"]) == ({"e": 2}, 2)
    del a
    assert graph_a() is None
    # nor the latest one: a flow interns its graph afresh and keeps nothing
    graph_b = weakref.ref(b.graph)
    del b
    assert graph_b() is None
