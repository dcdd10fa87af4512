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
    divergence,
    lex_max_flow,
    max_flow,
    min_cut_source_side,
)
from treeflow import indexed
from treeflow.generator import generate_network
from treeflow.indexed import intern

import reference_decompose
import reference_kernel
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


def test_min_cut_rejects_unknown_sinks_and_flows_outside_capacity():
    net = make_net(["s", "x", "t"], [("a", "s", "x"), ("b", "x", "t")], ["s", "t"], {"a": 2, "b": 1})
    with pytest.raises(InputError) as unknown:
        min_cut_source_side(net, {"a": 1, "b": 1}, ["s"], ["nope"])
    assert unknown.value.code == "dangling-reference"
    for f in ({"a": 5}, {"a": -1}):
        with pytest.raises(InputError) as outside:
            min_cut_source_side(net, f, ["s"])
        assert outside.value.code == "invalid-input"


def test_flows_by_arc_id_reject_ids_of_no_arc_and_ignore_loops():
    net = make_net(["s", "x", "t"], [("a", "s", "x"), ("b", "x", "t")], ["s", "t"], {"a": 2, "b": 1})
    calls = [lambda f: min_cut_source_side(net, f, ["s"]),
             lambda f: decompose(net, f, ["s"], ["t"]),
             lambda f: divergence(net, f, "s")]
    for call in calls:
        with pytest.raises(InputError) as unknown:
            call({"nope": 7})
        assert unknown.value.code == "dangling-reference"
    # the graph drops the loop, but its id is an arc of the network
    looped = make_net(["s", "x", "t"], [("a", "s", "x"), ("loop", "x", "x"), ("b", "x", "t")],
                      ["s", "t"], {"a": 1, "loop": 5, "b": 1})
    assert decompose(looped, looped.capacity, ["s"], ["t"]) == [TerminalPath("s", "t", ("a", "b"), 1)]
    assert min_cut_source_side(looped, looped.capacity, ["s"]).source_side == {"s"}
    assert divergence(looped, looped.capacity, "x") == 0


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
def peel_instances(draw):
    """A graph of up to 6 vertices, parallel arcs allowed, some of it
    contracted so that arc positions differ from arc numbers or are dead;
    a nonnegative flow made of random walks, which close cycles, plus at
    times a stray unit; and source and sink sets around the walks' ends
    that may share a vertex.  The flow comes dense, and sparse with some
    explicit zero entries in shuffled order."""
    n = draw(st.integers(min_value=2, max_value=6))
    verts = [f"v{i}" for i in range(n)]
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                         min_size=1, max_size=14))
    arcs = [(f"a{i:02d}", verts[u], verts[v]) for i, (u, v) in enumerate(ends)]
    inet = intern(make_net(verts, arcs, verts[:1], {a: 9 for a, _u, _v in arcs}))
    members = draw(st.sets(st.sampled_from(sorted(inet.graph.vertices)), max_size=n - 1))
    if len(members) >= 2:
        inet = indexed.contract(inet, {inet.graph.ids.new_vertex(): members})
    g = inet.graph
    f = [0] * len(g.tail)
    sources, sinks = set(), set()
    for _walk in range(draw(st.integers(min_value=1, max_value=4))):
        v = draw(st.sampled_from(sorted(g.vertices)))
        sources.add(v)
        w = draw(st.integers(min_value=1, max_value=3))
        for _step in range(draw(st.integers(min_value=1, max_value=6))):
            outs = [e >> 1 for e in g.adj[v] if not e & 1]
            if not outs:
                break
            k = draw(st.sampled_from(outs))
            f[k] += w
            v = g.head[k]
        sinks.add(v)
    if draw(st.booleans()):
        live = [e >> 1 for v in sorted(g.vertices) for e in g.adj[v] if not e & 1]
        if live:
            f[draw(st.sampled_from(live))] += 1
    for _extra in range(draw(st.integers(min_value=0, max_value=2))):
        (sources if draw(st.booleans()) else sinks).add(draw(st.sampled_from(sorted(g.vertices))))
    zeros = draw(st.sets(st.sampled_from(range(len(f))))) if f else set()
    keys = draw(st.permutations([k for k, w in enumerate(f) if w or k in zeros]))
    return g, f, {k: f[k] for k in keys}, sorted(sources), sorted(sinks)


@settings(max_examples=400, deadline=None)
@given(peel_instances())
def test_decompose_matches_the_dense_reference(instance):
    # the same paths in the same order as the dense peel, positions mapped
    # to arc numbers, and a ContractViolation on exactly the same flows
    g, dense, f, sources, sinks = instance
    try:
        expected = reference_decompose.decompose(g, dense, sources, sinks)
    except ContractViolation as e:
        with pytest.raises(ContractViolation) as got:
            indexed.decompose(g, f, sources, sinks)
        assert str(got.value) == str(e)
        return
    paths = indexed.decompose(g, f, sources, sinks)
    assert [TerminalPath(s, t, tuple(g.arcs[k] for k in positions), w)
            for s, t, positions, w in paths] == expected


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
    kept = [p for p in indexed.decompose(inet.graph, indexed.sparse(f), s, t) if data.draw(st.booleans())]
    part = [0] * len(f)
    for _s, _t, positions, w in kept:
        for k in positions:
            part[k] += w
    g, added = indexed.max_flow(inet, s, t, start=part)
    assert added == value - sum(w for _s, _t, _positions, w in kept)
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
        d = divergence(net, net.capacity, v)
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


@st.composite
def kernel_instances(draw):
    """Networks of up to 16 vertices for comparing flow kernels.  A long
    path runs through the vertices, and every other vertex sits at one of
    its depths; rungs from each depth to the next make many paths of
    equal length that cross and share arcs.  Wide fans in or out of a
    few hubs and random extra arcs, parallel ones included, come beside
    them.  The path's two ends are a source and a sink; every other
    vertex is either, or neither."""
    n = draw(st.integers(min_value=2, max_value=16))
    verts = [f"v{i:02d}" for i in range(n)]
    arcs, caps = [], {}

    def add(u, v):
        if u != v:
            aid = f"a{len(arcs):03d}"
            arcs.append((aid, verts[u], verts[v]))
            caps[aid] = draw(st.integers(min_value=1, max_value=3))

    order = draw(st.permutations(range(n)))
    length = draw(st.integers(min_value=1, max_value=n - 1))
    depth = {v: i for i, v in enumerate(order[:length + 1])}
    for v in order[length + 1:]:
        depth[v] = draw(st.integers(0, length))
    at_depth = [[v for v in range(n) if depth[v] == i] for i in range(length + 2)]
    for u, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n)), max_size=3 * n)):
        nxt = at_depth[depth[u] + 1]
        if nxt:
            add(u, nxt[k % len(nxt)])
    for u, v in zip(order[:length], order[1:length + 1]):
        add(u, v)
    for _fan in range(draw(st.integers(min_value=0, max_value=2))):
        hub, out = draw(st.integers(0, n - 1)), draw(st.booleans())
        for v in range(n):
            if draw(st.booleans()):
                add(*((hub, v) if out else (v, hub)))
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        add(u, v)
    inet = intern(make_net(verts, arcs, verts[:1], caps))
    num = inet.graph.ids.number
    roles = {order[0]: "s", order[length]: "t"}
    for v in range(n):
        roles.setdefault(v, draw(st.sampled_from("st-")))
    sources = [num[verts[v]] for v in range(n) if roles[v] == "s"]
    sinks = [num[verts[v]] for v in range(n) if roles[v] == "t"]
    return inet, sources, sinks


@settings(max_examples=300, deadline=None)
@given(kernel_instances(), st.data())
def test_max_flow_matches_the_reference_kernel(instance, data):
    # the same flow, arc for arc, as the one-sided kernel, from the zero
    # flow and from part of a decomposed maximum flow; the kernel only
    # reads the graph, whose lists every flow on it shares
    inet, sources, sinks = instance
    g = inet.graph
    f, value = reference_kernel.max_flow(inet, sources, sinks)
    kept = [p for p in indexed.decompose(g, indexed.sparse(f), sources, sinks) if data.draw(st.booleans())]
    start = [0] * len(f)
    for _s, _t, positions, w in kept:
        for k in positions:
            start[k] += w
    before = ([list(arcs) for arcs in g.adj], list(g.tail), list(g.head), list(inet.cap), list(start))
    assert indexed.max_flow(inet, sources, sinks) == (f, value)
    assert indexed.max_flow(inet, sources, sinks, start=start) == \
        reference_kernel.max_flow(inet, sources, sinks, start=start)
    assert ([list(arcs) for arcs in g.adj], g.tail, g.head, inet.cap, start) == before
    # from the zero flow no arc into a source or out of a sink carries flow,
    # so callers need not mask those arcs
    assert not any(w and (h in sources or t in sinks) for t, h, w in zip(g.tail, g.head, f))


def test_max_flow_takes_deep_levels_from_the_backward_search():
    # s fans out to six decoys that lead nowhere, so from the first layer
    # on the forward frontier is the wider one; the path s-p1-...-p5-t is
    # labelled from t backward, and its levels beyond the forward depth
    # come from the backward search
    path = ["s", "p1", "p2", "p3", "p4", "p5", "t"]
    arcs = [(f"path{i}", u, v) for i, (u, v) in enumerate(zip(path, path[1:]))]
    arcs += [(f"fan{i}", "s", f"d{i}") for i in range(6)]
    arcs += [(f"dead{i}", f"d{i}", f"e{i}") for i in range(6)]
    arcs += [("skip", "p1", "p4"), ("back", "p3", "p1")]
    verts = sorted({v for _a, u, w in arcs for v in (u, w)})
    caps = {aid: 2 for aid, _u, _v in arcs}
    caps["path0"] = caps["skip"] = 3
    inet = intern(make_net(verts, arcs, verts[:1], caps))
    num = inet.graph.ids.number
    f, value = indexed.max_flow(inet, [num["s"]], [num["t"]])
    assert (f, value) == reference_kernel.max_flow(inet, [num["s"]], [num["t"]])
    assert value == 2
    flow = {inet.graph.ids.arc_ids[a]: w for a, w in zip(inet.graph.arcs, f) if w}
    assert flow == {"path0": 2, "skip": 2, "path4": 2, "path5": 2}


def test_max_flow_levels_the_rest_of_the_layer_where_the_searches_meet():
    # the forward search meets the backward one at y, in the middle of the
    # layer {y, x}; x, though not reached forward, is on a shortest path,
    # and b sends its unit to x first, as the one-sided kernel does
    arcs = [("sa", "s", "a"), ("sb", "s", "b"), ("ay", "a", "y"), ("bx", "b", "x"),
            ("by", "b", "y"), ("xt", "x", "t"), ("yt", "y", "t")]
    caps = {"sa": 1, "sb": 1, "ay": 1, "bx": 1, "by": 1, "xt": 1, "yt": 2}
    inet = intern(make_net(list("abstxy"), arcs, ["s"], caps))
    num = inet.graph.ids.number
    f, value = indexed.max_flow(inet, [num["s"]], [num["t"]])
    assert (f, value) == reference_kernel.max_flow(inet, [num["s"]], [num["t"]])
    flow = {inet.graph.ids.arc_ids[a]: w for a, w in zip(inet.graph.arcs, f) if w}
    assert flow == {"sa": 1, "sb": 1, "ay": 1, "bx": 1, "xt": 1, "yt": 1}
