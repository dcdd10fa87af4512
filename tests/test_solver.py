import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeflow import (
    ContractViolation,
    Cut,
    InputError,
    Multiflow,
    TerminalPath,
    check_feasible,
    divergence,
    dual_value,
    free_imf,
    max_flow,
    mu_value,
    normalize,
    solve,
    verify_certificate,
)
from treeflow import indexed
from treeflow.generator import generate_network
from treeflow.indexed import intern
from treeflow.realization import intern_instance
from treeflow.solver import (
    SolveStats,
    aggregate,
    base_two_vertices,
    repair_three_leaves,
    _external,
)

from builders import make_net, make_real


def assert_solution_checks(net, real, out):
    assert check_feasible(net, out.multiflow) is None
    assert out.value == mu_value(real, out.multiflow)
    assert out.value == dual_value(net, real)
    assert verify_certificate(net, real, out.multiflow, out.certificate) is None


def test_single_terminal():
    net = make_net(["s", "x"], [("a", "s", "x"), ("b", "x", "s")], ["s"],
                   {"a": 2, "b": 2})
    real = make_real(["v1"], [], {"s": ["v1"]})
    out = solve(net, real)
    assert out.value == 0 and out.multiflow.paths == ()


def test_e1(e1):
    net, real = e1
    out = solve(net, real)
    assert out.value == 6
    assert_solution_checks(net, real, out)
    # the expected layout: 2 units forward at distance 3, 1 free unit back
    vals = {p: out.multiflow.component_value(net, p) for p in out.multiflow.pairs()}
    assert vals == {("s", "t"): 2, ("t", "s"): 1}
    assert out.certificate.cuts[("v1", "v2")] == frozenset(["s"])
    assert out.certificate.cuts[("v2", "v1")] == frozenset(["t"])


def test_e2(e2):
    net, real = e2
    out = solve(net, real)
    assert out.value == 6
    assert_solution_checks(net, real, out)


def test_solve_validates_once(e1, monkeypatch):
    # normalize validates; solve itself does not validate again
    import treeflow.realization as R
    import treeflow.solver as S

    validate = R.validate_instance
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return validate(*args)

    monkeypatch.setattr(R, "validate_instance", counted)
    monkeypatch.setattr(S, "validate_instance", counted)
    assert solve(*e1).value == 6
    assert calls[0] == 1
    # x takes 2 units in and sends 1 out
    net = make_net(["s", "t", "x"], [("a", "s", "x"), ("b", "x", "t"), ("c", "t", "s")],
                   ["s", "t"], {"a": 2, "b": 1, "c": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    calls[0] = 0
    with pytest.raises(InputError, match="instance invalid at 'x'") as e:
        solve(net, real)
    assert e.value.code == "not-eulerian"
    assert calls[0] == 1


@pytest.mark.parametrize("case", ["e1", "e2", 25, 75, 239])
def test_decompose_runs_only_on_max_flows(case, request, monkeypatch):
    # the solve result is the glued packing: emitting, checking and
    # verifying it peel no arc function, and the dual needs no peeling
    import treeflow.flows
    import treeflow.multiflow
    from test_acceptance import corpus_params

    if isinstance(case, str):
        net, real = request.getfixturevalue(case)
    else:
        net, real = generate_network(case, *corpus_params(case))

    def refuse(*_args, **_kwargs):
        raise AssertionError("decompose ran on a flow that is not a max flow")

    monkeypatch.setattr(treeflow.flows, "decompose", refuse)
    monkeypatch.setattr(treeflow.multiflow, "decompose", refuse)
    out = solve(net, real)
    assert out.multiflow.to_paths(net) == list(out.multiflow.paths)
    assert check_feasible(net, out.multiflow) is None
    assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    assert out.value == dual_value(net, real)


def test_base_two_direct(e1):
    net, real = e1
    inet, tree_ids, tree, _length = intern_instance(net, real)
    paths, cuts = _external(inet.graph.ids, tree_ids, *base_two_vertices(inet, tree, SolveStats()))
    assert cuts[("v1", "v2")] == frozenset(["s"])
    assert paths == [TerminalPath("s", "t", ("a1",), 2), TerminalPath("t", "s", ("a2",), 1)]


def test_base_two_ignores_whole_tree_terminal():
    # q spans the whole tree, is Eulerian, and carries no components
    net = make_net(["s", "t", "q"],
                   [("a", "s", "q"), ("b", "q", "t"), ("c", "t", "q"), ("d", "q", "s")],
                   ["s", "t", "q"], {"a": 1, "b": 1, "c": 1, "d": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 2, 1)],
                     {"s": ["v1"], "t": ["v2"], "q": ["v1", "v2"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    for (a, b) in out.multiflow.pairs():
        assert "q" not in (a, b)
    assert out.value == 2 * 1 + 1 * 1  # mincut each way is 1


def test_partition_capacity_identity():
    rng = random.Random(41)
    seen = 0
    for _ in range(30):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 12, 5, 2, 4 + seed % 3)
        net1, real1, _rec = normalize(net, real)
        from treeflow import choose_balanced_edge
        edge = choose_balanced_edge(real1)
        if edge is None:
            continue
        seen += 1
        v1, v2 = edge
        side1 = real1.component_without_edge(v1, v2)
        s1 = [t for t in net1.terminals if real1.subtrees[t] <= side1]
        s2 = [t for t in net1.terminals if real1.subtrees[t] <= (real1.vertices - side1)]
        f, _val = max_flow(net1, s1, s2)
        from treeflow import min_cut_source_side, cut_capacity
        x1 = min_cut_source_side(net1, f, s1, sinks=s2).source_side
        out_cap = cut_capacity(net1, Cut(x1))
        in_cap = sum(net1.capacity[a.id] for a in net1.graph.arcs
                     if a.head in x1 and a.tail not in x1)
        # Eulerianness ties the two boundary capacities to the terminal imbalances
        assert out_cap - in_cap == sum(divergence(net1, net1.capacity, s) for s in s1)
    assert seen >= 10


def test_aggregate_conserves_terminal_totals(monkeypatch):
    import treeflow.solver as S

    calls = [0]
    orig = S.aggregate

    def out_weights(paths, drop):
        total = {}
        for p in paths:
            if p.source != drop:
                total[p.source] = total.get(p.source, 0) + p.weight
        return total

    def checking(net, paths1, paths2, x1, z2, z1):
        glued = orig(net, paths1, paths2, x1, z2, z1)
        child = out_weights(paths1, z2)
        child.update(out_weights(paths2, z1))
        assert out_weights(glued, None) == child, "a source's out-weight changed in aggregation"
        # every glued path walks the parent's arcs from its source to its target
        g = net.graph
        ends = {a: (t, h) for a, t, h in zip(g.arcs, g.tail, g.head)}
        for p in glued:
            walk = [p.source] + [ends[a][1] for a in p.arcs]
            assert [ends[a][0] for a in p.arcs] == walk[:-1]
            assert walk[-1] == p.target and len(set(walk)) == len(walk)
        calls[0] += 1
        return glued

    monkeypatch.setattr(S, "aggregate", checking)
    rng = random.Random(43)
    for _ in range(25):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 10, 5, 2, 4)
        out = solve(net, real)
        assert_solution_checks(net, real, out)
    assert calls[0] > 10


def _aggregate_fixture():
    # x1 = {a, c} and x2 = {b}: e and g cross forward, f backward
    net = intern(make_net(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c"), ("g", "c", "b")],
                          ["a", "b", "c"], {"e": 2, "f": 1, "g": 1}))
    ids = net.graph.ids
    z2 = ids.new_vertex()
    z1 = ids.new_vertex()

    def path(s, t, arcs, w):
        # the fixture's vertex and arc ids as the network's numbers
        num = {**ids.number, "z2": z2, "z1": z1}
        return TerminalPath(num[s], num[t], tuple(ids.arc_ids.index(a) for a in arcs), w)

    paths1 = [path("a", "z2", ("e",), 2), path("c", "z2", ("g",), 1),
              path("z2", "c", ("f",), 1)]
    paths2 = [path("z1", "b", ("e",), 2), path("z1", "b", ("g",), 1),
              path("b", "z1", ("f",), 1)]
    return net, path, paths1, paths2, frozenset([ids.number["a"], ids.number["c"]]), z2, z1


def test_aggregate_joins_on_boundary_arcs():
    net, _path, paths1, paths2, x1, z2, z1 = _aggregate_fixture()
    glued = aggregate(net, paths1, paths2, x1, z2, z1)
    assert [net.graph.ids.path_ids(p) for p in glued] == [
        TerminalPath("a", "b", ("e",), 2), TerminalPath("c", "b", ("g",), 1),
        TerminalPath("b", "c", ("f",), 1)]


def test_aggregate_rejects_unsaturated_boundary():
    net, path, paths1, paths2, x1, z2, z1 = _aggregate_fixture()
    short = [path("a", "z2", ("e",), 1)] + paths1[1:]
    with pytest.raises(ContractViolation, match="not saturated forward"):
        aggregate(net, short, paths2, x1, z2, z1)
    with pytest.raises(ContractViolation, match="not saturated backward"):
        aggregate(net, paths1, paths2[:2], x1, z2, z1)


def test_aggregate_rejects_internal_path_on_the_boundary():
    net, path, paths1, paths2, x1, z2, z1 = _aggregate_fixture()
    # a to c through the contraction vertex z2
    through = paths1 + [path("a", "c", ("e", "f"), 1)]
    with pytest.raises(ContractViolation, match="touches the partition boundary"):
        aggregate(net, through, paths2, x1, z2, z1)


def test_free_imf_two_terminals():
    net = make_net(["s", "t", "x"],
                   [("a", "s", "x"), ("b", "x", "t"), ("c", "t", "x"), ("d", "x", "s")],
                   ["s", "t"], {"a": 2, "b": 2, "c": 1, "d": 1})
    mf, cuts = free_imf(net)
    total = sum(mf.component_value(net, p) for p in mf.pairs())
    exp = max_flow(net, ["s"], ["t"])[1] + max_flow(net, ["t"], ["s"])[1]
    assert total == exp == 3
    assert cuts["s"].source_side.isdisjoint(cuts["t"].source_side)


def test_free_imf_e2_rotation(e2):
    net, _real = e2
    mf, cuts = free_imf(net)
    total = sum(mf.component_value(net, p) for p in mf.pairs())
    assert total == 3
    for t in net.terminals:
        assert cuts[t].source_side == {t}


def test_free_imf_zero_capacity():
    net = make_net(["a", "b", "c"], [("e", "a", "b")], ["a", "b", "c"], {"e": 0})
    mf, _cuts = free_imf(net)
    assert all(mf.component_value(net, p) == 0 for p in mf.pairs())


def test_free_imf_theorem_identity_randomized():
    rng = random.Random(47)
    for _ in range(25):
        seed = rng.randrange(10**6)
        net, _real = generate_network(seed, 8 + seed % 10, 4 + seed % 6, seed % 4, 3)
        terms = net.terminals
        mf, cuts = free_imf(net)
        total = sum(mf.component_value(net, p) for p in mf.pairs())
        expect = sum(max_flow(net, [t], [u for u in terms if u != t])[1] for t in terms)
        assert total == expect
        sides = [cuts[t].source_side for t in terms]
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                assert sides[i].isdisjoint(sides[j])


def test_repair_keeps_capacity_complement():
    # hand network: q sits inside the minimal cut of s1 and must be expelled;
    # as a sink of s1's max flow it lies outside that cut, with nothing to expel
    arcs = [("sq", "s1", "qv"), ("qs2", "qv", "s2"), ("qs1", "qv", "s1"),
            ("s2b", "s2", "s3")]
    net = make_net(["s1", "s2", "s3", "qv"], arcs, ["s1", "s2", "s3", "qv"],
                   {"sq": 2, "qs2": 1, "qs1": 1, "s2b": 1})
    inet = intern(net)
    num = inet.graph.ids.number
    ig = inet.graph

    def expand(sinks, q_terms):
        f, _value = indexed.max_flow(inet, [num["s1"]], [num[x] for x in sinks])
        side = indexed.min_cut_source_side(inet, f, [num["s1"]])
        stats = SolveStats()
        new_side, fwd, back = repair_three_leaves(inet, [num["s1"]], side, f, q_terms, stats)
        # forward plus backward flow reconstructs the capacity of every arc
        # touching the side, arc by arc
        g = {}
        for p in fwd:
            for aid in p.arcs:
                g[aid] = g.get(aid, 0) + p.weight
        h = {}
        for p in back:
            for aid in p.arcs:
                h[aid] = h.get(aid, 0) + p.weight
        for aid, tail, head, c in zip(ig.arcs, ig.tail, ig.head, inet.cap):
            if tail in side or head in side:
                assert g.get(aid, 0) + h.get(aid, 0) == c
            # both boundary directions are fully used
            if tail in side and head not in side:
                assert g.get(aid, 0) == c
            if head in side and tail not in side:
                assert h.get(aid, 0) == c
        return side, new_side, stats.maxflow_calls

    side, new_side, calls = expand(["s2", "s3"], [num["qv"]])
    assert side == {num["s1"], num["qv"]}
    assert num["qv"] not in new_side and num["s1"] in new_side
    # one max flow continues the cut flow; the minimal cut is that of a
    # lexicographic flow to the leaving arcs' heads first, then to qv
    assert calls == 1
    heads = [ig.head[k] for k in indexed.boundary(ig, side)[0]]
    lex = indexed.lex_max_flow(inet, [num["s1"]], heads, [num["qv"]])
    assert new_side == indexed.min_cut_source_side(inet, lex, [num["s1"]])
    # the max flow that found the side carries the whole region: no flow runs
    side, new_side, calls = expand(["s2", "s3", "qv"], [])
    assert new_side == side == {num["s1"]}
    assert calls == 0


def test_base_three_with_misplaced_complex_terminal():
    # q realizes the v2-v0-v3 path but its vertex lives inside s1's min cut
    arcs = [("a", "s1", "qv"), ("b", "qv", "s2"), ("c", "qv", "s1"),
            ("d", "s2", "s3"), ("e", "s3", "s1")]
    net = make_net(["s1", "s2", "s3", "qv"], arcs, ["s1", "s2", "s3", "qv"],
                   {"a": 2, "b": 1, "c": 1, "d": 1, "e": 1})
    real = make_real(["v0", "v1", "v2", "v3"],
                     [("v1", "v0", 1, 1), ("v2", "v0", 1, 1), ("v3", "v0", 1, 1)],
                     {"s1": ["v1"], "s2": ["v2"], "s3": ["v3"],
                      "qv": ["v2", "v0", "v3"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    # 3 minimal cuts and 3 bulk flows in the free core; s1's region
    # continues its cut flow to expel qv, the others expand theirs as found
    assert out.stats.maxflow_calls == 7
    # separation for the repaired leaf: qv ends up outside the s1 cut
    side = out.certificate.cuts[("v1", "v0")]
    assert "s1" in side and "qv" not in side
    # every positive component links two terminals with distance-relevant roles
    for (a, b) in out.multiflow.pairs():
        assert a != b


def test_star_base_with_two_leaves_blocked_middle():
    # path tree v1-v0-v2 whose middle vertex carries a subtree boundary
    net = make_net(["s", "t", "q"],
                   [("a", "s", "q"), ("b", "q", "t"), ("c", "t", "q"), ("d", "q", "s")],
                   ["s", "t", "q"], {"a": 1, "b": 1, "c": 1, "d": 1})
    real = make_real(["v0", "v1", "v2"], [("v1", "v0", 2, 1), ("v0", "v2", 1, 1)],
                     {"s": ["v1"], "t": ["v2"], "q": ["v1", "v0"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)


def test_merged_similar_simple_terminals(monkeypatch):
    # s and s2 share the leaf v1, so they are one terminal group of the
    # free multiflow: the core contraction is the only contraction
    import treeflow.solver as S

    contractions = [0]
    contract = S.contract

    def counted(*args):
        contractions[0] += 1
        return contract(*args)

    monkeypatch.setattr(S, "contract", counted)
    net = make_net(["s", "s2", "t", "x", "u"],
                   [("a", "s", "x"), ("b", "s2", "x"), ("c", "x", "t"),
                    ("d", "t", "x"), ("e", "x", "s"), ("f", "x", "s2"),
                    ("g", "x", "u"), ("h", "u", "x")],
                   ["s", "s2", "t", "u"],
                   {"a": 1, "b": 1, "c": 2, "d": 2, "e": 1, "f": 1, "g": 1, "h": 1})
    real = make_real(["v0", "v1", "v2", "v3"],
                     [("v1", "v0", 1, 1), ("v2", "v0", 1, 1), ("v3", "v0", 1, 1)],
                     {"s": ["v1"], "s2": ["v1"], "t": ["v2"], "u": ["v3"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    assert (out.value, out.stats.maxflow_calls, contractions[0]) == (10, 6, 1)
    for (a, b) in out.multiflow.pairs():
        assert {a, b} <= {"s", "s2", "t", "u"}
        assert {a, b} != {"s", "s2"}  # distance-zero pairs carry no value anyway


def test_group_member_with_spare_out_capacity():
    # b1 and b2 form one group; the group's max flow never enters b2, so
    # b1's arc to x stays empty and its capacity complement runs b1 -> x
    # -> b2, from one member to another: no path may carry it
    net = make_net(["b1", "b2", "x", "t", "u"],
                   [("a", "b1", "x"), ("b", "x", "b2"), ("c", "b2", "t"), ("d", "t", "b2"),
                    ("e", "b2", "u"), ("f", "u", "b2")],
                   ["b1", "b2", "t", "u"], {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1})
    real = make_real(["v0", "v1", "v2", "v3"],
                     [("v1", "v0", 1, 1), ("v2", "v0", 1, 1), ("v3", "v0", 1, 1)],
                     {"b1": ["v1"], "b2": ["v1"], "t": ["v2"], "u": ["v3"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    assert out.value == 8
    assert {(p.source, p.target) for p in out.multiflow} == {
        ("b2", "t"), ("t", "b2"), ("b2", "u"), ("u", "b2")}


def test_solver_randomized_against_dual_oracle():
    rng = random.Random(53)
    for _ in range(60):
        seed = rng.randrange(10**6)
        n = 5 + seed % 18
        net, real = generate_network(seed, n, 3 + seed % 7, seed % 5, 2 + seed % 5)
        out = solve(net, real)
        assert_solution_checks(net, real, out)


def _always_stall(core):
    """A _FreeCore.run that stops after the bulk flows, so that the
    splitting fallback solves every core."""
    import treeflow.solver as S
    core._bulk()
    raise S._AugmentationStall("forced")


def test_splitting_fallback_is_exact(monkeypatch):
    # drive every core through the splitting routine
    import treeflow.solver as S

    monkeypatch.setattr(S._FreeCore, "run", _always_stall)
    rng = random.Random(61)
    for _ in range(8):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 6 + seed % 6, 3 + seed % 5, seed % 4, 2 + seed % 3)
        out = solve(net, real)
        assert out.value == dual_value(net, real)
        assert verify_certificate(net, real, out.multiflow, out.certificate) is None


def _oracle_checked(core_sizes):
    """A _core_by_splitting that also runs the binary-search oracle on every
    core, wants the same flow from no more max flows, and appends each
    core's terminal count to core_sizes."""
    import treeflow.solver as S
    from splitting_oracle import core_by_splitting

    split = S._core_by_splitting

    def checked(net, terms, stats):
        mine, oracle = SolveStats(), SolveStats()
        flow = split(net, terms, mine)
        assert flow == core_by_splitting(net, terms, oracle)
        assert mine.maxflow_calls <= oracle.maxflow_calls
        stats.maxflow_calls += mine.maxflow_calls
        core_sizes.append(len(terms))
        return flow

    return checked


def test_splitting_fallback_matches_the_binary_search_oracle():
    # every core goes through both the one-trial fallback and the oracle
    import treeflow.solver as S

    cores = []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    @example(5)  # seeds 5 and 43 split an amount below the pair's width
    @example(43)
    def prop(seed):
        net, real = generate_network(seed, 6 + seed % 6, 3 + seed % 5, seed % 4, 2 + seed % 3)
        assert solve(net, real).value == dual_value(net, real)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S._FreeCore, "run", _always_stall)
        mp.setattr(S, "_core_by_splitting", _oracle_checked(cores))
        prop()
    assert cores


def test_splitting_fallback_matches_the_oracle_for_any_k(monkeypatch):
    # inside solve every core has 2 or 3 terminals; free_imf on criterion-4
    # networks drives cores with up to 8 through both the one-trial
    # fallback and the oracle
    import treeflow.solver as S
    from treeflow import Digraph, Network
    from treeflow.generator import superpose_walks

    cores = []
    monkeypatch.setattr(S._FreeCore, "run", _always_stall)
    monkeypatch.setattr(S, "_core_by_splitting", _oracle_checked(cores))
    for seed in range(1, 101):
        rng = random.Random(90_000 + seed)
        n = 6 + seed % 25
        k = 2 + seed % 7
        verts = [f"x{i}" for i in range(n)]
        terms = verts[:k]
        arcs, caps = superpose_walks(rng, verts, 3 + seed % 12, seed % 7, terms)
        free_imf(Network(Digraph.build(verts, arcs), tuple(terms), caps))
    assert set(cores) == set(range(2, 9))


def test_large_capacities_stay_fast_and_exact(monkeypatch):
    # the walks of seeds 3, 248 and 516 never need a width-one plan, so
    # they move capacity in whole bundles; a plan that does need one still
    # runs once per unit.  Seeds 239, 416 and 493 fall back to splitting,
    # whose max flows do not depend on the size of the capacities.
    import time
    import treeflow.solver as S
    from test_acceptance import corpus_params
    from treeflow import Network

    split = S._core_by_splitting
    fallbacks = [0]

    def counted(*args):
        fallbacks[0] += 1
        return split(*args)

    monkeypatch.setattr(S, "_core_by_splitting", counted)

    def scaled(net, k):
        return Network(net.graph, net.terminals, {a.id: net.capacity[a.id] * k for a in net.graph.arcs})

    def solve_checked(net, real):
        t0 = time.time()
        out = solve(net, real)
        assert time.time() - t0 < 5.0
        assert out.value == dual_value(net, real)
        assert verify_certificate(net, real, out.multiflow, out.certificate) is None
        return out

    for seed in (3, 248, 516):
        n = 4 + (seed % 9) * 3
        net, real = generate_network(seed, n, 2 + seed % 9, seed % 5, 2 + seed % 5)
        solve_checked(scaled(net, 10**6), real)
    for seed in (239, 416, 493):
        net, real = generate_network(seed, *corpus_params(seed))
        calls = solve(net, real).stats.maxflow_calls
        fallbacks[0] = 0
        out = solve_checked(scaled(net, 10**6), real)
        assert fallbacks[0] > 0, seed
        assert out.stats.maxflow_calls == calls, seed


def test_walk_work_does_not_grow_with_capacities(monkeypatch):
    # the free core stops after n·k augmentations and hands the core to
    # splitting, whose max flows do not depend on capacities, so the work
    # is the same at every scale.  Under a budget of the capacity sum,
    # seeds 42, 165, 204, 222 and 346 made walk searches that grew with it.
    import treeflow.solver as S
    from test_acceptance import corpus_params
    from treeflow import Network

    walks, fallbacks = [0], [0]
    find_walk, split = S._FreeCore._find_walk, S._core_by_splitting

    def counted_walk(*args):
        walks[0] += 1
        return find_walk(*args)

    def counted_split(*args):
        fallbacks[0] += 1
        return split(*args)

    monkeypatch.setattr(S._FreeCore, "_find_walk", counted_walk)
    monkeypatch.setattr(S, "_core_by_splitting", counted_split)
    seeds = [42, 165, 204, 222, 346, *range(10, 501, 10)]
    work = {}
    for scale in (10**3, 10**6):
        walks[0] = fallbacks[0] = maxflows = 0
        for seed in seeds:
            net, real = generate_network(seed, *corpus_params(seed))
            net = Network(net.graph, net.terminals, {a: c * scale for a, c in net.capacity.items()})
            out = solve(net, real)
            assert out.value == dual_value(net, real), (seed, scale)
            maxflows += out.stats.maxflow_calls
        work[scale] = (walks[0], maxflows, fallbacks[0])
    assert work[10**3] == work[10**6] == (575, 1437, 6)


def test_certificate_is_length_independent():
    rng = random.Random(59)
    pal = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5)]
    for _ in range(10):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 9, 4, 2, 3)
        # keep every length strictly positive so classifications are stable
        edges = [(u, v, rng.choice(pal), rng.choice(pal)) for (u, v) in real.edges()]
        real = make_real(sorted(real.vertices), edges,
                         {t: sorted(real.subtrees[t]) for t in net.terminals})
        out = solve(net, real)
        for _trial in range(3):
            edges2 = [(u, v, rng.choice(pal), rng.choice(pal)) for (u, v) in real.edges()]
            real2 = make_real(sorted(real.vertices), edges2,
                              {t: sorted(real.subtrees[t]) for t in net.terminals})
            assert verify_certificate(net, real2, out.multiflow, out.certificate) is None
            assert mu_value(real2, out.multiflow) == dual_value(net, real2)


# (value, max flows, recursion depth) of corpus instances: every 25th seed
# and the three fallback seeds, as solved before the recursion moved onto
# interned numbers.  Same work, not only the same answers; the fallback
# seeds make fewer max flows since split amounts come from one trial, free
# splits need none and a trial runs at most one max flow per terminal.
# Seeds 124 and 215 fell back to splitting (130 and 97 max flows) while
# solver-made vertices sorted by made-up ids; numbered in creation order,
# their free cores complete.  Seed 416 made 100 max flows while the
# fallback tried its pairs in arc id order; in arc order it finds the
# same splits with one trial fewer.  Every star base made one max flow more
# per leaf region while regions were contracted networks with their own
# flow; expanded from the max flows that found their cuts, only a region
# that expels a misplaced terminal runs one, which continues its cut flow
# (a fresh two-phase flow, counted as two, until that continued it).
PINNED_WORK = {
    25: ('130', 33, 3),
    50: ('42', 18, 2),
    75: ('43', 29, 4),
    100: ('113/2', 11, 1),
    125: ('107/2', 17, 2),
    150: ('16', 18, 2),
    175: ('35', 6, 0),
    200: ('300', 31, 4),
    225: ('14', 13, 1),
    250: ('6', 1, 0),
    275: ('43/2', 18, 2),
    300: ('307/2', 34, 3),
    325: ('70', 13, 1),
    350: ('37', 4, 0),
    375: ('83/2', 20, 2),
    400: ('14', 1, 0),
    425: ('20', 18, 2),
    450: ('2', 11, 1),
    475: ('38', 11, 1),
    500: ('195', 6, 0),
    239: ('41/2', 144, 2),
    416: ('23', 91, 2),
    493: ('4', 54, 0),
    124: ('55', 32, 3),
    215: ('219/2', 55, 4),
}


def test_pinned_corpus_work_and_no_builds_inside_the_recursion(monkeypatch):
    from test_acceptance import corpus_params
    from treeflow import Digraph, Network

    builds = [0]
    post_init, build = Network.__post_init__, Digraph.build

    def counted_post_init(self):
        builds[0] += 1
        post_init(self)

    def counted_build(*args, **kwargs):
        builds[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(Network, "__post_init__", counted_post_init)
    monkeypatch.setattr(Digraph, "build", staticmethod(counted_build))
    depths = set()
    for seed, expected in PINNED_WORK.items():
        net, real = generate_network(seed, *corpus_params(seed))
        builds[0] = 0
        out = solve(net, real)
        assert (str(out.value), out.stats.maxflow_calls, out.stats.recursion_depth) == expected, seed
        # normalization, recursion and undo run on numbers: no network is built
        assert builds[0] == 0, seed
        depths.add(out.stats.recursion_depth)
    assert depths == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("case", ["e1", "e2", 25, 239, 416])
def test_no_id_sorting_between_interning_and_export(case, request, monkeypatch):
    # every sort_key call of a solve happens while it validates and interns
    # the input or after it mapped its answer back to ids, and none ranks
    # an arc: arcs break ties in arc order
    import pkgutil
    import treeflow
    import treeflow.graphs
    import treeflow.solver as S
    from test_acceptance import corpus_params

    if isinstance(case, str):
        net, real = request.getfixturevalue(case)
    else:
        net, real = generate_network(case, *corpus_params(case))
    sort_key = treeflow.graphs.sort_key
    arc_ids = {a.id for a in net.graph.arcs}
    inside = [False]
    calls = {False: 0, True: 0}
    arcs_keyed = []

    def counted(x):
        calls[inside[0]] += 1
        if x in arc_ids:
            arcs_keyed.append(x)
        return sort_key(x)

    for info in pkgutil.iter_modules(treeflow.__path__):
        module = getattr(treeflow, info.name, None)
        if hasattr(module, "sort_key"):
            monkeypatch.setattr(module, "sort_key", counted)

    intern_instance, external = S.intern_instance, S._external

    def interned(*args):
        out = intern_instance(*args)
        inside[0] = True
        return out

    def exported(*args):
        inside[0] = False
        return external(*args)

    monkeypatch.setattr(S, "intern_instance", interned)
    monkeypatch.setattr(S, "_external", exported)
    out = solve(net, real)
    assert calls[True] == 0
    assert calls[False] > 0  # the boundary sorts ids, so the counter is live
    assert arcs_keyed == []
    assert not arc_ids & (net.vertices | real.vertices)  # so no vertex id was counted as an arc
    assert out.value == dual_value(net, real)


def test_input_ids_shaped_like_the_solvers_own(monkeypatch):
    # ids of every shape the solver or normalization makes or once made:
    # contraction vertices ('@', name, k), splitting bypasses ('~', c), the
    # fresh ids of linear-terminal splits, pendant and degree vertices
    # ('+', stem, 0), the placeholder ('@', k), and the made ids of an
    # earlier normalization.  Such inputs solve as any others do, and
    # normalize gives everything it makes an id of its own.
    import treeflow.solver as S
    from treeflow import RealizationTree, normalize
    from treeflow.indexed import _Made

    # shape(i, j) names the i-th id; j is a number that a made id takes
    # next, so the earlier made ids carry the numbers the next ones get
    vertex_shapes = [lambda i, j: ("@", "cut", i), lambda i, j: ("@", i),
                     lambda i, j: ("+", ("in", i), 0), lambda i, j: ("+", ("out", i), 0),
                     lambda i, j: _Made(0, j)]
    arc_shapes = [lambda i, j: ("~", i + 1), lambda i, j: ("+", ("arc-in", i), 0),
                  lambda i, j: ("+", ("arc-out", i), 0), lambda i, j: _Made(0, j)]
    tree_shapes = [lambda i, j: ("+", ("leaf", i), 0), lambda i, j: ("+", ("deg", i), 0),
                   lambda i, j: ("@", i), lambda i, j: _Made(0, j)]

    def names(ids, shapes):
        ordered = sorted(ids, key=repr)
        return {x: shapes[i % len(shapes)](i, len(ordered) + i // len(shapes))
                for i, x in enumerate(ordered)}

    monkeypatch.setattr(S._FreeCore, "run", _always_stall)
    rng = random.Random(67)
    splits = made_tree_vertices = 0
    for trial in range(12):
        seed = rng.randrange(10**6)
        if trial % 2:
            net, real = generate_network(seed, 6 + seed % 6, 3 + seed % 5, seed % 4, 2 + seed % 3)
        else:
            net, real = generate_network(seed, 6 + seed % 25, 3 + seed % 9, seed % 5, 4 + seed % 5)
        vname = names(net.vertices, vertex_shapes)
        aname = names([a.id for a in net.graph.arcs], arc_shapes)
        tname = names(real.vertices, tree_shapes)
        net = make_net(list(vname.values()),
                       [(aname[a.id], vname[a.tail], vname[a.head]) for a in net.graph.arcs],
                       [vname[t] for t in net.terminals],
                       {aname[a]: c for a, c in net.capacity.items()})
        real = make_real(list(tname.values()),
                         [(tname[u], tname[v], real.arc_length[(u, v)], real.arc_length[(v, u)])
                          for u, v in real.edges()],
                         {vname[t]: [tname[x] for x in sub] for t, sub in real.subtrees.items()})
        assert_solution_checks(net, real, solve(net, real))

        net1, real1, rec = normalize(net, real)
        assert dual_value(net1, real1) == dual_value(net, real)
        # a made id equal to an input id would merge two vertices or arcs
        # into one, or break the tree
        assert len(net1.vertices) == len(net.vertices) + 2 * len(rec.splits)
        assert len(net1.graph.arcs) == len(net.graph.arcs) + 2 * len(rec.splits)
        assert net.vertices <= net1.vertices
        RealizationTree.build(real1.vertices, [(u, v, real1.arc_length[(u, v)], real1.arc_length[(v, u)])
                                               for u, v in real1.edges()], real1.subtrees)
        splits += len(rec.splits)
        made_tree_vertices += len(real1.vertices - real.vertices)
    assert splits >= 3 and made_tree_vertices >= 3
