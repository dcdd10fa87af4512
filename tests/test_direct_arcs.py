"""An arc between two simple terminals leaves each network as its own
one-arc path (solver._solve_rec): hand-built cases of the rule, its
value against the LP oracle, that no kernel meets such an arc, and the
work it saves on a path tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeflow.solver as S
from treeflow import (Digraph, Network, RealizationTree, TerminalPath, check_feasible, dual_value,
                      solve, verify_certificate)
from treeflow.generator import generate_network, superpose_walks

from builders import make_net, make_real
from lp_oracle import assert_lp_optimal
from test_acceptance import _performance_instance, corpus_params
from test_solver import PINNED_WORK, assert_solution_checks


def path_tree(L):
    """One simple terminal per vertex of a path tree of L vertices: n=3L,
    n cycles and L pairs (generator seed 8432), tree lengths 1 and 1."""
    n = 3 * L
    rng = random.Random(8432)
    verts = [f"x{i}" for i in range(n)]
    terms = verts[:L]
    arcs, caps = superpose_walks(rng, verts, n, L, terms)
    net = Network(Digraph.build(verts, arcs), tuple(terms), caps)
    real = RealizationTree.build([f"p{i}" for i in range(L)],
                                 [(f"p{i}", f"p{i + 1}", 1, 1) for i in range(L - 1)],
                                 {t: [f"p{i}"] for i, t in enumerate(terms)})
    return net, real


def test_a_zero_capacity_arc_between_terminals_makes_no_path():
    net = make_net(["s", "t"], [("a0", "s", "t"), ("a1", "s", "t"), ("a2", "t", "s")],
                   ["s", "t"], {"a0": 0, "a1": 2, "a2": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 3, 1)], {"s": ["v1"], "t": ["v2"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    assert out.multiflow.paths == (TerminalPath("s", "t", ("a1",), 2), TerminalPath("t", "s", ("a2",), 1))
    assert out.value == 7


def test_parallel_arcs_between_terminals_make_one_path_each():
    net = make_net(["s", "t"], [("a", "s", "t"), ("b", "s", "t"), ("c", "t", "s")],
                   ["s", "t"], {"a": 2, "b": 3, "c": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 2, 1)], {"s": ["v1"], "t": ["v2"]})
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    assert out.multiflow.paths == (TerminalPath("s", "t", ("a",), 2), TerminalPath("s", "t", ("b",), 3),
                                   TerminalPath("t", "s", ("c",), 1))
    assert out.value == 11


def test_an_arc_that_becomes_direct_below_a_partition_is_joined_in_aggregate(monkeypatch):
    # a path tree p0-p1-p2-p3 splits at (p1, p2).  The arc e from a (at p0)
    # to the inner vertex x crosses the cut; the child holding a contracts
    # x into z2, so there e joins two simple terminals and leaves as the
    # path (a, z2, (e,), 1), which aggregate joins to the other child's
    # path out of z1 that starts with e
    net = make_net(["a", "b", "c", "d", "x"],
                   [("e", "a", "x"), ("f", "x", "d"), ("g", "b", "c"), ("h", "c", "b"), ("i", "d", "a")],
                   ["a", "b", "c", "d"], {"e": 1, "f": 1, "g": 1, "h": 1, "i": 1})
    real = make_real(["p0", "p1", "p2", "p3"],
                     [("p0", "p1", 1, 1), ("p1", "p2", 1, 1), ("p2", "p3", 1, 1)],
                     {"a": ["p0"], "b": ["p1"], "c": ["p2"], "d": ["p3"]})
    seen = []
    aggregate = S.aggregate

    def recording(net, paths1, paths2, x1, z2, z1):
        e = net.graph.ids.arc_number["e"]
        if any(t == z2 and arcs == (e,) for _s, t, arcs, _w in paths1):
            seen.append(any(s == z1 and arcs[0] == e for s, _t, arcs, _w in paths2))
        return aggregate(net, paths1, paths2, x1, z2, z1)

    monkeypatch.setattr(S, "aggregate", recording)
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    assert seen == [True]
    assert TerminalPath("a", "d", ("e", "f"), 1) in out.multiflow.paths
    assert out.value == 3 + 1 + 1 + 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 9), st.integers(0, 3), st.integers(4, 12),
       st.integers(3, 8))
def test_terminal_dense_instances_are_exact(seed, n, cycles, pairs, leaves):
    # most vertices are terminals and many walks join two of them directly
    net, real = generate_network(seed, n, cycles, pairs, leaves)
    out = solve(net, real)
    assert_solution_checks(net, real, out)
    assert_lp_optimal(net, real, out.value)


def _forbid_direct_arcs(monkeypatch):
    """Wrap the three kernels of a level so that each asserts that its
    network holds no live positive arc between two simple terminals of its
    tree; returns the list of their calls."""
    calls = []

    def check(net, tree):
        simple = {t for t, sub in tree.subtrees.items() if len(sub) == 1}
        g = net.graph
        for t in simple:
            for e in g.adj[t]:
                k = e >> 1
                assert e & 1 or g.head[k] not in simple or not net.cap[k], \
                    f"arc position {k} joins two simple terminals"
        calls.append(len(tree.vertices))

    def guarded(kernel):
        def run(net, tree, *args):
            check(net, tree)
            return kernel(net, tree, *args)
        return run

    for name in ("partition_step", "base_two_vertices", "base_three_leaves"):
        monkeypatch.setattr(S, name, guarded(getattr(S, name)))
    return calls


@pytest.mark.parametrize("case", ["corpus", "scale", "path tree"])
def test_no_kernel_sees_an_arc_between_simple_terminals(case, monkeypatch):
    if case == "corpus":
        instances = [generate_network(seed, *corpus_params(seed)) for seed in PINNED_WORK]
    elif case == "scale":
        instances = [_performance_instance(8_416, 2000, 2000, 16)]
    else:
        instances = [path_tree(50)]
    calls = _forbid_direct_arcs(monkeypatch)
    for net, real in instances:
        out = solve(net, real)
        assert out.value == dual_value(net, real)
        assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    assert calls


def test_direct_arcs_cut_the_work_of_a_path_tree(monkeypatch):
    # before the rule, an L=200 path tree peeled 404,432 paths, and its max
    # flows read 780,583 arc positions; with it, 3,088 and 57,136
    net, real = path_tree(200)
    peeled, positions = [0], [0]
    decompose, max_flow = S.decompose, S.max_flow

    def counted_decompose(*args):
        paths = decompose(*args)
        peeled[0] += len(paths)
        return paths

    def counted_max_flow(net, *args, **kwargs):
        positions[0] += len(net.cap)
        return max_flow(net, *args, **kwargs)

    monkeypatch.setattr(S, "decompose", counted_decompose)
    monkeypatch.setattr(S, "max_flow", counted_max_flow)
    out = solve(net, real)
    assert out.value == 100758  # dual_value of this instance
    assert check_feasible(net, out.multiflow) is None
    assert peeled[0] <= 404_432 // 50
    assert positions[0] <= 780_583 // 10
