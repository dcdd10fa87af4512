"""A level left with no arc once its direct arcs leave returns at once
(solver._solve_rec): it places each terminal in its subtree and every
other vertex at one tree vertex, and runs nothing below.  A wrapper checks
every level of a solve; instances with isolated non-terminals and
isolated complex terminals, on path, caterpillar, spider and random trees,
keep the value of both cut oracles and a certificate that verifies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cut_oracle
import treeflow.solver as S
from treeflow import check_feasible, dual_value, solve, verify_certificate
from treeflow.generator import generate_network, random_connected_subtree, superpose_walks
from treeflow.indexed import split_off

from builders import make_net, make_real, shaped_tree
from test_acceptance import corpus_params
from test_direct_arcs import path_tree

SHAPES = ["path", "caterpillar", "spider", "random"]


def _checked_levels(mp):
    """Wrap _solve_rec so that every level checks how it ended.  A level
    that chose no tree edge (choose_balanced_edge) and has more than one
    tree vertex returned early: it must have had no live arc once its
    direct arcs left, return those arcs as its paths, and place every
    network vertex once, each terminal in its subtree, so a simple one at
    its own vertex.  A level that chose one must have had a live arc.
    Returns the list of early returns, as the sorted subtree sizes of
    their terminals."""
    early, chose = [], []
    rec, choose = S._solve_rec, S.choose_balanced_edge

    def observed_choose(tree):
        chose[-1] = True
        return choose(tree)

    def level(net, tree, stats, depth, known):
        chose.append(False)
        paths, placed = rec(net, tree, stats, depth, known)
        ran = chose.pop()
        if len(tree.vertices) == 1:
            return paths, placed
        rest, direct = split_off(net, {t for t, sub in tree.subtrees.items() if len(sub) == 1})
        assert (rest.graph.live > 0) == ran, (rest.graph.live, ran)
        if not ran:
            assert paths == direct
            at = {x: v for v, sides in placed.items() for side in sides for x in side}
            assert sorted(x for sides in placed.values() for side in sides for x in side) \
                == sorted(net.graph.vertices)
            assert set(placed) <= tree.vertices
            for t, sub in tree.subtrees.items():
                assert at[t] in sub, (t, at[t], sub)
            early.append(sorted(len(sub) for sub in tree.subtrees.values()))
        return paths, placed

    mp.setattr(S, "_solve_rec", level)
    mp.setattr(S, "choose_balanced_edge", observed_choose)
    return early


def arcless_instance(rng, shape):
    """A tree of the given shape with simple terminals on distinct tree
    vertices, the open and closed walks of a few network vertices, and
    beside them one to four vertices with no arc, at least one of them a
    complex terminal."""
    n_tree = rng.randint(2, 10)
    tnames, adjacency, edges = shaped_tree(rng, shape, n_tree)
    walked = [f"x{i}" for i in range(rng.randint(4, 10))]
    n_simple = rng.randint(2, min(4, n_tree))
    simple = rng.sample(walked, n_simple)
    subtrees = {s: [v] for s, v in zip(simple, rng.sample(tnames, n_simple))}
    arcs, caps = superpose_walks(rng, walked, rng.randint(0, 4), rng.randint(0, 6), simple)
    isolated = [f"i{i}" for i in range(rng.randint(1, 4))]
    complexes = isolated[:rng.randint(1, len(isolated))]
    for c in complexes:
        subtrees[c] = random_connected_subtree(rng, adjacency, rng.choice(tnames), rng.randint(2, n_tree))
    return (make_net(walked + isolated, arcs, simple + complexes, caps),
            make_real(tnames, edges, subtrees))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(SHAPES))
def test_arcless_levels_keep_the_value_and_the_certificate(rng, shape):
    net, real = arcless_instance(rng, shape)
    with pytest.MonkeyPatch.context() as mp:
        _checked_levels(mp)
        out = solve(net, real)
    assert out.value == dual_value(net, real) == cut_oracle.dual_value(net, real)
    assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    assert check_feasible(net, out.multiflow) is None


def test_arcless_levels_return_early_with_their_terminals_placed(monkeypatch):
    # the builder's instances, 50 per shape, and the corpus seeds 1 to 100
    rng = random.Random(39)
    instances = [arcless_instance(rng, shape) for shape in SHAPES for _ in range(50)]
    instances += [generate_network(seed, *corpus_params(seed)) for seed in range(1, 101)]
    early = _checked_levels(monkeypatch)
    for net, real in instances:
        assert solve(net, real).value == dual_value(net, real)
    # 150 early returns, 48 of them holding a complex terminal
    assert len(early) >= 120
    assert sum(1 for sizes in early if sizes[-1] > 1) >= 40


def test_a_path_tree_makes_at_most_two_max_flows_per_tree_vertex():
    # most children of a path tree's partition steps hold only arcs between
    # simple terminals; before they returned early, L=100 made 491 max flows
    net, real = path_tree(100)
    out = solve(net, real)
    assert out.value == 25230 == dual_value(net, real)
    assert out.stats.maxflow_calls <= 2 * 100
