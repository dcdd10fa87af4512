"""The augmenting-walk search of the free core against the one-sided BFS
it replaced (reference_walk.py)."""

import random
from collections import Counter

import reference_walk
import treeflow.solver as S
from test_acceptance import _performance_instance, corpus_params
from treeflow import Digraph, Network, dual_value, free_imf, solve
from treeflow.generator import generate_network, superpose_walks
from treeflow.indexed import intern


def _criterion_4_network(seed):
    rng = random.Random(90_000 + seed)
    n = 6 + seed % 25
    k = 2 + seed % 7
    verts = [f"x{i}" for i in range(n)]
    arcs, caps = superpose_walks(rng, verts, 3 + seed % 12, seed % 7, verts[:k])
    return Network(Digraph.build(verts, arcs), tuple(verts[:k]), caps)


def _edges(core):
    """Every edge of the search as _succ lists it and as _pred lists it,
    each as a multiset of (tail state, head state, moves)."""
    states = [(v, k) for v in sorted(core.graph.vertices) for k in range(len(core.terms))]
    out = Counter((s, nxt, moves) for s in states for nxt, moves in core._succ(s))
    into = Counter((prev, s, moves) for s in states for prev, moves in core._pred(s))
    return out, into


def _paths(core, state, walk):
    """Every way to read walk from state as edges of _succ ending in a goal
    move, each as the list of states it passes."""
    if (state, tuple(walk)) in set(core._goals()):
        return [[state]]
    return [[state] + rest
            for nxt, moves in core._succ(state) if tuple(walk[:len(moves)]) == moves
            for rest in _paths(core, nxt, walk[len(moves):])]


def _checked(mp, searches):
    """Patch the free core so that every walk search also runs the
    reference, checks the two relations against each other and its walk
    against them, and every applied walk leaves the core flow feasible;
    searches collects (walk, reference walk) pairs."""
    find_walk, apply_walk = S._FreeCore._find_walk, S._FreeCore._apply_walk

    def checked_find(core, kappa):
        out, into = _edges(core)
        assert out == into
        walk = find_walk(core, kappa)
        ref, _labels = reference_walk.search(core, kappa, None)
        assert walk is not None or ref is None
        if walk is not None:
            # a walk of the search graph from the start that repeats no state
            start = (core.terms[kappa], kappa)
            assert any(len(set(p)) == len(p) for p in _paths(core, start, walk))
        searches.append((walk, ref))
        return walk

    def checked_apply(core, *args):
        result = apply_walk(core, *args)
        assert isinstance(result, bool)
        assert all(u <= c for u, c in zip(core.used, core.cap))
        assert all(w >= 0 for comp in core.flow.values() for w in comp.values())
        return result

    mp.setattr(S._FreeCore, "_find_walk", checked_find)
    mp.setattr(S._FreeCore, "_apply_walk", checked_apply)


def test_walk_search_matches_the_reference_on_free_imf_cores(monkeypatch):
    # free_imf on criterion-4 networks drives cores with 2 to 8 terminals
    searches = []
    _checked(monkeypatch, searches)
    for seed in range(1, 101):
        net = _criterion_4_network(seed)
        mf, _cuts = free_imf(net)
        assert mf is not None
    assert any(ref is not None for _walk, ref in searches)


def test_walk_search_matches_the_reference_on_corpus_cores(monkeypatch):
    searches = []
    _checked(monkeypatch, searches)
    for seed in range(1, 301):
        net, real = generate_network(seed, *corpus_params(seed))
        assert solve(net, real).value == dual_value(net, real), seed
    assert len(searches) >= 50
    assert any(walk != ref for walk, ref in searches if ref is not None)


def test_walk_search_labels_at_most_a_quarter_of_the_reference_states(monkeypatch):
    # the scale |S|=16 instance: every search labels states of a core with
    # about 2,000 vertices; count the states each side labels
    find_walk = S._FreeCore._find_walk
    goals, succ, pred = S._FreeCore._goals, S._FreeCore._succ, S._FreeCore._pred
    labelled = []  # per search: (states labelled, states the reference labels)

    def forward(core, state):
        for nxt, moves in succ(core, state):
            labelled[-1][0].setdefault(nxt)
            yield nxt, moves

    def backward(core, state):
        for prev, moves in pred(core, state):
            labelled[-1][1].setdefault(prev)
            yield prev, moves

    def ends(core):
        for state, moves in goals(core):
            labelled[-1][1].setdefault(state)
            yield state, moves

    def counted(core, kappa):
        seed = (core.terms[kappa], kappa)
        labelled.append(({seed: None}, {}, len(reference_walk.search(core, kappa, None)[1])))
        return find_walk(core, kappa)

    monkeypatch.setattr(S._FreeCore, "_goals", ends)
    monkeypatch.setattr(S._FreeCore, "_succ", forward)
    monkeypatch.setattr(S._FreeCore, "_pred", backward)
    monkeypatch.setattr(S._FreeCore, "_find_walk", counted)
    net, real = _performance_instance(8_416, 2000, 2000, 16)
    assert solve(net, real).value == dual_value(net, real)
    assert len(labelled) == 4
    mine = sum(len(fwd) + len(bwd) for fwd, bwd, _ref in labelled)
    reference = sum(ref for _fwd, _bwd, ref in labelled)
    assert 4 * mine <= reference, (mine, reference)


def test_walk_search_without_a_spare_arc_into_a_terminal_finds_nothing(e2):
    # a fresh core routes s1 -> x -> s2 or s3; the bulk flows then fill every
    # arc of the rotational triangle, so no state is one spare arrival from
    # the end of a walk
    net, _real = e2
    inet = intern(net)
    terms = sorted(inet.graph.ids.number[t] for t in net.terminals)
    core = S._FreeCore(inet, terms, S.SolveStats())
    walk = core._find_walk(0)
    assert [kind for kind, _a, _donor in walk] == ["fwd", "fwd"]
    assert len(walk) == len(reference_walk.search(core, 0, None)[0])
    core._bulk()
    assert all(u == c for u, c in zip(core.used, core.cap))
    assert list(core._goals()) == []
    for kappa in range(len(terms)):
        assert core._find_walk(kappa) is None
        assert reference_walk.search(core, kappa, None)[0] is None


def test_walk_search_stops_when_the_backward_side_runs_out():
    # the one goal, u before its arc into t, has no edge into it, and the
    # forward side holds two states when the backward side grows
    net = Network(Digraph.build(["s", "t", "u", "x1", "x2"],
                                [("a1", "s", "x1"), ("a2", "s", "x2"), ("a3", "x1", "x2"),
                                 ("a4", "x2", "x1"), ("a5", "u", "t")]),
                  ("s", "t"), {f"a{i}": 1 for i in range(1, 6)})
    inet = intern(net)
    terms = sorted(inet.graph.ids.number[t] for t in net.terminals)
    core = S._FreeCore(inet, terms, S.SolveStats())
    assert [state for state, _moves in core._goals()] == [(inet.graph.ids.number["u"], 0)]
    assert core._find_walk(0) is None
    assert reference_walk.search(core, 0, None)[0] is None
