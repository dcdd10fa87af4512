"""The position check of verify_certificate against the per-cut check,
which stays as its oracle: a solve's certificate read as tree positions
and the same certificate read as its derived per-edge cuts get the same
verdict, on solver output and on three mutants of it, over path,
caterpillar, spider and random trees."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from builders import make_net, make_real, shaped_tree
from treeflow import Certificate, TerminalPath, solve, verify_certificate
from treeflow.generator import random_connected_subtree, superpose_walks

MUTANTS = ["none", "moved-vertex", "terminal-outside", "lowered-path"]


def shaped_instance(rng, shape):
    """A valid instance on a tree of the given shape: simple terminals on
    distinct tree vertices, the open walks between them, and complex
    terminals, balanced by the closed walks alone."""
    n_tree = rng.randint(2, 12)
    tnames, adjacency, edges = shaped_tree(rng, shape, n_tree)
    vertices = [f"x{i}" for i in range(rng.randint(6, 14))]
    n_simple = rng.randint(2, min(4, n_tree))
    n_complex = rng.randint(0, 2)
    terms = rng.sample(vertices, n_simple + n_complex)
    subtrees = {s: [v] for s, v in zip(terms, rng.sample(tnames, n_simple))}
    for c in terms[n_simple:]:
        subtrees[c] = random_connected_subtree(rng, adjacency, rng.choice(tnames), rng.randint(2, n_tree))
    arcs, caps = superpose_walks(rng, vertices, rng.randint(1, 10), rng.randint(0, 5), terms[:n_simple])
    return make_net(vertices, arcs, terms, caps), make_real(tnames, edges, subtrees)


def mutate(rng, kind, net, real, paths, positions):
    """The mutant's flow and positions: one vertex moved to another tree
    vertex, one terminal placed outside its subtree, or one path lowered
    by a unit."""
    paths, positions = list(paths), dict(positions)
    if kind == "moved-vertex":
        v = rng.choice(sorted(positions))
        positions[v] = rng.choice(sorted(real.vertices - {positions[v]}))
    elif kind == "terminal-outside":
        placed = [s for s in net.terminals if real.subtrees[s] != real.vertices]
        if placed:
            s = rng.choice(placed)
            positions[s] = rng.choice(sorted(real.vertices - real.subtrees[s]))
    elif kind == "lowered-path" and paths:
        i = rng.randrange(len(paths))
        p = paths[i]
        paths[i:i + 1] = [TerminalPath(p.source, p.target, p.arcs, p.weight - 1)] if p.weight > 1 else []
    return paths, positions


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["path", "caterpillar", "spider", "random"]),
       st.sampled_from(MUTANTS))
def test_the_position_check_agrees_with_the_per_cut_check(rng, shape, kind):
    net, real = shaped_instance(rng, shape)
    out = solve(net, real)
    assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    paths, positions = mutate(rng, kind, net, real, out.multiflow.paths, out.certificate.positions)
    by_positions = verify_certificate(net, real, paths, Certificate(positions=positions))
    cuts = Certificate(positions=positions, real=real, terminals=net.terminals).cuts
    by_cuts = verify_certificate(net, real, paths, Certificate(cuts))
    assert (by_positions is None) == (by_cuts is None), (by_positions, by_cuts)


def test_each_mutant_is_rejected_by_both_checks():
    # s and t at the ends of a path tree, and a loop x <-> y beside the flow
    net = make_net(["s", "t", "x", "y"],
                   [("a", "s", "x"), ("b", "x", "t"), ("c", "t", "s"), ("d", "x", "y"), ("e", "y", "x")],
                   ["s", "t"], {"a": 2, "b": 2, "c": 1, "d": 1, "e": 1})
    real = make_real(["v1", "v2", "v3"], [("v1", "v2", 3, 0), ("v2", "v3", 1, 1)], {"s": ["v1"], "t": ["v3"]})
    out = solve(net, real)
    paths, positions = list(out.multiflow.paths), out.certificate.positions
    assert positions == {"s": "v1", "t": "v3", "x": "v3", "y": "v3"}
    cases = {  # moving x across the cuts leaves the loop's arcs crossing them empty
        "moved-vertex": (paths, dict(positions, x="v1"), "capacity"),
        "terminal-outside": (paths, dict(positions, s="v3"), "separation"),
        "lowered-path": ([TerminalPath(p.source, p.target, p.arcs, p.weight - (p.weight > 1)) for p in paths],
                         positions, "capacity"),
    }
    for kind, (flow, placed, expected) in cases.items():
        by_positions = verify_certificate(net, real, flow, Certificate(positions=placed))
        cuts = Certificate(positions=placed, real=real, terminals=net.terminals).cuts
        by_cuts = verify_certificate(net, real, flow, Certificate(cuts))
        assert by_positions is not None and by_positions.kind == expected, kind
        assert by_cuts is not None and by_cuts.kind == expected, kind


def test_a_path_that_recrosses_a_cut_is_a_crossing():
    # with x placed at v3 and y at v1, the path s -> x -> y -> t crosses
    # both cuts three times, while every arc stays saturated
    net = make_net(["s", "t", "x", "y"], [("a", "s", "x"), ("b", "x", "y"), ("c", "y", "t"), ("d", "t", "s")],
                   ["s", "t"], {"a": 1, "b": 1, "c": 1, "d": 1})
    real = make_real(["v1", "v2", "v3"], [("v1", "v2", 1, 1), ("v2", "v3", 1, 1)], {"s": ["v1"], "t": ["v3"]})
    out = solve(net, real)
    placed = dict(out.certificate.positions, x="v3", y="v1")
    cuts = Certificate(positions=placed, real=real, terminals=net.terminals).cuts
    for cert in (Certificate(positions=placed), Certificate(cuts)):
        issue = verify_certificate(net, real, out.multiflow, cert)
        assert issue is not None and issue.kind == "crossing"


def test_malformed_positions_are_separation_violations():
    net = make_net(["s", "t"], [("a1", "s", "t"), ("a2", "t", "s")], ["s", "t"], {"a1": 2, "a2": 1})
    real = make_real(["v1", "v2"], [("v1", "v2", 3, 0)], {"s": ["v1"], "t": ["v2"]})
    out = solve(net, real)
    for placed in ({"s": "v1"}, {"s": "v1", "t": "nowhere"}, {"s": "v1", "t": "v2", "u": "v1"}):
        issue = verify_certificate(net, real, out.multiflow, Certificate(positions=placed))
        assert issue is not None and issue.kind == "separation", placed


def test_seeded_shapes_exercise_every_mutant():
    # over fixed seeds, each mutant kind is rejected somewhere, so the
    # agreement above is not only over accepted certificates
    rejected = set()
    for seed in range(60):
        rng = random.Random(seed)
        shape = ["path", "caterpillar", "spider", "random"][seed % 4]
        net, real = shaped_instance(rng, shape)
        out = solve(net, real)
        for kind in MUTANTS[1:]:
            paths, positions = mutate(rng, kind, net, real, out.multiflow.paths, out.certificate.positions)
            if verify_certificate(net, real, paths, Certificate(positions=positions)) is not None:
                rejected.add(kind)
    assert rejected == set(MUTANTS[1:])
