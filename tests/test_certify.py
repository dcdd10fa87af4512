import random
from fractions import Fraction

from treeflow import (
    Certificate,
    Multiflow,
    TerminalPath,
    check_feasible,
    dual_value,
    mu_value,
    solve,
    verify_certificate,
)
from treeflow.generator import generate_network

from conftest import make_net, make_real


def test_mu_value_empty():
    real = make_real(["v1", "v2"], [("v1", "v2", 3, 0)], {"s": ["v1"], "t": ["v2"]})
    net = make_net(["s", "t"], [("a", "s", "t")], ["s", "t"], {"a": 1})
    assert mu_value(real, Multiflow({}), net) == 0
    assert mu_value(real, []) == 0


def test_mu_value_single_path():
    real = make_real(["v1", "v2"], [("v1", "v2", 3, 0)], {"s": ["v1"], "t": ["v2"]})
    assert mu_value(real, [TerminalPath("s", "t", ("a",), 1)]) == 3


def test_mu_value_e2_solution(e2):
    net, real = e2
    paths = [TerminalPath("s1", "s2", ("a1", "a2"), 1),
             TerminalPath("s2", "s3", ("a3", "a4"), 1),
             TerminalPath("s3", "s1", ("a5", "a6"), 1)]
    assert mu_value(real, paths) == 6
    assert mu_value(real, Multiflow.from_paths(net, paths), net) == 6


def test_check_feasible():
    net = make_net(["s", "t"], [("a", "s", "t"), ("b", "s", "t")], ["s", "t"],
                   {"a": 1, "b": 1})
    assert check_feasible(net, Multiflow({("s", "t"): {"a": 1}})) is None
    assert check_feasible(net, Multiflow({("s", "t"): {"a": 2}})) == "a"
    both = Multiflow({("s", "t"): {"a": 1, "b": 1}})
    assert check_feasible(net, both) is None
    # a path packing: walks of positive integer weight between distinct terminals
    assert check_feasible(net, [TerminalPath("s", "t", ("a",), 1)]) is None
    assert check_feasible(net, [TerminalPath("s", "t", ("a",), 1),
                                TerminalPath("s", "t", ("a",), 1)]) == "a"
    assert check_feasible(net, [TerminalPath("s", "t", ("zz",), 1)]) == "zz"
    for bad in [TerminalPath("s", "t", (), 1),           # no arcs
                TerminalPath("t", "s", ("a",), 1),       # arcs run the other way
                TerminalPath("s", "s", ("a",), 1),       # equal endpoints
                TerminalPath("s", "x", ("a",), 1),       # not a terminal
                TerminalPath("s", "t", ("a",), 0),
                TerminalPath("s", "t", ("a",), -1),
                TerminalPath("s", "t", ("a",), True)]:
        assert check_feasible(net, [bad]) == bad


def test_check_feasible_rejects_negative_component_entries(e1):
    # a -2 entry in the t->s component cancels the s->t flow on a1 in the
    # totals, yet the pair would count 2 units at distance 3
    net, _real = e1
    real = make_real(["v1", "v2"], [("v1", "v2", 0, 3)], {"s": ["v1"], "t": ["v2"]})
    forged = Multiflow({("s", "t"): {"a1": 2}, ("t", "s"): {"a1": -2}})
    assert mu_value(real, forged, net) == 6 != dual_value(net, real) == 3
    assert check_feasible(net, forged) == "a1"
    assert verify_certificate(net, real, forged, Certificate({})) is not None
    for w in (1.0, True, Fraction(1)):
        assert check_feasible(net, Multiflow({("s", "t"): {"a1": w}})) == "a1"


def test_verify_zero_capacity_any_separating_cut():
    net = make_net(["s", "t"], [("a", "s", "t"), ("b", "t", "s")], ["s", "t"],
                   {"a": 0, "b": 0})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    cert = Certificate({("v1", "v2"): frozenset(["s"]), ("v2", "v1"): frozenset(["t"])})
    assert verify_certificate(net, real, Multiflow({}), cert) is None


def test_verify_e1_and_negative_control(e1):
    net, real = e1
    out = solve(net, real)
    assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    # swapping one cut must be caught
    bad = dict(out.certificate.cuts)
    bad[("v1", "v2")] = frozenset(["t"])
    issue = verify_certificate(net, real, out.multiflow, Certificate(bad))
    assert issue is not None and issue.tree_arc == ("v1", "v2")


def test_verify_checks_feasibility_first(e1):
    net, real = e1
    out = solve(net, real)
    flow = Multiflow({("s", "t"): {"a1": 3}})  # above capacity
    issue = verify_certificate(net, real, flow, out.certificate)
    assert issue is not None and issue.kind == "infeasible"


def test_dual_value_examples(e1, e2):
    net1, real1 = e1
    assert dual_value(net1, real1) == 6
    net2, real2 = e2
    assert dual_value(net2, real2) == 6
    zero = make_real(["v1", "v2"], [("v1", "v2", 0, 0)], {"s": ["v1"], "t": ["v2"]})
    assert dual_value(net1, zero) == 0


def test_dual_value_monotone_in_capacity_and_length():
    rng = random.Random(17)
    for _ in range(15):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 6, 3, 2, 3)
        base = dual_value(net, real)
        # raise one capacity
        arcs = net.graph.arcs
        if arcs:
            aid = arcs[rng.randrange(len(arcs))].id
            caps = dict(net.capacity)
            caps[aid] += 3
            net_up = make_net(sorted(net.vertices),
                              [(a.id, a.tail, a.head) for a in arcs],
                              net.terminals, caps)
            assert dual_value(net_up, real) >= base
        # raise one length
        edges = real.edges()
        u, v = edges[rng.randrange(len(edges))]
        bumped = []
        for (x, y) in edges:
            luv = real.arc_length[(x, y)] + (1 if (x, y) == (u, v) else 0)
            bumped.append((x, y, luv, real.arc_length[(y, x)]))
        real_up = make_real(sorted(real.vertices), bumped,
                            {t: sorted(real.subtrees[t]) for t in net.terminals})
        assert dual_value(net, real_up) >= base


def test_capacity_corruption_on_cut_arcs_detected():
    # nudging the capacity of any arc leaving a certificate cut breaks
    # either feasibility or exact saturation
    rng = random.Random(37)
    checked = 0
    for _ in range(8):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 8, 4, 2, 3)
        out = solve(net, real)
        for arc, side in sorted(out.certificate.cuts.items(), key=lambda kv: repr(kv[0])):
            cut_arcs = [a for a in net.graph.arcs
                        if a.tail in side and a.head not in side and net.capacity[a.id] > 0]
            if not cut_arcs:
                continue
            target = cut_arcs[0]
            for delta in (+1, -1):
                caps = dict(net.capacity)
                caps[target.id] += delta
                corrupted = make_net(sorted(net.vertices),
                                     [(a.id, a.tail, a.head) for a in net.graph.arcs],
                                     net.terminals, caps)
                assert verify_certificate(corrupted, real, out.multiflow,
                                          out.certificate) is not None
            checked += 1
            break
    assert checked >= 4


def test_mutation_of_certificate_capacity_detected():
    rng = random.Random(29)
    hits = 0
    for _ in range(10):
        seed = rng.randrange(10**6)
        net, real = generate_network(seed, 8, 4, 2, 3)
        out = solve(net, real)
        if out.value == 0:
            continue
        # move one separated terminal across its cut
        for arc, side in sorted(out.certificate.cuts.items(), key=lambda kv: repr(kv[0])):
            from treeflow import pi_set
            pi = pi_set(real, net.terminals, arc)
            if pi.empty:
                continue
            s = sorted(pi.tail_side_terminals, key=repr)[0]
            corrupted = dict(out.certificate.cuts)
            corrupted[arc] = frozenset(side - {s})
            assert verify_certificate(net, real, out.multiflow, Certificate(corrupted)) is not None
            hits += 1
            break
    assert hits >= 5
