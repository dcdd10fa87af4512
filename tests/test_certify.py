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
    verify_result,
)
from treeflow.generator import generate_network

from builders import make_net, make_real


def test_mu_value_empty():
    real = make_real(["v1", "v2"], [("v1", "v2", 3, 0)], {"s": ["v1"], "t": ["v2"]})
    assert mu_value(real, Multiflow()) == 0
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
    assert mu_value(real, Multiflow(tuple(paths))) == 6
    # weight summed per pair: two paths of one pair count like one path
    split = [TerminalPath("s1", "s2", ("a1", "a2"), 1), TerminalPath("s1", "s2", ("a1", "a2"), 2)]
    assert mu_value(real, split) == 6


def test_check_feasible():
    net = make_net(["s", "t"], [("a", "s", "t"), ("b", "s", "t")], ["s", "t"],
                   {"a": 1, "b": 1})
    assert check_feasible(net, Multiflow((TerminalPath("s", "t", ("a",), 1),))) is None
    assert check_feasible(net, Multiflow((TerminalPath("s", "t", ("a",), 2),))) == "a"
    both = Multiflow((TerminalPath("s", "t", ("a",), 1), TerminalPath("s", "t", ("b",), 1)))
    assert check_feasible(net, both) is None
    # walks of positive integer weight between distinct terminals
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
    # a forged pair: 2 units s->t and -2 units t->s; the negative path
    # lowers the load of a2, so the arc totals stay within capacity and
    # only the weight check can reject it
    net, _real = e1
    real = make_real(["v1", "v2"], [("v1", "v2", 0, 3)], {"s": ["v1"], "t": ["v2"]})
    back = TerminalPath("t", "s", ("a2",), -2)
    forged = Multiflow((TerminalPath("s", "t", ("a1",), 2), back))
    assert mu_value(real, forged) == -6 != dual_value(net, real) == 3
    assert check_feasible(net, forged) == back
    issue = verify_certificate(net, real, forged, Certificate({}))
    assert issue is not None and issue.kind == "infeasible"
    for w in (1.0, True, Fraction(1)):
        path = TerminalPath("s", "t", ("a1",), w)
        assert check_feasible(net, Multiflow((path,))) == path


def test_verify_zero_capacity_any_separating_cut():
    net = make_net(["s", "t"], [("a", "s", "t"), ("b", "t", "s")], ["s", "t"],
                   {"a": 0, "b": 0})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    cert = Certificate({("v1", "v2"): frozenset(["s"]), ("v2", "v1"): frozenset(["t"])})
    assert verify_certificate(net, real, Multiflow(), cert) is None


def test_verify_e1_and_negative_control(e1):
    net, real = e1
    out = solve(net, real)
    assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    # swapping one cut must be caught
    bad = dict(out.certificate.cuts)
    bad[("v1", "v2")] = frozenset(["t"])
    issue = verify_certificate(net, real, out.multiflow, Certificate(bad))
    assert issue is not None and issue.tree_arc == ("v1", "v2")


def test_verify_reads_an_unlisted_arc_as_the_complement(e1):
    net, real = e1
    both = [TerminalPath("s", "t", ("a1",), 2), TerminalPath("t", "s", ("a2",), 1)]
    for cuts in ({("v2", "v1"): frozenset(["t"])},
                 {("v1", "v2"): frozenset(["s"]), ("v2", "v1"): frozenset(["t"])}):
        assert verify_certificate(net, real, both, Certificate(cuts)) is None
    # the complement of {"s"} certifies (v2, v1): its leaving arc a2 is idle
    forward = [TerminalPath("s", "t", ("a1",), 2)]
    issue = verify_certificate(net, real, forward, Certificate({("v1", "v2"): frozenset(["s"])}))
    assert (issue.kind, issue.tree_arc, issue.detail) == ("capacity", ("v2", "v1"), "a2")
    issue = verify_certificate(net, real, both, Certificate({}))
    assert issue.kind == "missing-cut"


def test_verify_checks_feasibility_first(e1):
    net, real = e1
    out = solve(net, real)
    flow = Multiflow((TerminalPath("s", "t", ("a1",), 3),))  # above capacity
    issue = verify_certificate(net, real, flow, out.certificate)
    assert issue is not None and issue.kind == "infeasible"


def test_verify_result_checks_paths_certificate_and_stated_value(e1):
    net, real = e1
    out = solve(net, real)
    paths = out.multiflow.to_paths(net)
    assert verify_result(net, real, out.value, paths, out.certificate) is None
    assert verify_result(net, real, out.value, None, out.certificate).kind == "no-paths"
    issue = verify_result(net, real, out.value + 1, paths, out.certificate)
    assert issue.kind == "value"
    # a certificate violation comes before the value check
    issue = verify_result(net, real, out.value + 1, paths, Certificate({}))
    assert issue.kind == "missing-cut"


def _zigzag():
    # s -> y -> x -> t and back t -> x -> y -> s, one unit each
    net = make_net(["s", "t", "x", "y"],
                   [("a1", "s", "y"), ("a2", "y", "x"), ("a3", "x", "t"),
                    ("b1", "t", "x"), ("b2", "x", "y"), ("b3", "y", "s")],
                   ["s", "t"], {a: 1 for a in ("a1", "a2", "a3", "b1", "b2", "b3")})
    real = make_real(["v1", "v2"], [("v1", "v2", 1, 1)], {"s": ["v1"], "t": ["v2"]})
    return net, real


def test_verify_rejects_a_cut_holding_the_head_side():
    net, real = _zigzag()
    cert = Certificate({("v1", "v2"): frozenset(["s", "t"]), ("v2", "v1"): frozenset(["t", "s"])})
    issue = verify_certificate(net, real, [], cert)
    assert issue is not None and issue.kind == "separation"
    assert issue.detail == {("v1", "v2"): "t", ("v2", "v1"): "s"}[issue.tree_arc]


def test_verify_rejects_paths_crossing_a_cut_twice():
    # both paths zigzag through x and y, so each crosses both cuts three times
    net, real = _zigzag()
    cert = Certificate({("v1", "v2"): frozenset(["s", "x"]), ("v2", "v1"): frozenset(["t", "y"])})
    forward = TerminalPath("s", "t", ("a1", "a2", "a3"), 1)
    backward = TerminalPath("t", "s", ("b1", "b2", "b3"), 1)
    for flow, first in (([forward, backward], ("s", "t")), ([backward, forward], ("t", "s"))):
        assert check_feasible(net, flow) is None
        issue = verify_certificate(net, real, flow, cert)
        assert issue is not None and issue.kind == "crossing" and issue.detail == first


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
