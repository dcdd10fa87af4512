"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every numeric comparison is exact rational equality except the two
wall-clock bounds of the scale check (10 seconds absolute, 2.5x for a
terminal-count doubling).  Run with `pytest tests/test_acceptance.py -v -s`
to see one pass line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from treeflow import (
    Certificate,
    Digraph,
    Network,
    RealizationTree,
    check_feasible,
    classify_terminal,
    dual_value,
    free_imf,
    max_flow,
    mu_value,
    normalize,
    pi_set,
    solve,
    tree_distance,
    verify_certificate,
)
from treeflow.generator import generate_network, superpose_walks

SEEDS = range(1, 501)


def corpus_params(seed):
    n = 10 + (seed % 20) * 9          # up to 181 vertices
    cycles = 3 + seed % 30
    pairs = seed % 8
    leaves = 2 + seed % 7             # 2..8
    return n, cycles, pairs, leaves


@pytest.fixture(scope="module")
def corpus():
    out = []
    for seed in SEEDS:
        n, cycles, pairs, leaves = corpus_params(seed)
        net, real = generate_network(seed, n, cycles, pairs, leaves)
        assert len(net.vertices) <= 200 and len(net.graph.arcs) <= 1000
        out.append((seed, net, real, solve(net, real)))
    return out


def test_criterion_1_primal_dual_equality(corpus):
    t0 = time.time()
    for seed, net, real, sol in corpus:
        assert sol.value == dual_value(net, real), f"seed {seed}"
    print(f"criterion 1 PASS: solve value == dual value on {len(corpus)} instances "
          f"({time.time() - t0:.1f}s for the dual sweep)")


def test_criterion_2_certificate_validity_and_mutation(corpus):
    for seed, net, real, sol in corpus:
        assert verify_certificate(net, real, sol.multiflow, sol.certificate) is None, f"seed {seed}"
    mutated = 0
    for seed, net, real, sol in corpus[::10]:
        if mutated >= 50:
            break
        for arc in sorted(sol.certificate.cuts, key=repr):
            pi = pi_set(real, net.terminals, arc)
            if pi.empty:
                continue
            s = sorted(pi.tail_side_terminals, key=repr)[0]
            bad = dict(sol.certificate.cuts)
            bad[arc] = frozenset(bad[arc] - {s})
            assert verify_certificate(net, real, sol.multiflow, Certificate(bad)) is not None, \
                f"seed {seed}: corrupted cut slipped through"
            mutated += 1
            break
    assert mutated == 50
    print(f"criterion 2 PASS: certificates verify on {len(corpus)} instances; "
          f"{mutated} single-cut corruptions all rejected")


def test_criterion_3_integrality_and_feasibility(corpus):
    for seed, net, real, sol in corpus:
        assert check_feasible(net, sol.multiflow) is None, f"seed {seed}"
        for p in sol.multiflow.paths:
            assert isinstance(p.weight, int) and p.weight > 0, f"seed {seed}"

    fixtures = []
    # zero capacities
    net = Network(Digraph.build(["s", "t"], [("a", "s", "t"), ("b", "t", "s")]),
                  ("s", "t"), {"a": 0, "b": 0})
    real = RealizationTree.build(["v1", "v2"], [("v1", "v2", 1, 1)],
                                 {"s": ["v1"], "t": ["v2"]})
    fixtures.append((net, real, Fraction(0)))
    # parallel and antiparallel arcs
    net = Network(Digraph.build(["s", "t"],
                                [("a", "s", "t"), ("b", "s", "t"), ("c", "t", "s")]),
                  ("s", "t"), {"a": 2, "b": 3, "c": 4})
    fixtures.append((net, real, None))
    # single terminal
    net1 = Network(Digraph.build(["s", "x"], [("a", "s", "x"), ("b", "x", "s")]),
                   ("s",), {"a": 5, "b": 5})
    real1 = RealizationTree.build(["v1"], [], {"s": ["v1"]})
    fixtures.append((net1, real1, Fraction(0)))
    # distances identically zero
    real0 = RealizationTree.build(["v1", "v2"], [("v1", "v2", 0, 0)],
                                  {"s": ["v1"], "t": ["v2"]})
    net0 = Network(Digraph.build(["s", "t"], [("a", "s", "t"), ("b", "t", "s")]),
                   ("s", "t"), {"a": 3, "b": 3})
    fixtures.append((net0, real0, Fraction(0)))

    for net, real, expect in fixtures:
        sol = solve(net, real)
        assert check_feasible(net, sol.multiflow) is None
        assert sol.value == dual_value(net, real)
        if expect is not None:
            assert sol.value == expect
    print(f"criterion 3 PASS: integral feasible output on {len(corpus)} generated "
          f"plus {len(fixtures)} adversarial fixtures")


def _star_real(terms):
    names = ["c"] + [f"l{i}" for i in range(len(terms))]
    edges = [(f"l{i}", "c", 1, 0) for i in range(len(terms))]
    subs = {t: [f"l{i}"] for i, t in enumerate(terms)}
    return RealizationTree.build(names, edges, subs)


def test_criterion_4_free_multiflow_identity():
    count = 0
    for seed in range(1, 101):
        rng = random.Random(90_000 + seed)
        n = 6 + seed % 25
        k = 2 + seed % 7
        verts = [f"x{i}" for i in range(n)]
        terms = verts[:k]
        arcs, caps = superpose_walks(rng, verts, 3 + seed % 12, seed % 7, terms)
        net = Network(Digraph.build(verts, arcs), tuple(terms), caps)
        mf, cuts = free_imf(net)
        total = sum(mf.component_value(net, p) for p in mf.pairs())
        expect = sum(max_flow(net, [t], [u for u in terms if u != t])[1] for t in terms)
        assert total == expect, f"seed {seed}: {total} != {expect}"
        # the star realization with unit one-way lengths gives the same number
        real = _star_real(terms)
        assert mu_value(real, mf) == total
        count += 1
    print(f"criterion 4 PASS: free multiflow value equals the cut sum on {count} instances")


def test_criterion_5_two_terminal_closed_form():
    count = 0
    for seed in range(1, 101):
        rng = random.Random(70_000 + seed)
        n = 4 + seed % 20
        verts = [f"x{i}" for i in range(n)]
        s, t = verts[0], verts[1]
        arcs, caps = superpose_walks(rng, verts, 2 + seed % 10, seed % 6, [s, t])
        net = Network(Digraph.build(verts, arcs), (s, t), caps)
        luv = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        lvu = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        real = RealizationTree.build(["v1", "v2"], [("v1", "v2", luv, lvu)],
                                     {s: ["v1"], t: ["v2"]})
        sol = solve(net, real)
        expect = luv * max_flow(net, [s], [t])[1] + lvu * max_flow(net, [t], [s])[1]
        assert sol.value == expect, f"seed {seed}"
        count += 1
    print(f"criterion 5 PASS: two-terminal closed form exact on {count} instances")


def test_criterion_6_normalization_soundness():
    linear_seen = high_degree_seen = bare_leaf_seen = 0
    for seed in range(1, 201):
        n = 6 + seed % 25
        net, real = generate_network(40_000 + seed, n, 3 + seed % 9, seed % 5,
                                     4 + seed % 5)
        if any(classify_terminal(real, t) == "linear" for t in net.terminals):
            linear_seen += 1
        adj = real.adjacency()
        if any(len(v) >= 4 for v in adj.values()):
            high_degree_seen += 1
        leaves = [v for v in real.vertices if len(adj[v]) == 1]
        occupied = {next(iter(real.subtrees[t])) for t in net.terminals
                    if len(real.subtrees[t]) == 1}
        if any(v not in occupied for v in leaves):
            bare_leaf_seen += 1
        before = dual_value(net, real)
        net1, real1, _rec = normalize(net, real)
        assert dual_value(net1, real1) == before, f"seed {seed}"
        net2, real2, rec2 = normalize(net1, real1)
        assert rec2.splits == [] and real2.arc_length == real1.arc_length, f"seed {seed}"
    assert linear_seen >= 20 and high_degree_seen >= 20 and bare_leaf_seen >= 20
    print(f"criterion 6 PASS: dual value preserved and idempotent on 200 instances "
          f"(linear {linear_seen}, degree>=4 {high_degree_seen}, bare leaves {bare_leaf_seen})")


def test_criterion_7_length_independence():
    palette = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 3)]
    count = 0
    for seed in range(1, 51):
        rng = random.Random(60_000 + seed)
        net, real = generate_network(60_000 + seed, 8 + seed % 14, 4 + seed % 8,
                                     seed % 5, 2 + seed % 5)
        # strictly positive lengths keep the terminal classification stable
        edges = [(u, v, rng.choice(palette), rng.choice(palette))
                 for (u, v) in real.edges()]
        real = RealizationTree.build(sorted(real.vertices), edges,
                                     {t: sorted(real.subtrees[t]) for t in net.terminals})
        sol = solve(net, real)
        for _trial in range(5):
            edges2 = [(u, v, rng.choice(palette), rng.choice(palette))
                      for (u, v) in real.edges()]
            real2 = RealizationTree.build(sorted(real.vertices), edges2,
                                          {t: sorted(real.subtrees[t]) for t in net.terminals})
            assert verify_certificate(net, real2, sol.multiflow, sol.certificate) is None
            assert mu_value(real2, sol.multiflow) == dual_value(net, real2)
        count += 1
    print(f"criterion 7 PASS: solutions stay optimal under 5 re-weightings "
          f"on {count} instances")


def _performance_instance(seed, n, cycles, k):
    rng = random.Random(seed)
    verts = [f"x{i}" for i in range(n)]
    terms = verts[:k]
    arcs, caps = superpose_walks(rng, verts, cycles, max(2, k // 2), terms)
    net = Network(Digraph.build(verts, arcs), tuple(terms), caps)
    return net, _star_real(terms)


def test_criterion_8_scale():
    net, real = _performance_instance(8_416, 2000, 2000, 16)
    m = len(net.graph.arcs)
    assert 6000 <= m <= 10000
    t0 = time.perf_counter()
    sol = solve(net, real)
    t16 = time.perf_counter() - t0
    assert t16 < 10.0, f"took {t16:.2f}s"
    assert verify_certificate(net, real, sol.multiflow, sol.certificate) is None

    net2, real2 = _performance_instance(8_432, 2000, 2000, 32)
    t0 = time.perf_counter()
    solve(net2, real2)
    t32 = time.perf_counter() - t0
    assert t32 <= 2.5 * max(t16, 0.05), f"{t32:.2f}s vs {t16:.2f}s"
    print(f"criterion 8 PASS: n=2000 m={m} |S|=16 in {t16:.2f}s; "
          f"|S|=32 in {t32:.2f}s (ratio {t32 / t16:.2f})")


def _prufer_tree(code, n):
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges = []
    import heapq
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _connected_subsets(n, adj):
    found = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            sub = set(combo)
            start = combo[0]
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in sub and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == sub:
                found.append(combo)
    return found


def test_criterion_9_pair_set_oracle():
    from test_realization import brute_pi_members

    palette = [0, 1, 2, Fraction(1, 2), 0, 3]
    cases = 0
    checked_arcs = 0
    for n in range(2, 9):
        codes = [()] if n == 2 else itertools.product(range(n), repeat=n - 2)
        step = {2: 1, 3: 1, 4: 1, 5: 1, 6: 14, 7: 260, 8: 6000}[n]
        for idx, code in enumerate(codes):
            if idx % step:
                continue
            edges = _prufer_tree(list(code), n)
            adj = {i: set() for i in range(n)}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            subsets = _connected_subsets(n, adj)
            elen = [(u, v, palette[(idx + k) % len(palette)],
                     palette[(idx + k + 3) % len(palette)])
                    for k, (u, v) in enumerate(edges)]
            combos = [(a, b) for a in subsets for b in subsets]
            density = {2: 1, 3: 1, 4: 1, 5: 50, 6: 30, 7: 20, 8: 12}[n]
            pick = max(1, len(combos) // density)
            for j in range(0, len(combos), pick):
                sub_s, sub_t = combos[j]
                real = RealizationTree.build(range(n), elen,
                                             {"s": sub_s, "t": sub_t})
                for arc in real.quasi_arcs():
                    got = pi_set(real, ["s", "t"], arc)
                    assert got.pairs == brute_pi_members(real, ["s", "t"], arc), \
                        (n, code, sub_s, sub_t, arc)
                    checked_arcs += 1
                cases += 1
    assert cases >= 10_000, cases
    print(f"criterion 9 PASS: pair sets match the minimal-path oracle on "
          f"{cases} tree/subtree cases ({checked_arcs} arcs)")
