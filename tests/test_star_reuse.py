"""Star bases whose every side is its one terminal run their free core on
the level network itself (solver._free_imf_paths): no contraction, region
repair or stitching.  There a core's first bulk flow is the max flow that
found its first terminal's cut, and a core that needed no augmenting walk
emits the paths its bulk phase peeled.  The oracles run the skipped max
flow again, count the skipped steps where they must still run, and sum
the emitted paths against the core's arc functions."""

from collections import Counter

import pytest

import treeflow.solver as S
from treeflow import dual_value, solve, verify_certificate
from treeflow.generator import generate_network

from test_acceptance import _performance_instance, corpus_params
from test_known_cuts import _generated
from test_solver import PINNED_WORK


def _corpus(seeds):
    return [generate_network(seed, *corpus_params(seed)) for seed in seeds]


def _checked(instances):
    for net, real in instances:
        out = solve(net, real)
        assert out.value == dual_value(net, real)
        assert verify_certificate(net, real, out.multiflow, out.certificate) is None


@pytest.mark.parametrize("case", ["corpus", "scale", "generated"])
def test_a_reused_first_bulk_flow_is_the_max_flow_it_skips(case, monkeypatch):
    # the wrapper runs the skipped max flow on a stats record of its own
    # and wants the reused flow arc for arc, and its cut the terminal alone
    if case == "corpus":
        instances = _corpus(sorted({*PINNED_WORK, *range(1, 101)}))
    elif case == "scale":
        instances = [_performance_instance(seed, 2000, 2000, 16) for seed in range(8_416, 8_422)]
    else:
        instances = list(_generated(400))
    checked = []
    bulk = S._FreeCore._bulk

    def oracle(core):
        if core.first is not None:
            t = core.terms[0]
            net = S.IntNetwork(core.graph, core.cap)
            side, want = S._cut(net, [t], core.terms[1:], S.SolveStats())
            assert side == frozenset({t})
            assert core.first == want
            checked.append(t)
        bulk(core)

    monkeypatch.setattr(S._FreeCore, "_bulk", oracle)
    _checked(instances)
    # the stars of criterion-8 instances hold only contraction vertices,
    # whose cut flows are fillers with no max flow behind them, so there
    # the wrapper only shows that such stars stay exact and reuse nothing
    assert len(checked) >= {"corpus": 80, "scale": 0, "generated": 400}[case]


def _observed_stars(monkeypatch):
    """Wrap _free_imf_paths and the steps a direct star skips; each call
    appends (direct, repairs, joins, contractions) to the returned list,
    where direct means every side is one vertex and nothing is expelled."""
    stars, counts = [], Counter()
    free, repair, join, contract = S._free_imf_paths, S.repair_three_leaves, S._join_on_arc, S.contract

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def observed(net, groups, cuts, misplaced, stats, known=frozenset()):
        counts.clear()
        out = free(net, groups, cuts, misplaced, stats, known)
        direct = not misplaced and all(len(side) == 1 for side, _f in cuts)
        stars.append((direct, bool(misplaced), counts["repair"], counts["join"], counts["contract"], len(groups)))
        return out

    monkeypatch.setattr(S, "_free_imf_paths", observed)
    monkeypatch.setattr(S, "repair_three_leaves", counted("repair", repair))
    monkeypatch.setattr(S, "_join_on_arc", counted("join", join))
    monkeypatch.setattr(S, "contract", counted("contract", contract))
    return stars


def test_a_star_with_a_larger_side_or_a_misplaced_terminal_still_repairs_and_stitches(monkeypatch):
    stars = _observed_stars(monkeypatch)
    _checked([*_corpus(range(1, 101)), *_generated(300)])
    contracted = [s for s in stars if not s[0]]
    # one contraction, one repair per region and the two stitching passes
    assert all((repairs, joins, contractions) == (groups, 2, 1)
               for _d, _m, repairs, joins, contractions, groups in contracted)
    assert sum(1 for s in contracted if s[1]) >= 60  # a misplaced complex terminal
    assert sum(1 for s in contracted if not s[1]) >= 80  # a side larger than its terminal
    direct = [s for s in stars if s[0]]
    assert len(direct) >= 100
    assert all(s[2:5] == (0, 0, 0) for s in direct)


def _observed_cores(monkeypatch):
    """Per _free_imf_paths call: (walk-free, re-peels, the core that ran,
    its flow keyed by terminal vertices, the paths returned, direct).  A
    re-peel is a decompose call on one pair's arc function of the core's
    flow."""
    calls, flows = [], []
    free, run, split, decompose = S._free_imf_paths, S._FreeCore.run, S._core_by_splitting, S.decompose
    peeled = Counter()

    def logged_run(core):
        flow = run(core)
        if flow is not None:
            flows.append((core, {(core.terms[i], core.terms[j]): comp for (i, j), comp in flow.items()}))
        return flow

    def logged_split(net, terms, stats):
        flow = split(net, terms, stats)
        flows.append((None, {(terms[i], terms[j]): comp for (i, j), comp in flow.items()}))
        return flow

    def logged_decompose(g, f, *args):
        if flows and any(f is comp for comp in flows[-1][1].values()):
            peeled["pairs"] += 1
        return decompose(g, f, *args)

    def observed(net, groups, cuts, misplaced, stats, known=frozenset()):
        flows.clear()
        peeled.clear()
        paths, sides = free(net, groups, cuts, misplaced, stats, known)
        core, flow = flows[-1]
        direct = not misplaced and all(len(side) == 1 for side, _f in cuts)
        calls.append((core is not None and core.paths is not None, peeled["pairs"], core, flow, paths, direct))
        return paths, sides

    monkeypatch.setattr(S, "_free_imf_paths", observed)
    monkeypatch.setattr(S._FreeCore, "run", logged_run)
    monkeypatch.setattr(S, "_core_by_splitting", logged_split)
    monkeypatch.setattr(S, "decompose", logged_decompose)
    return calls


def _by_pair(paths):
    sums = {}
    for s, t, arcs, w in paths:
        comp = sums.setdefault((s, t), Counter())
        for a in arcs:
            comp[a] += w
    return sums


def test_a_walk_free_core_emits_its_bulk_paths(monkeypatch):
    calls = _observed_cores(monkeypatch)
    _checked([*_corpus(range(1, 101)), *_generated(200)])
    walk_free = [c for c in calls if c[0]]
    assert len(walk_free) >= 200
    for _free, repeels, core, flow, paths, direct in walk_free:
        assert repeels == 0
        want = {pair: Counter(comp) for pair, comp in flow.items() if comp}
        assert _by_pair(core.paths) == want
        if direct:  # the star returns the core's paths, in arc numbers
            arcs = core.graph.arcs
            assert _by_pair(paths) == {pair: Counter({arcs[k]: w for k, w in comp.items()})
                                       for pair, comp in want.items()}
    assert sum(1 for c in walk_free if c[5]) >= 100


@pytest.mark.parametrize("seed", [25, 80, 239])
def test_a_core_that_walks_or_falls_back_peels_each_pair(seed, monkeypatch):
    # seeds 25 and 80 run augmenting walks, seed 239 falls back to splitting
    calls = _observed_cores(monkeypatch)
    _checked(_corpus([seed]))
    walked = [c for c in calls if not c[0]]
    assert walked
    for _free, repeels, _core, flow, _paths, _direct in walked:
        assert repeels == len(flow) > 0
