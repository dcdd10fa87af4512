"""Star bases take the cut {z} of a lone contraction vertex z without a max
flow (solver._minimal_terminal_cuts).  The oracle runs the max flow that
was skipped and wants the same side, and a flow that fills z's out-arcs;
a star holding a complex terminal still runs every cut max flow."""

import pytest

import treeflow.solver as S
from treeflow import dual_value, solve, verify_certificate
from treeflow.generator import generate_network

from test_acceptance import _performance_instance, corpus_params
from test_solver import PINNED_WORK


def _checked_known_cuts(monkeypatch):
    """Wrap _minimal_terminal_cuts so that every group it answers from
    known also runs the counted max flow it skipped, on a stats record of
    its own, and asserts that the two agree.  Returns the list of checked
    contraction vertices."""
    checked = []
    minimal = S._minimal_terminal_cuts

    def oracle(net, groups, stats, known=frozenset()):
        cuts = minimal(net, groups, stats, known)
        g, cap = net.graph, net.cap
        for i, (group, (side, f)) in enumerate(zip(groups, cuts)):
            if len(group) != 1 or group[0] not in known:
                continue
            (z,) = group
            others = [u for j, other in enumerate(groups) if j != i for u in other]
            want_side, want_f = S._cut(net, group, others, S.SolveStats())
            assert side == want_side == frozenset({z})
            out_arcs = [e >> 1 for e in g.adj[z] if not e & 1]
            assert all(want_f[k] == cap[k] for k in out_arcs)
            assert f == [cap[k] if k in out_arcs else 0 for k in range(len(cap))]
            checked.append(z)
        return cuts

    monkeypatch.setattr(S, "_minimal_terminal_cuts", oracle)
    return checked


def _generated(count):
    """Generator instances with 2 to 12 leaves, up to 9 pairs and up to 3
    complex terminals."""
    for seed in range(2000, 2000 + count):
        yield generate_network(seed, 8 + seed % 30, 3 + seed % 11, seed % 10, 2 + seed % 11)


@pytest.mark.parametrize("case", ["corpus", "scale", "generated"])
def test_known_cuts_are_the_minimal_cuts_a_max_flow_finds(case, monkeypatch):
    # a star left with no arc runs no cut at all, so each case takes enough
    # instances to reach its floor: the corpus seeds 1 to 100 beside the
    # pinned ones, six criterion-8 seeds (a big star holds up to 3 known
    # groups) and 800 generated seeds
    if case == "corpus":
        seeds = sorted({*PINNED_WORK, *range(1, 101)})
        instances = [generate_network(seed, *corpus_params(seed)) for seed in seeds]
    elif case == "scale":
        instances = [_performance_instance(seed, 2000, 2000, 16) for seed in range(8_416, 8_422)]
    else:
        instances = list(_generated(800))
    checked = _checked_known_cuts(monkeypatch)
    for net, real in instances:
        out = solve(net, real)
        assert out.value == dual_value(net, real)
        assert verify_certificate(net, real, out.multiflow, out.certificate) is None
    assert len(checked) >= {"corpus": 50, "scale": 20, "generated": 1000}[case]


def test_a_star_with_a_complex_terminal_runs_every_cut_max_flow(monkeypatch):
    # a complex terminal may lie in a lone contraction vertex's minimal
    # cut, so in a star that holds one every group runs its max flow
    stars, current, cuts_run = [], [], [0]
    cut, base, minimal = S._cut, S.base_three_leaves, S._minimal_terminal_cuts

    def counted_cut(*args, **kwargs):
        cuts_run[0] += 1
        return cut(*args, **kwargs)

    def observed_base(net, tree, stats, known):
        subs = list(tree.subtrees.values())
        current[:] = [any(len(sub) > 1 for sub in subs),
                      any(t in known and subs.count(sub) == 1 for t, sub in tree.subtrees.items())]
        return base(net, tree, stats, known)

    def counted_minimal(net, groups, stats, known=frozenset()):
        before = cuts_run[0]
        cuts = minimal(net, groups, stats, known)
        stars.append((*current, len(groups), cuts_run[0] - before))  # (complex, lone z, groups, max flows)
        return cuts

    monkeypatch.setattr(S, "_cut", counted_cut)
    monkeypatch.setattr(S, "base_three_leaves", observed_base)
    monkeypatch.setattr(S, "_minimal_terminal_cuts", counted_minimal)
    for net, real in _generated(600):
        assert solve(net, real).value == dual_value(net, real)
    with_complex = [s for s in stars if s[0] and s[1]]
    assert len(with_complex) >= 100
    assert all(groups == flows for _c, _z, groups, flows in with_complex)
    # the same stars without a complex terminal skip the lone z's max flow
    assert any(flows < groups for c, z, groups, flows in stars if z and not c)
