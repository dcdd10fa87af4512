"""The scipy cut oracle (cut_oracle.py) against dual_value and the
solver's value.  The oracle shares no code with either, so a fault in
what they share (pi_set, the tree index, interning, max flow) shows here."""

import pytest

import cut_oracle
from treeflow import dual_value, solve
from treeflow.generator import generate_network

from test_acceptance import corpus_params
from test_direct_arcs import path_tree


def _cases(name, request):
    if name == "corpus":  # every 5th corpus seed
        return [generate_network(seed, *corpus_params(seed)) for seed in range(5, 501, 5)]
    if name == "path tree":
        return [path_tree(100)]
    return [request.getfixturevalue(name)]


@pytest.mark.parametrize("name", ["e1", "e2", "corpus", "path tree"])
def test_the_cut_oracle_agrees_with_dual_value_and_the_solver(name, request):
    for net, real in _cases(name, request):
        assert cut_oracle.dual_value(net, real) == dual_value(net, real) == solve(net, real).value


def test_dual_value_runs_one_max_flow_per_distinct_pair_set(monkeypatch):
    # tree arcs with the same pair set A x B have the same minimum cut, so
    # dual_value runs one max flow for them all; corpus trees are not
    # normalized, and their chains repeat pair sets, where the oracle,
    # which runs one per arc, must still agree
    import treeflow.certify as C
    from treeflow.realization import pi_set

    runs, max_flow = [0], C.max_flow

    def counted(*args, **kwargs):
        runs[0] += 1
        return max_flow(*args, **kwargs)

    monkeypatch.setattr(C, "max_flow", counted)
    arcs = distinct = 0
    for net, real in _cases("corpus", None):
        runs[0] = 0
        assert dual_value(net, real) == cut_oracle.dual_value(net, real)
        pis = [pi_set(real, net.terminals, a) for a, ell in real.arc_length.items() if ell]
        pis = [pi for pi in pis if not pi.empty]
        arcs += len(pis)
        distinct += runs[0]
        assert runs[0] == len({(pi.tail_side_terminals, pi.head_side_terminals) for pi in pis})
    assert arcs >= distinct + 100
