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
