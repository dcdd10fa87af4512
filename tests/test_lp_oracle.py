"""The solver's value against the LP optimum of lp_oracle, which depends
on neither the paper's min-max theorem nor the max-flow kernel."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeflow import solve
from treeflow.documents import document_to_instance
from treeflow.generator import generate_instance, generate_network

from lp_oracle import assert_lp_optimal, lp_optimum
from test_acceptance import corpus_params


def test_lp_optimum_of_the_two_examples(e1, e2):
    assert lp_optimum(*e1) == 6
    assert lp_optimum(*e2) == 6


@pytest.mark.parametrize("block", range(4))
def test_solver_value_is_the_lp_optimum_on_every_fifth_corpus_seed(block):
    for seed in range(5 + 125 * block, 130 + 125 * block, 5):
        net, real = generate_network(seed, *corpus_params(seed))
        assert_lp_optimal(net, real, solve(net, real).value)


@settings(max_examples=40, deadline=None)
@given(st.builds(generate_instance, st.integers(0, 10**6), st.integers(3, 12),
                 st.integers(1, 8), st.integers(0, 4), st.integers(2, 5)))
def test_solver_value_is_the_lp_optimum_on_small_instances(doc):
    net, real = document_to_instance(doc)
    assert_lp_optimal(net, real, solve(net, real).value)


@pytest.mark.parametrize("seed", [100, 125, 275])
def test_a_value_off_by_one_step_is_rejected(seed):
    # every value is a multiple of 1/D: one step either way must fail
    net, real = generate_network(seed, *corpus_params(seed))
    value = solve(net, real).value
    step = Fraction(1, lcm(*(ell.denominator for ell in real.arc_length.values())))
    assert step < 1 and value.denominator > 1  # a fractional optimum
    assert_lp_optimal(net, real, value)
    for wrong in (value - step, value + step):
        with pytest.raises(AssertionError, match="differs from the LP optimum"):
            assert_lp_optimal(net, real, wrong)
