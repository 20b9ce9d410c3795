import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from diagchan.channels import ChannelFamily, DiagonalChannel, family_parameter_range
from diagchan.transitions import (
    diagonal_block_coefficients,
    is_row_stochastic,
    transition_closed_form,
    transition_direct,
)
from diagchan.linalg import max_norm

from conftest import peak_bytes
from oracles import loop_transition_closed_form, loop_transition_direct


def identity_channel(n):
    return DiagonalChannel(n, np.ones(n * n))


# ----------------------------------------------------------------------
# direct extraction
# ----------------------------------------------------------------------

def test_fully_depolarizing_is_uniform():
    for n in (2, 5):
        ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, n, 0.0)
        assert_allclose(transition_direct(ch), np.full((n, n), 1.0 / n), atol=1e-14)


def test_identity_channel_gives_identity_matrix():
    assert_allclose(transition_direct(identity_channel(3)), np.eye(3), atol=1e-14)


def test_two_level_formula():
    p = 0.2
    ch = DiagonalChannel.from_family(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, 2, p)
    want = np.array([[(1 + p) / 2, (1 - p) / 2], [(1 - p) / 2, (1 + p) / 2]])
    assert max_norm(transition_direct(ch) - want) <= 1e-14


def test_direct_memory_is_quadratic():
    # The rows come from the n x n diagonal action: a few n x n arrays, and
    # no stack of n projectors of size n x n.
    n = 128
    coeffs = np.concatenate([[1.0], np.random.default_rng(3).uniform(-1.0, 1.0, n * n - 1)])
    assert peak_bytes(transition_direct, coeffs) < 6 * 8 * n * n


# ----------------------------------------------------------------------
# closed form
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda n: hnp.arrays(np.float64, n - 1, elements=st.floats(-1.0, 1.0))))
def test_closed_form_equals_entry_loop(t):
    n = t.size + 1
    assert np.array_equal(transition_closed_form(t, n), loop_transition_closed_form(t, n))


def test_closed_form_identity_coefficients():
    assert_allclose(transition_closed_form(np.ones(3), 4), np.eye(4), atol=1e-14)


def test_closed_form_zero_coefficients():
    assert_allclose(transition_closed_form(np.zeros(3), 4), np.full((4, 4), 0.25), atol=1e-14)


def test_closed_form_first_diagonal_entry_n3():
    p = 0.15
    got = transition_closed_form([p, p], 3)
    assert got[0, 0] == pytest.approx(1 / 3 + 2 * p / 3)


def test_closed_form_validates_length():
    with pytest.raises(ValueError, match="coefficients"):
        transition_closed_form([0.1, 0.2], 4)


@pytest.mark.parametrize("family", list(ChannelFamily))
@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_direct(family, n):
    lo, hi = family_parameter_range(family, n)
    for p in (lo, (lo + hi) / 2, hi):
        ch = DiagonalChannel.from_family(family, n, p)
        direct = transition_direct(ch)
        closed = transition_closed_form(diagonal_block_coefficients(ch), n)
        assert max_norm(direct - closed) <= 1e-12


# ----------------------------------------------------------------------
# stochasticity
# ----------------------------------------------------------------------

def test_valid_channels_give_stochastic_matrices():
    for family in ChannelFamily:
        lo, hi = family_parameter_range(family, 4)
        for p in (lo, (lo + hi) / 2, hi):
            ch = DiagonalChannel.from_family(family, 4, p)
            assert is_row_stochastic(transition_direct(ch))


def test_row_sums_hold_even_without_cp():
    # trace preservation alone fixes the row sums
    vec = np.array([1.0, 0.3, 0.3, 1.1])  # diagonal coefficient beyond 1
    p = transition_direct(vec)
    assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-12)
    assert not is_row_stochastic(p)
    assert p.min() == pytest.approx(-0.05)


def test_negative_entry_fails_stochasticity():
    assert not is_row_stochastic(np.array([[1.05, -0.05], [-0.05, 1.05]]))
    assert is_row_stochastic(np.eye(3))


def test_stochasticity_requires_unit_row_sums():
    assert not is_row_stochastic(transition_direct([0.9, 0.1, 0.1, 0.1]))


def test_markov_composition(rng):
    n = 4
    for _ in range(5):
        t1 = rng.uniform(-0.4, 0.9, n * n)
        t2 = rng.uniform(-0.4, 0.9, n * n)
        t1[0] = t2[0] = 1.0
        a = DiagonalChannel(n, t1)
        b = DiagonalChannel(n, t2)
        composed = transition_direct(a.compose(b))
        product = transition_direct(a) @ transition_direct(b)
        assert max_norm(composed - product) <= 1e-10


@pytest.mark.parametrize("p, shape", [(np.ones((2, 3)), "(2, 3)"), (np.ones(3), "(3,)")])
def test_row_stochastic_check_refuses_a_non_square_matrix(p, shape):
    with pytest.raises(ValueError) as error:
        is_row_stochastic(p)
    assert str(error.value) == f"expected a square matrix, got shape {shape}"


def test_closed_form_refuses_a_bad_dimension_or_a_non_finite_coefficient():
    with pytest.raises(ValueError, match="coefficients must be finite"):
        transition_closed_form([np.nan], 2)
    with pytest.raises(ValueError, match="dimension must be at least 2, got 1"):
        transition_closed_form([], 1)
    with pytest.raises(ValueError, match="dimension must be an integer, got 2.0"):
        transition_closed_form([0.1], 2.0)
