"""The structured channel routes against their dense oracles.

Raw coefficient vectors with n = 2..8 come in four kinds, CP or not and TP
or not, by construction:

* CP: the Choi matrix is ``lead/n * I`` plus the Choi matrix of the other
  coefficients, whose norm is at most n times their largest magnitude;
  scaling them to ``lead/(n(n+1))`` keeps every eigenvalue above
  ``lead/(n(n+1))``.
* not CP: the first pair couples its two diagonal slots with weight 1
  (s = a = 1), while the diagonal block is scaled to 0.1, so both slots
  carry at most 0.85 and the 2 x 2 minor is negative.
* not TP: the leading coefficient is 0.5, 0.9, 1.1 or 1.5 instead of 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diagchan.channels import apply_channel, choi_matrix, is_trace_preserving
from diagchan.kraus import KrausSet, kraus_from_choi, reconstruction_residual
from diagchan.linalg import DEFAULT_TOL, max_norm
from diagchan.transitions import (
    diagonal_block_coefficients,
    transition_closed_form,
    transition_direct,
)

from oracles import (
    dense_apply,
    dense_choi,
    dense_is_trace_preserving,
    einsum_kraus_apply,
    unit_loop_residual,
)

ATOL = 1e-12


@st.composite
def raw_channels(draw):
    """(n, coefficient vector, cp, tp) for a raw vector of the drawn kind."""
    n = draw(st.integers(2, 8))
    cp, tp = draw(st.booleans()), draw(st.booleans())
    lead = 1.0 if tp else draw(st.sampled_from([0.5, 0.9, 1.1, 1.5]))
    rest = draw(hnp.arrays(np.float64, n * n - 1, elements=st.floats(-1.0, 1.0)))
    num_pairs = n * (n - 1) // 2
    if cp:
        rest *= lead / (n * (n + 1))
    else:
        rest[0] = rest[num_pairs] = 1.0
        rest[2 * num_pairs:] *= 0.1
    return n, np.concatenate([[lead], rest]), cp, tp


def random_matrix(rng, n, hermitian):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (m + m.conj().T) / 2 if hermitian else m


@settings(max_examples=60, deadline=None)
@given(raw_channels(), st.booleans(), st.integers(0, 2**32 - 1))
def test_structured_routes_match_dense_oracles(channel, hermitian, seed):
    n, coeffs, cp, tp = channel
    rng = np.random.default_rng(seed)

    dense = dense_choi(coeffs)
    lowest = np.linalg.eigvalsh(dense)[0]
    assert (lowest > 0.0) if cp else (lowest < -0.1)

    x = random_matrix(rng, n, hermitian)
    assert max_norm(apply_channel(coeffs, x) - dense_apply(coeffs, x)) <= ATOL
    assert max_norm(choi_matrix(coeffs) - dense) <= ATOL
    assert is_trace_preserving(coeffs) is tp
    assert dense_is_trace_preserving(coeffs, DEFAULT_TOL) is tp

    count = int(rng.integers(1, n * n + 1))
    ops = [random_matrix(rng, n, False) / n for _ in range(count)]
    kraus_sets = [KrausSet(n, tuple(ops), tuple(range(count)))]
    if cp:
        kraus_sets.append(kraus_from_choi(choi_matrix(coeffs)))
    for ks in kraus_sets:
        assert max_norm(ks.apply(x) - einsum_kraus_apply(ks, x)) <= ATOL
        assert abs(reconstruction_residual(ks, coeffs) - unit_loop_residual(ks, coeffs)) <= ATOL
    if cp:
        assert reconstruction_residual(kraus_sets[1], coeffs) <= 1e-10

    if tp:
        closed = transition_closed_form(diagonal_block_coefficients(coeffs), n)
        assert max_norm(transition_direct(coeffs) - closed) <= ATOL
