import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from diagchan.linalg import (
    NotPositiveSemidefiniteError,
    as_complex_matrix,
    as_density_matrix,
    as_hermitian,
    dagger,
    frobenius_norm,
    hermitian_eigenvalues,
    hs_inner,
    matrix_unit,
    max_norm,
    psd_cholesky,
)

from conftest import random_complex, random_hermitian, random_psd

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def complex_matrices(n):
    elements = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.complex128, (n, n), elements=elements)


# ----------------------------------------------------------------------
# basic algebra
# ----------------------------------------------------------------------

def test_dagger_of_hermitian_matrix_is_itself():
    assert_allclose(dagger(PAULI_Y), PAULI_Y)


def test_dagger_conjugates_and_transposes():
    m = np.array([[1 + 2j, 3], [4j, 5 - 1j]])
    assert_allclose(dagger(m), np.array([[1 - 2j, -4j], [3, 5 + 1j]]))


def test_trace_of_identity():
    assert np.trace(np.eye(3)) == 3


def test_matrix_unit_product():
    e12 = matrix_unit(2, 0, 1)
    e21 = matrix_unit(2, 1, 0)
    assert_allclose(e12 @ e21, matrix_unit(2, 0, 0))


def test_max_norm_and_frobenius():
    m = np.array([[3, -4j], [0, 0]])
    assert max_norm(m) == 4.0
    assert frobenius_norm(m) == 5.0


def test_as_complex_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix([[np.nan, 0], [0, 0]])
    with pytest.raises(ValueError, match="2-D"):
        as_complex_matrix([1, 2, 3])


# ----------------------------------------------------------------------
# Kronecker products
# ----------------------------------------------------------------------

def test_kron_of_identities():
    assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_places_blocks():
    m = random_complex(np.random.default_rng(7), 3)
    out = np.kron(matrix_unit(2, 0, 0), m)
    assert_allclose(out[:3, :3], m)
    assert max_norm(out[3:, :]) == 0.0
    assert max_norm(out[:, 3:]) == 0.0


def test_kron_of_diagonals():
    out = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_mixed_product_property(rng):
    for _ in range(10):
        a, b, c, d = (random_complex(rng, 3) for _ in range(4))
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert max_norm(lhs - rhs) <= 1e-12 * max(1.0, max_norm(rhs))


# ----------------------------------------------------------------------
# Hilbert-Schmidt inner product
# ----------------------------------------------------------------------

def test_hs_inner_pauli_orthogonality():
    assert hs_inner(PAULI_X, PAULI_Y) == 0


def test_hs_inner_identity():
    for n in (2, 3, 5):
        assert hs_inner(np.eye(n), np.eye(n)) == pytest.approx(n)


def test_hs_inner_normalized_pauli():
    e = PAULI_X / np.sqrt(2)
    assert hs_inner(e, e) == pytest.approx(1.0)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        hs_inner(np.eye(2), np.eye(3))


@settings(max_examples=50, deadline=None)
@given(complex_matrices(3), complex_matrices(3))
def test_hs_inner_conjugate_symmetry(a, b):
    lhs = hs_inner(a, b)
    rhs = np.conj(hs_inner(b, a))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


# ----------------------------------------------------------------------
# Hermitian validation and eigenvalues
# ----------------------------------------------------------------------

def test_as_hermitian_symmetrizes_exactly(rng):
    h = random_hermitian(rng, 4) + 1e-14 * random_complex(rng, 4)
    out = as_hermitian(h)
    assert max_norm(out - dagger(out)) == 0.0


def test_as_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        as_hermitian([[0, 1], [0, 0]])


def test_eigenvalues_of_pauli_z():
    assert_allclose(hermitian_eigenvalues(PAULI_Z), [-1.0, 1.0])


def test_eigenvalues_of_scaled_identity():
    assert_allclose(hermitian_eigenvalues(np.eye(4) / 2), [0.5] * 4)


def test_eigenvalues_of_maximally_entangled_projector():
    # sum_ij E_ij (x) E_ij for n=2 is rank one with a single eigenvalue n.
    n = 2
    m = sum(np.kron(matrix_unit(n, i, j), matrix_unit(n, i, j))
            for i in range(n) for j in range(n))
    assert_allclose(hermitian_eigenvalues(m), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_eigenvalue_sum_matches_trace(rng):
    for n in (2, 4, 8):
        h = random_hermitian(rng, n)
        total = float(np.sum(hermitian_eigenvalues(h)))
        assert total == pytest.approx(float(np.trace(h).real), abs=1e-10 * max_norm(h) * n)


def test_ascending_order(rng):
    w = hermitian_eigenvalues(random_hermitian(rng, 6))
    assert np.all(np.diff(w) >= 0)


# ----------------------------------------------------------------------
# density matrix validation
# ----------------------------------------------------------------------

def test_as_density_matrix_accepts_pure_state():
    assert_allclose(as_density_matrix(matrix_unit(2, 0, 0)), matrix_unit(2, 0, 0))


def test_as_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        as_density_matrix(np.eye(2))


def test_as_density_matrix_rejects_indefinite():
    with pytest.raises(ValueError, match="semidefinite"):
        as_density_matrix(np.diag([1.5, -0.5]))


# ----------------------------------------------------------------------
# semidefinite Cholesky
# ----------------------------------------------------------------------

def test_cholesky_two_by_two():
    r = psd_cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert_allclose(r, [[2.0, 1.0], [0.0, 2.0]])


def test_cholesky_identity():
    for n in (2, 5):
        assert_allclose(psd_cholesky(np.eye(n)), np.eye(n))


def test_cholesky_rank_one_zero_pivot():
    r = psd_cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert_allclose(r, [[1.0, 1.0], [0.0, 0.0]])


def test_cholesky_rejects_indefinite():
    h = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert hermitian_eigenvalues(h)[0] == pytest.approx(-1.0)
    with pytest.raises(NotPositiveSemidefiniteError):
        psd_cholesky(h)


def test_cholesky_at_zero_tolerance_divides_no_zero_by_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # A zero remainder entry over a zero later diagonal imposes no bound.
        h = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert_allclose(psd_cholesky(h, 0.0), h)
        # A nonzero one over a zero later diagonal needs an infinite pivot.
        with pytest.raises(NotPositiveSemidefiniteError, match="index 0 is too small.*needs inf"):
            psd_cholesky(np.array([[1.0, 0.5], [0.5, 0.0]]), 0.0)


def test_cholesky_at_zero_tolerance_refuses_a_zero_root_under_a_nonzero_remainder():
    # Determinant -1e-340: not PSD. The remainder's square underflows, so the
    # least pivot reads 0 and a zero root would have to carry 1e-170.
    h = np.array([[0.0, 1e-170], [1e-170, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        message = (r"pivot 0\.000000e\+00 at index 0 is too small for its row remainder"
                   r" \(max 1\.000000e-170; needs a positive pivot\)")
        with pytest.raises(NotPositiveSemidefiniteError, match=message):
            psd_cholesky(h, 0.0)


def test_cholesky_zero_matrix():
    assert max_norm(psd_cholesky(np.zeros((3, 3)))) == 0.0


def test_cholesky_structure(rng):
    h = random_psd(rng, 6)
    r = psd_cholesky(h)
    below = r[np.tril_indices(6, k=-1)]
    assert max_norm(below) == 0.0
    diag = np.diag(r)
    assert max_norm(diag.imag) == 0.0
    assert np.all(diag.real >= 0.0)


def test_cholesky_reconstructs_random_psd(rng):
    for n in (2, 3, 5, 8):
        for rank in (n, max(1, n // 2)):
            h = random_psd(rng, n, rank)
            r = psd_cholesky(h)
            assert max_norm(dagger(r) @ r - h) <= 1e-10 * max_norm(h)


def test_cholesky_succeeds_iff_psd(rng):
    tol = 1e-10
    for trial in range(40):
        n = int(rng.integers(2, 7))
        h = random_psd(rng, n, int(rng.integers(1, n + 1))) if trial % 2 == 0 \
            else random_hermitian(rng, n)
        lo = float(hermitian_eigenvalues(h)[0])
        scale = max_norm(h)
        if lo >= -tol * scale:
            psd_cholesky(h, tol)
        else:
            with pytest.raises(NotPositiveSemidefiniteError):
                psd_cholesky(h, tol)


def _near_rank_one(eps):
    """``eps`` everywhere but a 1 at (0, 1): ``b^* b`` has a pivot near eps^2
    whose row still carries entries near eps."""
    b = np.full((4, 4), eps, dtype=complex)
    b[0, 1] = 1.0
    return b


def test_cholesky_keeps_small_pivot_with_large_remainder():
    # Gram matrix of four unit vectors, the third 4e-6 from the span of the
    # first two: its third pivot is near 1e-12, its row remainder near 1e-6.
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([np.cos(0.7), np.sin(0.7), 0.0, 0.0])
    v3 = 0.6 * v1 + 0.5 * v2 + np.array([0.0, 0.0, 4e-6, 0.0])
    v4 = np.array([0.0, 0.3, 0.8, 0.5])
    vs = np.stack([v / np.linalg.norm(v) for v in (v1, v2, v3, v4)])
    h = vs @ vs.T / 4.0
    r = psd_cholesky(h)
    assert max_norm(dagger(r) @ r - h) <= 1e-10 * max_norm(h)
    assert np.all(np.diag(r).real > 0.0)


@settings(max_examples=40, deadline=None)
@given(complex_matrices(4))
@example(_near_rank_one(1.19e-7))
@example(_near_rank_one(5.96e-8))
@example(_near_rank_one(1.44158746e-09))
def test_cholesky_reconstructs_hypothesis_psd(b):
    h = b.conj().T @ b
    r = psd_cholesky(h)
    assert max_norm(r.conj().T @ r - h) <= 1e-10 * max(1.0, max_norm(h))
