import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from diagchan.channels import choi_matrix, is_completely_positive, is_trace_preserving
from diagchan.kraus import kraus_from_channel, kraus_from_choi
from diagchan.linalg import (
    NotPositiveSemidefiniteError,
    _pair_cholesky,
    _sparse_gram,
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
from diagchan.transitions import is_row_stochastic

from conftest import random_complex, random_hermitian, random_psd
from oracles import eigvalsh_density_matrix, gemm_gram, loop_psd_cholesky

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frobenius_norm_of_finite_input_is_finite_without_a_warning():
    # The squares overflow: in a real sum to inf, in a complex one to NaN.
    # Either is taken again on the matrix scaled by its largest magnitude.
    # vdot must not warn of the overflow, for contiguous and strided input
    # alike: a numpy that does fails here.
    assert frobenius_norm([[1e200, 1e200]]) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    huge = np.full((8, 8), 1e200 + 1e200j)
    for a, count in ((huge, 64), (huge.T, 64), (huge[::2, ::3], 12)):
        assert frobenius_norm(a) == pytest.approx(np.sqrt(2.0 * count) * 1e200, rel=1e-15)
    assert frobenius_norm([[1e308, 1e308]]) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
    # Only a norm beyond the float range, or an inf or NaN entry, is not finite.
    assert frobenius_norm([[1.5e308, 1.5e308]]) == np.inf
    assert frobenius_norm([[np.inf, 1.0]]) == np.inf
    assert np.isnan(frobenius_norm([[np.nan, 1.0]]))
    # The density-matrix check's rounding bound reads the norm.
    with pytest.raises(ValueError, match="semidefinite: minimum eigenvalue -1.000e"):
        as_density_matrix([[0.5, 1e308], [1e308, 0.5]])


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


def test_as_hermitian_rejects_a_non_square_matrix():
    with pytest.raises(ValueError) as error:
        as_hermitian(np.ones((2, 3)))
    assert str(error.value) == "Hermitian matrix must be square, got shape (2, 3)"


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


def outcome(check, m, trace_atol, eig_atol):
    """The bytes of the matrix ``check`` returns, or the message it raises."""
    try:
        return check(m, trace_atol=trace_atol, eig_atol=eig_atol).tobytes()
    except ValueError as error:
        return str(error)


@st.composite
def density_candidates(draw):
    """(matrix, trace_atol, eig_atol): a unitary rotation of a spectrum with
    unit sum whose smallest eigenvalue sits at -eig_atol (1 +- 10^-8 ... 10^-1)
    or -eig_atol/2, or a pure state, or a positive spectrum; some are scaled
    off unit trace."""
    n = draw(st.integers(2, 40))
    eig_atol = draw(st.sampled_from([1e-10, 1e-10, 1e-7, 1e-3, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.linalg.qr(random_complex(rng, n))[0]
    kind = draw(st.sampled_from(["near", "near", "half", "pure", "positive"]))
    if kind == "pure":
        m = np.outer(q[:, 0], q[:, 0].conj())
    else:
        lowest = {"near": -eig_atol * (1.0 + draw(st.sampled_from([-1.0, 1.0]))
                                       * 10.0 ** draw(st.floats(-8.0, -1.0))),
                  "half": -eig_atol / 2.0,
                  "positive": draw(st.floats(0.0, 1.0 / n))}[kind]
        rest = rng.uniform(0.1, 1.0, n - 1)
        spectrum = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
        m = (q * spectrum) @ q.conj().T
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1.0 + 1e-11, 1.0 - 1e-3]))
    return m * scale, draw(st.sampled_from([1e-12, 1e-10])), eig_atol


@settings(max_examples=300, deadline=None)
@given(density_candidates())
def test_density_check_matches_the_eigenvalue_verdict_and_message(case):
    m, trace_atol, eig_atol = case
    assert (outcome(as_density_matrix, m, trace_atol, eig_atol)
            == outcome(eigvalsh_density_matrix, m, trace_atol, eig_atol))


def test_certified_states_need_no_eigenvalues(monkeypatch, rng):
    # A full-rank state and a pure state pass on the Cholesky factorization
    # alone at a positive tolerance; at eig_atol = 0 the eigenvalues decide.
    b = random_complex(rng, 24)
    full = b @ dagger(b)
    full /= np.trace(full).real
    pure = np.outer(b[:, 0], b[:, 0].conj()) / np.vdot(b[:, 0], b[:, 0]).real

    def no_eigenvalues(m):
        raise AssertionError("the eigenvalues were computed")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    for state in (full, pure):
        assert as_density_matrix(state).tobytes() == as_hermitian(state).tobytes()
    with pytest.raises(AssertionError, match="eigenvalues"):
        as_density_matrix(full, eig_atol=0.0)


# ----------------------------------------------------------------------
# tolerance arguments
# ----------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
DEPOLARIZING = [1.0] + [0.2] * 8


@pytest.mark.parametrize("call, message", [
    # Each input would fail another check too: the tolerance is checked first.
    *[(lambda tol=tol: psd_cholesky([[1.0, 5.0], [0.0, 1.0]], tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, INF, -INF, -1e-10)],
    *[(lambda tol=tol: kraus_from_choi(np.eye(3), tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, INF, -INF, -1e-10)],
    *[(lambda tol=tol: kraus_from_channel([1.0, 0.0, 0.0], tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, INF, -INF, -1e-10)],
    # And on inputs that pass every other check.
    *[(lambda tol=tol: psd_cholesky(np.eye(3), tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, INF, -1e-10)],
    *[(lambda tol=tol: kraus_from_choi(choi_matrix(DEPOLARIZING), tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, INF, -1e-10)],
    *[(lambda tol=tol: kraus_from_channel(DEPOLARIZING, tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, INF, -1e-10)],
    (lambda: as_hermitian([[1.0, 5.0], [0.0, 1.0]], atol=NAN),
     "atol must be a number >= 0, got nan"),
    (lambda: as_hermitian(np.eye(2), atol=-1e-12), "atol must be a number >= 0, got -1e-12"),
    (lambda: hermitian_eigenvalues(np.eye(2), atol=NAN), "atol must be a number >= 0, got nan"),
    (lambda: as_density_matrix(np.diag([2.0, 0.0]), trace_atol=NAN),
     "trace_atol must be a number >= 0, got nan"),
    (lambda: as_density_matrix(np.diag([1.0, 0.0]), trace_atol=-1e-12),
     "trace_atol must be a number >= 0, got -1e-12"),
    (lambda: as_density_matrix(np.diag([2.0, -1.0]), eig_atol=NAN),
     "eig_atol must be a number, got nan"),
    # The verdicts, on a CP and TP channel and a stochastic matrix.
    *[(lambda tol=tol, verdict=verdict: verdict(DEPOLARIZING, tol),
       f"tol must be a finite number >= 0, got {tol}")
      for verdict in (is_completely_positive, is_trace_preserving) for tol in (NAN, -1.0, INF)],
    *[(lambda tol=tol: is_row_stochastic(np.eye(3), tol),
       f"tol must be a finite number >= 0, got {tol}") for tol in (NAN, -1.0, INF)],
])
def test_bad_tolerances_are_refused(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message


def test_a_negative_eigenvalue_tolerance_demands_a_margin():
    assert as_density_matrix(np.diag([0.5, 0.5]), eig_atol=-0.1).tobytes() \
        == as_hermitian(np.diag([0.5, 0.5])).tobytes()
    with pytest.raises(ValueError, match="minimum eigenvalue 0.000e"):
        as_density_matrix(np.diag([1.0, 0.0]), eig_atol=-0.1)


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


def test_cholesky_bounds_pivots_whose_remainder_squares_underflow():
    # Rank one with every entry 2.5e-158: the remainder's square, 6.5e-316,
    # is subnormal and keeps too few bits to bound the pivot within tol.
    b = np.full((4, 4), 5.63668893e-80 * (1 + 1j))
    h = b.conj().T @ b
    r = psd_cholesky(h)
    assert max_norm(r.conj().T @ r - h) <= 1e-10 * max_norm(h)


def test_cholesky_bounds_pivots_whose_remainder_squares_overflow():
    # Rank one with every entry 2e160: the remainder's square overflows, so
    # the bound must divide first. RuntimeWarnings fail the test.
    h = np.full((4, 4), 2e160)
    r = psd_cholesky(h)
    assert_allclose(r[0], np.full(4, np.sqrt(2e160)))
    assert np.all(r[1:] == 0.0)
    assert max_norm(r.conj().T @ r - h) <= 1e-10 * max_norm(h)


@pytest.mark.parametrize("h, tol, magnitude", [
    # At tol = 0 the bound 0.5 / 5e-313 * 0.5 overflows in the divide,
    ([[5e-313, 0.5], [0.5, 5e-313]], 0.0, "5.000000e-01"),
    # at tol = 1e-10 the bound 1e300 / 1e290 * 1e300 in the multiply.
    ([[1e300, 1e300], [1e300, 1e289]], 1e-10, "1.000000e+300"),
])
def test_cholesky_refuses_a_bound_beyond_the_float_range_without_a_warning(h, tol, magnitude):
    # RuntimeWarnings fail the test suite; the pair route reads the same bound.
    expected = (f"pivot {h[0][0]:.6e} at index 0 is too small for its row remainder"
                f" (max {magnitude}; needs inf)")
    with pytest.raises(NotPositiveSemidefiniteError) as error:
        psd_cholesky(h, tol)
    assert str(error.value) == expected
    x, y, b = (np.array([v]) for v in (h[0][0], h[1][1], h[0][1]))
    failure = _pair_cholesky(x, y, b.astype(complex), tol * max_norm(h), np.array([0]),
                             np.array([1]))[3]
    assert failure[0] == 0 and str(failure[1]) == expected


@st.composite
def cholesky_inputs(draw):
    """Hermitian n x n matrices: ``b^* b`` of full rank (as drawn) or of lower
    rank, or an indefinite ``(b + b^*)/2``, scaled by 1 or 2^+-600."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["psd", "rank-deficient", "indefinite"]))
    rows = {"psd": n, "rank-deficient": draw(st.integers(1, max(1, n - 1))), "indefinite": n}
    re, im = draw(hnp.arrays(np.float64, (2, rows[kind], n), elements=st.floats(-1.0, 1.0)))
    b = re + 1j * im
    h = b if kind == "indefinite" else b.conj().T @ b
    # Exactly Hermitian, since the tolerance of the Hermitian check is absolute.
    return (h + h.conj().T) / 2.0 * 2.0 ** draw(st.sampled_from([0, 600, -600]))


def _pivots_at(*pivots, remainder=0.0):
    """diag(pivots) with ``remainder`` in the corners (0, n-1) and (n-1, 0)."""
    h = np.diag(pivots).astype(complex)
    h[0, -1] = h[-1, 0] = remainder
    return h


@settings(max_examples=300, deadline=None)
@given(cholesky_inputs(), st.sampled_from([0.0, 1e-10, 1e-6]))
# max |h| = 1, so the pivot tolerance is tol itself: pivots and a remainder
# at exactly +-1e-10 and one ulp beside it.
@example(_pivots_at(1e-10, 1.0), 1e-10)
@example(_pivots_at(-1e-10, 1.0), 1e-10)
@example(_pivots_at(1.0, -1e-10), 1e-10)
@example(_pivots_at(1.0, 1e-10), 1e-10)
@example(_pivots_at(np.nextafter(1e-10, 1.0), 1.0), 1e-10)
@example(_pivots_at(np.nextafter(-1e-10, -1.0), 1.0), 1e-10)
@example(_pivots_at(0.0, 1.0, remainder=1e-10), 1e-10)
@example(_pivots_at(0.0, 1.0, remainder=np.nextafter(1e-10, 1.0)), 1e-10)
@example(_pivots_at(1e-10, 1.0, remainder=1e-10), 1e-10)
# At tol = 0 the least pivot of the remainder 1e-170 underflows to 0.
@example(_pivots_at(0.0, 1.0, remainder=1e-170), 0.0)
@example(np.zeros((3, 3)), 0.0)
# The update conj(row)^T row of a one-entry row: np.outer's multiply and some
# other broadcasts round it differently (1.1e-16 apart in its real part).
@example(np.array([[1.3125, 1.125 + 0.125j], [1.125 - 0.125j, 1.0]]), 0.0)
# A least pivot beyond the float range is inf, refused as "needs inf" without
# a warning: at tol = 0 over the subnormal 5e-313 (the divide overflows), and
# near the top of the range (the multiply overflows). A negative row reads no
# least pivot, so it raises before one could.
@example(_pivots_at(5e-313, 5e-313, remainder=0.5), 0.0)
@example(_pivots_at(-1.0, 1.0, 5e-313, remainder=0.5), 0.0)
@example(np.array([[1e300, 1e300], [1e300, 1e289]], dtype=complex), 1e-10)
def test_psd_cholesky_matches_the_row_loop(h, tol):
    # A RuntimeWarning is an error in the test suite; both must raise it alike.
    try:
        expected = loop_psd_cholesky(h, tol)
    except (NotPositiveSemidefiniteError, RuntimeWarning) as exc:
        with pytest.raises(type(exc)) as error:
            psd_cholesky(h, tol)
        assert str(error.value) == str(exc)
        return
    assert psd_cholesky(h, tol).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# sparse Gram
# ----------------------------------------------------------------------

@st.composite
def sparse_stacks(draw):
    """Complex k x m stacks, k possibly 0, whose rows are nonzero with drawn
    densities, so that rows with more than sqrt(m) nonzeros (the GEMM route)
    sit next to sparser ones (the row-by-row route), with some rows zeroed
    and one row possibly duplicated."""
    k, m = draw(st.integers(0, 10)), draw(st.integers(1, 16))
    density = draw(hnp.arrays(np.float64, (k, 1), elements=st.floats(0.0, 1.0)))
    re, im = draw(hnp.arrays(np.float64, (2, k, m), elements=st.floats(-10.0, 10.0)))
    uniform = draw(hnp.arrays(np.float64, (k, m), elements=st.floats(0.0, 1.0, exclude_max=True)))
    x = (re + 1j * im) * (uniform < density)
    if k:
        rows = st.integers(0, k - 1)
        x[draw(st.lists(rows, max_size=k))] = 0.0
        x[draw(rows)] = x[draw(rows)]
    return x


@settings(max_examples=200, deadline=None)
@given(sparse_stacks())
@example(np.zeros((0, 3), dtype=complex))
@example(np.zeros((4, 3), dtype=complex))
@example(np.array([[1.0, 2j, 0.0], [1.0, 2j, 0.0], [0.0, 0.0, 0.0]]))
# Row 0 is dense (4^2 > 4 nonzeros), rows 1 and 3 are not; pair (0, 3) is
# summed by both routes.
@example(np.array([[1.0, 2j, 3.0, -4.0], [0.5, 0.0, 0.0, 1j], [0.0] * 4, [0.0, 0.0, 0.0, 2.0]]))
def test_sparse_gram_matches_the_dense_gram(x):
    rows, cols = np.nonzero(x)
    m = x.shape[1]
    p, q, gram = _sparse_gram(rows, cols, x[rows, cols], m)
    assert np.all(np.diff(p * m + q) > 0)  # every pair once, in lexicographic order
    shared = (x != 0).T.astype(int) @ (x != 0).astype(int) > 0
    listed = np.zeros((m, m), dtype=bool)
    listed[p, q] = True
    assert np.array_equal(listed, shared)
    dense = gemm_gram(x)
    assert np.all(dense[~listed] == 0.0)
    # Either sum of k products rounds by at most about k u times the two
    # column norms.
    scale = x.shape[0] * float((np.abs(x) ** 2).sum(axis=0).max())
    assert max_norm(gram - dense[p, q]) <= 1e-15 * max(1.0, scale)


@settings(max_examples=100, deadline=None)
@given(sparse_stacks(), st.randoms(use_true_random=False))
def test_sparse_gram_takes_its_entries_in_any_order(x, random):
    # A row adds at most one term to each pair, and the helper sorts the
    # entries by row itself, so any order gives the same bits.
    rows, cols = np.nonzero(x)
    order = np.arange(rows.size)
    random.shuffle(order)
    m = x.shape[1]
    expected = _sparse_gram(rows, cols, x[rows, cols], m)
    got = _sparse_gram(rows[order], cols[order], x[rows, cols][order], m)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


# ----------------------------------------------------------------------
# the float limit
# ----------------------------------------------------------------------

def test_as_hermitian_and_psd_cholesky_keep_entries_near_the_float_limit():
    # 1.5e308 + 1.5e308 overflows; the halves are summed instead.
    m = np.diag([1.5e308, 1.5e308])
    assert np.array_equal(as_hermitian(m), m)
    assert np.array_equal(psd_cholesky(m), np.diag([np.sqrt(1.5e308)] * 2))


def test_as_hermitian_refuses_a_non_hermitian_matrix_near_the_float_limit():
    # M - M^* overflows here; the drift of the halves does not.
    with pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian(np.array([[1e308, 1.7e308], [-1.7e308, 1.0]]))
