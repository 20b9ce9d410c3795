import numpy as np
import pytest
from numpy.testing import assert_allclose

from diagchan.channels import ChannelFamily, DiagonalChannel, family_parameter_range
from diagchan.kraus import (
    DegenerateChannelError,
    KrausSet,
    hybrid_classical_kraus,
    hybrid_classical_pivots,
    kraus_from_choi,
    reconstruction_residual,
    reshape_row,
)
from diagchan.linalg import dagger, matrix_unit, max_norm

from conftest import random_complex

PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HYBRID = ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL


def interior_samples(n: int, count: int) -> np.ndarray:
    lo, hi = family_parameter_range(HYBRID, n)
    return np.linspace(lo, hi, count + 2)[1:-1]


# ----------------------------------------------------------------------
# row reshaping
# ----------------------------------------------------------------------

def test_reshape_row_is_row_major():
    assert_allclose(reshape_row([1, 2, 3, 4], 2), [[1, 2], [3, 4]])


def test_reshape_of_flattened_identity():
    for n in (2, 4):
        assert_allclose(reshape_row(np.eye(n).ravel(), n), np.eye(n))


def test_reshape_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        reshape_row([1, 2, 3], 2)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_row_vector_block_identity(n, rng):
    # The block matrix (K^* E_ij K) over all unit positions equals the outer
    # product of the flattened rows of K with themselves.
    k = random_complex(rng, n)
    kappa = k.reshape(-1)
    blocks = np.block([[dagger(k) @ matrix_unit(n, i, j) @ k for j in range(n)]
                       for i in range(n)])
    assert max_norm(blocks - np.outer(kappa.conj(), kappa)) <= 1e-13


# ----------------------------------------------------------------------
# extraction from Choi matrices
# ----------------------------------------------------------------------

def test_fully_depolarizing_operators():
    ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 2, 0.0)
    ks = kraus_from_choi(ch.choi())
    assert len(ks) == 4
    s = 1 / np.sqrt(2)
    want = [s * matrix_unit(2, 0, 0), s * matrix_unit(2, 0, 1),
            s * matrix_unit(2, 1, 0), s * matrix_unit(2, 1, 1)]
    for got, expected in zip(ks, want):
        assert max_norm(got - expected) <= 1e-15
    assert ks.source_rows == (0, 1, 2, 3)


def test_identity_channel_single_operator():
    for n in (2, 3):
        ch = DiagonalChannel(n, np.ones(n * n))
        ks = kraus_from_choi(ch.choi())
        assert len(ks) == 1
        assert max_norm(ks.operators[0] - np.eye(n)) <= 1e-14


def test_hybrid_classical_first_operator():
    ch = DiagonalChannel.from_family(HYBRID, 2, 0.2)
    ks = kraus_from_choi(ch.choi())
    want = np.array([[np.sqrt(0.6), 0.0], [0.0, -0.2 / np.sqrt(0.6)]])
    assert max_norm(ks.operators[0] - want) <= 1e-14


def test_apply_with_identity_operator(rng):
    ks = KrausSet(2, (np.eye(2),), (0,))
    a = random_complex(rng, 2)
    assert max_norm(ks.apply(a) - a) <= 1e-15
    assert ks.completeness_residual() <= 1e-15


def test_depolarizing_set_annihilates_traceless():
    ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 2, 0.0)
    ks = kraus_from_choi(ch.choi())
    assert max_norm(ks.apply(PAULI_Z)) <= 1e-15


def test_removing_an_operator_breaks_completeness():
    ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 2, 0.0)
    ks = kraus_from_choi(ch.choi())
    trimmed = KrausSet(2, ks.operators[1:], ks.source_rows[1:])
    assert trimmed.completeness_residual() >= 0.4


def test_operator_count_matches_choi_rank():
    # boundary channels have rank-deficient Choi matrices; the number of
    # surviving factor rows must match the eigenvalue count above tolerance
    from diagchan.linalg import hermitian_eigenvalues

    for family in ChannelFamily:
        for n in (2, 3):
            lo, hi = family_parameter_range(family, n)
            for p in (lo, hi):
                ch = DiagonalChannel.from_family(family, n, p)
                choi = ch.choi()
                ks = kraus_from_choi(choi)
                eig_rank = int(np.sum(hermitian_eigenvalues(choi) > 1e-10 * max_norm(choi)))
                assert len(ks) == eig_rank
                assert reconstruction_residual(ks, ch) <= 1e-10
                assert ks.completeness_residual() <= 1e-10


@pytest.mark.parametrize("family", list(ChannelFamily))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_reconstruction_across_families(family, n):
    lo, hi = family_parameter_range(family, n)
    for p in (lo, (lo + hi) / 2, hi):
        ch = DiagonalChannel.from_family(family, n, p)
        ks = kraus_from_choi(ch.choi())
        assert reconstruction_residual(ks, ch) <= 1e-10
        assert ks.completeness_residual() <= 1e-10
        assert len(ks) <= n * n


def test_empty_kraus_set():
    ks = KrausSet(2, (), ())
    assert max_norm(ks.apply(np.eye(2))) == 0.0
    coeffs = np.array([1.0, 0.5, -0.5, 0.25])
    assert reconstruction_residual(ks, coeffs) == max_norm(DiagonalChannel(2, coeffs).choi())


def test_kraus_set_validates_shapes():
    with pytest.raises(ValueError):
        KrausSet(2, (np.eye(3),), (0,))
    with pytest.raises(ValueError):
        KrausSet(2, (np.eye(2),) * 5, tuple(range(5)))


def test_kraus_set_is_one_read_only_stack():
    ks = KrausSet(2, (np.eye(2), PAULI_Z), (0, 3))
    stack = ks._stacked()
    assert stack.shape == (2, 2, 2) and not stack.flags.writeable
    assert all(np.shares_memory(op, stack) for op in ks.operators)
    with pytest.raises(ValueError, match="read-only"):
        ks.operators[0][0, 0] = 2.0
    for ops, rows, message in [
        ((np.eye(3),), (0,), r"operators must be 2x2, got shape \(3, 3\)"),
        ((np.eye(2), np.eye(3)), (0, 1), r"operators must be 2x2, got shape \(3, 3\)"),
        ((np.ones(2),), (0,), "expected a 2-D matrix, got an array of rank 1"),
        ((np.full((2, 2), np.nan),), (0,), "matrix entries must be finite"),
        ((np.eye(2),), (), "one source row index is required per operator"),
        ((np.eye(2),) * 5, tuple(range(5)), "at most 4 operators allowed, got 5"),
    ]:
        with pytest.raises(ValueError, match=message):
            KrausSet(2, ops, rows)


# ----------------------------------------------------------------------
# closed-form pivots
# ----------------------------------------------------------------------

def test_pivot_values_n2():
    data = hybrid_classical_pivots(2, 0.2)
    assert data.pivots[0] == pytest.approx(0.6)
    assert data.offdiags[0] == pytest.approx(-0.2)
    assert data.pivots[1] == pytest.approx(8 / 15)
    assert data.uncoupled == pytest.approx(0.4)


@pytest.mark.parametrize("n", range(2, 9))
def test_pivot_gap_is_constant(n):
    for p in interior_samples(n, 6):
        data = hybrid_classical_pivots(n, p)
        gap = 2 * p + (1 - p) / n
        diffs = data.pivots[:-1] - data.offdiags
        assert max_norm(diffs - gap) <= 1e-12
        assert data.pivots[0] == pytest.approx(p + (1 - p) / n, abs=1e-15)
        assert data.offdiags[0] == pytest.approx(-p, abs=1e-15)


def test_pivots_at_zero_mixing():
    data = hybrid_classical_pivots(3, 0.0)
    assert_allclose(data.pivots, [1 / 3] * 3)
    assert_allclose(data.offdiags, [0.0, 0.0])


@pytest.mark.parametrize("n", [3, 5, 8])
def test_offdiag_reciprocal_increments(n):
    for p in interior_samples(n, 6):
        if p == 0.0:
            continue
        data = hybrid_classical_pivots(n, p)
        gap = 2 * p + (1 - p) / n
        inv = 1.0 / data.offdiags
        for m in range(1, n - 1):
            assert inv[m] - inv[m - 1] == pytest.approx(1.0 / gap, rel=1e-10)


def test_degenerate_at_interval_endpoints():
    lo, hi = family_parameter_range(HYBRID, 2)
    for p in (lo, hi):
        with pytest.raises(DegenerateChannelError):
            hybrid_classical_pivots(2, p)
    with pytest.raises(ValueError):
        hybrid_classical_pivots(2, hi + 0.5)


# ----------------------------------------------------------------------
# closed-form Kraus operators
# ----------------------------------------------------------------------

def test_closed_form_operators_n2():
    ks = hybrid_classical_kraus(2, 0.2)
    a0, a1, b0, beta = 0.6, 8 / 15, -0.2, 0.4
    want = [
        np.array([[np.sqrt(a0), 0], [0, b0 / np.sqrt(a0)]]),
        np.array([[0, np.sqrt(beta)], [0, 0]]),
        np.array([[0, 0], [np.sqrt(beta), 0]]),
        np.array([[0, 0], [0, np.sqrt(a1)]]),
    ]
    assert len(ks) == 4
    for got, expected in zip(ks, want):
        assert max_norm(got - expected) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_matches_factorization(n):
    for p in interior_samples(n, 5):
        ch = DiagonalChannel.from_family(HYBRID, n, p)
        direct = kraus_from_choi(ch.choi())
        closed = hybrid_classical_kraus(n, p)
        assert len(direct) == len(closed) == n * n
        worst = max(max_norm(a - b) for a, b in zip(direct, closed))
        assert worst <= 1e-10
        assert reconstruction_residual(closed, ch) <= 1e-10
        assert closed.completeness_residual() <= 1e-10


def test_closed_form_degenerate_at_boundary():
    with pytest.raises(DegenerateChannelError):
        hybrid_classical_kraus(2, 1.0)
