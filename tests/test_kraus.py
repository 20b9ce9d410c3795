import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from diagchan.channels import ChannelFamily, DiagonalChannel, family_parameter_range
from diagchan.kraus import (
    DegenerateChannelError,
    HybridClassicalPivots,
    KrausSet,
    hybrid_classical_kraus,
    hybrid_classical_pivots,
    kraus_from_channel,
    kraus_from_choi,
    reconstruction_residual,
    reshape_row,
)
from diagchan.linalg import dagger, matrix_unit, max_norm

from conftest import peak_bytes, random_complex
from oracles import (
    einsum_kraus_apply,
    gemm_kraus_apply,
    gemm_reconstruction_residual,
    loop_hybrid_classical_kraus,
    operator_stack,
    transposed_copy_completeness_residual,
)

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


def test_kraus_set_refuses_source_rows_outside_the_factor_or_out_of_order():
    for ops, rows, message in [
        ((np.eye(2),) * 2, (-5, -5), r"source rows must lie in \[0, 4\), got -5"),
        ((np.eye(2),), (99,), r"source rows must lie in \[0, 4\), got 99"),
        ((np.eye(2),) * 2, (1, 1), "source rows must be strictly increasing"),
        ((np.eye(2),) * 2, (3, 0), "source rows must be strictly increasing"),
        ((np.eye(2),), (0.5,), "source rows must be integers, got 0.5"),
        ((np.eye(2),), (np.float64(1.0),),
         r"source rows must be integers, got (np\.float64\()?1\.0"),
        ((np.eye(2),), (99.5,), "source rows must be integers, got 99.5"),
    ]:
        with pytest.raises(ValueError, match=message):
            KrausSet(2, ops, rows)
    # Integers of any kind numpy has are indices, and come out as Python ints.
    rows = KrausSet(2, (np.eye(2),) * 2, (np.int64(1), np.uint8(3))).source_rows
    assert rows == (1, 3) and all(type(i) is int for i in rows)


def test_kraus_set_builds_read_only_operators_from_its_entries():
    # Only the nonzero entries are held; every access builds fresh arrays.
    ks = KrausSet(3, (np.eye(3), np.diag([1.0, -1.0, 1j])), (0, 4))
    assert ks._value.size == 6 and not ks._value.flags.writeable
    first, again = ks.operators, list(ks)
    for op, same, want in zip(first, again, (np.eye(3), np.diag([1.0, -1.0, 1j]))):
        assert op.shape == (3, 3) and op.dtype == np.complex128
        assert np.array_equal(op, want) and np.array_equal(same, want)
        assert not op.flags.writeable and not np.shares_memory(op, same)
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


def test_kraus_set_copies_the_operators_it_is_given(rng):
    want = np.stack([random_complex(rng, 3) for _ in range(4)])
    ops, stacked = list(want.copy()), want.copy()
    from_list = KrausSet(3, ops, tuple(range(4)))
    from_stack = KrausSet(3, stacked, tuple(range(4)))
    ops[0][0, 0] = ops[3][2, 1] = stacked[1, 1, 1] = 99.0
    for ks in (from_list, from_stack):
        assert np.array_equal(operator_stack(ks), want)


def test_kraus_routes_peak_at_a_multiple_of_the_product_bound():
    # At n = 48 a dense (n, n^2, n) stack would take 16 n^4 bytes, 85 MB.
    # The set holds O(n^2) entries; its Gram G sums about n^3 / 3 products
    # of the coupled block's rows, and nothing else is larger.
    n = 48
    channel = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, n, 0.3)
    bound = 4 * 16 * n ** 3
    assert peak_bytes(kraus_from_channel, channel) < bound
    ks = kraus_from_channel(channel)
    assert len(ks) == n * n and ks._value.size < 2 * n * n
    for _ in range(2):  # apply keeps nothing between calls
        assert peak_bytes(ks.apply, np.eye(n) / n) < bound
    assert peak_bytes(ks.completeness_residual) < bound
    assert peak_bytes(reconstruction_residual, kraus_from_channel(channel), channel) < bound


def test_apply_on_one_dense_operator_peaks_at_a_multiple_of_its_product_bound(rng):
    # Summed over pairs of entries, one dense operator would take n^4
    # products, 268 MB at n = 64; its GEMMs take a few n x n arrays.
    n = 64
    u = np.linalg.qr(random_complex(rng, n))[0]
    ks = KrausSet(n, (u,), (0,))
    a = random_complex(rng, n)
    assert peak_bytes(ks.apply, a) < 4 * 16 * n ** 3
    assert max_norm(ks.apply(a) - u.conj().T @ a @ u) <= 1e-12


@st.composite
def kraus_sets(draw):
    """A set built by the constructor from random operators of norm about 1,
    or by the factor of a family channel, with a channel of its dimension
    (the one that made it, for a factor-built set)."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(list(ChannelFamily)))
    lo, hi = family_parameter_range(family, n)
    channel = DiagonalChannel.from_family(family, n, draw(st.floats(lo, hi)))
    if draw(st.booleans()):
        # Each operator keeps a random share of its entries, so sets mix
        # operators above and below n nonzeros.
        count = draw(st.integers(0, n * n))
        ops = tuple(random_complex(rng, n) / n * (rng.random((n, n)) < rng.random())
                    for _ in range(count))
        return KrausSet(n, ops, tuple(range(count))), channel
    return kraus_from_channel(channel), channel


@settings(max_examples=80, deadline=None)
@given(kraus_sets(), st.integers(0, 2**32 - 1))
def test_products_on_the_stack_match_their_oracles(ks_and_channel, seed):
    ks, channel = ks_and_channel
    n = ks.dim
    a = random_complex(np.random.default_rng(seed), n)
    for oracle in (gemm_kraus_apply, einsum_kraus_apply):
        assert max_norm(ks.apply(a) - oracle(ks, a)) <= 1e-12
    # Each entry of sum K K^* and of V^* V sums at most count n products, in
    # another order than the GEMM's. Either route rounds it by at most about
    # count n u times the largest squared norm of a row of the operators side
    # by side or of a column of V, and then subtracts I or C (|C| <= 1).
    squares = np.abs(operator_stack(ks)) ** 2
    scale = max(1.0, squares.sum(axis=(0, 2)).max(initial=0.0),
                squares.sum(axis=0).max(initial=0.0))
    bound = 2 * max(len(ks), 1) * n * (np.finfo(float).eps / 2) * scale
    assert abs(ks.completeness_residual() - transposed_copy_completeness_residual(ks)) <= bound
    assert abs(reconstruction_residual(ks, channel)
               - gemm_reconstruction_residual(ks, channel)) <= bound


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
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


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_closed_form_stack_equals_operator_loop(n):
    for p in interior_samples(n, 3):
        ks, loop = hybrid_classical_kraus(n, p), loop_hybrid_classical_kraus(n, p)
        assert ks.source_rows == loop.source_rows == tuple(range(n * n))
        assert np.array_equal(operator_stack(ks), operator_stack(loop))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_one_ulp_inside_either_end_is_degenerate_or_valid():
    # One ulp inside an end, a closed-form pivot can round to zero or below
    # (n = 2 at the upper end; n = 3, 6, 7, 18, 19, 23, ... at the lower).
    degenerate = []
    for n in range(2, 65):
        lo, hi = family_parameter_range(HYBRID, n)
        for p in (float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, 0.0))):
            try:
                pivots = hybrid_classical_pivots(n, p).pivots
                ks = hybrid_classical_kraus(n, p)
            except DegenerateChannelError:
                degenerate.append(n)
                continue
            assert np.all(pivots > 0.0)
            assert len(ks) == n * n
            assert ks.completeness_residual() <= 1e-12
            channel = DiagonalChannel.from_family(HYBRID, n, p)
            assert reconstruction_residual(ks, channel) <= 1e-12
    assert {2, 3, 6, 7, 18, 19, 23} <= set(degenerate)


def test_closed_form_degenerate_at_boundary():
    with pytest.raises(DegenerateChannelError):
        hybrid_classical_kraus(2, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: KrausSet(1, (), ()), "dimension must be at least 2, got 1"),
    (lambda: KrausSet(2.0, (np.eye(2),), (0,)), "dimension must be an integer, got 2.0"),
    (lambda: hybrid_classical_pivots(3.0, 0.1), "dimension must be an integer, got 3.0"),
    (lambda: hybrid_classical_kraus(3.0, 0.1), "dimension must be an integer, got 3.0"),
    (lambda: KrausSet(2, ([["a", "b"], ["c", "d"]],), (0,)),
     "operators must be 2x2 complex matrices"),
    (lambda: KrausSet(2, (np.eye(2),), (0,)).apply(np.eye(3)),
     "expected a 2x2 matrix, got shape (3, 3)"),
    (lambda: reconstruction_residual(KrausSet(2, (np.eye(2),), (0,)), [1.0] * 9),
     "dimension mismatch: Kraus set is 2, channel is 3"),
    (lambda: HybridClassicalPivots(3, 0.1, np.ones(2), np.ones(2), 0.3),
     "expected 3 pivots, got shape (2,)"),
    (lambda: HybridClassicalPivots(3, 0.1, np.ones(3), np.ones((1, 2)), 0.3),
     "expected 2 offdiags, got shape (1, 2)"),
])
def test_kraus_refusals_name_the_problem(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message


def test_kraus_entry_points_accept_numpy_integer_dimensions():
    n = np.int64(2)
    assert KrausSet(n, (np.eye(2),), (0,)).dim == 2
    assert hybrid_classical_pivots(n, 0.1).dim == 2
    assert len(hybrid_classical_kraus(n, 0.1)) == 4
