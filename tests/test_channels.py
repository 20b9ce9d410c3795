import numpy as np
import pytest
from numpy.testing import assert_allclose

from diagchan.channels import (
    ChannelFamily,
    DiagonalChannel,
    channel_coefficients,
    choi_matrix,
    family_parameter_range,
    is_completely_positive,
    is_trace_preserving,
    min_choi_eigenvalue,
)
from diagchan.linalg import dagger, hermitian_eigenvalues, matrix_unit, max_norm

from conftest import random_complex, random_hermitian

ALL_FAMILIES = list(ChannelFamily)


def identity_channel(n: int) -> DiagonalChannel:
    return DiagonalChannel(n, np.ones(n * n))


def family_vector(family: ChannelFamily, n: int, p: float) -> np.ndarray:
    """Raw coefficient vector of a family, valid for out-of-range p too."""
    signs = {
        ChannelFamily.DEPOLARIZING: (1, 1, 1),
        ChannelFamily.TRANSPOSE_DEPOLARIZING: (1, -1, 1),
        ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL: (-1, -1, 1),
        ChannelFamily.HYBRID_TRANSPOSE_DEPOLARIZING_CLASSICAL: (-1, 1, 1),
    }[family]
    num_pairs = n * (n - 1) // 2
    return np.concatenate([
        [1.0],
        np.full(num_pairs, signs[0] * p),
        np.full(num_pairs, signs[1] * p),
        np.full(n - 1, signs[2] * p),
    ])


# ----------------------------------------------------------------------
# construction and families
# ----------------------------------------------------------------------

def test_depolarizing_at_one_is_identity():
    ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 2, 1.0)
    assert_allclose(ch.coefficients, np.ones(4))


def test_hybrid_classical_range_n2():
    lo, hi = family_parameter_range(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, 2)
    assert lo == pytest.approx(-1 / 3)
    assert hi == pytest.approx(1.0)


def test_transpose_family_range():
    lo, hi = family_parameter_range(ChannelFamily.TRANSPOSE_DEPOLARIZING, 3)
    assert (lo, hi) == pytest.approx((-0.5, 0.25))


def test_depolarizing_out_of_range_rejected():
    with pytest.raises(ValueError, match="range"):
        DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 3, -0.2)
    # the bound itself is fine
    DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 3, -1 / 8)


def test_family_sign_layout():
    n, p = 3, 0.1
    got = DiagonalChannel.from_family("hybrid_transpose_depolarizing_classical", n, p)
    assert_allclose(got.coefficients, family_vector(
        ChannelFamily.HYBRID_TRANSPOSE_DEPOLARIZING_CLASSICAL, n, p))


def test_construction_rejects_bad_leading_coefficient():
    with pytest.raises(ValueError, match="leading"):
        DiagonalChannel(2, [0.9, 0, 0, 0])


def test_construction_rejects_out_of_interval_coefficient():
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        DiagonalChannel(2, [1.0, 1.2, 0, 0])


def test_construction_rejects_wrong_length():
    with pytest.raises(ValueError, match="coefficients"):
        DiagonalChannel(2, [1.0, 0.5])


def test_channel_coefficients_accepts_raw_vector():
    n, coeffs = channel_coefficients([1.0, 0.9, 0.9, 0.9])
    assert n == 2
    assert coeffs[1] == 0.9
    with pytest.raises(ValueError):
        channel_coefficients([1.0, 0.5, 0.5])


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------

def test_fully_depolarizing_collapses_everything(rng):
    for n in (2, 4):
        ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, n, 0.0)
        a = random_complex(rng, n)
        want = np.trace(a) * np.eye(n) / n
        assert max_norm(ch.apply(a) - want) <= 1e-12


def test_identity_channel_is_identity_map(rng):
    ch = identity_channel(3)
    a = random_complex(rng, 3)
    assert max_norm(ch.apply(a) - a) <= 1e-12


def test_hybrid_classical_scales_off_diagonal_unit():
    p = 0.3
    ch = DiagonalChannel.from_family(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, 2, p)
    e12 = matrix_unit(2, 0, 1)
    assert max_norm(ch.apply(e12) - (-p) * e12) <= 1e-14


def test_transpose_family_transposes_off_diagonal_units():
    p = 0.2
    ch = DiagonalChannel.from_family(ChannelFamily.TRANSPOSE_DEPOLARIZING, 2, p)
    assert max_norm(ch.apply(matrix_unit(2, 0, 1)) - p * matrix_unit(2, 1, 0)) <= 1e-14


def test_apply_is_linear(rng):
    ch = DiagonalChannel.from_family(ChannelFamily.TRANSPOSE_DEPOLARIZING, 3, 0.2)
    a, b = random_complex(rng, 3), random_complex(rng, 3)
    c1, c2 = 0.7 - 0.1j, -1.3 + 2j
    lhs = ch.apply(c1 * a + c2 * b)
    rhs = c1 * ch.apply(a) + c2 * ch.apply(b)
    assert max_norm(lhs - rhs) <= 1e-12


def test_apply_preserves_hermiticity_and_trace(rng):
    for family in ALL_FAMILIES:
        lo, hi = family_parameter_range(family, 3)
        ch = DiagonalChannel.from_family(family, 3, (lo + hi) / 2)
        h = random_hermitian(rng, 3)
        out = ch.apply(h)
        assert max_norm(out - dagger(out)) <= 1e-12
        assert abs(np.trace(out) - np.trace(h)) <= 1e-12


def test_apply_validates_shape():
    ch = identity_channel(2)
    for bad in (np.eye(3), np.ones((2, 2, 2)), np.ones(4)):
        with pytest.raises(ValueError):
            ch.apply(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.inf)])
def test_apply_rejects_non_finite_entries(value):
    x = np.eye(2, dtype=np.complex128)
    x[0, 1] = value
    with pytest.raises(ValueError, match="finite"):
        identity_channel(2).apply(x)


# ----------------------------------------------------------------------
# Choi matrices
# ----------------------------------------------------------------------

def test_choi_of_fully_depolarizing():
    for n in (2, 3):
        ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, n, 0.0)
        assert max_norm(ch.choi() - np.eye(n * n) / n) <= 1e-14


def test_choi_of_identity_channel():
    n = 2
    want = sum(np.kron(matrix_unit(n, i, j), matrix_unit(n, i, j))
               for i in range(n) for j in range(n))
    got = identity_channel(n).choi()
    assert max_norm(got - want) <= 1e-14
    assert_allclose(hermitian_eigenvalues(got), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_of_hybrid_classical_n2():
    ch = DiagonalChannel.from_family(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, 2, 0.2)
    c = ch.choi()
    assert_allclose(np.diag(c).real, [0.6, 0.4, 0.4, 0.6])
    assert c[0, 3] == pytest.approx(-0.2)
    assert c[3, 0] == pytest.approx(-0.2)
    mask = np.ones((4, 4), dtype=bool)
    mask[np.diag_indices(4)] = False
    mask[0, 3] = mask[3, 0] = False
    assert max_norm(c[mask]) <= 1e-15


def test_choi_is_hermitian_with_trace_n(rng):
    for family in ALL_FAMILIES:
        for n in (2, 4):
            lo, hi = family_parameter_range(family, n)
            c = choi_matrix(DiagonalChannel.from_family(family, n, (lo + 3 * hi) / 4))
            assert max_norm(c - dagger(c)) <= 1e-14
            assert np.trace(c).real == pytest.approx(n, abs=1e-12)


# ----------------------------------------------------------------------
# CP / TP verification
# ----------------------------------------------------------------------

def test_identity_endpoint_is_cp():
    assert is_completely_positive(
        DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 2, 1.0))


def test_hybrid_classical_upper_bound_is_cp_boundary():
    ch = DiagonalChannel.from_family(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, 3, 0.25)
    assert is_completely_positive(ch)
    assert abs(min_choi_eigenvalue(ch)) <= 1e-10


def test_hybrid_classical_outside_upper_bound_is_not_cp():
    vec = family_vector(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, 3, 0.30)
    assert min_choi_eigenvalue(vec) < -1e-6
    assert not is_completely_positive(vec)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_families_inside_range_are_cp_and_tp(family):
    for n in (2, 3):
        lo, hi = family_parameter_range(family, n)
        for p in (lo + 0.3 * (hi - lo), (lo + hi) / 2, hi - 0.1 * (hi - lo)):
            ch = DiagonalChannel.from_family(family, n, p)
            assert is_completely_positive(ch)
            assert is_trace_preserving(ch)


def test_trace_preservation_detects_bad_leading_coefficient():
    assert not is_trace_preserving([0.9, 0.5, 0.5, 0.5])
    assert is_trace_preserving([1.0, 0.5, -0.2, 0.7])


def test_composition_multiplies_coefficients(rng):
    n = 3
    a = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, n, 0.6)
    b = DiagonalChannel.from_family(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, n, 0.2)
    composed = a.compose(b)
    assert_allclose(composed.coefficients, a.coefficients * b.coefficients)
    m = random_complex(rng, n)
    assert max_norm(a.apply(b.apply(m)) - composed.apply(m)) <= 1e-12
