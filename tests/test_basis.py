import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from diagchan.basis import (
    HermitianBasis,
    diagonal_block_slice,
    expand,
    generalized_pauli,
    orthonormal_basis,
    pair_indices,
    reconstruct,
)
from diagchan.linalg import dagger, hs_inner, matrix_unit, max_norm

from conftest import peak_bytes, random_complex
from oracles import einsum_expand, einsum_reconstruct, gemm_basis_check, scaled_pauli_stack

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def unit_projector_coefficients(n: int, k: int) -> np.ndarray:
    """Analytic expansion of the k-th basis projector (k is 1-based).

    Identity coefficient 1/sqrt(n); pair coefficients vanish; in the
    diagonal block, level k-1 carries -sqrt((k-1)/k), levels >= k carry
    1/sqrt(q(q+1)), and levels <= k-2 vanish.
    """
    c = np.zeros(n * n)
    c[0] = 1.0 / np.sqrt(n)
    offset = 1 + n * (n - 1)
    for q in range(1, n):
        if q == k - 1:
            c[offset + q - 1] = -np.sqrt((k - 1.0) / k)
        elif q >= k:
            c[offset + q - 1] = 1.0 / np.sqrt(q * (q + 1.0))
    return c


# ----------------------------------------------------------------------
# unnormalized family
# ----------------------------------------------------------------------

def test_two_dimensional_family_is_pauli():
    fam = generalized_pauli(2)
    assert len(fam) == 4
    for got, want in zip(fam, PAULI):
        assert_allclose(got, want)


def test_three_dimensional_diagonal_element():
    fam = generalized_pauli(3)
    assert_allclose(fam[-1], np.diag([1.0, 1.0, -2.0]))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_family_count(n):
    fam = generalized_pauli(n)
    assert len(fam) == n * n
    # 1 identity + two pair blocks + n-1 diagonal matrices
    assert len(fam) == 1 + 2 * len(pair_indices(n)) + (n - 1)


def test_family_rejects_small_dimension():
    with pytest.raises(ValueError):
        generalized_pauli(1)
    with pytest.raises(ValueError):
        orthonormal_basis(0)


# ----------------------------------------------------------------------
# orthonormal basis
# ----------------------------------------------------------------------

def test_first_element_is_scaled_identity():
    basis = orthonormal_basis(2)
    assert_allclose(basis[0], np.eye(2) / np.sqrt(2))


def test_last_diagonal_element_for_n3():
    basis = orthonormal_basis(3)
    assert_allclose(basis[8], np.diag([1.0, 1.0, -2.0]) / np.sqrt(6))


@pytest.mark.parametrize("n", range(2, 9))
def test_gram_matrix_is_identity(n):
    basis = orthonormal_basis(n)
    gram = np.einsum("aij,bij->ab", basis.elements.conj(), basis.elements)
    assert max_norm(gram - np.eye(n * n)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 7])
def test_unit_norms_and_traces(n):
    basis = orthonormal_basis(n)
    for idx, e in enumerate(basis):
        assert hs_inner(e, e).real == pytest.approx(1.0, abs=1e-13)
        tr = complex(np.trace(e))
        if idx == 0:
            assert tr == pytest.approx(np.sqrt(n))
        else:
            assert abs(tr) <= 1e-13


def test_elements_are_read_only():
    basis = orthonormal_basis(2)
    with pytest.raises(ValueError):
        basis.elements[0, 0, 0] = 5.0


def test_rejects_non_orthonormal_stack():
    bad = np.stack([np.eye(2, dtype=complex)] * 4)
    with pytest.raises(ValueError, match="orthonormal"):
        HermitianBasis(2, bad)


def documented_scales(n):
    num_pairs = n * (n - 1) // 2
    scales = [1.0 / np.sqrt(n)] + [1.0 / np.sqrt(2.0)] * (2 * num_pairs)
    return np.array(scales + [1.0 / np.sqrt(m * (m + 1.0)) for m in range(1, n)])


@pytest.mark.parametrize("n", range(2, 13))
def test_basis_is_the_scaled_family_bit_for_bit(n):
    want = scaled_pauli_stack(n)
    got = orthonormal_basis(n).elements
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too
    family = np.stack(generalized_pauli(n))
    assert (family * documented_scales(n)[:, None, None]).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_indexing_and_iteration_build_the_same_read_only_elements(n):
    basis = orthonormal_basis(n)
    stack = scaled_pauli_stack(n)
    mask = np.arange(n * n) % 3 == 1
    picks = [0, -1, n * n - 1, slice(None), slice(1, None, 2), slice(5, 2),
             [2, 0, 2], np.array([[1, 0], [3, 2]]), mask, ...]
    for idx in picks:
        got = basis[idx]
        assert got.shape == stack[idx].shape
        assert got.tobytes() == stack[idx].tobytes()
        assert not got.flags.writeable
    for k, element in enumerate(basis):
        assert element.tobytes() == stack[k].tobytes()
        assert not element.flags.writeable
    assert len(list(basis)) == len(basis) == n * n
    # Each access builds a fresh array.
    assert not np.shares_memory(basis.elements, basis.elements)
    assert not np.shares_memory(basis[0], basis[0])
    for idx in (n * n, -n * n - 1):
        with pytest.raises(IndexError):
            basis[idx]


def test_cold_basis_holds_no_stack():
    # The (n^2, n, n) stack alone takes 16 MB at n = 32.
    assert peak_bytes(orthonormal_basis.__wrapped__, 32) < 4 * 2 ** 20


def test_basis_copies_a_given_stack_and_keeps_its_own_read_only():
    # The basis keeps a read-only copy; the caller's stack stays writable.
    assert not orthonormal_basis(3).elements.flags.writeable
    stack = orthonormal_basis(3).elements.copy()
    basis = HermitianBasis(3, stack)
    assert not np.shares_memory(basis.elements, stack)
    assert stack.flags.writeable and not basis.elements.flags.writeable
    # A list of elements is stacked into the same bytes.
    assert HermitianBasis(3, list(stack)).elements.tobytes() == basis.elements.tobytes()


def rotated(elements, first, second, angle, both=True):
    """The stack with elements ``first`` and ``second`` mixed by a rotation;
    with ``both`` false only ``first`` is rotated, towards ``second``."""
    out = elements.copy()
    c, s = np.cos(angle), np.sin(angle)
    out[first] = c * elements[first] + s * elements[second]
    if both:
        out[second] = -s * elements[first] + c * elements[second]
    return out


NOT_ORTHONORMAL = "basis is not orthonormal under the Hilbert-Schmidt inner product"


def basis_refusals(n):
    """(stack, message) for every refusal of ``HermitianBasis(n, stack)``."""
    good = np.array(orthonormal_basis(n).elements)
    cases = [(good[1:], f"expected {(n * n, n, n)} element stack, got {(n * n - 1, n, n)}")]
    skew = good.copy()
    skew[1, 0, 1] += 1e-6
    cases.append((skew, "basis elements are not Hermitian: max drift 1.000e-06"))
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)):
        broken = good.copy()
        broken[-1, 0, 0] = value
        cases.append((broken, "matrix entries must be finite"))
    for index in (0, 2, n * n - 1):
        scaled = good.copy()
        scaled[index] *= 1.0 + 1e-9
        cases.append((scaled, NOT_ORTHONORMAL))
    duplicated, zero = good.copy(), good.copy()
    duplicated[2] = good[1]
    zero[-1] = 0.0
    cases += [(duplicated, NOT_ORTHONORMAL), (zero, NOT_ORTHONORMAL),
              (rotated(good, 1, n * n - 1, 1e-6, both=False), NOT_ORTHONORMAL)]
    return cases


@pytest.mark.parametrize("n", [2, 3, 5])
def test_every_refusal_names_its_check(n):
    with pytest.raises(ValueError) as small:
        HermitianBasis(1, np.ones((1, 1, 1)))
    assert str(small.value) == "dimension must be at least 2, got 1"
    for stack, message in basis_refusals(n):
        with pytest.raises(ValueError) as error:
            HermitianBasis(n, stack)
        assert str(error.value) == message
        with pytest.raises(ValueError) as dense:
            gemm_basis_check(n, stack)
        assert str(dense.value) == message


def test_basis_check_allocates_no_gram_matrix():
    # The checked copy of the stack takes 16 n^4 bytes, and so would the
    # dense Gram matrix or a dense drift.
    n = 16
    elements = np.array(orthonormal_basis(n).elements)
    assert peak_bytes(HermitianBasis, n, elements) < 1.5 * 16 * n ** 4


def test_dense_basis_check_memory_stays_bounded():
    # A real orthogonal mix of the basis is an orthonormal basis whose
    # elements are dense: n^6 products, about 1.7 GB of index and product
    # arrays at n = 16 if they were all held at once.
    n = 16
    mixer = np.linalg.qr(np.random.default_rng(0).standard_normal((n * n, n * n)))[0]
    elements = np.einsum("ab,bij->aij", mixer, orthonormal_basis(n).elements)
    assert peak_bytes(HermitianBasis, n, elements) < 24 * 16 * n ** 4


@pytest.mark.parametrize("n", [2, 3, 6])
def test_rotated_pairs_stay_orthonormal(n):
    # A rotation mixes the supports of two elements but keeps the basis
    # orthonormal; the sparse Gram must see both elements' entries.
    good = np.array(orthonormal_basis(n).elements)
    for first, second in [(1, 2), (0, n * n - 1), (1, n * n - 1)]:
        mixed = rotated(good, first, second, 0.3)
        gemm_basis_check(n, mixed)
        assert HermitianBasis(n, mixed).elements.tobytes() == mixed.tobytes()


# ----------------------------------------------------------------------
# expand / reconstruct
# ----------------------------------------------------------------------

def test_expand_unit_projector_n2():
    basis = orthonormal_basis(2)
    coeffs = expand(matrix_unit(2, 1, 1), basis)
    assert_allclose(coeffs, [1 / np.sqrt(2), 0, 0, -1 / np.sqrt(2)], atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_expand_projectors_match_closed_form(n):
    basis = orthonormal_basis(n)
    for k in range(1, n + 1):
        got = expand(matrix_unit(n, k - 1, k - 1), basis)
        assert max_norm(got - unit_projector_coefficients(n, k)) <= 1e-14


def test_expand_basis_element_gives_unit_vector():
    basis = orthonormal_basis(3)
    for idx in range(9):
        coeffs = expand(basis[idx], basis)
        want = np.zeros(9)
        want[idx] = 1.0
        assert max_norm(coeffs - want) <= 1e-13


def test_reconstruct_identity_direction():
    basis = orthonormal_basis(3)
    coeffs = np.zeros(9)
    coeffs[0] = 1.0
    assert_allclose(reconstruct(coeffs, basis), np.eye(3) / np.sqrt(3))


def test_last_projector_combination():
    # E_nn uses only the identity and the last diagonal element.
    for n in (2, 3, 6):
        basis = orthonormal_basis(n)
        coeffs = np.zeros(n * n)
        coeffs[0] = 1.0 / np.sqrt(n)
        coeffs[-1] = -np.sqrt((n - 1.0) / n)
        assert max_norm(reconstruct(coeffs, basis) - matrix_unit(n, n - 1, n - 1)) <= 1e-14


def test_round_trip_symmetric_unit():
    basis = orthonormal_basis(2)
    m = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
    assert max_norm(reconstruct(expand(m, basis), basis) - m) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_round_trip_random_matrices(n, rng):
    basis = orthonormal_basis(n)
    for _ in range(5):
        m = random_complex(rng, n)
        back = reconstruct(expand(m, basis), basis)
        assert max_norm(back - m) <= 1e-12


def rotated_basis(n):
    """A basis through the public constructor, with two elements mixed."""
    return HermitianBasis(n, rotated(scaled_pauli_stack(n), 1, n * n - 1, 0.3))


@st.composite
def matrices_and_bases(draw):
    n = draw(st.integers(2, 8))
    values = st.floats(-10.0, 10.0, allow_nan=False)
    re, im = draw(hnp.arrays(np.float64, (2, n, n), elements=values))
    m = re + 1j * im
    if draw(st.booleans()):
        m = (m + dagger(m)) / 2
    return m, (orthonormal_basis(n) if draw(st.booleans()) else rotated_basis(n))


@settings(max_examples=100, deadline=None)
@given(matrices_and_bases())
def test_expand_and_reconstruct_match_the_dense_einsum(case):
    m, basis = case
    coeffs = expand(m, basis)
    assert max_norm(coeffs - einsum_expand(m, basis)) <= 1e-12
    assert max_norm(reconstruct(coeffs, basis) - einsum_reconstruct(coeffs, basis)) <= 1e-12


def test_expand_refuses_complex_coefficients_of_a_hermitian_matrix():
    # An element Hermitian only within the tolerance gives a Hermitian
    # matrix with large entries a complex coefficient.
    stack = scaled_pauli_stack(3)
    stack[1, 0, 1] += 5e-13
    basis = HermitianBasis(3, stack)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1], m[1, 0] = 1e3j, -1e3j
    for route in (expand, einsum_expand):
        with pytest.raises(ArithmeticError, match="complex coefficients"):
            route(m, basis)


@pytest.mark.parametrize("n", [5, 16, 64])
def test_expand_does_not_check_input_hermitian_only_within_a_tolerance(n):
    # Within 1e-12 of Hermitian, yet the identity coefficient's imaginary
    # part is sqrt(n)/2 * 1e-12, above 1e-12 from n = 5 on: the input's own,
    # not a basis bug.
    m = np.eye(n) / n + 0.5e-12j * np.eye(n)
    for route in (expand, einsum_expand):
        coeffs = route(m, orthonormal_basis(n))
        assert coeffs[0] == pytest.approx(1 / np.sqrt(n) + 0.5e-12j * np.sqrt(n), abs=1e-15)
        assert max_norm(coeffs[1:]) <= 1e-15


def test_expand_validates_shape():
    basis = orthonormal_basis(2)
    with pytest.raises(ValueError):
        expand(np.eye(3), basis)
    with pytest.raises(ValueError):
        reconstruct(np.ones(5), basis)


def test_diagonal_block_slice_selects_diagonal_elements():
    n = 4
    basis = orthonormal_basis(n)
    block = basis.elements[diagonal_block_slice(n)]
    assert block.shape[0] == n - 1
    for e in block:
        assert max_norm(e - np.diag(np.diag(e))) == 0.0
        assert max_norm(e - dagger(e)) == 0.0


def test_basis_entry_points_refuse_a_non_integer_dimension():
    # 2.0 hashes as 2 does: a cached basis must not be served for it.
    orthonormal_basis(2)
    for build in (orthonormal_basis, generalized_pauli,
                  lambda n: HermitianBasis(n, np.array(PAULI) / np.sqrt(2.0))):
        with pytest.raises(ValueError, match="dimension must be an integer, got 2.0"):
            build(2.0)
        with pytest.raises(ValueError, match="dimension must be at least 2, got 1"):
            build(1)
        assert len(build(np.int64(2))) == 4
