"""Orthonormal Hermitian operator bases for n x n complex matrices.

The basis consists of the identity, the symmetric and antisymmetric pair
matrices built on each index pair (i, j) with i < j, and the traceless
diagonal matrices diag(1, ..., 1, -m, 0, ..., 0) with m leading ones.
All elements are normalized to unit Hilbert-Schmidt norm, in the fixed
order: identity, symmetric block, antisymmetric block, diagonal block.
Pairs run lexicographically: (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _identity_residual, _sparse_gram, as_complex_matrix, dagger, max_norm

#: Absolute tolerance on the Gram matrix of a basis.
ORTHONORMALITY_ATOL = 1e-12


def pair_indices(n: int) -> list[tuple[int, int]]:
    """Zero-based index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def generalized_pauli(n: int) -> list[np.ndarray]:
    """Unnormalized Hermitian family spanning the n x n matrices.

    Returns n^2 matrices in basis order: the identity; for each pair i < j
    the symmetric matrix with 1 at (i, j) and (j, i); for each pair the
    antisymmetric matrix with -i at (i, j) and +i at (j, i); and for each
    m = 1..n-1 the diagonal matrix with m leading ones followed by -m.
    For n = 2 this is exactly the Pauli family (identity, x, y, z). The
    matrices are views of one (n^2, n, n) array.
    """
    return list(_pauli_stack(n))


def _pauli_stack(n: int) -> np.ndarray:
    """The matrices of :func:`generalized_pauli` as one (n^2, n, n) array:
    one allocation, where n^2 small ones would leave their freed memory
    resident in the process."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    stack = np.zeros((n * n, n, n), dtype=np.complex128)
    np.fill_diagonal(stack[0], 1.0)
    pairs = pair_indices(n)
    for (i, j), sym, anti in zip(pairs, stack[1:], stack[1 + len(pairs):]):
        sym[i, j] = sym[j, i] = 1.0
        anti[i, j], anti[j, i] = -1.0j, 1.0j
    for m_ones, d in zip(range(1, n), stack[1 + 2 * len(pairs):]):
        np.fill_diagonal(d[:m_ones, :m_ones], 1.0)
        d[m_ones, m_ones] = -float(m_ones)
    return stack


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Ordered orthonormal family of n^2 Hermitian matrices.

    ``elements`` is a read-only (n^2, n, n) complex array, a copy of the
    stack given (:func:`orthonormal_basis` hands over the stack it built
    instead). Construction refuses, in this order: n < 2, a stack of any
    other shape, a non-finite entry, an element that is not Hermitian within
    :data:`ORTHONORMALITY_ATOL`, and a Gram matrix farther than that from the
    identity in any entry. Both checks read the nonzero entries of one scan:
    the Hermiticity drift compares each with its mirror, which gives the
    drift of the whole stack, and :func:`~diagchan.linalg._sparse_gram` sums
    the Gram matrix over the pairs of elements that share a nonzero
    position, in O(n^3) for bases whose elements hold O(n) nonzeros, such
    as :func:`orthonormal_basis`, and by one GEMM for dense elements.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        self._hold(self.dim, np.array(self.elements, dtype=np.complex128))

    def _hold(self, n: int, arr: np.ndarray) -> HermitianBasis:
        """Take over ``arr``, a complex array that no one else writes to,
        with the constructor's checks but without its copy. Returns the
        basis."""
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
        if arr.shape != (n * n, n, n):
            raise ValueError(f"expected {(n * n, n, n)} element stack, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        # Columns of the transposed flat stack are the elements, so its Gram
        # entries are <e_p, e_q>. One scan lists the nonzero entries by
        # position (i, j), then element: the row order that Gram reads.
        i, j, k = np.unravel_index(np.flatnonzero(arr.transpose(1, 2, 0) != 0), (n, n, n * n))
        values = arr[k, i, j]
        drift = max_norm(values - arr[k, j, i].conj())
        if drift > ORTHONORMALITY_ATOL:
            raise ValueError(f"basis elements are not Hermitian: max drift {drift:.3e}")
        worst = _identity_residual(*_sparse_gram(i * n + j, k, values, n * n), n * n)
        if worst > ORTHONORMALITY_ATOL:
            raise ValueError("basis is not orthonormal under the Hilbert-Schmidt inner product")
        arr.setflags(write=False)
        vars(self).update(dim=n, elements=arr)
        return self

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, idx) -> np.ndarray:
        return self.elements[idx]


@lru_cache(maxsize=None)
def orthonormal_basis(n: int) -> HermitianBasis:
    """The orthonormal Hermitian basis in standard order.

    Normalizations: identity by 1/sqrt(n), pair matrices by 1/sqrt(2), and
    the m-th traceless diagonal matrix by 1/sqrt(m(m+1)). Results are
    cached per dimension and safe to share.
    """
    elements = _pauli_stack(n)
    num_pairs = n * (n - 1) // 2
    scales = [1.0 / np.sqrt(n)]
    scales += [1.0 / np.sqrt(2.0)] * (2 * num_pairs)
    scales += [1.0 / np.sqrt(m * (m + 1.0)) for m in range(1, n)]
    for element, scale in zip(elements, scales):
        element *= scale
    # The stack is built here alone, so the basis takes it without a copy.
    return object.__new__(HermitianBasis)._hold(n, elements)


def diagonal_block_slice(n: int) -> slice:
    """Positions of the traceless diagonal elements within the basis order."""
    return slice(1 + n * (n - 1), n * n)


def expand(a, basis: HermitianBasis) -> np.ndarray:
    """Expansion coefficients ``<e_k | a>`` of ``a`` in basis order.

    Coefficients are returned complex; for Hermitian input they are
    validated to be real to within 1e-12, which catches Hermiticity bugs
    early.
    """
    m = as_complex_matrix(a)
    n = basis.dim
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    coeffs = np.einsum("aij,ij->a", basis.elements.conj(), m)
    if max_norm(m - dagger(m)) <= 1e-12 and float(np.max(np.abs(coeffs.imag))) > 1e-12:
        raise ArithmeticError("expansion of a Hermitian matrix produced complex coefficients")
    return coeffs


def reconstruct(coeffs, basis: HermitianBasis) -> np.ndarray:
    """Linear combination ``sum_k coeffs[k] * e_k`` of the basis elements."""
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients, got {c.size}")
    return np.einsum("a,aij->ij", c, basis.elements)
