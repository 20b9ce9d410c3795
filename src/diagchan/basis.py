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

from .linalg import _sparse_gram, as_complex_matrix, dagger, max_norm

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
    For n = 2 this is exactly the Pauli family (identity, x, y, z).
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    mats = [np.eye(n, dtype=np.complex128)]
    pairs = pair_indices(n)
    for i, j in pairs:
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, j] = 1.0
        m[j, i] = 1.0
        mats.append(m)
    for i, j in pairs:
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, j] = -1.0j
        m[j, i] = 1.0j
        mats.append(m)
    for m_ones in range(1, n):
        d = np.zeros(n, dtype=np.complex128)
        d[:m_ones] = 1.0
        d[m_ones] = -float(m_ones)
        mats.append(np.diag(d))
    return mats


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Ordered orthonormal family of n^2 Hermitian matrices.

    ``elements`` is a read-only (n^2, n, n) complex array, a copy of the
    stack given. Construction refuses, in this order: n < 2, a stack of any
    other shape, a non-finite entry, an element that is not Hermitian within
    :data:`ORTHONORMALITY_ATOL`, and a Gram matrix farther than that from the
    identity in any entry. Both checks read only the nonzero entries: the
    Hermiticity drift compares each with its mirror, which gives the drift
    of the whole stack, and the Gram matrix is summed over the pairs of
    elements that share a nonzero position, in O(n^3) for bases whose
    elements hold O(n) nonzeros, such as :func:`orthonormal_basis`. A basis
    of dense elements, such as a real orthogonal mix of that one, takes n^6
    products: far slower than one GEMM of the stack, in memory a fixed
    multiple of the stack's.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        arr = np.array(self.elements, dtype=np.complex128)
        n = self.dim
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
        if arr.shape != (n * n, n, n):
            raise ValueError(f"expected {(n * n, n, n)} element stack, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        k, i, j = np.unravel_index(np.flatnonzero(arr != 0), arr.shape)
        drift = max_norm(arr[k, i, j] - arr[k, j, i].conj())
        if drift > ORTHONORMALITY_ATOL:
            raise ValueError(f"basis elements are not Hermitian: max drift {drift:.3e}")
        # Columns of the transposed flat stack are the elements, so the Gram
        # entries are <e_p, e_q>; an all-zero element has no diagonal entry
        # and misses its 1 by 1.
        p, q, gram = _sparse_gram(arr.reshape(n * n, n * n).T)
        on_diagonal = p == q
        gram[on_diagonal] -= 1.0
        worst = max(max_norm(gram), 0.0 if on_diagonal.sum() == n * n else 1.0)
        if worst > ORTHONORMALITY_ATOL:
            raise ValueError("basis is not orthonormal under the Hilbert-Schmidt inner product")
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

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
    elements = generalized_pauli(n)
    num_pairs = n * (n - 1) // 2
    scales = [1.0 / np.sqrt(n)]
    scales += [1.0 / np.sqrt(2.0)] * (2 * num_pairs)
    scales += [1.0 / np.sqrt(m * (m + 1.0)) for m in range(1, n)]
    for element, scale in zip(elements, scales):
        element *= scale
    # The basis stacks the list in its own copy: no second stack is built.
    return HermitianBasis(n, elements)


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
