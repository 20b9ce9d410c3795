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

from .linalg import (
    _check_dimension,
    _entry_stack,
    _EntryFamily,
    _identity_residual,
    _sparse_gram,
    as_complex_matrix,
    dagger,
    max_norm,
)

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
    return list(_entry_stack(np.arange(n * n), n, *_pauli_entries(n)))


def _pauli_entries(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of :func:`generalized_pauli`, about 2.5 n^2 of
    them, as ``(offsets, position, value)``: element k's entries are
    ``offsets[k]:offsets[k + 1]``, each at the flat index ``row * n + column``,
    in increasing order within the element."""
    n = _check_dimension(n)
    i, j = np.triu_indices(n, 1)  # the pairs in lexicographic order
    pairs = np.stack([i * n + j, j * n + i], axis=1).reshape(-1)
    # The m-th diagonal element holds m ones and -m at diagonal slots 0..m.
    sizes = np.arange(2, n + 1)
    level = np.repeat(sizes - 1, sizes)
    slot = np.arange(level.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    position = np.concatenate([np.arange(n) * (n + 1), pairs, pairs, slot * (n + 1)])
    value = np.concatenate([np.ones(n + pairs.size), np.tile([-1j, 1j], i.size),
                            np.where(slot < level, 1.0, -level)]).astype(np.complex128)
    counts = np.concatenate([[n], np.full(2 * i.size, 2), sizes])
    return np.concatenate([[0], np.cumsum(counts)]), position, value


@dataclass(frozen=True, eq=False, init=False)
class HermitianBasis(_EntryFamily):
    """Ordered orthonormal family of n^2 Hermitian matrices.

    The basis holds only the nonzero entries of its elements, in the
    read-only arrays of :class:`~diagchan.linalg._EntryFamily`. The
    constructor copies them out of the (n^2, n, n) stack it is given;
    :func:`orthonormal_basis` writes its O(n^2) entries directly.
    ``elements``, indexing and iteration build read-only arrays on access,
    with +0.0 at every zero entry.

    Construction refuses, in this order: n < 2, a stack of any other shape,
    a non-finite entry, an element that is not Hermitian within
    :data:`ORTHONORMALITY_ATOL`, and a Gram matrix farther than that from
    the identity in any entry. Both checks read the nonzero entries: the
    Hermiticity drift compares each with its mirror, which gives the drift
    of the whole stack, and :func:`~diagchan.linalg._sparse_gram` sums the
    Gram matrix over the pairs of elements that share a nonzero position,
    in O(n^3) for bases whose elements hold O(n) nonzeros, such as
    :func:`orthonormal_basis`, and by one GEMM for dense elements.
    """

    dim: int

    def __init__(self, dim: int, elements):
        n = _check_dimension(dim)
        arr = np.asarray(elements, dtype=np.complex128)
        if arr.shape != (n * n, n, n):
            raise ValueError(f"expected {(n * n, n, n)} element stack, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        self._hold_stack(n, arr.reshape(n * n, n * n))._check()

    def _check(self) -> HermitianBasis:
        """Refuse held elements that are not Hermitian or not orthonormal.
        Returns the basis."""
        n, position, value = self.dim, self._position, self._value
        element = self._member()
        # Entries sorted by (element, position), so a mirror is found by search.
        key = element * (n * n) + position
        row, column = np.divmod(position, n)
        mirror = key - position + column * n + row
        at = np.minimum(key.searchsorted(mirror), key.size - 1)
        drift = max_norm(value - np.where(key[at] == mirror, value[at], 0.0).conj())
        if drift > ORTHONORMALITY_ATOL:
            raise ValueError(f"basis elements are not Hermitian: max drift {drift:.3e}")
        # Columns of the n^2 x n^2 matrix of flattened elements are the
        # elements, so its Gram entries are <e_p, e_q>; its rows are the positions.
        gram = _sparse_gram(position, element, value, n * n)
        if _identity_residual(*gram, n * n) > ORTHONORMALITY_ATOL:
            raise ValueError("basis is not orthonormal under the Hilbert-Schmidt inner product")
        return self

    @property
    def elements(self) -> np.ndarray:
        """The elements as one read-only (n^2, n, n) array, built on each
        access."""
        return self[:]

    def __getitem__(self, idx) -> np.ndarray:
        """The elements at ``idx``, an index of the element axis, built as a
        read-only array of shape ``elements[idx].shape``."""
        picked = np.arange(len(self))[idx]
        n = self.dim
        out = _entry_stack(picked.reshape(-1), n, self._offsets, self._position, self._value)
        out = out.reshape(picked.shape + (n, n))
        out.setflags(write=False)
        return out


# Typed: 2.0 hashes as 2 does, and must be refused, not served from the cache.
@lru_cache(maxsize=None, typed=True)
def orthonormal_basis(n: int) -> HermitianBasis:
    """The orthonormal Hermitian basis in standard order.

    Normalizations: identity by 1/sqrt(n), pair matrices by 1/sqrt(2), and
    the m-th traceless diagonal matrix by 1/sqrt(m(m+1)). Results are
    cached per dimension and type of ``n`` and safe to share. The basis is
    built from the O(n^2) nonzero entries of :func:`generalized_pauli`,
    with no n^4 array.
    """
    offsets, position, value = _pauli_entries(n)
    num_pairs = n * (n - 1) // 2
    levels = np.arange(1, n)
    scales = np.concatenate([[1.0 / np.sqrt(n)], np.full(2 * num_pairs, 1.0 / np.sqrt(2.0)),
                             1.0 / np.sqrt(levels * (levels + 1.0))])
    value *= np.repeat(scales, np.diff(offsets))
    return object.__new__(HermitianBasis)._hold(n, offsets, position, value)._check()


def diagonal_block_slice(n: int) -> slice:
    """Positions of the traceless diagonal elements within the basis order."""
    return slice(1 + n * (n - 1), n * n)


def expand(a, basis: HermitianBasis) -> np.ndarray:
    """Expansion coefficients ``<e_k | a>`` of ``a`` in basis order.

    Coefficients are returned complex. For exactly Hermitian input
    (``a == a^*`` entrywise), whose coefficients in :func:`orthonormal_basis`
    are exactly real, they are validated to be real to within 1e-12, which
    catches Hermiticity bugs in the basis early. Input Hermitian only within
    a tolerance is not checked: its anti-Hermitian part alone can give a
    coefficient an imaginary part above 1e-12.
    """
    m = as_complex_matrix(a)
    n = basis.dim
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    element = basis._member()
    terms = basis._value.conj() * m.reshape(-1)[basis._position]
    coeffs = (np.bincount(element, terms.real, len(basis))
              + 1j * np.bincount(element, terms.imag, len(basis)))
    if np.array_equal(m, dagger(m)) and float(np.max(np.abs(coeffs.imag))) > 1e-12:
        raise ArithmeticError("expansion of a Hermitian matrix produced complex coefficients")
    return coeffs


def reconstruct(coeffs, basis: HermitianBasis) -> np.ndarray:
    """Linear combination ``sum_k coeffs[k] * e_k`` of the basis elements."""
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients, got {c.size}")
    n = basis.dim
    terms = np.repeat(c, np.diff(basis._offsets)) * basis._value
    out = (np.bincount(basis._position, terms.real, n * n)
           + 1j * np.bincount(basis._position, terms.imag, n * n))
    return out.reshape(n, n)
