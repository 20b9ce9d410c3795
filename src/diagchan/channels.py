"""Diagonal channels on the orthonormal Hermitian basis.

A diagonal channel is described by n^2 real coefficients in basis order,
with leading coefficient 1 (trace preservation). This module provides the
four named depolarizing-type families with parameter-range validation,
channel application, Choi matrix assembly, and verification of complete
positivity and trace preservation.

Most functions accept either a validated :class:`DiagonalChannel` or a raw
coefficient vector. The raw-vector path exists so that out-of-range or
non-trace-preserving coefficient sets can still be *checked* (and reported
unhealthy) even though :class:`DiagonalChannel` refuses to carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOL, _check_dimension, _check_tolerance, as_complex_matrix, max_norm

#: Slack applied to family parameter bounds and coefficient bounds.
BOUND_SLACK = 1e-12


class ChannelFamily(Enum):
    """The four named diagonal channel families."""

    DEPOLARIZING = "depolarizing"
    TRANSPOSE_DEPOLARIZING = "transpose_depolarizing"
    HYBRID_DEPOLARIZING_CLASSICAL = "hybrid_depolarizing_classical"
    HYBRID_TRANSPOSE_DEPOLARIZING_CLASSICAL = "hybrid_transpose_depolarizing_classical"


# Sign of p on the (symmetric, antisymmetric, diagonal) coefficient blocks.
_FAMILY_SIGNS = {
    ChannelFamily.DEPOLARIZING: (1.0, 1.0, 1.0),
    ChannelFamily.TRANSPOSE_DEPOLARIZING: (1.0, -1.0, 1.0),
    ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL: (-1.0, -1.0, 1.0),
    ChannelFamily.HYBRID_TRANSPOSE_DEPOLARIZING_CLASSICAL: (-1.0, 1.0, 1.0),
}


def family_parameter_range(family: ChannelFamily | str, n: int) -> tuple[float, float]:
    """Closed interval [lo, hi] of mixing parameters giving a valid channel."""
    family = ChannelFamily(family)
    n = _check_dimension(n)
    if family is ChannelFamily.DEPOLARIZING:
        return (-1.0 / (n * n - 1), 1.0)
    if family is ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL:
        return (-1.0 / (2 * n - 1), 1.0 / (n - 1) ** 2)
    # Both transpose variants share one interval.
    return (-1.0 / (n - 1), 1.0 / (n + 1))


@dataclass(frozen=True, eq=False)
class DiagonalChannel:
    """A diagonal channel: dimension plus n^2 coefficients in basis order.

    Construction requires a leading coefficient of exactly 1 (within 1e-12,
    then snapped) and all coefficients in [-1, 1]; both are necessary for a
    trace-preserving channel, though not sufficient for complete positivity,
    which is checked on demand via :func:`is_completely_positive`.
    """

    dim: int
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=np.float64).ravel()
        n = _check_dimension(self.dim)
        if arr.size != n * n:
            raise ValueError(f"expected {n * n} coefficients for dimension {n}, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        if abs(arr[0] - 1.0) > BOUND_SLACK:
            raise ValueError(f"leading coefficient must be 1, got {arr[0]!r}")
        arr[0] = 1.0
        worst = float(np.max(np.abs(arr)))
        if worst > 1.0 + BOUND_SLACK:
            pos = int(np.argmax(np.abs(arr)))
            raise ValueError(
                f"coefficient {arr[pos]!r} at basis position {pos} lies outside [-1, 1]"
            )
        arr = np.clip(arr, -1.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "coefficients", arr)

    @classmethod
    def from_family(cls, family: ChannelFamily | str, n: int, p: float) -> "DiagonalChannel":
        """Build a family channel, validating p against the family's interval."""
        family = ChannelFamily(family)
        lo, hi = family_parameter_range(family, n)
        if not (lo - BOUND_SLACK <= p <= hi + BOUND_SLACK):
            raise ValueError(
                f"{family.value}: p={p!r} outside the valid range [{lo!r}, {hi!r}] for n={n}"
            )
        num_pairs = n * (n - 1) // 2
        s_sym, s_anti, s_diag = _FAMILY_SIGNS[family]
        coeffs = np.concatenate([
            [1.0],
            np.full(num_pairs, s_sym * p),
            np.full(num_pairs, s_anti * p),
            np.full(n - 1, s_diag * p),
        ])
        return cls(n, coeffs)

    def apply(self, a) -> np.ndarray:
        return apply_channel(self, a)

    def choi(self) -> np.ndarray:
        return choi_matrix(self)

    def compose(self, other: "DiagonalChannel") -> "DiagonalChannel":
        """Composition with another diagonal channel (coefficients multiply)."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return DiagonalChannel(self.dim, self.coefficients * other.coefficients)


def channel_coefficients(channel) -> tuple[int, np.ndarray]:
    """Normalize a channel argument to (dimension, coefficient vector).

    Accepts a :class:`DiagonalChannel` or any length-n^2 real vector.
    Raw vectors skip the construction-time invariants so that broken
    channels can still be diagnosed.
    """
    if isinstance(channel, DiagonalChannel):
        return channel.dim, channel.coefficients
    arr = np.asarray(channel, dtype=np.float64).ravel()
    n = math.isqrt(arr.size)
    if n < 2 or n * n != arr.size:
        raise ValueError(
            f"coefficient vector length {arr.size} is not n^2 for any dimension n >= 2"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return n, arr


def _coefficient_blocks(channel) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, coupled, pair, t)``: a channel's coefficients by basis block.
    With s and a the symmetric and antisymmetric coefficients of the pairs
    i < j in the order of ``basis.pair_indices``, ``coupled`` is (s+a)/2
    and ``pair`` (s-a)/2, each term halved before the sum so that neither
    overflows; t holds the leading coefficient followed by the n-1
    diagonal-block coefficients."""
    n, coeffs = channel_coefficients(channel)
    num_pairs = n * (n - 1) // 2
    halves = coeffs[1:1 + 2 * num_pairs] / 2.0
    s, a = halves[:num_pairs], halves[num_pairs:]
    t = np.concatenate([coeffs[:1], coeffs[1 + 2 * num_pairs:]])
    return n, s + a, s - a, t


@lru_cache(maxsize=None)
def _diagonal_sub_basis(n: int) -> np.ndarray:
    """Read-only n x n orthogonal matrix W whose rows are the diagonals of
    the identity/sqrt(n) and of the n-1 traceless diagonal basis elements."""
    m = np.arange(n)
    w = np.tri(n, n, -1) - np.diag(m)
    w[0] = 1.0
    w /= np.sqrt(np.where(m == 0, n, m * (m + 1.0)))[:, None]
    w.setflags(write=False)
    return w


def _transition_matrix(n: int, t: np.ndarray) -> np.ndarray:
    """``M = W^T diag(t) W``; the image of E_ii has M's column i on its diagonal."""
    w = _diagonal_sub_basis(n)
    return w.T @ (t[:, None] * w)


class _ChoiSlots(NamedTuple):
    """Where a diagonal channel's entries sit in its n^2 x n^2 Choi matrix.

    Row and column i*n+j hold the slot of the matrix unit E_ij. ``coupled``
    lists the n slots i*n+i of the coupled block D, which is the strided
    view ``C[::n+1, ::n+1]``; ``upper`` and ``lower`` list the slots i*n+j
    and j*n+i of each pair i < j, in the order of ``basis.pair_indices``.
    ``pattern`` lists the positions in the flattened C of D's entries,
    row-major, then of the pairs' entries (i*n+j, i*n+j), (j*n+i, j*n+i),
    (i*n+j, j*n+i) and (j*n+i, i*n+j), each group in pair order. D and the
    pair blocks cover the diagonal; every entry off them is zero.
    """

    coupled: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    pattern: np.ndarray


@lru_cache(maxsize=None)
def _choi_slots(n: int) -> _ChoiSlots:
    rows, cols = np.triu_indices(n, 1)
    upper, lower = rows * n + cols, cols * n + rows
    coupled, size = np.arange(n) * (n + 1), n * n
    pairs = np.stack([upper, lower, upper, lower]) * size + np.stack([upper, lower, lower, upper])
    slots = _ChoiSlots(coupled, upper, lower,
                       np.concatenate([(coupled[:, None] * size + coupled).reshape(-1),
                                       pairs.reshape(-1)]))
    for index in slots:
        index.setflags(write=False)
    return slots


def apply_channel(channel, a) -> np.ndarray:
    """Apply a diagonal channel in O(n^2) from its coefficient blocks.

    Off the diagonal ``Phi(X)_ij = ((s+a)/2) X_ij + ((s-a)/2) X_ji`` for the
    pair (i, j); on it ``diag Phi(X) = W^T (t * W diag X)``. This equals
    expanding X in the orthonormal basis, scaling each coefficient and
    reconstructing, without the n^2 basis elements.
    """
    n, coupled, pair, t = _coefficient_blocks(channel)
    m = as_complex_matrix(a)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    # Symmetric n x n matrices with zero diagonal holding (s+a)/2 and
    # (s-a)/2 at (i, j) and (j, i).
    slots = _choi_slots(n)
    same = np.zeros(n * n)
    swapped = np.zeros(n * n)
    same[slots.upper] = same[slots.lower] = coupled
    swapped[slots.upper] = swapped[slots.lower] = pair
    out = same.reshape(n, n) * m + swapped.reshape(n, n) * m.T
    w = _diagonal_sub_basis(n)
    np.fill_diagonal(out, w.T @ (t * (w @ np.diagonal(m))))
    return out


class _ChoiBlocks(NamedTuple):
    """A diagonal channel's Choi matrix C by block, on the slots of
    :func:`_choi_slots`: the coupled block ``d = C[::n+1, ::n+1]`` and, for
    every pair i < j, the 2 x 2 block ``[[x, b], [b*, y]]`` on the slots
    (i*n+j, j*n+i). Every other entry of C is zero. ``d`` and ``b`` are
    complex, ``x`` and ``y`` real.

    From a channel, ``d`` is ``M = W^T diag(t) W`` on its diagonal and
    (s+a)/2 off it, ``x = M_ij``, ``y = M_ji`` and ``b = (s-a)/2``, all
    real-valued, and every zero is +0.0, as in :func:`choi_matrix`.

    C's upper triangular factor R, with ``C = R^* R``, has no fill-in and
    is held in the same record: ``d`` is D's n x n factor, ``x`` and ``y``
    the roots of each pair's rows i*n+j and j*n+i, and ``b`` the entry of
    row i*n+j at column j*n+i. The last group of :meth:`entries`, the
    mirrors of b, then lies below R's diagonal, where R is zero. A
    factor's blocks can be real: the closed form's ``d`` and ``b`` are.
    """

    n: int
    d: np.ndarray
    x: np.ndarray
    y: np.ndarray
    b: np.ndarray

    def scale(self) -> float:
        """``max_norm(C)``: the largest magnitude in the blocks."""
        return max(max_norm(self.d), max_norm(self.x), max_norm(self.y), max_norm(self.b))

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(position, value)``: every entry of the blocks, at its position
        ``_choi_slots(n).pattern`` in the flattened C. Every entry of C off
        these positions is zero."""
        # The conjugate turns +0.0 imaginary parts into -0.0; adding 0.0 restores them.
        return _choi_slots(self.n).pattern, np.concatenate(
            [self.d.reshape(-1), self.x, self.y, self.b, self.b.conj() + 0.0])


def _choi_blocks(channel) -> _ChoiBlocks:
    """The Choi matrix's blocks from the coefficient blocks, in O(n^2) plus
    the n x n GEMM of M. Adding 0.0 turns every -0.0 into +0.0."""
    n, coupled, pair, t = _coefficient_blocks(channel)
    slots = _choi_slots(n)
    # Entry (i, j) of an n x n matrix sits at i*n+j of its flattening: the
    # slot numbers index D and M.
    m = _transition_matrix(n, t).reshape(-1) + 0.0
    d = np.zeros(n * n)
    d[slots.coupled] = m[slots.coupled]
    d[slots.upper] = d[slots.lower] = coupled
    return _ChoiBlocks(n, (d + 0j).reshape(n, n), m[slots.upper], m[slots.lower], pair + 0j)


def choi_matrix(channel) -> np.ndarray:
    """The n^2 x n^2 Choi matrix, scattered from :func:`_choi_blocks`.

    Block (i, j) of size n x n is the channel image of the matrix unit
    E_ij: block (i, i) is ``diag(M[i])`` with ``M = W^T diag(t) W``, the
    coupled slots (i*n+i, j*n+j) hold (s+a)/2 and the pair slots
    (i*n+j, j*n+i) hold (s-a)/2. Every other entry is zero. Every block is
    symmetric, so the result is exactly Hermitian by construction, and no
    entry is -0.0.
    """
    blocks = _choi_blocks(channel)
    position, value = blocks.entries()
    c = np.zeros(blocks.n ** 4, dtype=np.complex128)
    c[position] = value
    return c.reshape(blocks.n ** 2, -1)


def min_choi_eigenvalue(channel) -> float:
    """Smallest eigenvalue of the Choi matrix (negative means not CP), in O(n^3).

    The Choi matrix is a permutation of the coupled block D and of one real
    2 x 2 block ``[[x, b], [b, y]]`` per pair (see :class:`_ChoiBlocks`).
    The smaller eigenvalue of a pair block is
    ``(x+y)/2 - hypot((x-y)/2, b)``, with x and y halved before the sums so
    that they do not overflow. The Choi matrix itself is never built.
    """
    # A channel's blocks are real-valued: the real symmetric eigensolver.
    blocks = _choi_blocks(channel)
    x, y = blocks.x / 2.0, blocks.y / 2.0
    pairs = x + y - np.hypot(x - y, blocks.b.real)
    return float(min(np.linalg.eigvalsh(blocks.d.real)[0], pairs.min()))


def is_completely_positive(channel, tol: float = DEFAULT_TOL) -> bool:
    """Whether the Choi matrix is positive semidefinite to within ``tol``.

    Raises:
        ValueError: ``tol`` is not a finite number >= 0, checked first.
    """
    _check_tolerance(tol)
    return min_choi_eigenvalue(channel) >= -tol


def is_trace_preserving(channel, tol: float = DEFAULT_TOL) -> bool:
    """Whether the channel preserves the trace of every basis element.

    Every basis element but the first is traceless and maps to a multiple
    of itself, so only the identity/sqrt(n) can change its trace, by
    ``|c_0 - 1| sqrt(n)``.

    Raises:
        ValueError: ``tol`` is not a finite number >= 0, checked first.
    """
    _check_tolerance(tol)
    n, coeffs = channel_coefficients(channel)
    return bool(abs(coeffs[0] - 1.0) * math.sqrt(n) <= tol)
