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

from .linalg import DEFAULT_TOL, as_complex_matrix

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
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
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
        n = self.dim
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
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


class _Blocks(NamedTuple):
    """A coefficient vector split by basis block.

    ``coupled`` and ``pair`` are symmetric n x n matrices with zero diagonal
    holding (s+a)/2 and (s-a)/2 at (i, j) and (j, i) for every pair i < j,
    where s and a are the pair's symmetric and antisymmetric coefficients.
    ``t`` holds the leading coefficient followed by the n-1 diagonal-block
    coefficients, and ``w`` is the diagonal sub-basis acting on them.
    """

    n: int
    coupled: np.ndarray
    pair: np.ndarray
    t: np.ndarray
    w: np.ndarray


@lru_cache(maxsize=None)
def _diagonal_sub_basis(n: int) -> np.ndarray:
    """Read-only n x n orthogonal matrix W whose rows are the diagonals of
    the identity/sqrt(n) and of the n-1 traceless diagonal basis elements."""
    w = np.zeros((n, n))
    w[0] = 1.0 / np.sqrt(n)
    for m in range(1, n):
        w[m, :m] = 1.0
        w[m, m] = -float(m)
        w[m] /= np.sqrt(m * (m + 1.0))
    w.setflags(write=False)
    return w


def _blocks(channel) -> _Blocks:
    """Split a channel's coefficients into its (s, a, t) blocks, in O(n^2)."""
    n, coeffs = channel_coefficients(channel)
    num_pairs = n * (n - 1) // 2
    s = coeffs[1:1 + num_pairs]
    a = coeffs[1 + num_pairs:1 + 2 * num_pairs]
    slots = _choi_slots(n)  # the pairs in the order of basis.pair_indices
    coupled = np.zeros(n * n)
    pair = np.zeros(n * n)
    coupled[slots.upper] = coupled[slots.lower] = (s + a) / 2.0
    pair[slots.upper] = pair[slots.lower] = (s - a) / 2.0
    t = np.concatenate([coeffs[:1], coeffs[1 + 2 * num_pairs:]])
    return _Blocks(n, coupled.reshape(n, n), pair.reshape(n, n), t, _diagonal_sub_basis(n))


def _transition_matrix(b: _Blocks) -> np.ndarray:
    """``M = W^T diag(t) W``; the image of E_ii has M's column i on its diagonal."""
    return b.w.T @ (b.t[:, None] * b.w)


class _ChoiSlots(NamedTuple):
    """Where a diagonal channel's entries sit in its n^2 x n^2 Choi matrix.

    Row and column i*n+j hold the slot of the matrix unit E_ij. ``coupled``
    lists the n slots i*n+i of the coupled block D; ``upper`` and ``lower``
    list the slots i*n+j and j*n+i of each pair i < j, in the order of
    ``basis.pair_indices``. Every entry off these slots and off the diagonal
    is zero. ``pair_entries`` and ``coupled_entries`` are (2, pairs) arrays
    of positions in the flattened matrix: the pair's entries (i*n+j, j*n+i)
    and (j*n+i, i*n+j), and D's entries (i*n+i, j*n+j) and (j*n+j, i*n+i).
    """

    coupled: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    pair_entries: np.ndarray
    coupled_entries: np.ndarray


@lru_cache(maxsize=None)
def _choi_slots(n: int) -> _ChoiSlots:
    rows, cols = np.triu_indices(n, 1)
    upper, lower = rows * n + cols, cols * n + rows
    first, second = rows * (n + 1), cols * (n + 1)
    size = n * n
    slots = _ChoiSlots(np.arange(n) * (n + 1), upper, lower,
                       np.stack([upper * size + lower, lower * size + upper]),
                       np.stack([first * size + second, second * size + first]))
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
    b = _blocks(channel)
    m = as_complex_matrix(a)
    if m.shape != (b.n, b.n):
        raise ValueError(f"expected a {b.n}x{b.n} matrix, got shape {m.shape}")
    out = b.coupled * m + b.pair * m.T
    np.fill_diagonal(out, b.w.T @ (b.t * (b.w @ np.diagonal(m))))
    return out


def choi_matrix(channel) -> np.ndarray:
    """The n^2 x n^2 Choi matrix, scattered from the coefficient blocks.

    Block (i, j) of size n x n is the channel image of the matrix unit
    E_ij: block (i, i) is ``diag(M[i])`` with ``M = W^T diag(t) W``, the
    coupled slots (i*n+i, j*n+j) hold (s+a)/2 and the pair slots
    (i*n+j, j*n+i) hold (s-a)/2. Every other entry is zero. Every block is
    symmetric, so the result is exactly Hermitian by construction; each
    scattered value has ``+ 0.0`` added, which turns -0.0 into +0.0.
    """
    b = _blocks(channel)
    n = b.n
    slots = _choi_slots(n)
    c = np.zeros((n * n, n * n), dtype=np.complex128)
    entries = c.reshape(-1)
    entries[slots.pair_entries] = b.pair.flat[slots.upper] + 0.0
    entries[slots.coupled_entries] = b.coupled.flat[slots.upper] + 0.0
    np.fill_diagonal(c, _transition_matrix(b).ravel() + 0.0)
    return c


class _ChoiBlocks(NamedTuple):
    """A diagonal channel's Choi matrix by block, on the slots of
    :func:`_choi_slots`: the real coupled block ``d`` on the slots i*n+i, with
    ``M = W^T diag(t) W`` on its diagonal and (s+a)/2 off it, and for every
    pair i < j the real 2 x 2 block ``[[x, b], [b, y]]`` with ``x = M_ij``,
    ``y = M_ji`` and ``b = (s-a)/2``. Every entry of ``d`` is +0.0 if zero."""

    n: int
    d: np.ndarray
    x: np.ndarray
    y: np.ndarray
    b: np.ndarray


def _choi_blocks(channel) -> _ChoiBlocks:
    """The Choi matrix's blocks from the coefficient blocks, in O(n^2) plus
    the n x n GEMM of M."""
    blocks = _blocks(channel)
    m = _transition_matrix(blocks)
    slots = _choi_slots(blocks.n)
    # Adding the diagonal matrix adds +0.0 to every entry of D.
    d = blocks.coupled + np.diag(np.diagonal(m))
    return _ChoiBlocks(blocks.n, d, m.flat[slots.upper], m.flat[slots.lower],
                       blocks.pair.flat[slots.upper])


def min_choi_eigenvalue(channel) -> float:
    """Smallest eigenvalue of the Choi matrix (negative means not CP), in O(n^3).

    The Choi matrix is a permutation of the coupled block D and of one real
    2 x 2 block ``[[x, b], [b, y]]`` per pair (see :class:`_ChoiBlocks`).
    The smaller eigenvalue of a pair block is
    ``(x+y)/2 - hypot((x-y)/2, b)``. The Choi matrix itself is never built.
    """
    blocks = _choi_blocks(channel)
    x, y = blocks.x, blocks.y
    pairs = (x + y) / 2.0 - np.hypot((x - y) / 2.0, blocks.b)
    return float(min(np.linalg.eigvalsh(blocks.d)[0], pairs.min()))


def is_completely_positive(channel, tol: float = DEFAULT_TOL) -> bool:
    """Whether the Choi matrix is positive semidefinite to within ``tol``."""
    return min_choi_eigenvalue(channel) >= -tol


def is_trace_preserving(channel, tol: float = DEFAULT_TOL) -> bool:
    """Whether the channel preserves the trace of every basis element.

    Every basis element but the first is traceless and maps to a multiple
    of itself, so only the identity/sqrt(n) can change its trace, by
    ``|c_0 - 1| sqrt(n)``.
    """
    n, coeffs = channel_coefficients(channel)
    return bool(abs(coeffs[0] - 1.0) * math.sqrt(n) <= tol)
