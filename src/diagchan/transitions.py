"""Classical transition probabilities induced on the computational basis.

A diagonal channel sends each basis projector E_kk to a diagonal matrix, so
its action on computational basis states is a classical Markov kernel:
P[k][j] is the j-th diagonal entry of the image of E_kk. The kernel is
computed two independent ways, by direct channel application and from a
closed form in the diagonal-block coefficients alone, so each can serve as
an oracle for the other.
"""

from __future__ import annotations

import numpy as np

from .basis import diagonal_block_slice
from .channels import _apply_blocks, _blocks, channel_coefficients

#: Negative entries above this threshold are rounding noise and clamped to 0.
CLAMP_ATOL = 1e-12

# Most entries in one stack of projectors applied by transition_direct:
# every n <= 101 takes a single stack.
_CHUNK_ENTRIES = 2 ** 20


def _clamp_noise(p: np.ndarray) -> np.ndarray:
    p[(p < 0.0) & (p >= -CLAMP_ATOL)] = 0.0
    return p


def diagonal_block_coefficients(channel) -> np.ndarray:
    """The n-1 coefficients acting on the traceless diagonal directions."""
    n, coeffs = channel_coefficients(channel)
    return coeffs[diagonal_block_slice(n)]


def transition_direct(channel, tol: float = 1e-12) -> np.ndarray:
    """Transition matrix by direct application to the basis projectors.

    Row k holds the diagonal of the channel image of E_kk. The projectors
    are applied as (m, n, n) stacks of at most ``_CHUNK_ENTRIES`` entries,
    so memory stays O(n^2) beyond that fixed chunk. Each image must be
    diagonal to within ``tol``; anything else signals a broken channel or
    basis and raises ArithmeticError naming the first failing projector.
    """
    b = _blocks(channel)
    n = b.n
    p = np.empty((n, n))
    step = max(1, _CHUNK_ENTRIES // (n * n))
    diagonal = np.arange(n)
    for start in range(0, n, step):
        rows = diagonal[start:start + step]
        projectors = np.zeros((rows.size, n, n), dtype=np.complex128)
        projectors[rows - start, rows, rows] = 1.0
        images = _apply_blocks(b, projectors)
        diag = np.diagonal(images, axis1=1, axis2=2).copy()
        images[:, diagonal, diagonal] = 0.0
        off = np.abs(images).max(axis=(1, 2))
        imaginary = np.abs(diag.imag).max(axis=1)
        bad = np.flatnonzero((off > tol) | (imaginary > tol))
        if bad.size:
            k = bad[0]
            if off[k] > tol:
                raise ArithmeticError(
                    f"image of basis projector {rows[k] + 1} is not diagonal "
                    f"(off-diagonal magnitude {off[k]:.3e})"
                )
            raise ArithmeticError(
                f"image of basis projector {rows[k] + 1} has complex diagonal entries"
            )
        p[rows] = diag.real
    return _clamp_noise(p)


def transition_closed_form(t, n: int) -> np.ndarray:
    """Transition matrix from the n-1 diagonal-block coefficients alone.

    Entry conventions (1-based k for the source state, j for the target):

    * j < k:  1/n - t[k-1]/k + tail(k)
    * j = k:  1/n + (k-1) t[k-1]/k + tail(k)
    * j > k:  1/n - t[j-1]/j + tail(j)

    where tail(m) = sum_{i=m}^{n-1} t[i] / (i (i+1)). For k = 1 the t[k-1]
    term carries coefficient zero and is never evaluated. An entry off the
    diagonal depends only on max(j, k).
    """
    t = np.asarray(t, dtype=np.float64).ravel()
    if t.size != n - 1:
        raise ValueError(f"expected {n - 1} coefficients for dimension {n}, got {t.size}")
    # tail[m-1] = sum_{i=m}^{n-1} t_i / (i(i+1)) for 1-based m and i, summed
    # from i = n-1 down; tail[n-1] = 0.
    i = np.arange(1.0, n)
    tail = np.cumsum(np.concatenate([[0.0], (t / (i * (i + 1.0)))[::-1]]))[::-1]
    k = np.arange(2.0, n + 1)
    off = 1.0 / n - np.concatenate([[0.0], t / k]) + tail
    diag = 1.0 / n + np.concatenate([[0.0], (k - 1.0) * t / k]) + tail
    source = np.arange(n)
    p = off[np.maximum.outer(source, source)]
    p[source, source] = diag
    return _clamp_noise(p)


def is_row_stochastic(p, tol: float = 1e-12) -> bool:
    """Whether all entries are >= -tol and every row sums to 1 within tol."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    if float(np.min(p)) < -tol:
        return False
    return bool(np.all(np.abs(p.sum(axis=1) - 1.0) <= tol))
