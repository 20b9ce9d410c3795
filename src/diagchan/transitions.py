"""Classical transition probabilities induced on the computational basis.

A diagonal channel sends each basis projector E_kk to a diagonal matrix, so
its action on computational basis states is a classical Markov kernel:
P[k][j] is the j-th diagonal entry of the image of E_kk. The kernel is
computed two independent ways, from the diagonal action that channel
application uses and from a closed form in the diagonal-block coefficients
alone, so each can serve as an oracle for the other.
"""

from __future__ import annotations

import numpy as np

from .basis import diagonal_block_slice
from .channels import _coefficient_blocks, _transition_matrix, channel_coefficients
from .linalg import _check_dimension, _check_tolerance

#: Negative entries above this threshold are rounding noise and clamped to 0.
CLAMP_ATOL = 1e-12


def _clamp_noise(p: np.ndarray) -> np.ndarray:
    p[(p < 0.0) & (p >= -CLAMP_ATOL)] = 0.0
    return p


def diagonal_block_coefficients(channel) -> np.ndarray:
    """The n-1 coefficients acting on the traceless diagonal directions."""
    n, coeffs = channel_coefficients(channel)
    return coeffs[diagonal_block_slice(n)]


def transition_direct(channel) -> np.ndarray:
    """Transition matrix from the channel's action on the diagonal.

    Row k holds the diagonal of the channel image of E_kk, which is diagonal
    because the pair blocks act only off the diagonal: column k of
    ``M = W^T diag(t) W``, the diagonal action of
    :func:`~diagchan.channels.apply_channel`. One n x n GEMM, O(n^2) memory.
    """
    n, _, _, t = _coefficient_blocks(channel)
    return _clamp_noise(_transition_matrix(n, t).T)


def transition_closed_form(t, n: int) -> np.ndarray:
    """Transition matrix from the n-1 diagonal-block coefficients alone.

    Entry conventions (1-based k for the source state, j for the target):

    * j < k:  1/n - t[k-1]/k + tail(k)
    * j = k:  1/n + (k-1) t[k-1]/k + tail(k)
    * j > k:  1/n - t[j-1]/j + tail(j)

    where tail(m) = sum_{i=m}^{n-1} t[i] / (i (i+1)). For k = 1 the t[k-1]
    term carries coefficient zero and is never evaluated. An entry off the
    diagonal depends only on max(j, k).

    Raises:
        ValueError: n is not an integer >= 2, t does not hold n-1
            coefficients, or one of them is not finite.
    """
    n = _check_dimension(n)
    t = np.asarray(t, dtype=np.float64).ravel()
    if t.size != n - 1:
        raise ValueError(f"expected {n - 1} coefficients for dimension {n}, got {t.size}")
    if not np.isfinite(t).all():
        raise ValueError("coefficients must be finite")
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
    """Whether all entries are >= -tol and every row sums to 1 within tol.

    Raises:
        ValueError: ``tol`` is not a finite number >= 0, checked first, or
            ``p`` is not a square matrix.
    """
    _check_tolerance(tol)
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    if float(np.min(p)) < -tol:
        return False
    return bool(np.all(np.abs(p.sum(axis=1) - 1.0) <= tol))
