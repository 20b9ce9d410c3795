"""Dense complex matrix helpers shared by the whole package.

Everything operates on plain numpy arrays. Validators return exactly
symmetrized copies, eigenvalues go through LAPACK's dedicated Hermitian
solver, and :func:`psd_cholesky` extends the textbook upper-triangular
factorization to rank-deficient positive semidefinite inputs.
"""

from __future__ import annotations

import numpy as np

#: Default relative tolerance for semidefinite checks and factorizations.
DEFAULT_TOL = 1e-10

#: Absolute tolerance for accepting a numerically Hermitian matrix.
HERMITIAN_ATOL = 1e-12


class NotPositiveSemidefiniteError(ValueError):
    """Raised when an operation requires a positive semidefinite matrix."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of rank {m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix with a single 1 at zero-based position (i, j)."""
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def max_norm(a) -> float:
    """Entrywise max-norm ``max_ij |a_ij|``."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def frobenius_norm(a) -> float:
    """Frobenius norm ``sqrt(sum_ij |a_ij|^2)``."""
    return float(np.linalg.norm(np.asarray(a)))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``tr(a^* b)``.

    Real-valued (up to rounding) when both arguments are Hermitian.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def as_hermitian(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian to ``atol`` and return ``(a + a^*)/2``.

    The returned copy is exactly Hermitian, which keeps downstream
    eigenvalue and pivot computations free of imaginary drift.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    drift = max_norm(m - dagger(m))
    if drift > atol:
        raise ValueError(f"matrix is not Hermitian: max |M - M^*| = {drift:.3e} > {atol:.1e}")
    return (m + dagger(m)) / 2.0


def hermitian_eigenvalues(h, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in ascending order.

    Delegates to LAPACK's Hermitian solver; a failure to converge surfaces
    as ``numpy.linalg.LinAlgError``.
    """
    return np.linalg.eigvalsh(as_hermitian(h, atol))


def as_density_matrix(a, trace_atol: float = 1e-12, eig_atol: float = 1e-10) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite.

    Returns the exactly symmetrized copy. Error messages name the violated
    invariant so callers can report it verbatim.
    """
    m = as_hermitian(a)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"density matrix must have unit trace: got trace {tr!r}")
    lo = float(hermitian_eigenvalues(m)[0])
    if lo < -eig_atol:
        raise ValueError(
            f"density matrix must be positive semidefinite: minimum eigenvalue {lo:.3e}"
        )
    return m


def psd_cholesky(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor a positive semidefinite Hermitian matrix as ``h = R^* R``.

    R is upper triangular with real nonnegative diagonal. Thresholds scale
    with ``max_norm(h)``: a row whose pivot and remaining entries are all
    within ``tol * max_norm(h)`` of zero is zeroed out, so rank-deficient
    inputs factor deterministically. Any other row is kept, and its pivot is
    raised, by at most ``tol * max_norm(h)``, to the smallest value that a
    positive semidefinite matrix allows for that row (``|h_kj|^2 <= h_kk h_jj``),
    which keeps every entry of R bounded. Each entry of ``R^* R - h`` is
    therefore at most ``tol * max_norm(h)`` up to rounding. For positive
    definite input the factor is the unique classical one.

    Raises:
        NotPositiveSemidefiniteError: a pivot falls below ``-tol * max_norm(h)``,
            or is too small by more than that for its row remainder, or is
            zero under a nonzero remainder (whose square can underflow at
            ``tol = 0``).
    """
    a = as_hermitian(h)
    scale = max_norm(a)
    if scale == 0.0:
        return np.zeros_like(a)
    return _psd_cholesky(a, tol * scale, range(a.shape[0]))


def _negative_pivot(d: float, k: int, pivot_tol: float) -> NotPositiveSemidefiniteError:
    return NotPositiveSemidefiniteError(
        f"pivot {d:.6e} at index {k} is negative beyond tolerance {pivot_tol:.1e}"
    )


def _small_pivot(d: float, k: int, remainder: float, least: float) -> NotPositiveSemidefiniteError:
    # A least pivot of 0 under a nonzero remainder is an underflowed square.
    needs = f"{least:.6e}" if least > 0.0 else "a positive pivot"
    return NotPositiveSemidefiniteError(
        f"pivot {d:.6e} at index {k} is too small for its row remainder "
        f"(max {remainder:.6e}; needs {needs})"
    )


def _least_pivots(magnitude: np.ndarray, later: np.ndarray, pivot_tol: float) -> np.ndarray:
    """``magnitude^2 / max(later, pivot_tol)`` entrywise: the smallest pivot a
    positive semidefinite matrix allows for each remainder entry over its
    later diagonal entry. A positive ``pivot_tol`` keeps every denominator
    positive. Otherwise a zero entry imposes no bound (0, even over a zero
    diagonal) and a nonzero entry over a zero diagonal an unmeetable one
    (inf), both without dividing by zero."""
    rest = np.maximum(later, pivot_tol)
    if pivot_tol > 0.0:
        return magnitude * magnitude / rest
    return np.divide(magnitude * magnitude, rest, out=np.where(magnitude > 0.0, np.inf, 0.0),
                     where=rest != 0.0)


def _psd_cholesky(a: np.ndarray, pivot_tol: float, index) -> np.ndarray:
    """The elimination behind :func:`psd_cholesky`, with an absolute tolerance.

    Overwrites the exactly Hermitian ``a`` and factors its first
    ``len(index)`` rows, leaving any later rows of R zero. Errors name row k
    as ``index[k]``, so a block of a larger matrix reports the larger
    matrix's row. A kept row needs a positive pivot: one whose nonzero
    remainder squares to zero by underflow (possible at ``pivot_tol = 0``)
    fails as too small instead of dividing by a zero root.
    """
    r = np.zeros_like(a)
    for k, row_index in enumerate(index):
        d = a[k, k].real
        if d < -pivot_tol:
            raise _negative_pivot(d, row_index, pivot_tol)
        tail = a[k, k + 1:]
        if not tail.size:
            if d > pivot_tol:
                r[k, k] = np.sqrt(d)
            continue
        magnitude = np.abs(tail)
        if d <= pivot_tol and magnitude.max() <= pivot_tol:
            continue
        least = float(_least_pivots(magnitude, a.diagonal()[k + 1:].real, pivot_tol).max())
        pivot = max(d, least)
        if least - d > pivot_tol or pivot <= 0.0:
            raise _small_pivot(d, row_index, magnitude.max(), least)
        rkk = np.sqrt(pivot)
        r[k, k] = rkk
        row = tail / rkk
        r[k, k + 1:] = row
        a[k + 1:, k + 1:] -= np.outer(row.conj(), row)
    return r
