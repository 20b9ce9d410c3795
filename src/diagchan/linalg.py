"""Dense complex matrix helpers shared by the whole package.

Everything operates on plain numpy arrays. Validators return exactly
symmetrized copies, eigenvalues go through LAPACK's dedicated Hermitian
solver, and :func:`psd_cholesky` extends the textbook upper-triangular
factorization to rank-deficient positive semidefinite inputs.
"""

from __future__ import annotations

import math
from operator import index

import numpy as np

#: Default relative tolerance for semidefinite checks and factorizations.
DEFAULT_TOL = 1e-10

#: Absolute tolerance for accepting a numerically Hermitian matrix.
HERMITIAN_ATOL = 1e-12

#: Unit roundoff of float64, half the spacing of the floats at 1.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


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
    """Frobenius norm ``sqrt(sum_ij |a_ij|^2)``, finite for finite ``a``.

    The sum of squares is one ``vdot``, which overflows without a warning,
    to inf or, in a complex sum, to NaN. Only then is the norm taken again
    on ``a / max_norm(a)``, whose squares cannot overflow: it is inf only
    if it exceeds the float range. Input with an inf or a NaN entry has
    the norm ``max_norm(a)``, inf or NaN.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, 1.0), copy=False)
    norm = math.sqrt(np.vdot(a, a).real)
    if math.isfinite(norm):
        return norm
    scale = max_norm(a)
    return scale * frobenius_norm(a / scale) if math.isfinite(scale) else scale


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``tr(a^* b)``.

    Real-valued (up to rounding) when both arguments are Hermitian.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def _sparse_gram(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                 m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram matrix ``x^* x`` of the m columns of a sparse matrix x, from
    its nonzero entries ``x[rows[e], cols[e]] = values[e]`` in any order.
    One stable sort puts them in row order, so the entries of a row keep
    their given order.

    Each row r adds ``conj(x[r, p]) x[r, q]`` to every pair (p, q) of the
    columns in which it is nonzero. How a row is summed is fixed by its
    count of nonzeros: a row with ``nnz(r)^2 > m`` is dense, and all dense
    rows go through one GEMM over the union of their columns, with a
    single-precision GEMM of their 0/1 pattern, whose positive entries are
    the pairs they share. Every other
    row goes through Gustavson's row-by-row product (ACM TOMS 1978): at most
    ``sqrt(m)`` products per entry, ``nnz sqrt(m)`` in all, held at once and
    merged with the GEMM's sums by one stable sort. The m x m Gram is built
    only over the dense rows' columns.

    Returns ``(p, q, g)``: every column pair that shares a nonzero row, once,
    in lexicographic order, with its entry g of ``x^* x``. Every other entry
    of ``x^* x`` is zero.
    """
    order = np.argsort(rows, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    # Each entry's row starts at ``start`` and holds ``counts`` entries.
    start = rows.searchsorted(rows)
    counts = rows.searchsorted(rows, "right") - start
    dense = counts * counts > m
    left, right = _run_pairs(np.flatnonzero(~dense), start[~dense], counts[~dense])
    keys = [cols[left] * m + cols[right]]
    terms = [values[left].conj() * values[right]]
    if dense.any():
        union, column = np.unique(cols[dense], return_inverse=True)
        row = np.unique(rows[dense], return_inverse=True)[1]
        block = np.zeros((row[-1] + 1, union.size), dtype=np.complex128)
        block[row, column] = values[dense]
        shared = (block != 0).astype(np.float32)
        pair = np.flatnonzero(shared.T @ shared)
        keys.insert(0, (union[:, None] * m + union).reshape(-1)[pair])
        terms.insert(0, (block.conj().T @ block).reshape(-1)[pair])
    # The sort is stable, so each pair's sparse terms are summed in row order.
    key, gram = _sum_by_key(np.concatenate(keys), np.concatenate(terms))
    return *np.divmod(key, m), gram


def _run_pairs(entries, start, counts) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)``: each of ``entries`` paired in turn with every entry
    of its run, the ``counts[e]`` consecutive entries from ``start[e]``."""
    # Entry e's pairs start at ``run[e]`` in the output.
    run = np.cumsum(counts) - counts
    return np.repeat(entries, counts), np.arange(counts.sum()) + np.repeat(start - run, counts)


def _entry_stack(picked: np.ndarray, n: int, offsets: np.ndarray, position: np.ndarray,
                 value: np.ndarray) -> np.ndarray:
    """The (k, n, n) array of the k matrices ``picked`` of a family held by
    its nonzero entries: matrix p's entries are ``offsets[p]:offsets[p + 1]``
    of ``value``, each at the flat index ``position`` (row * n + column).
    Every other entry is zero."""
    start = offsets[picked]
    slot, source = _run_pairs(np.arange(picked.size), start, offsets[picked + 1] - start)
    out = np.zeros((picked.size, n, n), dtype=np.complex128)
    out.reshape(picked.size, n * n)[slot, position[source]] = value[source]
    return out


class _EntryFamily:
    """A family of n x n complex matrices, its members, held by their nonzero
    entries grouped by member: the read-only arrays ``_position`` (the
    entry's flat index row * n + column) and ``_value``, and ``_offsets``,
    where member k's entries start (``_offsets[len(self)]`` is their count),
    as :func:`_entry_stack` reads them. Iteration builds each member as a
    read-only n x n array, with +0.0 at every zero entry."""

    def _hold(self, n: int, offsets: np.ndarray, position: np.ndarray, value: np.ndarray,
              **fields):
        """Take over the entries (offsets, position, value), finite, nonzero
        and in increasing position within each member, that no one else
        writes to: no copy and no checks. Sets ``dim`` to n and ``fields``;
        returns the family."""
        for array in (offsets, position, value):
            array.setflags(write=False)
        vars(self).update(fields, dim=n, _offsets=offsets, _position=position, _value=value)
        return self

    def _hold_stack(self, n: int, flat: np.ndarray, **fields):
        """Hold, as :meth:`_hold` does, the nonzero entries of the finite
        (k, n^2) stack ``flat`` of k flattened members, copied out of it."""
        member, position = np.nonzero(flat)
        return self._hold(n, member.searchsorted(np.arange(flat.shape[0] + 1)), position,
                          flat[member, position], **fields)

    def _member(self) -> np.ndarray:
        """The member index of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self._offsets))

    def __len__(self) -> int:
        return self._offsets.size - 1

    def __iter__(self):
        for lo, hi in zip(self._offsets[:-1], self._offsets[1:]):
            out = np.zeros((self.dim, self.dim), dtype=np.complex128)
            out.reshape(-1)[self._position[lo:hi]] = self._value[lo:hi]
            out.setflags(write=False)
            yield out


def _sum_by_key(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key once, in increasing order, with the sum of its
    values, taken in their given order (one stable sort)."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(key != np.concatenate(([-1], key[:-1])))
    return key[starts], np.add.reduceat(value[order], starts)


def _identity_residual(p: np.ndarray, q: np.ndarray, gram: np.ndarray, m: int) -> float:
    """``max_norm(G - I)`` of the Gram ``(p, q, gram)`` of m columns from
    :func:`_sparse_gram`; a column without nonzeros has no diagonal entry
    and misses its 1 by 1."""
    on_diagonal = p == q
    return max(max_norm(gram - on_diagonal), 0.0 if on_diagonal.sum() == m else 1.0)


def as_hermitian(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian to ``atol`` and return ``(a + a^*)/2``.

    The returned copy is exactly Hermitian, which keeps downstream
    eigenvalue and pivot computations free of imaginary drift. A NaN or
    negative ``atol`` is refused. The sum is taken on the halves of
    :func:`_hermitian_halves`, so it does not overflow on finite input.
    """
    if not atol >= 0.0:
        raise ValueError(f"atol must be a number >= 0, got {atol}")
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    half, mirror = _hermitian_halves(m, atol)
    return half + mirror


def _hermitian_halves(m: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(m / 2, m^* / 2)`` of a finite square matrix, refused unless
    ``max_norm(m - m^*) <= atol``. The drift is taken on the halves, so it
    does not overflow either. Halving is exact but for subnormal entries,
    each of which it moves by at most 2.5e-324, half the least subnormal."""
    half = m / 2.0
    mirror = dagger(half)
    drift = 2.0 * max_norm(half - mirror)
    if drift > atol:
        raise ValueError(f"matrix is not Hermitian: max |M - M^*| = {drift:.3e} > {atol:.1e}")
    return half, mirror


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

    The matrix counts as positive semidefinite when its smallest eigenvalue
    is at least ``-eig_atol``. A Cholesky factorization of
    ``m + (eig_atol/2) I`` that runs to completion certifies this whenever
    ``eig_atol/2`` exceeds ``4 (n+1)^2 u (||m||_F + eig_atol)``, with u the
    unit roundoff. The computed factor is exact for a perturbation of
    2-norm at most about ``(n+1) u tr(m + (eig_atol/2) I)``, which is at
    most ``n (n+1) u (||m||_F + eig_atol)`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 10.1, Thms 10.3-10.5), and
    the computed eigenvalues lie within about ``n^2 u ||m||_F`` of the exact
    ones. So where the factorization succeeds, the eigenvalue test passes
    too. The eigenvalues decide, and the message names the smallest one,
    when the factorization breaks down, when ``eig_atol <= 0`` and when the
    rounding bound does not hold. A NaN or negative ``trace_atol`` and a
    NaN ``eig_atol`` are refused; a negative ``eig_atol`` demands that
    margin of positive definiteness.
    """
    # Plain comparisons: NaN fails ``>=`` and is the one float unequal to itself.
    if not trace_atol >= 0.0:
        raise ValueError(f"trace_atol must be a number >= 0, got {trace_atol}")
    if eig_atol != eig_atol:
        raise ValueError(f"eig_atol must be a number, got {eig_atol}")
    m = as_hermitian(a)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"density matrix must have unit trace: got trace {tr!r}")
    n = m.shape[0]
    shift = eig_atol / 2.0
    if shift > 4.0 * (n + 1) ** 2 * _UNIT_ROUNDOFF * (frobenius_norm(m) + abs(eig_atol)):
        shifted = m.copy()
        shifted.flat[::n + 1] += shift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass
        else:
            return m
    # m is exactly Hermitian, so validating it again would change nothing.
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -eig_atol:
        raise ValueError(
            f"density matrix must be positive semidefinite: minimum eigenvalue {lo:.3e}"
        )
    return m


def psd_cholesky(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor a positive semidefinite Hermitian matrix as ``h = R^* R``.

    R is upper triangular with real nonnegative diagonal. Each row is
    refused, dropped or kept by the pivot rule of :func:`_negative`,
    :func:`_kept` and :func:`_too_small`, with the absolute tolerance
    ``tol * max_norm(h)``: a row whose pivot and remaining entries are all
    within it of zero is zeroed out, so rank-deficient inputs factor
    deterministically. Any other row is kept, and its pivot is raised, by
    at most ``tol * max_norm(h)``, to the smallest value that a positive
    semidefinite matrix allows for that row (``|h_kj|^2 <= h_kk h_jj``),
    which keeps every entry of R bounded. Each entry of ``R^* R - h`` is
    therefore at most ``tol * max_norm(h)`` up to rounding. For positive
    definite input the factor is the unique classical one.

    Raises:
        ValueError: ``tol`` is not a finite number >= 0, checked first.
        NotPositiveSemidefiniteError: a pivot falls below ``-tol * max_norm(h)``,
            or is too small by more than that for its row remainder, or is
            zero under a nonzero remainder (whose bound can underflow at
            ``tol = 0``).
    """
    _check_tolerance(tol)
    a = as_hermitian(h)
    return _psd_cholesky(a, tol * max_norm(a), range(a.shape[0]))


def _check_dimension(n) -> int:
    """n as an int, refused unless it is an integer >= 2."""
    try:
        n = index(n)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    return n


def _check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def _negative(d, pivot_tol):
    """The pivot rule's first test, on floats or entrywise on arrays: a
    pivot ``d`` below ``-pivot_tol`` is negative, and the row fails."""
    return d < -pivot_tol


def _kept(d, remainder, pivot_tol):
    """The pivot rule's keep test: a row is dropped, and its row of R left
    zero, when its pivot ``d`` and the largest magnitude ``remainder`` right
    of it are both within ``pivot_tol`` of zero. ``pivot_tol >= 0``, so a
    row without entries right of its pivot can pass 0 as its remainder."""
    return (d > pivot_tol) | (remainder > pivot_tol)


def _too_small(d, least, pivot_tol):
    """The pivot rule's last test, of a kept row: it fails when its least
    pivot ``least`` (of :func:`_least_pivots`) exceeds ``d`` by more than
    ``pivot_tol``, or when neither is positive, so that its root would be
    zero under a nonzero remainder (at ``pivot_tol = 0`` the bound of a tiny
    remainder underflows to 0). Otherwise its pivot is raised to
    ``max(d, least)``."""
    return (least - d > pivot_tol) | (d <= 0.0) & (least <= 0.0)


def _pivot_error(d: float, row: int, pivot_tol: float, remainder: float = 0.0,
                 least: float = 0.0) -> NotPositiveSemidefiniteError:
    """The error of a row that fails the pivot rule, named ``row``: negative,
    or else too small for its largest ``remainder`` and ``least`` pivot."""
    if _negative(d, pivot_tol):
        return NotPositiveSemidefiniteError(
            f"pivot {d:.6e} at index {row} is negative beyond tolerance {pivot_tol:.1e}"
        )
    needs = f"{least:.6e}" if least > 0.0 else "a positive pivot"
    return NotPositiveSemidefiniteError(
        f"pivot {d:.6e} at index {row} is too small for its row remainder "
        f"(max {remainder:.6e}; needs {needs})"
    )


def _least_pivots(magnitude: np.ndarray, later: np.ndarray, pivot_tol: float) -> np.ndarray:
    """``magnitude / max(later, pivot_tol) * magnitude`` entrywise: the
    smallest pivot a positive semidefinite matrix allows for each remainder
    entry over its later diagonal entry. Dividing first forms no square,
    which would overflow for a magnitude above 1.3e154 and lose its bits
    below 1.5e-154. A positive ``pivot_tol`` keeps every denominator positive.
    Otherwise a zero entry imposes no bound (0, even over a zero diagonal)
    and a nonzero entry over a zero diagonal an unmeetable one (inf), both
    without dividing by zero. A bound beyond the float range overflows to
    inf, unmeetable too: the callers hold ``np.errstate(divide="ignore",
    over="ignore")``, once per elimination, so that this overflow, in the
    divide or in the multiply, is not reported."""
    rest = np.maximum(later, pivot_tol)
    if pivot_tol > 0.0:
        return magnitude / rest * magnitude
    ratio = np.divide(magnitude, rest, out=np.where(magnitude > 0.0, np.inf, 0.0),
                      where=rest != 0.0)
    return ratio * magnitude


def _psd_cholesky(a: np.ndarray, pivot_tol: float, index) -> np.ndarray:
    """The elimination behind :func:`psd_cholesky`, with an absolute tolerance.

    Overwrites the exactly Hermitian ``a`` and factors its first
    ``len(index)`` rows, leaving any later rows of R zero. Errors name row k
    as ``index[k]``, so a block of a larger matrix reports the larger
    matrix's row. The pivot rule is applied to Python floats and reads no
    more than it needs: a row's largest remainder only where its pivot
    alone does not keep it (or for an error), its least pivot only if it is
    kept.
    """
    r = np.zeros_like(a)
    # One errstate for the whole loop: one per row would cost as much as
    # the least pivots it covers.
    with np.errstate(divide="ignore", over="ignore"):
        for k, row_index in enumerate(index):
            d = float(a[k, k].real)
            if _negative(d, pivot_tol):
                raise _pivot_error(d, row_index, pivot_tol)
            tail = a[k, k + 1:]
            magnitude = np.abs(tail)
            if not _kept(d, 0.0 if d > pivot_tol else float(magnitude.max(initial=0.0)),
                         pivot_tol):
                continue
            least = float(_least_pivots(magnitude, a.diagonal()[k + 1:].real, pivot_tol)
                          .max(initial=0.0))
            if _too_small(d, least, pivot_tol):
                raise _pivot_error(d, row_index, pivot_tol, magnitude.max(), least)
            rkk = math.sqrt(max(d, least))
            r[k, k] = rkk
            row = tail / rkk
            r[k, k + 1:] = row
            a[k + 1:, k + 1:] -= row.conj()[:, None] * row[None, :]
    return r


def _pair_cholesky(x: np.ndarray, y: np.ndarray, b: np.ndarray, pivot_tol: float,
                   upper: np.ndarray, lower: np.ndarray):
    """The elimination of :func:`_psd_cholesky` on many 2 x 2 blocks
    ``[[x, b], [b*, y]]`` at once, block p on the rows ``upper[p] <
    lower[p]`` of a larger matrix: the rule on all first rows, whose only
    remainder is b, then on all second rows, whose pivot is y less
    ``|b / R_kk|^2`` and which have no remainder.

    Returns the factor entries ``R_kk`` and ``b / R_kk`` of the first rows
    and the root of the second pivot, zero where a row is dropped, and
    ``(row, error)`` for the smallest failing row, or None; where a row
    fails, the entries are not meaningful.
    """
    magnitude = np.abs(b)
    kept = _kept(x, magnitude, pivot_tol)
    with np.errstate(divide="ignore", over="ignore"):
        least = _least_pivots(magnitude, y, pivot_tol)
    failed = _negative(x, pivot_tol) | kept & _too_small(x, least, pivot_tol)
    ok = kept & ~failed
    root = np.zeros_like(x)
    root[ok] = np.sqrt(np.maximum(x, least)[ok])
    coupling = np.zeros_like(b)
    coupling[ok] = b[ok] / root[ok]
    # A second row has no remainder, so its least pivot is 0, which the
    # pivot of a kept row exceeds: it can fail only as negative.
    pivot = y - (coupling.conj() * coupling).real
    second = _kept(pivot, 0.0, pivot_tol)
    second_root = np.zeros_like(pivot)
    second_root[second] = np.sqrt(pivot[second])

    bad = np.flatnonzero(failed | _negative(pivot, pivot_tol))
    if not bad.size:
        return root, coupling, second_root, None
    rows = np.where(failed, upper, lower)
    p = bad[np.argmin(rows[bad])]
    row = int(rows[p])
    if failed[p]:
        error = _pivot_error(x[p], row, pivot_tol, magnitude[p], least[p])
    else:
        error = _pivot_error(pivot[p], row, pivot_tol)
    return root, coupling, second_root, (row, error)
