"""Kraus operator extraction for diagonal channels.

Convention used throughout: a channel acts as ``sum_i K_i^* A K_i`` and
trace preservation reads ``sum_i K_i K_i^* = I``. To translate a Kraus set
into the other widespread convention ``sum_i M_i rho M_i^†``, take
``M_i = K_i^†``.

The generic route factors the Choi matrix as ``R^* R`` with R upper
triangular and reshapes each nonzero row of R (row-major) into an n x n
operator. R has no fill-in, so it is computed block by block, either from
a Choi matrix (:func:`kraus_from_choi`) or from the channel's coefficient
blocks without building that matrix (:func:`kraus_from_channel`). For
the hybrid depolarizing classical family the factorization collapses to
closed-form pivot recurrences, implemented here as well and ordered
identically so the two routes can be compared entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import (
    ChannelFamily,
    _ChoiBlocks,
    _choi_blocks,
    _choi_slots,
    channel_coefficients,
    choi_matrix,
    family_parameter_range,
)
from .linalg import (
    DEFAULT_TOL,
    HERMITIAN_ATOL,
    _least_pivots,
    _negative_pivot,
    _psd_cholesky,
    _small_pivot,
    as_complex_matrix,
    dagger,
    max_norm,
)

#: Absolute tolerance for the closed-form vs recurrence cross-check.
CONSISTENCY_ATOL = 1e-12


class DegenerateChannelError(ValueError):
    """Closed-form extraction hit a degenerate parameter.

    At the boundary of the parameter interval the Choi matrix loses rank,
    its triangular factor is no longer unique, and the closed-form pivot
    recurrences divide by zero. Use :func:`kraus_from_choi`, which handles
    rank-deficient Choi matrices, instead.
    """


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered Kraus operators of an n-dimensional channel.

    ``source_rows`` records, for each operator, the index of the triangular
    factor row it came from; rows that were entirely zero produce no
    operator, so rank-deficient channels carry fewer than n^2 operators.
    The operators are held as one read-only (count, n, n) complex array, and
    ``operators`` are views of it.
    """

    dim: int
    operators: tuple[np.ndarray, ...]
    source_rows: tuple[int, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.dim
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
        count = len(self.operators)
        if count != len(self.source_rows):
            raise ValueError("one source row index is required per operator")
        if count > n * n:
            raise ValueError(f"at most {n * n} operators allowed, got {count}")
        stack = _operator_stack(self.operators, n)
        if not np.all(np.isfinite(stack)):
            raise ValueError("matrix entries must be finite")
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "operators", tuple(stack))
        object.__setattr__(self, "source_rows", tuple(int(i) for i in self.source_rows))

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def _stacked(self) -> np.ndarray:
        """The operators as one (count, n, n) array; (0, n, n) for an empty set."""
        return self._stack

    def apply(self, a) -> np.ndarray:
        """``sum_i K_i^* a K_i``: the batched products ``a K_i``, then one GEMM
        of the stacked ``K_i^*`` against them."""
        m = as_complex_matrix(a)
        n = self.dim
        if m.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        stack = self._stack
        return stack.conj().reshape(-1, n).T @ (m @ stack).reshape(-1, n)

    def completeness_residual(self) -> float:
        """``max_norm(sum_i K_i K_i^* - I)``; zero for a trace-preserving set.

        The sum is one GEMM ``X X^*`` of the n x (count n) matrix X whose
        column blocks are the operators.
        """
        x = self._stack.transpose(1, 0, 2).reshape(self.dim, -1)
        return max_norm(x @ x.conj().T - np.eye(self.dim))


def _operator_stack(operators, n: int) -> np.ndarray:
    """The operators as a fresh (count, n, n) complex array; the error names
    the first operator that is not an n x n matrix."""
    if not len(operators):
        return np.zeros((0, n, n), dtype=np.complex128)
    try:
        stack = np.array(operators, dtype=np.complex128)
        if stack.shape[1:] == (n, n):
            return stack
    except ValueError:  # operators of different shapes
        pass
    for k in operators:
        shape = np.shape(k)
        if len(shape) != 2:
            raise ValueError(f"expected a 2-D matrix, got an array of rank {len(shape)}")
        if shape != (n, n):
            raise ValueError(f"operators must be {n}x{n}, got shape {shape}")
    raise ValueError(f"operators must be {n}x{n} complex matrices")


def reshape_row(kappa, n: int) -> np.ndarray:
    """Row-major reshape of a length-n^2 vector into an n x n matrix.

    This is the inverse of reading a matrix row by row, so a factorization
    row of the Choi matrix becomes the operator it encodes.
    """
    v = np.asarray(kappa, dtype=np.complex128).ravel()
    if v.size != n * n:
        raise ValueError(f"expected a vector of length {n * n}, got {v.size}")
    return v.reshape(n, n).copy()


def kraus_from_choi(choi, tol: float = DEFAULT_TOL) -> KrausSet:
    """Extract Kraus operators from the Choi matrix of a diagonal channel.

    The Choi matrix is factored as ``R^* R`` and every nonzero row of R,
    reshaped row-major, becomes an operator, in row order. The operator
    count equals the number of nonzero pivots, i.e. the numerical rank of
    the Choi matrix.

    A diagonal channel's Choi matrix is a permutation of the coupled block
    D on the slots i*n+i and of one 2 x 2 block ``[[x, b], [b*, y]]`` on the
    slots (i*n+j, j*n+i) of each pair i < j, so R has no fill-in. The matrix
    is read once: D, x, y and b are taken from their slots and symmetrized
    there, and one pass over ``|C|`` checks every other entry. The input is
    never copied (unless it must be converted to complex) or written to.
    The blocks are then factored as by :func:`kraus_from_channel`: D by the
    semidefinite Cholesky elimination of :func:`~diagchan.linalg.psd_cholesky`
    and every pair in closed form, with the pivot tolerance
    ``tol * max_norm(C)`` of the whole matrix. The rows, operators and
    errors are those of factoring the whole matrix.

    Raises:
        ValueError: the matrix is not 2-D, has a non-finite entry, is not
            square of size n^2, is not Hermitian within
            :data:`~diagchan.linalg.HERMITIAN_ATOL`, or has an entry above
            ``tol * max_norm(C)`` off the pattern of a diagonal channel's
            Choi matrix, checked in this order. The pattern test reads the
            raw entries, so on a matrix that is Hermitian only within
            ``HERMITIAN_ATOL`` it is stricter than a test of ``(C + C^*)/2``
            by at most ``HERMITIAN_ATOL / 2``.
        NotPositiveSemidefiniteError: the Choi matrix is not positive
            semidefinite within ``tol``; the message names the first failing
            row of the whole matrix.
    """
    return _factor_blocks(*_read_choi(choi, tol)).kraus_set()


def kraus_from_channel(channel, tol: float = DEFAULT_TOL) -> KrausSet:
    """The Kraus set of :func:`kraus_from_choi` on the channel's Choi matrix,
    factored from the coefficient blocks without building that matrix.

    D is ``M = W^T diag(t) W`` on its diagonal and (s+a)/2 off it, and every
    pair block is ``[[M_ij, (s-a)/2], [(s-a)/2, M_ji]]``; the pivot scale
    ``max_norm(C)`` is the largest of ``|M|``, ``|(s+a)/2|`` and
    ``|(s-a)/2|``. Operators, ``source_rows`` and errors are bit for bit
    those of ``kraus_from_choi(choi_matrix(channel), tol)``. Reading the
    blocks costs O(n^2) and factoring them O(n^3); only the (rank, n, n)
    operator stack is O(n^4).

    Raises:
        NotPositiveSemidefiniteError: as :func:`kraus_from_choi`.
    """
    return _factor_channel(_choi_blocks(channel), tol).kraus_set()


#: Largest off-pattern magnitude for which the full Hermiticity pass is
#: skipped: two such entries differ by at most ``HERMITIAN_ATOL``, with a
#: relative margin far above the few roundings of that bound.
_OFF_PATTERN_HERMITIAN = HERMITIAN_ATOL / 2.0 * (1.0 - 1e-12)


def _read_choi(choi, tol: float):
    """``(n, D, x, y, b, tol * max_norm(C))`` of a diagonal channel's Choi
    matrix, with the checks of :func:`kraus_from_choi`.

    Only D, x, y and b are symmetrized. The off-pattern maximum of ``|C|``
    gives the finiteness check, the pattern test and, with the pattern's
    maxima, the scale. The full Hermiticity pass over ``C - C^*`` runs only
    when an off-pattern entry exceeds ``HERMITIAN_ATOL / 2`` (less a
    relative margin for the rounding of ``|a - b*| <= |a| + |b|``) or the
    drift on the pattern exceeds ``HERMITIAN_ATOL``; otherwise the full drift
    is within ``HERMITIAN_ATOL`` and the pass could not fail.
    """
    c = np.asarray(choi, dtype=np.complex128)
    if c.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of rank {c.ndim}")
    size = c.shape[0]
    n = math.isqrt(size)
    if c.shape[1] != size or n < 2 or n * n != size:
        if not np.isfinite(c).all():
            raise ValueError("matrix entries must be finite")
        if c.shape[1] != size:
            raise ValueError(f"Choi matrix must be square, got shape {c.shape}")
        raise ValueError(f"Choi matrix size {size} is not n^2 for any dimension n >= 2")

    slots = _choi_slots(n)
    upper, lower = slots.upper, slots.lower
    d, x, y = c[np.ix_(slots.coupled, slots.coupled)], c[upper, upper], c[lower, lower]
    b, mirror = c[upper, lower], c[lower, upper]
    # Row-major whatever the input's layout, so that ``entries`` is a view.
    magnitude = np.abs(c, order="C")
    entries = magnitude.reshape(-1)
    entries[slots.pair_entries] = entries[slots.coupled_entries] = 0.0
    np.fill_diagonal(magnitude, 0.0)
    stray = float(magnitude.max())
    if not (math.isfinite(stray) and all(np.isfinite(v).all() for v in (d, x, y, b, mirror))):
        raise ValueError("matrix entries must be finite")

    pattern_drift = max(max_norm(d - d.conj().T), max_norm(x - x.conj()),
                        max_norm(y - y.conj()), max_norm(b - mirror.conj()))
    if pattern_drift > HERMITIAN_ATOL or stray > _OFF_PATTERN_HERMITIAN:
        drift = max_norm(c - dagger(c))
        if drift > HERMITIAN_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max |M - M^*| = {drift:.3e} > {HERMITIAN_ATOL:.1e}"
            )
    d = (d + d.conj().T) / 2.0
    x = ((x + x.conj()) / 2.0).real
    y = ((y + y.conj()) / 2.0).real
    b = (b + mirror.conj()) / 2.0
    scale = max(stray, max_norm(d), max_norm(x), max_norm(y), max_norm(b))
    pivot_tol = tol * scale
    if stray > pivot_tol:
        raise ValueError(
            f"not the Choi matrix of a diagonal channel: an entry of magnitude {stray:.3e}"
            f" lies off its pattern, beyond tolerance {pivot_tol:.1e}"
        )
    return n, d, x, y, b, pivot_tol


def _factor_channel(blocks: _ChoiBlocks, tol: float) -> _BlockFactor:
    """The factor of a channel's Choi matrix from its blocks, fed the values
    that :func:`_read_choi` reads from ``choi_matrix``: D and b complex, and
    ``+ 0.0`` added to x, y and b as ``choi_matrix`` adds it (D has it
    already). The scale ``max_norm(C)`` is the largest entry of the blocks."""
    d = blocks.d.astype(np.complex128)
    x, y = blocks.x + 0.0, blocks.y + 0.0
    b = (blocks.b + 0.0).astype(np.complex128)
    scale = max(max_norm(blocks.d), max_norm(x), max_norm(y), max_norm(blocks.b))
    return _factor_blocks(blocks.n, d, x, y, b, tol * scale)


class _BlockFactor(NamedTuple):
    """The upper triangular factor R of a diagonal channel's Choi matrix,
    held by block: ``coupled`` is the n x n factor of D on the slots i*n+i,
    and for every pair i < j, in the order of ``_choi_slots``, ``root`` and
    ``coupling`` are the entries of row i*n+j at columns i*n+j and j*n+i and
    ``second_root`` the entry of row j*n+i at its own column. Dropped rows
    are zero."""

    n: int
    coupled: np.ndarray
    root: np.ndarray
    coupling: np.ndarray
    second_root: np.ndarray

    def kraus_set(self) -> KrausSet:
        """Every nonzero row reshaped row-major into an operator, in row order:
        a row of D gives a diagonal operator, a pair's first row ``root`` at
        (i, j) and ``coupling`` at (j, i), its second row ``second_root`` at
        (j, i)."""
        n = self.n
        slots = _choi_slots(n)
        kept = np.zeros(n * n, dtype=bool)
        kept[slots.coupled] = np.any(self.coupled != 0.0, axis=1)
        kept[slots.upper] = (self.root != 0.0) | (self.coupling != 0.0)
        kept[slots.lower] = self.second_root != 0.0
        position = np.cumsum(kept) - 1
        stack = np.zeros((int(kept.sum()), n, n), dtype=np.complex128)
        at = kept[slots.coupled]
        diagonal = np.arange(n)
        stack[position[slots.coupled[at]][:, None], diagonal, diagonal] = self.coupled[at]
        i, j = np.divmod(slots.upper, n)
        at = kept[slots.upper]
        stack[position[slots.upper[at]], i[at], j[at]] = self.root[at]
        stack[position[slots.upper[at]], j[at], i[at]] = self.coupling[at]
        at = kept[slots.lower]
        stack[position[slots.lower[at]], j[at], i[at]] = self.second_root[at]
        return KrausSet(n, stack, tuple(np.flatnonzero(kept)))

    def completeness_residual(self) -> float:
        """``max_norm(sum_i K_i K_i^* - I)`` of :meth:`kraus_set`, in O(n^2).

        Every operator's ``K K^*`` is diagonal: ``diag(|R_k|^2)`` for a row of
        D, ``root^2 E_ii + |coupling|^2 E_jj`` and ``second_root^2 E_jj`` for
        a pair's rows. The sum is therefore diagonal, with the column sums of
        ``|R_D|^2`` plus each pair's terms at i and j.
        """
        n = self.n
        i, j = np.divmod(_choi_slots(n).upper, n)
        total = (self.coupled.conj() * self.coupled).real.sum(axis=0)
        total += np.bincount(i, self.root * self.root, n)
        total += np.bincount(j, (self.coupling.conj() * self.coupling).real
                             + self.second_root * self.second_root, n)
        return max_norm(total - 1.0)


def _factor_blocks(n: int, d, x, y, b, pivot_tol: float) -> _BlockFactor:
    """The semidefinite Cholesky factor of a diagonal channel's Choi matrix
    from its blocks: the coupled block D (overwritten) by the elimination of
    :func:`~diagchan.linalg.psd_cholesky` and the pair blocks
    ``[[x, b], [b*, y]]`` in closed form, with the absolute ``pivot_tol``.
    Raises the error of the smallest failing row of the whole matrix."""
    slots = _choi_slots(n)
    root, coupling, second_root, failure = _factor_pairs(x, y, b, pivot_tol, slots)
    stop = n * n if failure is None else failure[0]
    r = _psd_cholesky(d, pivot_tol, slots.coupled[slots.coupled < stop])
    if failure is not None:
        raise failure[1]
    return _BlockFactor(n, r, root, coupling, second_root)


def _factor_pairs(x, y, b, pivot_tol: float, slots):
    """The semidefinite Cholesky elimination of every pair block
    ``[[x, b], [b*, y]]`` on the rows (i*n+j, j*n+i), in closed form.

    The first row's only remainder is b; the second row's pivot is y less
    ``|b / R_kk|^2``. The keep/drop/raise rules and arithmetic are those of
    :func:`~diagchan.linalg.psd_cholesky`. Returns the factor entries
    ``R_kk`` and ``b / R_kk`` of the first rows and the root of the second
    pivot, zero where a row is dropped, and ``(row, error)`` for the
    smallest failing row, or None.
    """
    magnitude = np.abs(b)
    keep = (x > pivot_tol) | (magnitude > pivot_tol)
    least = _least_pivots(magnitude, y, pivot_tol)
    first = np.maximum(x, least)
    negative = x < -pivot_tol
    small = ~negative & keep & ((least - x > pivot_tol) | (first <= 0.0))
    ok = keep & ~negative & ~small
    root = np.zeros_like(x)
    root[ok] = np.sqrt(first[ok])
    coupling = np.zeros_like(b)
    coupling[ok] = b[ok] / root[ok]
    pivot = y - (coupling.conj() * coupling).real
    failed = negative | small
    second_negative = ~failed & (pivot < -pivot_tol)
    second = ~failed & (pivot > pivot_tol)
    second_root = np.zeros_like(pivot)
    second_root[second] = np.sqrt(pivot[second])

    bad = np.flatnonzero(failed | second_negative)
    if not bad.size:
        return root, coupling, second_root, None
    rows = np.where(failed, slots.upper, slots.lower)
    p = bad[np.argmin(rows[bad])]
    row = int(rows[p])
    if small[p]:
        error = _small_pivot(x[p], row, magnitude[p], least[p])
    else:
        error = _negative_pivot(x[p] if negative[p] else pivot[p], row, pivot_tol)
    return root, coupling, second_root, (row, error)


def reconstruction_residual(ks: KrausSet, channel) -> float:
    """Worst-case mismatch between the Kraus action and the channel action.

    Maximum over all matrix units E_ij of ``max_norm(ks.apply(E_ij) -
    channel(E_ij))``; by linearity a small residual certifies the Kraus set
    on every input. Block (i, j) of the Choi matrix is the image of E_ij,
    and the Kraus action's Choi matrix is ``V^* V`` with V stacking the
    operators row-major, so the maximum is ``max_norm(V^* V - C)``.
    """
    n, _ = channel_coefficients(channel)
    if n != ks.dim:
        raise ValueError(f"dimension mismatch: Kraus set is {ks.dim}, channel is {n}")
    v = ks._stacked().reshape(-1, n * n)
    return max_norm(v.conj().T @ v - choi_matrix(channel))


@dataclass(frozen=True, eq=False)
class HybridClassicalPivots:
    """Cholesky pivot data of the hybrid depolarizing classical Choi matrix.

    The Choi matrix couples only the n diagonal slots (positions i*n + i);
    every other diagonal entry equals ``uncoupled`` = (1-p)/n and is never
    touched by the elimination. ``pivots[m]`` is the pivot at the m-th
    coupled slot and ``offdiags[m]`` the common fill value the elimination
    of that slot leaves at the later coupled slots.
    """

    dim: int
    p: float
    pivots: np.ndarray
    offdiags: np.ndarray
    uncoupled: float

    def __post_init__(self):
        pivots = np.array(self.pivots, dtype=np.float64)
        offdiags = np.array(self.offdiags, dtype=np.float64)
        if pivots.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} pivots, got shape {pivots.shape}")
        if offdiags.shape != (self.dim - 1,):
            raise ValueError(f"expected {self.dim - 1} offdiags, got shape {offdiags.shape}")
        pivots.setflags(write=False)
        offdiags.setflags(write=False)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "offdiags", offdiags)


def hybrid_classical_pivots(n: int, p: float) -> HybridClassicalPivots:
    """Closed-form pivot sequence for the hybrid depolarizing classical family.

    Computes the pivots both from the closed form and from the elimination
    recurrences (next pivot = pivot - offdiag^2 / pivot, same correction for
    the fill) and insists the two agree to 1e-12; disagreement would signal
    a coding or conditioning problem, not a property of the channel.

    Requires p strictly inside the family's parameter interval; at the
    endpoints the Choi matrix is singular and the recurrences degenerate.

    Raises:
        ValueError: p outside the closed parameter interval.
        DegenerateChannelError: p at an interval endpoint or close enough
            that a denominator vanishes.
    """
    lo, hi = family_parameter_range(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, n)
    if not (lo <= p <= hi):
        raise ValueError(
            f"hybrid_depolarizing_classical: p={p!r} outside the valid range [{lo!r}, {hi!r}]"
            f" for n={n}"
        )
    alpha = p + (1.0 - p) / n       # coupled diagonal entry
    beta = (1.0 - p) / n            # uncoupled diagonal entry
    gap = 2.0 * p + (1.0 - p) / n   # alpha minus the off-diagonal entry -p
    if p <= lo or p >= hi or alpha * beta <= 0.0:
        raise DegenerateChannelError(
            f"closed-form extraction needs p strictly inside ({lo!r}, {hi!r});"
            f" got p={p!r} (use kraus_from_choi for boundary parameters)"
        )
    denominators = gap - p * np.arange(1, n)
    if np.min(np.abs(denominators)) <= 1e-14 * max(1.0, abs(gap)):
        raise DegenerateChannelError(
            f"closed-form pivot denominators vanish for p={p!r}, n={n}"
            " (use kraus_from_choi)"
        )

    pivots = np.empty(n)
    offdiags = np.empty(n - 1)
    pivots[0] = alpha
    offdiags[0] = -p
    pivots[1:] = gap * (1.0 - p / denominators)
    if n > 2:
        offdiags[1:] = gap * (-p / denominators[: n - 2])

    recurrence_pivots = np.empty(n)
    recurrence_offdiags = np.empty(n - 1)
    recurrence_pivots[0] = alpha
    recurrence_offdiags[0] = -p
    for m in range(1, n):
        a_prev = recurrence_pivots[m - 1]
        b_prev = recurrence_offdiags[m - 1]
        correction = b_prev * b_prev / a_prev
        recurrence_pivots[m] = a_prev - correction
        if m < n - 1:
            recurrence_offdiags[m] = b_prev - correction

    worst = max(max_norm(pivots - recurrence_pivots), max_norm(offdiags - recurrence_offdiags))
    if worst > CONSISTENCY_ATOL:
        raise ArithmeticError(
            f"closed-form and recurrence pivot values disagree by {worst:.3e}"
        )
    return HybridClassicalPivots(n, float(p), pivots, offdiags, beta)


def hybrid_classical_kraus(n: int, p: float) -> KrausSet:
    """Closed-form Kraus set for the hybrid depolarizing classical family.

    The closed-form factor goes through :meth:`_BlockFactor.kraus_set`, as
    the factorization routes' do: row m of the coupled block's factor holds
    ``sqrt(pivots[m])`` on its diagonal and ``offdiags[m]`` over that root
    right of it, and each pair's two rows hold ``sqrt((1-p)/n)`` alone.
    Strictly inside the family interval the Choi matrix is positive
    definite and its factor unique, so all n^2 operators coincide entry-wise
    and in order with :func:`kraus_from_choi` on it.
    """
    data = hybrid_classical_pivots(n, p)
    roots = np.sqrt(data.pivots)
    coupled = np.diag(roots)
    upper, later = np.triu_indices(n, 1)
    coupled[upper, later] = (data.offdiags / roots[:-1])[upper]
    pairs = np.full(n * (n - 1) // 2, np.sqrt(data.uncoupled))
    return _BlockFactor(n, coupled, pairs, np.zeros_like(pairs), pairs).kraus_set()
