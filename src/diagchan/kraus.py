"""Kraus operator extraction for diagonal channels.

Convention used throughout: a channel acts as ``sum_i K_i^* A K_i`` and
trace preservation reads ``sum_i K_i K_i^* = I``. To translate a Kraus set
into the other widespread convention ``sum_i M_i rho M_i^†``, take
``M_i = K_i^†``.

The generic route factors the Choi matrix as ``R^* R`` with R upper
triangular and reshapes each nonzero row of R (row-major) into an n x n
operator. R has no fill-in: it lies on the Choi matrix's own blocks and is
held in the same record, :class:`~diagchan.channels._ChoiBlocks`, whose
entry table then gives every entry's row and its place in the operator.
It is computed block by block, either from a Choi matrix
(:func:`kraus_from_choi`) or from the channel's coefficient blocks without
building that matrix (:func:`kraus_from_channel`). For
the hybrid depolarizing classical family the factor has a closed form
(:func:`hybrid_classical_kraus`), evaluated directly and ordered
identically so the two routes can be compared entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

import numpy as np

from .channels import (
    ChannelFamily,
    _ChoiBlocks,
    _choi_blocks,
    _choi_slots,
    channel_coefficients,
    family_parameter_range,
)
from .linalg import (
    DEFAULT_TOL,
    HERMITIAN_ATOL,
    _check_dimension,
    _check_tolerance,
    _entry_stack,
    _EntryFamily,
    _hermitian_halves,
    _identity_residual,
    _pair_cholesky,
    _psd_cholesky,
    _run_pairs,
    _sparse_gram,
    _sum_by_key,
    as_complex_matrix,
    max_norm,
)

class DegenerateChannelError(ValueError):
    """Closed-form extraction hit a degenerate parameter.

    At the boundary of the parameter interval the Choi matrix loses rank,
    its triangular factor is no longer unique, and a closed-form pivot
    vanishes. Use :func:`kraus_from_choi`, which handles rank-deficient Choi
    matrices, instead.
    """


@dataclass(frozen=True, eq=False, init=False)
class KrausSet(_EntryFamily):
    """Ordered Kraus operators of an n-dimensional channel.

    ``source_rows`` records, for each operator, the index of the triangular
    factor row it came from, strictly increasing in [0, n^2); rows that were
    entirely zero produce no operator, so rank-deficient channels carry
    fewer than n^2 operators. The set holds only the nonzero entries of its
    operators, in the read-only arrays of
    :class:`~diagchan.linalg._EntryFamily`. The constructor copies them out
    of the operators it is given, and the factor routes write their O(n^2)
    entries directly. ``operators`` and iteration build read-only n x n
    arrays on access.
    """

    dim: int
    source_rows: tuple[int, ...]

    def __init__(self, dim: int, operators, source_rows):
        n = _check_dimension(dim)
        count = len(operators)
        if count != len(source_rows):
            raise ValueError("one source row index is required per operator")
        if count > n * n:
            raise ValueError(f"at most {n * n} operators allowed, got {count}")
        for shape in map(np.shape, operators):
            if len(shape) != 2:
                raise ValueError(f"expected a 2-D matrix, got an array of rank {len(shape)}")
            if shape != (n, n):
                raise ValueError(f"operators must be {n}x{n}, got shape {shape}")
        try:
            flat = np.array(operators, dtype=np.complex128).reshape(count, n * n)
        except ValueError:
            raise ValueError(f"operators must be {n}x{n} complex matrices") from None
        if not np.all(np.isfinite(flat)):
            raise ValueError("matrix entries must be finite")
        rows = []
        for i in source_rows:
            try:
                rows.append(index(i))
            except TypeError:
                raise ValueError(f"source rows must be integers, got {i!r}") from None
        rows = tuple(rows)
        outside = [i for i in rows if not 0 <= i < n * n]
        if outside:
            raise ValueError(f"source rows must lie in [0, {n * n}), got {outside[0]}")
        if any(later <= earlier for earlier, later in zip(rows, rows[1:])):
            raise ValueError("source rows must be strictly increasing")
        self._hold_stack(n, flat, source_rows=rows)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        """The operators as read-only n x n arrays, built on each access."""
        return tuple(self)

    def apply(self, a) -> np.ndarray:
        """``sum_i K_i^* a K_i`` from the held entries.

        How an operator is summed is fixed by its count of nonzeros, with the
        rule of :func:`~diagchan.linalg._sparse_gram` on the rows of V: an
        operator with more than n is dense. Every pair of entries (r1, c1),
        (r2, c2) of a sparse operator adds ``conj(v1) a[r1, r2] v2`` at
        (c1, c2), one gather and a scatter-add (``bincount``) of at most n
        products per entry. The dense operators are written into a transient
        stack and go through two GEMMs: ``a [K_1 ... K_k]``, then the rows of
        every ``K_i^*`` against those of every ``a K_i``. Nothing is kept
        between calls.
        """
        m = as_complex_matrix(a)
        n = self.dim
        if m.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        counts = np.diff(self._offsets)
        dense = counts > n
        sparse = np.repeat(~dense, counts)
        row, column = np.divmod(self._position[sparse], n)
        value, small = self._value[sparse], counts[~dense]
        left, right = _run_pairs(np.arange(value.size), np.repeat(np.cumsum(small) - small, small),
                                 np.repeat(small, small))
        terms = value[left].conj() * m[row[left], row[right]] * value[right]
        at = column[left] * n + column[right]
        out = np.bincount(at, terms.real, n * n) + 1j * np.bincount(at, terms.imag, n * n)
        stack = _entry_stack(np.flatnonzero(dense), n, self._offsets, self._position, self._value)
        # The operators side by side, [K_1 ... K_k]: one GEMM gives every a K_i.
        x = stack.transpose(1, 0, 2).reshape(n, -1)
        return out.reshape(n, n) + x.reshape(-1, n).conj().T @ (m @ x).reshape(-1, n)

    def completeness_residual(self) -> float:
        """``max_norm(sum_i K_i K_i^* - I)``; zero for a trace-preserving set.

        The sum is the conjugate of the Gram matrix of the rows of the
        n x (count n) matrix whose column blocks are the operators, from
        :func:`~diagchan.linalg._sparse_gram` over the entries keyed by
        (operator, column). On a factor-built set every key holds at most
        one entry, so the cost is that of sorting the entries.
        """
        n = self.dim
        row, column = np.divmod(self._position, n)
        key = self._member() * n + column
        return _identity_residual(*_sparse_gram(key, row, self._value, n), n)


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
        ValueError: ``tol`` is not a finite number >= 0, or the matrix is
            not 2-D, has a non-finite entry, is not square of size n^2, is
            not Hermitian within :data:`~diagchan.linalg.HERMITIAN_ATOL`, or
            has an entry above ``tol * max_norm(C)`` off the pattern of a
            diagonal channel's Choi matrix, checked in this order. The
            pattern test reads the raw entries, so on a matrix that is
            Hermitian only within ``HERMITIAN_ATOL`` it is stricter than a
            test of ``(C + C^*)/2`` by at most ``HERMITIAN_ATOL / 2``.
        NotPositiveSemidefiniteError: the Choi matrix is not positive
            semidefinite within ``tol``; the message names the first failing
            row of the whole matrix.
    """
    _check_tolerance(tol)
    return _kraus_set(_factor_blocks(*_read_choi(choi, tol)))


def kraus_from_channel(channel, tol: float = DEFAULT_TOL) -> KrausSet:
    """The Kraus set of :func:`kraus_from_choi` on the channel's Choi matrix,
    factored from the coefficient blocks without building that matrix.

    D is ``M = W^T diag(t) W`` on its diagonal and (s+a)/2 off it, and every
    pair block is ``[[M_ij, (s-a)/2], [(s-a)/2, M_ji]]``; the pivot scale
    ``max_norm(C)`` is the largest of ``|M|``, ``|(s+a)/2|`` and
    ``|(s-a)/2|``. Operators, ``source_rows`` and errors are bit for bit
    those of ``kraus_from_choi(choi_matrix(channel), tol)``. Reading the
    blocks costs O(n^2), factoring them O(n^3) and writing the set's
    entries O(n^2).

    Raises:
        ValueError: ``tol`` is not a finite number >= 0, checked first.
        NotPositiveSemidefiniteError: as :func:`kraus_from_choi`.
    """
    _check_tolerance(tol)
    blocks = _choi_blocks(channel)
    return _kraus_set(_factor_blocks(blocks, tol * blocks.scale()))


#: Largest off-pattern magnitude for which the full Hermiticity pass is
#: skipped: two such entries differ by at most ``HERMITIAN_ATOL``, with a
#: relative margin far above the few roundings of that bound.
_OFF_PATTERN_HERMITIAN = HERMITIAN_ATOL / 2.0 * (1.0 - 1e-12)

#: Largest entry magnitude whose sum with another cannot overflow.
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


def _read_choi(choi, tol: float) -> tuple[_ChoiBlocks, float]:
    """The blocks of a diagonal channel's Choi matrix and the pivot tolerance
    ``tol * max_norm(C)``, with the checks of :func:`kraus_from_choi`.

    C is read through the table that writes it, ``_choi_slots(n).pattern``:
    one gather of the entries of D, x, y and b, in the order of
    :meth:`_ChoiBlocks.entries`, and one of their mirrors. The maxima of
    ``|C|`` on and off the pattern give the finiteness check, the pattern
    test and, with the blocks, the scale. The full Hermiticity pass over
    ``C - C^*`` runs only when an off-pattern entry exceeds
    ``HERMITIAN_ATOL / 2`` (less a relative margin for the rounding of
    ``|a - b*| <= |a| + |b|``) or an entry differs from its mirror by more
    than ``HERMITIAN_ATOL``; otherwise the full drift is within
    ``HERMITIAN_ATOL`` and the pass could not fail.

    Only the gathered entries are symmetrized, as ``(value + mirror) / 2``,
    which gives back the blocks of a channel's Choi matrix bit for bit.
    Where a pattern entry exceeds half the float range, that sum and the
    pattern drift could overflow: there the full pass, which takes the
    drift on halves, always runs, and each term is halved before the sum.
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
    # The pattern ends with the mirrors of b, which the second gather reads.
    pairs = slots.upper.size
    rows, columns = np.divmod(slots.pattern[:size + 3 * pairs], size)
    value, mirror = c[rows, columns], c[columns, rows].conj()
    # Row-major whatever the input's layout, so that its flattening is a view.
    magnitude = np.abs(c, order="C")
    # The pattern is closed under transposition: it holds every mirror.
    peak = float(magnitude.reshape(-1)[slots.pattern].max())
    magnitude.reshape(-1)[slots.pattern] = 0.0
    stray = float(magnitude.max())
    if not (math.isfinite(peak) and math.isfinite(stray)):
        raise ValueError("matrix entries must be finite")

    # Halving first only near the float limit: it moves subnormal entries.
    huge = peak > _HALF_MAX
    if huge or stray > _OFF_PATTERN_HERMITIAN or max_norm(value - mirror) > HERMITIAN_ATOL:
        _hermitian_halves(c, HERMITIAN_ATOL)
    value = value / 2.0 + mirror / 2.0 if huge else (value + mirror) / 2.0
    d, x, y, b = np.split(value, np.cumsum([size, pairs, pairs]))
    blocks = _ChoiBlocks(n, d.reshape(n, n), x.real, y.real, b)
    pivot_tol = tol * max(stray, blocks.scale())
    if stray > pivot_tol:
        raise ValueError(
            f"not the Choi matrix of a diagonal channel: an entry of magnitude {stray:.3e}"
            f" lies off its pattern, beyond tolerance {pivot_tol:.1e}"
        )
    return blocks, pivot_tol


def _factor_blocks(blocks: _ChoiBlocks, pivot_tol: float) -> _ChoiBlocks:
    """The semidefinite Cholesky factor R of a diagonal channel's Choi matrix
    from its blocks, held by block as :class:`~diagchan.channels._ChoiBlocks`
    holds C: the coupled block D, on a copy, by the elimination of
    :func:`~diagchan.linalg.psd_cholesky` and the pair blocks
    ``[[x, b], [b*, y]]`` all at once by :func:`~diagchan.linalg._pair_cholesky`,
    with the absolute ``pivot_tol``. Dropped rows are zero.
    Raises the error of the smallest failing row of the whole matrix."""
    n = blocks.n
    slots = _choi_slots(n)
    root, coupling, second_root, failure = _pair_cholesky(blocks.x, blocks.y, blocks.b,
                                                          pivot_tol, slots.upper, slots.lower)
    stop = n * n if failure is None else failure[0]
    r = _psd_cholesky(blocks.d.copy(), pivot_tol, slots.coupled[slots.coupled < stop])
    if failure is not None:
        raise failure[1]
    return _ChoiBlocks(n, r, root, second_root, coupling)


def _kraus_set(factor: _ChoiBlocks) -> KrausSet:
    """Every nonzero row of the factor R held in ``factor``, reshaped
    row-major into an operator, in row order.

    R's entries are those of :meth:`~diagchan.channels._ChoiBlocks.entries`
    less the last group, the mirrors of b, which lie below R's diagonal.
    The nonzero ones are put in order of their flat position in R, so by
    row and then column, by one argsort; a row without one is dropped. An
    entry's row is its source row and its column its position in the
    operator. The finiteness check reads every value: a non-finite value
    is nonzero, so its row would be kept.
    """
    n = factor.n
    position, value = factor.entries()
    upper = position.size - factor.b.size
    position, value = position[:upper], value[:upper]
    if not np.isfinite(value).all():
        raise ValueError("matrix entries must be finite")
    kept = np.flatnonzero(value)
    # A stable sort merges the runs in which the groups arrive, mostly sorted.
    kept = kept[np.argsort(position[kept], kind="stable")]
    source, column = np.divmod(position[kept], n * n)
    source_rows, counts = np.unique(source, return_counts=True)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return object.__new__(KrausSet)._hold(n, offsets, column, value[kept],
                                          source_rows=tuple(source_rows.tolist()))


def reconstruction_residual(ks: KrausSet, channel) -> float:
    """Worst-case mismatch between the Kraus action and the channel action.

    Maximum over all matrix units E_ij of ``max_norm(ks.apply(E_ij) -
    channel(E_ij))``; by linearity a small residual certifies the Kraus set
    on every input. Block (i, j) of the Choi matrix is the image of E_ij,
    and the Kraus action's Choi matrix is the set's Gram ``G = V^* V``, so
    the maximum is ``max_norm(G - C)``. G comes from the operators alone,
    never from a factor: :func:`~diagchan.linalg._sparse_gram` sums it over
    the set's entries on each call. It is compared with the channel's Choi
    blocks over the union of both patterns; no n^2 x n^2 matrix is built.
    """
    n, _ = channel_coefficients(channel)
    if n != ks.dim:
        raise ValueError(f"dimension mismatch: Kraus set is {ks.dim}, channel is {n}")
    p, q, g = _sparse_gram(ks._member(), ks._position, ks._value, n * n)
    position, value = _choi_blocks(channel).entries()
    key = np.concatenate([p * n * n + q, position])
    return max_norm(_sum_by_key(key, np.concatenate([g, -value]))[1])


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

    The elimination of the coupled block takes next pivot = pivot -
    offdiag^2 / pivot and the same correction for the fill. Its solution is
    evaluated once per entry, in closed form: with ``gap`` the coupled
    diagonal entry plus p, ``pivots[m] = gap (1 - p / (gap - mp))`` and
    ``offdiags[m] = -gap p / (gap - mp)`` for m >= 1. The factor routes run
    that elimination in floating point; strictly inside the interval their
    operators agree with :func:`hybrid_classical_kraus` entry by entry.

    Requires p strictly inside the family's parameter interval; at the
    endpoints the Choi matrix is singular and a pivot vanishes.
    The closed form's denominators ``2p + (1-p)/n - mp`` vanish only at
    p = -1/(n-1) (m = 1) and p = 1/(n(m-2)+1) (m >= 3), all outside the
    interval.

    Raises:
        ValueError: p outside the closed parameter interval.
        DegenerateChannelError: p at an interval endpoint, or so close to one
            that a closed-form pivot rounds to zero or below.
    """
    lo, hi = family_parameter_range(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, n)
    if not (lo <= p <= hi):
        raise ValueError(
            f"hybrid_depolarizing_classical: p={p!r} outside the valid range [{lo!r}, {hi!r}]"
            f" for n={n}"
        )
    if p <= lo or p >= hi:
        raise DegenerateChannelError(
            f"closed-form extraction needs p strictly inside ({lo!r}, {hi!r});"
            f" got p={p!r} (use kraus_from_choi for boundary parameters)"
        )
    alpha = p + (1.0 - p) / n       # coupled diagonal entry
    beta = (1.0 - p) / n            # uncoupled diagonal entry
    gap = 2.0 * p + (1.0 - p) / n   # alpha minus the off-diagonal entry -p
    denominators = gap - p * np.arange(1, n)

    pivots = np.empty(n)
    offdiags = np.empty(n - 1)
    pivots[0] = alpha
    offdiags[0] = -p
    pivots[1:] = gap * (1.0 - p / denominators)
    offdiags[1:] = gap * (-p / denominators[: n - 2])
    if not np.all(pivots > 0.0):
        raise DegenerateChannelError(
            f"closed-form pivots are not all positive for p={p!r}, n={n}"
            " (use kraus_from_choi)"
        )
    return HybridClassicalPivots(n, float(p), pivots, offdiags, beta)


def hybrid_classical_kraus(n: int, p: float) -> KrausSet:
    """Closed-form Kraus set for the hybrid depolarizing classical family.

    The closed-form factor is held in the Choi matrix's block record and
    goes through :func:`_kraus_set`, as the factorization routes' do: row m
    of the coupled block's factor holds ``sqrt(pivots[m])`` on its diagonal
    and ``offdiags[m]`` over that root right of it, and each pair's two rows
    hold ``sqrt((1-p)/n)`` alone, with a zero coupling. Its blocks are real,
    and so are the set's entries.
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
    return _kraus_set(_ChoiBlocks(n, coupled, pairs, pairs, np.zeros_like(pairs)))
