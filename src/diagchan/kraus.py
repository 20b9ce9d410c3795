"""Kraus operator extraction for diagonal channels.

Convention used throughout: a channel acts as ``sum_i K_i^* A K_i`` and
trace preservation reads ``sum_i K_i K_i^* = I``. To translate a Kraus set
into the other widespread convention ``sum_i M_i rho M_i^†``, take
``M_i = K_i^†``.

The generic route factors the Choi matrix as ``R^* R`` with R upper
triangular and reshapes each nonzero row of R (row-major) into an n x n
operator. For the hybrid depolarizing classical family the factorization
collapses to closed-form pivot recurrences, implemented here as well and
ordered identically so the two routes can be compared entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelFamily, channel_coefficients, choi_matrix, family_parameter_range
from .linalg import DEFAULT_TOL, as_complex_matrix, max_norm, psd_cholesky

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
    """

    dim: int
    operators: tuple[np.ndarray, ...]
    source_rows: tuple[int, ...]

    def __post_init__(self):
        n = self.dim
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
        if len(self.operators) != len(self.source_rows):
            raise ValueError("one source row index is required per operator")
        if len(self.operators) > n * n:
            raise ValueError(f"at most {n * n} operators allowed, got {len(self.operators)}")
        ops = []
        for k in self.operators:
            arr = as_complex_matrix(k)
            if arr.shape != (n, n):
                raise ValueError(f"operators must be {n}x{n}, got shape {arr.shape}")
            arr.setflags(write=False)
            ops.append(arr)
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "source_rows", tuple(int(i) for i in self.source_rows))

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def _stacked(self) -> np.ndarray:
        """The operators as one (count, n, n) array; (0, n, n) for an empty set."""
        if not self.operators:
            return np.zeros((0, self.dim, self.dim), dtype=np.complex128)
        return np.stack(self.operators)

    def apply(self, a) -> np.ndarray:
        """``sum_i K_i^* a K_i``: the batched products ``a K_i``, then one GEMM
        of the stacked ``K_i^*`` against them."""
        m = as_complex_matrix(a)
        n = self.dim
        if m.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        stack = self._stacked()
        return stack.conj().reshape(-1, n).T @ (m @ stack).reshape(-1, n)

    def completeness_residual(self) -> float:
        """``max_norm(sum_i K_i K_i^* - I)``; zero for a trace-preserving set."""
        stack = self._stacked()
        total = np.einsum("lac,lbc->ab", stack, stack.conj())
        return max_norm(total - np.eye(self.dim))


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
    """Extract Kraus operators from a positive semidefinite Choi matrix.

    Factors the Choi matrix as ``R^* R`` and reshapes every nonzero row of
    R into an operator, preserving row order. The operator count equals the
    number of nonzero pivots, i.e. the numerical rank of the Choi matrix.

    Raises:
        NotPositiveSemidefiniteError: propagated from the factorization when
            the Choi matrix is not positive semidefinite within ``tol``.
    """
    c = as_complex_matrix(choi)
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"Choi matrix must be square, got shape {c.shape}")
    n = math.isqrt(c.shape[0])
    if n < 2 or n * n != c.shape[0]:
        raise ValueError(f"Choi matrix size {c.shape[0]} is not n^2 for any dimension n >= 2")
    r = psd_cholesky(c, tol)
    ops: list[np.ndarray] = []
    rows: list[int] = []
    for idx in range(n * n):
        if max_norm(r[idx]) > 0.0:
            ops.append(reshape_row(r[idx], n))
            rows.append(idx)
    return KrausSet(n, tuple(ops), tuple(rows))


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

    Produces all n^2 operators in the same row order as
    :func:`kraus_from_choi` applied to the family's Choi matrix: scanning
    positions (i, r) row-major, position (i, i) yields a diagonal operator
    (pivot square root at (i, i), fill-over-root at the later diagonal
    entries) and every other position (i, r) yields a single-entry operator
    carrying sqrt((1-p)/n). For parameters strictly inside the family
    interval the Choi matrix is positive definite, its triangular factor is
    unique, and this list coincides entry-wise with the factorization route.
    """
    data = hybrid_classical_pivots(n, p)
    sqrt_uncoupled = np.sqrt(data.uncoupled)
    ops: list[np.ndarray] = []
    rows: list[int] = []
    for i in range(n):
        for r in range(n):
            k = np.zeros((n, n), dtype=np.complex128)
            if r == i:
                root = np.sqrt(data.pivots[i])
                k[i, i] = root
                if i < n - 1:
                    fill = data.offdiags[i] / root
                    for j in range(i + 1, n):
                        k[j, j] = fill
            else:
                k[i, r] = sqrt_uncoupled
            ops.append(k)
            rows.append(i * n + r)
    return KrausSet(n, tuple(ops), tuple(rows))
