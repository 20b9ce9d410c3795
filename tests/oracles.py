"""Dense reference routes for the channel and Kraus operations.

Each function goes through the n^2-element orthonormal basis, loops over
matrix units or works on the whole n^2 x n^2 Choi matrix, the way the
library computed these quantities before it worked from the channel's
coefficient blocks. They cost O(n^4) per application, O(n^6) per Choi
matrix, eigenvalue check or factorization and O(n^8) per Kraus residual,
and serve only as oracles for the structured routes. The ``loop_``
functions compute the transition matrices, the hybrid family's Kraus
operators and the diagonal sub-basis W one entry, projector, operator or
row at a time, as oracles for the batched routes, and the semidefinite
Cholesky factor with its pivot rule written out inline, as an oracle for
the rule the library states once.
``transposed_copy_completeness_residual`` is the completeness GEMM on a
transposed copy of the operators, as it was before the Kraus set held
them side by side. The ``gemm_`` functions are the
basis check as it was before it summed over the nonzero entries, and its
Gram product: one GEMM of the whole stack, O(n^6) for the basis; and the
Kraus products as they were before the set held only its nonzero entries:
``apply`` as two GEMMs on the (n, count, n) stack and the reconstruction
residual as ``max_norm(V^* V - C)``, one GEMM and one Choi matrix. The
``einsum_`` expansion and reconstruction, ``scaled_pauli_stack`` and
``eigvalsh_density_matrix`` are the basis and the density-matrix check as
they were before the basis held only its nonzero entries and before a
Cholesky factorization certified density matrices: an einsum over the whole
(n^2, n, n) stack, the family written into one such stack matrix by matrix
and then scaled, and the smallest eigenvalue.
"""

import json
import math

import numpy as np

from diagchan.basis import ORTHONORMALITY_ATOL, expand, orthonormal_basis, reconstruct
from diagchan.channels import apply_channel, channel_coefficients, choi_matrix
from diagchan.kraus import KrausSet, hybrid_classical_pivots, reshape_row
from diagchan.transitions import _clamp_noise
from diagchan.linalg import (
    NotPositiveSemidefiniteError,
    _least_pivots,
    as_complex_matrix,
    as_hermitian,
    dagger,
    hermitian_eigenvalues,
    matrix_unit,
    max_norm,
)


def dense_apply(channel, a) -> np.ndarray:
    """Expand ``a`` in the orthonormal basis, scale each coefficient, reconstruct."""
    n, coeffs = channel_coefficients(channel)
    basis = orthonormal_basis(n)
    return reconstruct(coeffs * expand(a, basis), basis)


def einsum_expand(a, basis) -> np.ndarray:
    """``<e_k | a>`` for every element, one einsum over the whole stack, with
    the library's checks and its complex-coefficient error on exactly
    Hermitian input."""
    m = as_complex_matrix(a)
    n = basis.dim
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    coeffs = np.einsum("aij,ij->a", basis.elements.conj(), m)
    if np.array_equal(m, dagger(m)) and float(np.max(np.abs(coeffs.imag))) > 1e-12:
        raise ArithmeticError("expansion of a Hermitian matrix produced complex coefficients")
    return coeffs


def einsum_reconstruct(coeffs, basis) -> np.ndarray:
    """``sum_k coeffs[k] e_k``, one einsum over the whole stack."""
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    return np.einsum("a,aij->ij", c, basis.elements)


def scaled_pauli_stack(n: int) -> np.ndarray:
    """The orthonormal basis as one (n^2, n, n) array: the generalized Pauli
    family written matrix by matrix into a zero stack, each matrix then
    scaled in place by its documented normalization."""
    stack = np.zeros((n * n, n, n), dtype=np.complex128)
    np.fill_diagonal(stack[0], 1.0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), sym, anti in zip(pairs, stack[1:], stack[1 + len(pairs):]):
        sym[i, j] = sym[j, i] = 1.0
        anti[i, j], anti[j, i] = -1.0j, 1.0j
    for m_ones, d in zip(range(1, n), stack[1 + 2 * len(pairs):]):
        np.fill_diagonal(d[:m_ones, :m_ones], 1.0)
        d[m_ones, m_ones] = -float(m_ones)
    scales = [1.0 / np.sqrt(n)] + [1.0 / np.sqrt(2.0)] * (2 * len(pairs))
    scales += [1.0 / np.sqrt(m * (m + 1.0)) for m in range(1, n)]
    for element, scale in zip(stack, scales):
        element *= scale
    return stack


def eigvalsh_density_matrix(a, trace_atol: float = 1e-12, eig_atol: float = 1e-10) -> np.ndarray:
    """The density-matrix check with the smallest eigenvalue alone deciding
    positive semidefiniteness, raising the library's errors."""
    m = as_hermitian(a)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"density matrix must have unit trace: got trace {tr!r}")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -eig_atol:
        raise ValueError(
            f"density matrix must be positive semidefinite: minimum eigenvalue {lo:.3e}"
        )
    return m


def dense_choi(channel) -> np.ndarray:
    """Choi matrix whose block (i, j) is the dense image of E_ij, one unit at a time."""
    n, coeffs = channel_coefficients(channel)
    c = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            c[i * n:(i + 1) * n, j * n:(j + 1) * n] = dense_apply(coeffs, matrix_unit(n, i, j))
    return c


def dense_is_trace_preserving(channel, tol: float) -> bool:
    """Whether the dense image of every basis element keeps its trace within ``tol``."""
    n, coeffs = channel_coefficients(channel)
    for element in orthonormal_basis(n):
        image = dense_apply(coeffs, element)
        if abs(complex(np.trace(image)) - complex(np.trace(element))) > tol:
            return False
    return True


def operator_stack(ks) -> np.ndarray:
    """The operators of a Kraus set as a (count, n, n) array; (0, n, n) for
    an empty set."""
    return np.array(ks.operators, dtype=np.complex128).reshape(-1, ks.dim, ks.dim)


def einsum_kraus_apply(ks, a) -> np.ndarray:
    """``sum_i K_i^* a K_i`` as one three-operand einsum."""
    stack = operator_stack(ks)
    return np.einsum("lba,bc,lcd->ad", stack.conj(), np.asarray(a, dtype=np.complex128), stack)


def gemm_kraus_apply(ks, a) -> np.ndarray:
    """``sum_i K_i^* a K_i`` as two GEMMs on the (n, count, n) stack x:
    ``a X`` with X the n x (count n) matrix of the operators side by side,
    then the rows of every ``K_i^*`` against the rows of every ``a K_i``."""
    n = ks.dim
    x = operator_stack(ks).transpose(1, 0, 2).copy()
    return x.reshape(-1, n).conj().T @ (np.asarray(a) @ x.reshape(n, -1)).reshape(-1, n)


def transposed_copy_completeness_residual(ks) -> float:
    """``max_norm(sum_i K_i K_i^* - I)`` as one GEMM ``X X^*`` of a fresh
    n x (count n) copy X of the operators side by side."""
    n = ks.dim
    x = operator_stack(ks).transpose(1, 0, 2).reshape(n, -1)
    return max_norm(x @ x.conj().T - np.eye(n))


def gemm_reconstruction_residual(ks, channel) -> float:
    """``max_norm(V^* V - C)``: V stacks the flattened operators, so ``V^* V``
    is the Choi matrix of the Kraus action, and C is the channel's."""
    v = operator_stack(ks).reshape(len(ks), ks.dim * ks.dim)
    return max_norm(v.conj().T @ v - choi_matrix(channel))


def unit_loop_residual(ks, channel) -> float:
    """Largest mismatch between the Kraus and the dense channel image of any E_ij."""
    n, coeffs = channel_coefficients(channel)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            unit = matrix_unit(n, i, j)
            worst = max(worst, max_norm(einsum_kraus_apply(ks, unit) - dense_apply(coeffs, unit)))
    return worst


def gemm_gram(x) -> np.ndarray:
    """The Gram matrix ``x^* x`` of the columns of x, as one GEMM."""
    x = np.asarray(x)
    return x.conj().T @ x


def gemm_basis_check(dim: int, elements) -> None:
    """The checks of ``HermitianBasis`` with the whole drift and the whole
    Gram matrix of the flattened stack, raising the same errors; non-finite
    entries are refused first."""
    arr = np.array(elements, dtype=np.complex128)
    n = dim
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if arr.shape != (n * n, n, n):
        raise ValueError(f"expected {(n * n, n, n)} element stack, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    drift = max_norm(arr - arr.conj().transpose(0, 2, 1))
    if drift > ORTHONORMALITY_ATOL:
        raise ValueError(f"basis elements are not Hermitian: max drift {drift:.3e}")
    flat = arr.reshape(n * n, n * n)
    if max_norm(flat.conj() @ flat.T - np.eye(n * n)) > ORTHONORMALITY_ATOL:
        raise ValueError("basis is not orthonormal under the Hilbert-Schmidt inner product")


def dense_min_choi_eigenvalue(channel) -> float:
    """Smallest eigenvalue of the dense Choi matrix."""
    return float(hermitian_eigenvalues(choi_matrix(channel))[0])


def loop_psd_cholesky(h, tol: float) -> np.ndarray:
    """The factor of ``psd_cholesky`` from a row loop that tests each pivot
    inline, apart from the library's shared keep and failure tests: a zero
    matrix returns at once, the last row is kept when its pivot exceeds the
    tolerance, and each error text is formed where it is raised."""
    a = as_hermitian(h)
    scale = max_norm(a)
    if scale == 0.0:
        return np.zeros_like(a)
    pivot_tol = tol * scale
    r = np.zeros_like(a)
    # A least pivot beyond the float range is inf and refused, unreported,
    # as in the library.
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(a.shape[0]):
            d = a[k, k].real
            if d < -pivot_tol:
                raise NotPositiveSemidefiniteError(
                    f"pivot {d:.6e} at index {k} is negative beyond tolerance {pivot_tol:.1e}"
                )
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
                needs = f"{least:.6e}" if least > 0.0 else "a positive pivot"
                raise NotPositiveSemidefiniteError(
                    f"pivot {d:.6e} at index {k} is too small for its row remainder "
                    f"(max {magnitude.max():.6e}; needs {needs})"
                )
            rkk = np.sqrt(pivot)
            r[k, k] = rkk
            row = tail / rkk
            r[k, k + 1:] = row
            a[k + 1:, k + 1:] -= np.outer(row.conj(), row)
    return r


def dense_kraus_from_choi(choi, tol: float) -> KrausSet:
    """Factor the whole Choi matrix with ``loop_psd_cholesky`` and reshape
    every nonzero row of the factor into an operator, in row order."""
    c = as_complex_matrix(choi)
    n = math.isqrt(c.shape[0])
    r = loop_psd_cholesky(c, tol)
    ops, rows = [], []
    for idx in range(n * n):
        if max_norm(r[idx]) > 0.0:
            ops.append(reshape_row(r[idx], n))
            rows.append(idx)
    return KrausSet(n, tuple(ops), tuple(rows))


def loop_hybrid_classical_kraus(n: int, p: float) -> KrausSet:
    """The hybrid classical family's closed-form Kraus set, one operator at a time."""
    data = hybrid_classical_pivots(n, p)
    sqrt_uncoupled = np.sqrt(data.uncoupled)
    ops, rows = [], []
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


def loop_transition_direct(channel, tol: float = 1e-12) -> np.ndarray:
    """Transition matrix by one ``apply_channel`` call per basis projector."""
    n, coeffs = channel_coefficients(channel)
    p = np.empty((n, n))
    for k in range(n):
        image = apply_channel(coeffs, matrix_unit(n, k, k))
        off = max_norm(image - np.diag(np.diag(image)))
        if off > tol:
            raise ArithmeticError(
                f"image of basis projector {k + 1} is not diagonal "
                f"(off-diagonal magnitude {off:.3e})"
            )
        diag = np.diag(image)
        if max_norm(diag.imag) > tol:
            raise ArithmeticError(
                f"image of basis projector {k + 1} has complex diagonal entries"
            )
        p[k] = diag.real
    return _clamp_noise(p)


def loop_transition_closed_form(t, n: int) -> np.ndarray:
    """The closed-form transition matrix entry by entry, with the tail sums
    accumulated from the last coefficient down."""
    t = np.asarray(t, dtype=np.float64).ravel()
    tail = np.zeros(n + 1)
    for m in range(n - 1, 0, -1):
        tail[m] = tail[m + 1] + t[m - 1] / (m * (m + 1.0))
    p = np.empty((n, n))
    for k in range(1, n + 1):
        below = 1.0 / n - (t[k - 2] / k if k > 1 else 0.0) + tail[k]
        diag = 1.0 / n + ((k - 1.0) * t[k - 2] / k if k > 1 else 0.0) + tail[k]
        p[k - 1, :k - 1] = below
        p[k - 1, k - 1] = diag
        for j in range(k + 1, n + 1):
            p[k - 1, j - 1] = 1.0 / n - t[j - 2] / j + tail[j]
    return _clamp_noise(p)


def recursive_render_json(value) -> str:
    """The CLI's JSON rendering as one recursive isinstance chain per value.

    An array, such as a matrix document's entries, is first turned into the
    nested ``[re, im]`` lists that ``matrix_document`` once built from it.
    """
    if isinstance(value, np.ndarray):
        return recursive_render_json(np.stack([value.real, value.imag], -1).tolist())
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError("non-finite number in output document")
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(recursive_render_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{recursive_render_json(v)}"
                              for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def loop_diagonal_sub_basis(n: int) -> np.ndarray:
    """The matrix W of ``channels._diagonal_sub_basis`` written row by row:
    the identity's diagonal over sqrt(n), then for each m = 1..n-1 m ones
    and -m over sqrt(m(m+1))."""
    w = np.zeros((n, n))
    w[0] = 1.0 / np.sqrt(n)
    for m in range(1, n):
        w[m, :m] = 1.0
        w[m, m] = -float(m)
        w[m] /= np.sqrt(m * (m + 1.0))
    return w
