"""Dense reference routes for the channel and Kraus operations.

Each function goes through the n^2-element orthonormal basis, loops over
matrix units or works on the whole n^2 x n^2 Choi matrix, the way the
library computed these quantities before it worked from the channel's
coefficient blocks. They cost O(n^4) per application, O(n^6) per Choi
matrix, eigenvalue check or factorization and O(n^8) per Kraus residual,
and serve only as oracles for the structured routes.
"""

import json
import math

import numpy as np

from diagchan.basis import expand, orthonormal_basis, reconstruct
from diagchan.channels import channel_coefficients, choi_matrix
from diagchan.kraus import KrausSet, reshape_row
from diagchan.linalg import (
    as_complex_matrix,
    hermitian_eigenvalues,
    matrix_unit,
    max_norm,
    psd_cholesky,
)


def dense_apply(channel, a) -> np.ndarray:
    """Expand ``a`` in the orthonormal basis, scale each coefficient, reconstruct."""
    n, coeffs = channel_coefficients(channel)
    basis = orthonormal_basis(n)
    return reconstruct(coeffs * expand(a, basis), basis)


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


def einsum_kraus_apply(ks, a) -> np.ndarray:
    """``sum_i K_i^* a K_i`` as one three-operand einsum."""
    stack = np.stack(ks.operators)
    return np.einsum("lba,bc,lcd->ad", stack.conj(), np.asarray(a, dtype=np.complex128), stack)


def unit_loop_residual(ks, channel) -> float:
    """Largest mismatch between the Kraus and the dense channel image of any E_ij."""
    n, coeffs = channel_coefficients(channel)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            unit = matrix_unit(n, i, j)
            worst = max(worst, max_norm(einsum_kraus_apply(ks, unit) - dense_apply(coeffs, unit)))
    return worst


def dense_min_choi_eigenvalue(channel) -> float:
    """Smallest eigenvalue of the dense Choi matrix."""
    return float(hermitian_eigenvalues(choi_matrix(channel))[0])


def dense_kraus_from_choi(choi, tol: float) -> KrausSet:
    """Factor the whole Choi matrix with ``psd_cholesky`` and reshape every
    nonzero row of the factor into an operator, in row order."""
    c = as_complex_matrix(choi)
    n = math.isqrt(c.shape[0])
    r = psd_cholesky(c, tol)
    ops, rows = [], []
    for idx in range(n * n):
        if max_norm(r[idx]) > 0.0:
            ops.append(reshape_row(r[idx], n))
            rows.append(idx)
    return KrausSet(n, tuple(ops), tuple(rows))


def recursive_render_json(value) -> str:
    """The CLI's JSON rendering as one recursive isinstance chain per value."""
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
