"""Reference channel algebra written from the documented conventions alone.

Nothing here imports diagchan: the benchmark judges diagchan's outputs
against these independently computed values.

Conventions (the ones diagchan documents): a coefficient vector holds n^2
reals in basis order -- identity, symmetric pairs, antisymmetric pairs,
traceless diagonals -- with pairs (i, j), i < j, in lexicographic order.
The Choi matrix is the n^2 x n^2 block matrix whose (i, j) block is
Phi(E_ij). Kraus operators K act as Phi(A) = sum K^* A K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = (
    "depolarizing",
    "transpose_depolarizing",
    "hybrid_depolarizing_classical",
    "hybrid_transpose_depolarizing_classical",
)

# Sign of p on the (symmetric, antisymmetric, diagonal) coefficient blocks.
FAMILY_SIGNS = {
    "depolarizing": (1.0, 1.0, 1.0),
    "transpose_depolarizing": (1.0, -1.0, 1.0),
    "hybrid_depolarizing_classical": (-1.0, -1.0, 1.0),
    "hybrid_transpose_depolarizing_classical": (-1.0, 1.0, 1.0),
}

#: Eigenvalues within this band (relative to the largest) are numerically
#: ambiguous: a correct factorization may count them as rank or drop them.
RANK_GRAY_LO = 1e-14
RANK_GRAY_HI = 1e-8


def pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def family_range(family: str, n: int) -> tuple[float, float]:
    """The closed interval of p for which the family is CP and TP."""
    if family == "depolarizing":
        return -1.0 / (n * n - 1), 1.0
    if family == "hybrid_depolarizing_classical":
        return -1.0 / (2 * n - 1), 1.0 / (n - 1) ** 2
    return -1.0 / (n - 1), 1.0 / (n + 1)


def family_coefficients(family: str, n: int, p: float) -> np.ndarray:
    num_pairs = n * (n - 1) // 2
    s_sym, s_anti, s_diag = FAMILY_SIGNS[family]
    return np.concatenate([
        [1.0],
        np.full(num_pairs, s_sym * p),
        np.full(num_pairs, s_anti * p),
        np.full(n - 1, s_diag * p),
    ])


def family_map(family: str, n: int, p: float):
    """The family's closed form, X -> Phi(X)."""
    eye = np.eye(n)

    def phi(x):
        x = np.asarray(x, dtype=np.complex128)
        mixed = (1.0 - p) * np.trace(x) * eye / n
        if family == "depolarizing":
            return p * x + mixed
        if family == "transpose_depolarizing":
            return p * x.T + mixed
        diag = 2.0 * p * np.diag(np.diag(x))
        if family == "hybrid_depolarizing_classical":
            return -p * x + diag + mixed
        return -p * x.T + diag + mixed

    return phi


@dataclass(frozen=True)
class Blocks:
    """A coefficient vector as the entrywise action it defines.

    Phi(X)_ij = w_ij X_ij + b_ij X_ji off the diagonal, and
    diag(Phi(X)) = m @ diag(X), with w = (s + a)/2, b = (s - a)/2 and m the
    n x n symmetric matrix c0 J/n + sum_k t_k d_k d_k^T over the normalized
    traceless diagonals d_k.
    """

    n: int
    w: np.ndarray
    b: np.ndarray
    m: np.ndarray


def blocks(coeffs) -> Blocks:
    c = np.asarray(coeffs, dtype=np.float64).ravel()
    n = int(round(np.sqrt(c.size)))
    num_pairs = n * (n - 1) // 2
    s = c[1:1 + num_pairs]
    a = c[1 + num_pairs:1 + 2 * num_pairs]
    t = c[1 + 2 * num_pairs:]
    w = np.zeros((n, n))
    b = np.zeros((n, n))
    for k, (i, j) in enumerate(pairs(n)):
        w[i, j] = w[j, i] = (s[k] + a[k]) / 2.0
        b[i, j] = b[j, i] = (s[k] - a[k]) / 2.0
    m = c[0] * np.ones((n, n)) / n
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        d /= np.sqrt(k * (k + 1.0))
        m += t[k - 1] * np.outer(d, d)
    return Blocks(n, w, b, m)


def coefficient_map(coeffs):
    """Phi(X) of a raw coefficient vector, from the block formula."""
    bl = blocks(coeffs)

    def phi(x):
        x = np.asarray(x, dtype=np.complex128)
        out = bl.w * x + bl.b * x.T
        out[np.diag_indices(bl.n)] = bl.m @ np.diag(x)
        return out

    return phi


def _unit(n: int, i: int, j: int) -> np.ndarray:
    u = np.zeros((n, n), dtype=np.complex128)
    u[i, j] = 1.0
    return u


def choi(phi, n: int) -> np.ndarray:
    c = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            c[i * n:(i + 1) * n, j * n:(j + 1) * n] = phi(_unit(n, i, j))
    return c


def structured_min_eigenvalue(coeffs) -> float:
    """Smallest Choi eigenvalue from the block structure (used to draw inputs).

    The Choi matrix splits into the coupled n x n block on the slots i*n+i
    (diagonal m_ii, off-diagonal w_ij) and one 2 x 2 block [[m_ij, b_ij],
    [b_ij, m_ij]] per pair.
    """
    bl = blocks(coeffs)
    coupled = bl.w.copy()
    coupled[np.diag_indices(bl.n)] = np.diag(bl.m)
    lo = float(np.linalg.eigvalsh(coupled)[0])
    iu = np.triu_indices(bl.n, 1)
    if iu[0].size:
        lo = min(lo, float(np.min(bl.m[iu] - np.abs(bl.b[iu]))))
    return lo


@dataclass(frozen=True)
class Reference:
    """Everything the checks compare against, for one channel."""

    n: int
    phi: object
    choi: np.ndarray
    min_eigenvalue: float
    cp: bool
    tp: bool
    rank_range: tuple[int, int]
    completeness: float
    transition: np.ndarray


def reference(phi, n: int) -> Reference:
    c = choi(phi, n)
    eig = np.linalg.eigvalsh(c)
    top = max(float(np.max(np.abs(eig))), 1e-300)
    lo = float(eig[0])
    # tr Phi(E_ij) = delta_ij for every unit <=> trace preserving; the dual
    # map at the identity, conj(tr Phi(E_ij)), equals sum K K^*.
    traces = np.array([[np.trace(c[i * n:(i + 1) * n, j * n:(j + 1) * n]) for j in range(n)]
                       for i in range(n)])
    dual_identity = traces.conj()
    return Reference(
        n=n,
        phi=phi,
        choi=c,
        min_eigenvalue=lo,
        cp=lo >= -RANK_GRAY_HI * top,
        tp=bool(np.max(np.abs(traces - np.eye(n))) <= 1e-12),
        rank_range=(int(np.sum(eig > RANK_GRAY_HI * top)), int(np.sum(eig > RANK_GRAY_LO * top))),
        completeness=float(np.max(np.abs(dual_identity - np.eye(n)))),
        transition=transition(phi, n),
    )


def transition(phi, n: int) -> np.ndarray:
    """P[k, j] = Phi(E_kk)_jj."""
    return np.array([np.diag(phi(_unit(n, k, k))).real for k in range(n)])


def documented_basis(n: int) -> np.ndarray:
    """The orthonormal Hermitian basis in the documented order, (n^2, n, n)."""
    mats = [np.eye(n, dtype=np.complex128) / np.sqrt(n)]
    ps = pairs(n)
    for i, j in ps:
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
        mats.append(m)
    for i, j in ps:
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, j] = -1j / np.sqrt(2.0)
        m[j, i] = 1j / np.sqrt(2.0)
        mats.append(m)
    for k in range(1, n):
        d = np.zeros(n, dtype=np.complex128)
        d[:k] = 1.0
        d[k] = -float(k)
        mats.append(np.diag(d) / np.sqrt(k * (k + 1.0)))
    return np.stack(mats)
