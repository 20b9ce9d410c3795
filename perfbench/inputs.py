"""Seeded inputs for the workloads: channels and density matrices.

Every random draw goes through a ``numpy.random.Generator`` made from the
run's ``--seed``, so the same seed gives the same inputs. Raw coefficient
vectors are drawn with their smallest Choi eigenvalue at least 0.1/n away
from zero, so the expected CP verdict is never a matter of tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref

#: A drawn CP vector keeps its smallest Choi eigenvalue above this times 1/n,
#: a non-CP vector below minus this times 1/n.
VERDICT_MARGIN = 0.1


@dataclass(frozen=True)
class Channel:
    """One channel input: a named family at p, or a raw coefficient vector."""

    n: int
    family: str | None = None
    p: float | None = None
    coeffs: np.ndarray | None = None

    def phi(self):
        if self.family is not None:
            return ref.family_map(self.family, self.n, self.p)
        return ref.coefficient_map(self.coeffs)


def family_channel(rng, family: str, n: int, where: str) -> Channel:
    """A family channel at a seeded interior p, or at the interval end "lo" or "hi".

    The family and the end are fixed by the caller: the rank of an endpoint
    Choi matrix sets the cost of the Kraus routes, so leaving it to the seed
    would make the cost of a run depend on the seed.
    """
    lo, hi = ref.family_range(family, n)
    p = {"lo": lo, "hi": hi}.get(where)
    if p is None:
        p = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    return Channel(n, family=family, p=float(p))


def _cp_mixture(rng, n: int) -> np.ndarray:
    """A convex mixture of CP, TP diagonal channels with a depolarizing share.

    The completely depolarizing share w adds w*I/n to the Choi matrix, so
    the smallest eigenvalue is at least w/n.
    """
    num_pairs = n * (n - 1) // 2
    signs = rng.choice([-1.0, 1.0], size=n)
    conj = np.array([signs[i] * signs[j] for i, j in ref.pairs(n)])
    pool = [
        np.ones(n * n),                                                        # identity
        np.concatenate([[1.0], np.zeros(2 * num_pairs), np.ones(n - 1)]),      # dephasing
        np.concatenate([[1.0], conj, conj, np.ones(n - 1)]),                   # sign unitary
    ]
    for family in ref.FAMILIES:
        lo, hi = ref.family_range(family, n)
        pool.append(ref.family_coefficients(family, n, rng.uniform(lo, hi)))
    depolarized = rng.uniform(0.35, 0.5)
    weights = rng.dirichlet(np.ones(len(pool))) * (1.0 - depolarized)
    mix = sum(w * c for w, c in zip(weights, pool))
    mix[0] = 1.0  # the depolarizing share: coefficient vector (1, 0, ..., 0)
    return mix


def raw_channel(rng, n: int, cp: bool, tp: bool) -> Channel:
    """A raw coefficient vector with the requested CP and TP verdicts.

    Not TP: the leading coefficient moves by 0.05..0.2, which shifts every
    Choi eigenvalue by that amount over n. Not CP: one pair coupling b_ij is
    pushed past the matching diagonal entry m_ij, so the 2 x 2 pair block
    [[m_ij, b_ij], [b_ij, m_ij]] gets the eigenvalue m_ij - |b_ij| <= -0.5/n.
    """
    c = _cp_mixture(rng, n)
    if not tp:
        c[0] = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.2)
    if not cp:
        bl = ref.blocks(c)
        ps = ref.pairs(n)
        k = int(rng.integers(len(ps)))
        i, j = ps[k]
        coupling = rng.choice([-1.0, 1.0]) * (bl.m[i, j] + rng.uniform(0.5, 1.5) / n)
        num_pairs = len(ps)
        c[1 + k] = bl.w[i, j] + coupling
        c[1 + num_pairs + k] = bl.w[i, j] - coupling
    lowest = ref.structured_min_eigenvalue(c)
    if (lowest >= VERDICT_MARGIN / n) != cp or (not cp and lowest > -VERDICT_MARGIN / n):
        raise AssertionError(f"drawn vector has an ambiguous CP verdict: {lowest!r}")
    return Channel(n, coeffs=c)


def fault_channel() -> Channel:
    """The fixed CP, TP channel that trips the semidefinite-Cholesky defect.

    n = 4, diagonal block t = 0, pair couplings b = 0 and coupled block
    D = G/4, with G the Gram matrix of four unit vectors of which the third
    lies 4e-6 from the span of the first two. The smallest Choi eigenvalue
    is about +7e-13, yet the factorization drops that row with an
    off-diagonal remainder near 8e-7. It does not depend on the seed.
    """
    n = 4
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([np.cos(0.7), np.sin(0.7), 0.0, 0.0])
    v3 = 0.6 * v1 + 0.5 * v2 + np.array([0.0, 0.0, 4e-6, 0.0])
    v4 = np.array([0.0, 0.3, 0.8, 0.5])
    vs = np.stack([v / np.linalg.norm(v) for v in (v1, v2, v3, v4)])
    gram = vs @ vs.T
    s = np.array([gram[i, j] / 4.0 for i, j in ref.pairs(n)])
    c = np.concatenate([[1.0], s, s, np.zeros(n - 1)])
    return Channel(n, coeffs=c)


def density_matrix(rng, n: int) -> np.ndarray:
    """A full-rank random density matrix, exactly Hermitian, unit trace."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real
