"""Output checks against the independent reference.

Each check returns a list of problems; an empty list means the output
passed. None of them compares against a stored copy of an earlier output:
the expected values come from :mod:`reference` or from properties every
correct output has (Hermitian, orthonormal, complete, row-stochastic).
"""

from __future__ import annotations

import numpy as np

import reference as ref

#: Entrywise tolerance, relative to max(1, largest expected entry).
MATRIX_TOL = 1e-10
#: Tolerance on V^H V against the reference Choi matrix and on residuals.
KRAUS_TOL = 1e-9
#: Tolerance on Hermiticity and orthonormality of basis elements.
BASIS_TOL = 1e-12


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def check_matrix(out, expected, what: str) -> list[str]:
    out = np.asarray(out)
    expected = np.asarray(expected)
    if out.shape != expected.shape:
        return [f"{what}: shape {out.shape}, expected {expected.shape}"]
    err = _max_abs(out - expected)
    if not err <= MATRIX_TOL * max(1.0, _max_abs(expected)):
        return [f"{what}: max deviation {err:.3e} from the reference"]
    return []


def check_kraus(operators, r: ref.Reference) -> list[str]:
    """V^H V reproduces the reference Choi matrix, completeness, count = rank."""
    n = r.n
    ops = [np.asarray(k, dtype=np.complex128) for k in operators]
    if any(k.shape != (n, n) for k in ops):
        return [f"kraus: operators must be {n}x{n}"]
    problems = []
    lo, hi = r.rank_range
    if not lo <= len(ops) <= hi:
        problems.append(f"kraus: {len(ops)} operators, reference rank {lo}..{hi}")
    if not ops:
        return problems + ["kraus: no operators"]
    v = np.stack([k.reshape(-1) for k in ops])
    err = _max_abs(v.conj().T @ v - r.choi)
    if not err <= KRAUS_TOL * max(1.0, _max_abs(r.choi)):
        problems.append(f"kraus: V^H V deviates from the reference Choi matrix by {err:.3e}")
    stack = np.stack(ops)
    completeness = _max_abs(np.einsum("lac,lbc->ab", stack, stack.conj()) - np.eye(n))
    if not abs(completeness - r.completeness) <= KRAUS_TOL:
        problems.append(f"kraus: completeness residual {completeness:.3e},"
                        f" reference {r.completeness:.3e}")
    return problems


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_verify(doc: dict, r: ref.Reference) -> list[str]:
    """CP and TP verdicts, smallest Choi eigenvalue and completeness residual."""
    problems = []
    if doc.get("cp") is not r.cp:
        problems.append(f"verify: cp={doc.get('cp')!r}, reference {r.cp}")
    if doc.get("tp") is not r.tp:
        problems.append(f"verify: tp={doc.get('tp')!r}, reference {r.tp}")
    lowest = doc.get("min_choi_eigenvalue")
    if not _is_number(lowest) or not abs(lowest - r.min_eigenvalue) <= KRAUS_TOL:
        problems.append(f"verify: min_choi_eigenvalue {lowest!r}, reference {r.min_eigenvalue!r}")
    completeness = doc.get("completeness_residual")
    if not r.cp:
        if completeness is not None:
            problems.append("verify: completeness residual reported for a non-CP channel")
    elif not _is_number(completeness) or not abs(completeness - r.completeness) <= KRAUS_TOL:
        problems.append(f"verify: completeness residual {completeness!r},"
                        f" reference {r.completeness!r}")
    return problems


def expected_verify_exit(r: ref.Reference) -> int:
    return 0 if (r.cp and r.tp) else 3


def check_transition(p, row_stochastic, expected_matrix) -> list[str]:
    """Rows match the reference transition matrix of a TP channel and sum to 1."""
    p = np.asarray(p, dtype=np.float64)
    problems = check_matrix(p, expected_matrix, "transition")
    if problems:
        return problems
    if not _max_abs(p.sum(axis=1) - 1.0) <= MATRIX_TOL:
        problems.append("transition: rows do not sum to 1")
    expected = bool(np.min(expected_matrix) >= -1e-12)
    if row_stochastic is not expected:
        problems.append(f"transition: row_stochastic={row_stochastic!r}, reference {expected}")
    return problems


def check_basis(elements, n: int) -> list[str]:
    """Hermitian, orthonormal, and in the documented order."""
    e = np.asarray(elements, dtype=np.complex128)
    if e.shape != (n * n, n, n):
        return [f"basis: shape {e.shape}, expected {(n * n, n, n)}"]
    problems = []
    drift = _max_abs(e - np.conj(np.transpose(e, (0, 2, 1))))
    if not drift <= BASIS_TOL:
        problems.append(f"basis: elements not Hermitian (drift {drift:.3e})")
    flat = e.reshape(n * n, n * n)
    gram = flat.conj() @ flat.T
    err = _max_abs(gram - np.eye(n * n))
    if not err <= BASIS_TOL:
        problems.append(f"basis: Gram matrix deviates from I by {err:.3e}")
    order = _max_abs(e - ref.documented_basis(n))
    if not order <= BASIS_TOL:
        problems.append(f"basis: not the documented order (max deviation {order:.3e})")
    return problems
