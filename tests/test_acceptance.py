"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (bypassing output capture) before asserting,
so a full run always shows the per-criterion scoreboard.
"""

import json

import numpy as np

from diagchan.basis import orthonormal_basis
from diagchan.channels import (
    ChannelFamily,
    DiagonalChannel,
    family_parameter_range,
    min_choi_eigenvalue,
)
from diagchan.cli import main
from diagchan.kraus import (
    hybrid_classical_kraus,
    hybrid_classical_pivots,
    kraus_from_choi,
    reconstruction_residual,
)
from diagchan.linalg import (
    NotPositiveSemidefiniteError,
    dagger,
    hermitian_eigenvalues,
    matrix_unit,
    max_norm,
    psd_cholesky,
)
from diagchan.transitions import (
    diagonal_block_coefficients,
    is_row_stochastic,
    transition_closed_form,
    transition_direct,
)

from oracles import dense_apply

ALL_FAMILIES = list(ChannelFamily)
HYBRID = ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL


def report(capsys, number, label, passed):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def family_vector(family, n, p):
    signs = {
        ChannelFamily.DEPOLARIZING: (1, 1, 1),
        ChannelFamily.TRANSPOSE_DEPOLARIZING: (1, -1, 1),
        ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL: (-1, -1, 1),
        ChannelFamily.HYBRID_TRANSPOSE_DEPOLARIZING_CLASSICAL: (-1, 1, 1),
    }[family]
    num_pairs = n * (n - 1) // 2
    return np.concatenate([
        [1.0],
        np.full(num_pairs, signs[0] * p),
        np.full(num_pairs, signs[1] * p),
        np.full(n - 1, signs[2] * p),
    ])


def test_criterion_1_basis_orthonormality(capsys):
    worst = 0.0
    for n in range(2, 9):
        basis = orthonormal_basis(n)
        gram = np.einsum("aij,bij->ab", basis.elements.conj(), basis.elements)
        worst = max(worst, max_norm(gram - np.eye(n * n)))
    report(capsys, 1, f"basis orthonormality (worst gram deviation {worst:.2e})",
           worst <= 1e-12)


def test_criterion_2_kraus_reconstruction(capsys):
    worst_rec = 0.0
    worst_comp = 0.0
    for family in ALL_FAMILIES:
        for n in range(2, 7):
            lo, hi = family_parameter_range(family, n)
            for p in (lo, (lo + hi) / 2, hi):
                channel = DiagonalChannel.from_family(family, n, p)
                ks = kraus_from_choi(channel.choi())
                worst_rec = max(worst_rec, reconstruction_residual(ks, channel))
                worst_comp = max(worst_comp, ks.completeness_residual())
    report(capsys, 2,
           f"Kraus reconstruction (residuals rec {worst_rec:.2e}, comp {worst_comp:.2e})",
           worst_rec <= 1e-10 and worst_comp <= 1e-10)


def test_criterion_3_closed_form_equivalence(capsys):
    worst_pair = 0.0
    worst_channel = 0.0
    for n in range(2, 7):
        lo, hi = family_parameter_range(HYBRID, n)
        for p in np.linspace(lo, hi, 12)[1:-1]:
            channel = DiagonalChannel.from_family(HYBRID, n, p)
            closed = hybrid_classical_kraus(n, p)
            factored = kraus_from_choi(channel.choi())
            assert len(closed) == len(factored) == n * n
            worst_pair = max(worst_pair, max(
                max_norm(a - b) for a, b in zip(closed, factored)))
            worst_channel = max(worst_channel,
                                reconstruction_residual(closed, channel),
                                reconstruction_residual(factored, channel))
    report(capsys, 3,
           f"closed-form/factorized equivalence (entrywise {worst_pair:.2e}, "
           f"reconstruction {worst_channel:.2e})",
           worst_pair <= 1e-10 and worst_channel <= 1e-10)


def test_criterion_4_pivot_identities(capsys):
    worst_gap = 0.0
    worst_harmonic = 0.0
    for n in range(2, 9):
        lo, hi = family_parameter_range(HYBRID, n)
        for p in np.linspace(lo, hi, 22)[1:-1]:
            # hybrid_classical_pivots cross-checks closed form vs recurrence
            # to 1e-12 internally and raises on disagreement.
            data = hybrid_classical_pivots(n, p)
            gap = 2 * p + (1 - p) / n
            worst_gap = max(worst_gap, max_norm(data.pivots[:-1] - data.offdiags - gap))
            if n > 2 and abs(p) > 1e-5:
                # reciprocals of the fills cancel catastrophically near p = 0,
                # where the identity degenerates to 0 = 0
                inv = 1.0 / data.offdiags
                worst_harmonic = max(worst_harmonic, float(np.max(
                    np.abs((inv[1:] - inv[:-1]) * gap - 1.0))))
    report(capsys, 4,
           f"pivot identities (gap {worst_gap:.2e}, harmonic {worst_harmonic:.2e} rel)",
           worst_gap <= 1e-12 and worst_harmonic <= 1e-10)


def test_criterion_5_transition_probabilities(capsys):
    worst_match = 0.0
    worst_off = 0.0
    worst_image = 0.0
    all_stochastic = True
    for family in ALL_FAMILIES:
        for n in range(2, 9):
            lo, hi = family_parameter_range(family, n)
            for p in (lo, (lo + hi) / 2, hi):
                channel = DiagonalChannel.from_family(family, n, p)
                direct = transition_direct(channel)
                closed = transition_closed_form(diagonal_block_coefficients(channel), n)
                worst_match = max(worst_match, max_norm(direct - closed))
                all_stochastic = all_stochastic and is_row_stochastic(direct, 1e-12)
                # The paper's first result on the basis route: each E_kk maps
                # to a real diagonal matrix whose diagonal is row k.
                for k in range(n):
                    image = dense_apply(channel, matrix_unit(n, k, k))
                    diagonal = np.diag(image)
                    worst_off = max(worst_off, max_norm(image - np.diag(diagonal)),
                                    max_norm(diagonal.imag))
                    worst_image = max(worst_image, max_norm(diagonal.real - direct[k]))
    report(capsys, 5,
           f"transition probabilities (closed-vs-direct {worst_match:.2e}, "
           f"non-diagonal images {worst_off:.2e}, image-vs-direct {worst_image:.2e}, "
           f"stochastic {all_stochastic})",
           worst_match <= 1e-12 and worst_off <= 1e-12 and worst_image <= 1e-12
           and all_stochastic)


def test_criterion_6_cp_boundary_sharpness(capsys):
    inside_ok = True
    outside_ok = True
    worst_inside = 0.0
    for family in ALL_FAMILIES:
        for n in range(2, 7):
            lo, hi = family_parameter_range(family, n)
            for p in (lo, hi):
                eig = min_choi_eigenvalue(family_vector(family, n, p))
                worst_inside = min(worst_inside, eig)
                inside_ok = inside_ok and eig >= -1e-10
            for p in (lo - 0.02, hi + 0.02):
                eig = min_choi_eigenvalue(family_vector(family, n, p))
                outside_ok = outside_ok and eig < -1e-6
    report(capsys, 6,
           f"CP boundary sharpness (worst endpoint eigenvalue {worst_inside:.2e})",
           inside_ok and outside_ok)


def test_criterion_7_cholesky_unit_suite(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 37))
        rank = int(rng.integers(1, n + 1))
        b = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
        h = b.conj().T @ b
        r = psd_cholesky(h)
        worst = max(worst, max_norm(dagger(r) @ r - h) / max_norm(h))
    rejected = 0
    for _ in range(50):
        n = int(rng.integers(2, 37))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        assert hermitian_eigenvalues(h)[0] < -1e-10 * max_norm(h)  # oracle: indefinite
        try:
            psd_cholesky(h)
        except NotPositiveSemidefiniteError:
            rejected += 1
    report(capsys, 7,
           f"semidefinite Cholesky (worst relative residual {worst:.2e}, "
           f"{rejected}/50 indefinite rejected)",
           worst <= 1e-10 and rejected == 50)


def test_criterion_8_cli_contract(capsys, tmp_path):
    hybrid = ["--n", "2", "--family", "hybrid_depolarizing_classical", "--p", "0.2"]

    def run(*args):
        code = main(list(args))
        return code, capsys.readouterr().out

    ok = True

    # closed-form extraction: four operators, tiny completeness residual
    code, out = run("kraus", *hybrid, "--method", "theorem4")
    doc = json.loads(out)
    ok &= code == 0 and len(doc["operators"]) == 4
    ok &= doc["metadata"]["residuals"]["completeness"] < 1e-10

    # factorization route on the fully depolarizing channel: four
    # single-entry operators scaled by 1/sqrt(2)
    code, out = run("kraus", "--n", "2", "--family", "depolarizing", "--p", "0",
                    "--method", "cholesky")
    doc = json.loads(out)
    ops = [np.array([[complex(re, im) for re, im in row] for row in d["entries"]])
           for d in doc["operators"]]
    ok &= code == 0 and len(ops) == 4
    ok &= all(int((np.abs(op) > 0).sum()) == 1 for op in ops)
    ok &= all(abs(op[np.abs(op) > 0][0] - 1 / np.sqrt(2)) < 1e-12 for op in ops)

    # both methods agree after rounding to 12 decimals
    code_a, out_a = run("kraus", *hybrid, "--method", "cholesky")
    code_b, out_b = run("kraus", *hybrid, "--method", "theorem4")
    ops_a = [np.round(np.array(d["entries"], dtype=float), 12).tolist()
             for d in json.loads(out_a)["operators"]]
    ops_b = [np.round(np.array(d["entries"], dtype=float), 12).tolist()
             for d in json.loads(out_b)["operators"]]
    ok &= code_a == 0 and code_b == 0 and ops_a == ops_b

    # verify at a family boundary
    code, out = run("verify", "--n", "3", "--family", "transpose_depolarizing", "--p", "0.25")
    doc = json.loads(out)
    ok &= code == 0 and doc["cp"] is True and doc["tp"] is True
    ok &= abs(doc["min_choi_eigenvalue"]) <= 1e-8

    # transition matrix of the two-level hybrid depolarizing classical channel
    code, out = run("transition", *hybrid)
    doc = json.loads(out)
    ok &= code == 0 and doc["row_stochastic"] is True
    ok &= max_norm(np.array(doc["matrix"]) - np.array([[0.6, 0.4], [0.4, 0.6]])) <= 1e-12

    # byte stability across two consecutive runs
    for args in (["kraus", *hybrid, "--method", "theorem4"],
                 ["verify", "--n", "3", "--family", "transpose_depolarizing", "--p", "0.25"],
                 ["transition", *hybrid]):
        _, first = run(*args)
        _, second = run(*args)
        ok &= first == second

    report(capsys, 8, "CLI contract", ok)
