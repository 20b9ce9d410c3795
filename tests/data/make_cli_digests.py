"""Record the CLI contract pinned by ``cli_digests.json``.

Runs every subcommand in-process at n = 2..6, with ``--tol`` at its default
and at 0, over the four families at both interval ends and the midpoint,
``kraus --method theorem4`` on the hybrid family, and 20 raw coefficient
vectors given through ``--coefficients``. For each command it records the
exit code and the sha256 of stdout. The inputs (raw vectors and density
matrices) go into the same file, so the test replays them exactly.

    PYTHONPATH=src python tests/data/make_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from diagchan.channels import ChannelFamily, DiagonalChannel, family_parameter_range
from diagchan.cli import main

OUT = Path(__file__).with_name("cli_digests.json")
DIMENSIONS = range(2, 7)
CHANNEL_COMMANDS = (["choi"], ["kraus"], ["verify"], ["apply", "--input", "{state}"],
                    ["transition"])


def raw_vectors(rng) -> dict[str, list[float]]:
    """Four vectors per dimension: CP, not CP, rank-deficient and not TP.

    The CP one composes two family channels (coefficients multiply); the
    rank-deficient one dephases completely, with -0.0 on every pair; the
    not-TP one scales a CP vector's leading coefficient to 0.9 and carries
    -0.0 on its diagonal block.
    """
    families = list(ChannelFamily)
    vectors = {}
    for n in DIMENSIONS:
        pairs = n * (n - 1) // 2
        cp = np.ones(n * n)
        for family in rng.choice(len(families), 2):
            lo, hi = family_parameter_range(families[family], n)
            cp = cp * DiagonalChannel.from_family(families[family], n,
                                                  rng.uniform(lo, hi)).coefficients
        not_cp = rng.uniform(-1.0, 1.0, n * n)
        not_cp[0] = 1.0
        dephasing = np.concatenate([[1.0], np.full(2 * pairs, -0.0), np.ones(n - 1)])
        not_tp = cp.copy()
        not_tp[0] = 0.9
        not_tp[1 + 2 * pairs:] = -0.0
        for kind, v in (("cp", cp), ("notcp", not_cp), ("dephasing", dephasing),
                        ("nottp", not_tp)):
            vectors[f"n{n}-{kind}.json"] = v.tolist()
    return vectors


def density_matrix(rng, n: int) -> dict:
    """A positive definite state of trace exactly 1: dyadic diagonal weights
    that sum to 1, plus a Hermitian off-diagonal part small enough for
    diagonal dominance."""
    weights = 2.0 ** -np.arange(1.0, n + 1)
    weights[-1] *= 2.0
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (8.0 * n * 2.0 ** n)
    rho = np.diag(weights).astype(complex) + np.triu(z, 1) + np.triu(z, 1).conj().T
    return {"shape": [n, n], "entries": np.stack([rho.real, rho.imag], -1).tolist()}


def commands(vectors) -> list[list[str]]:
    runs = []
    for n in DIMENSIONS:
        state = f"state{n}.json"
        for tol in ([], ["--tol", "0"]):
            runs.append(["basis", "--n", str(n), *tol])
            for family in ChannelFamily:
                lo, hi = family_parameter_range(family, n)
                for p in (lo, (lo + hi) / 2, hi):
                    flags = ["--n", str(n), "--family", family.value, f"--p={p!r}", *tol]
                    for command in CHANNEL_COMMANDS:
                        runs.append([arg.format(state=state) for arg in command] + flags)
                    if family is ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL:
                        runs.append(["kraus", "--method", "theorem4", *flags])
            for name in vectors:
                if name.startswith(f"n{n}-"):
                    for command in CHANNEL_COMMANDS:
                        runs.append([arg.format(state=state) for arg in command]
                                    + ["--coefficients", name, *tol])
    return runs


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout digest of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def write_inputs(directory: Path, data: dict) -> None:
    """The raw vectors and states, under the file names the commands use."""
    for name, vector in data["vectors"].items():
        (directory / name).write_text(json.dumps(vector))
    for n, doc in data["states"].items():
        (directory / f"state{n}.json").write_text(json.dumps(doc))


def record() -> None:
    warnings.simplefilter("error", RuntimeWarning)
    rng = np.random.default_rng(20261018)
    data = {"vectors": raw_vectors(rng),
            "states": {str(n): density_matrix(rng, n) for n in DIMENSIONS}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory), data)
        os.chdir(directory)
        try:
            data["runs"] = {" ".join(argv): run(argv) for argv in commands(data["vectors"])}
        finally:
            os.chdir(cwd)
    OUT.write_text(json.dumps(data, indent=0) + "\n")
    codes = [code for code, _ in data["runs"].values()]
    print(f"{len(codes)} runs, exit codes {dict(zip(*np.unique(codes, return_counts=True)))}",
          file=sys.stderr)


if __name__ == "__main__":
    record()
