"""Command-line front end.

Builds diagonal channels from flags or JSON coefficient files and emits
bases, Choi matrices, Kraus operator sets, verification reports, channel
applications, and transition matrices as deterministic JSON (fixed field
order, floats rendered with 17 significant digits, 1-based indices in
messages).

Exit codes: 0 success, 2 input error, 3 property-verification failure,
4 degenerate closed-form parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .basis import orthonormal_basis
from .channels import (
    ChannelFamily,
    DiagonalChannel,
    choi_matrix,
    apply_channel,
    channel_coefficients,
    is_trace_preserving,
    min_choi_eigenvalue,
)
from .kraus import (
    DegenerateChannelError,
    hybrid_classical_kraus,
    kraus_from_channel,
    reconstruction_residual,
)
from .linalg import NotPositiveSemidefiniteError, as_density_matrix
from .transitions import is_row_stochastic, transition_direct

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROPERTY = 3
EXIT_DEGENERATE = 4

#: Largest dense array a subcommand may build, in bytes: the n^2 x n^2
#: complex128 Choi matrix, or the n^2 basis elements or Kraus operators of
#: size n x n, takes 16 n^4 bytes, so n <= 64 fits. It bounds that array,
#: not the process: the rendered rows and the joined text are alive beside
#: it, and at n = 64 ``choi``, ``kraus`` and ``basis`` peak at 1.5-1.8 times it.
DENSE_BYTES_LIMIT = 2 ** 28

_FAMILY_NAMES = [f.value for f in ChannelFamily]


# ----------------------------------------------------------------------
# Deterministic JSON rendering
# ----------------------------------------------------------------------

def render_json(value) -> str:
    """Serialize a document with insertion-ordered keys and %.17g floats.

    A document holds only dicts, lists, tuples, floats, ints, bools, None,
    strings and 2-D complex128 arrays, dispatched on their exact type. An
    array is written as rows of ``[re, im]`` entries, one ``%`` per row on
    the row's interleaved real and imaginary parts.
    """
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError("non-finite number in output document")
        return format(value, ".17g")
    if kind is np.ndarray and value.dtype == np.complex128 and value.ndim == 2:
        if not np.isfinite(value).all():
            raise ValueError("non-finite number in output document")
        row = "[" + ",".join(["[%.17g,%.17g]"] * value.shape[1]) + "]"
        pairs = np.ascontiguousarray(value).view(np.float64)
        return "[" + ",".join([row % tuple(r) for r in pairs]) + "]"
    if kind is list or kind is tuple:
        return "[" + ",".join(map(render_json, value)) + "]"
    if kind is dict:
        return "{" + ",".join([f"{json.dumps(k)}:{render_json(v)}" for k, v in value.items()]) + "}"
    if value is None or kind is bool or kind is int or kind is str:
        return json.dumps(value)
    raise TypeError(f"cannot serialize {kind.__name__}")


def matrix_document(m) -> dict:
    """Matrix as {"shape": [rows, cols], "entries": m}, ``m`` as a complex128
    array, which :func:`render_json` writes as [[[re, im], ...], ...]."""
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    return {"shape": [int(rows), int(cols)], "entries": m}


def _is_json_real(x) -> bool:
    """Whether ``x`` is a JSON number a float can hold: a float, or an int
    (never a bool) within the float range."""
    return isinstance(x, float) or (type(x) is int and abs(x) <= sys.float_info.max)


def parse_matrix_document(doc) -> np.ndarray:
    """Inverse of :func:`matrix_document`, with validation."""
    if not isinstance(doc, dict) or "shape" not in doc or "entries" not in doc:
        raise ValueError('matrix document must be an object with "shape" and "entries"')
    shape = doc["shape"]
    if (not isinstance(shape, list) or len(shape) != 2
            or not all(type(s) is int and s > 0 for s in shape)):
        raise ValueError('matrix document "shape" must be two positive integers')
    rows, cols = shape
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError(f"matrix document must carry {rows} entry rows")
    m = np.zeros((rows, cols), dtype=np.complex128)
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"entry row {r + 1} must carry {cols} [re, im] pairs")
        for c, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_json_real, pair)):
                raise ValueError(f"entry at row {r + 1}, column {c + 1} must be an [re, im] pair")
            re, im = float(pair[0]), float(pair[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry at row {r + 1}, column {c + 1} is not finite")
            m[r, c] = complex(re, im)
    return m


# ----------------------------------------------------------------------
# Channel resolution from flags
# ----------------------------------------------------------------------

def _read_json(path):
    """The JSON document in the file at ``path``. A document nested deeper
    than the parser's recursion limit is an input error naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _resolve_channel(ns) -> tuple[int, np.ndarray, ChannelFamily | None]:
    """Channel from flags: (dimension, coefficient vector, family or None).

    Raw coefficient files bypass the channel-construction invariants so the
    verify command can diagnose unhealthy vectors instead of rejecting them.
    """
    if ns.family is not None and ns.coefficients is not None:
        raise ValueError("give either --family or --coefficients, not both")
    if ns.family is not None:
        if ns.n is None:
            raise ValueError("--n is required with --family")
        if ns.p is None:
            raise ValueError("--p is required with --family")
        channel = DiagonalChannel.from_family(ns.family, ns.n, ns.p)
        return channel.dim, channel.coefficients, ChannelFamily(ns.family)
    if ns.coefficients is None:
        raise ValueError("a channel spec needs --family with --p, or --coefficients")
    data = _read_json(ns.coefficients)
    declared_n = None
    if isinstance(data, dict):
        declared_n = data.get("n")
        if declared_n is not None and not _is_json_real(declared_n):
            raise ValueError(f'declared "n" must be a number, got {json.dumps(declared_n)}')
        data = data.get("coefficients")
        if data is None:
            raise ValueError('coefficient file object must carry a "coefficients" array')
    if not isinstance(data, list) or not all(map(_is_json_real, data)):
        raise ValueError("coefficient file must hold a JSON array of reals")
    n, arr = channel_coefficients(data)
    for hint in (declared_n, ns.n):
        if hint is not None and hint != n:
            raise ValueError(f"declared dimension {hint} does not match {arr.size} coefficients")
    return n, arr, None


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _check_dense_size(n: int) -> None:
    """Refuse a dimension whose n^4-sized arrays exceed DENSE_BYTES_LIMIT,
    before any of them is allocated."""
    size = 16 * n ** 4
    if size > DENSE_BYTES_LIMIT:
        largest = math.isqrt(math.isqrt(DENSE_BYTES_LIMIT // 16))
        raise ValueError(
            f"--n {n} is too large: a dense n^2 x n^2 complex matrix takes {size} bytes,"
            f" above the limit of {DENSE_BYTES_LIMIT} bytes (n <= {largest})"
        )


def _cmd_basis(ns):
    if ns.n is None or ns.n < 2:
        raise ValueError("--n must be an integer >= 2")
    _check_dense_size(ns.n)
    basis = orthonormal_basis(ns.n)
    return [matrix_document(e) for e in basis], EXIT_OK


def _cmd_choi(ns):
    dim, coeffs, _ = _resolve_channel(ns)
    _check_dense_size(dim)
    return matrix_document(choi_matrix(coeffs)), EXIT_OK


def _cmd_kraus(ns):
    dim, coeffs, family = _resolve_channel(ns)
    _check_dense_size(dim)
    if ns.method == "theorem4":
        if family is not ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL:
            raise ValueError(
                "--method theorem4 requires --family hybrid_depolarizing_classical"
            )
        kraus_set = hybrid_classical_kraus(dim, ns.p)
    else:
        kraus_set = kraus_from_channel(coeffs, ns.tol)
    reconstruction = reconstruction_residual(kraus_set, coeffs)
    completeness = kraus_set.completeness_residual()
    doc = {
        "operators": [matrix_document(k) for k in kraus_set],
        "metadata": {
            "method": ns.method,
            "residuals": {
                "reconstruction": reconstruction,
                "completeness": completeness,
            },
        },
    }
    ok = reconstruction <= ns.tol and completeness <= ns.tol
    return doc, (EXIT_OK if ok else EXIT_PROPERTY)


def _cmd_verify(ns):
    # Everything here is O(n^2) memory: the Kraus set holds the O(n^2)
    # nonzero entries of the block factor, and its completeness residual
    # sorts them, so there is no size limit.
    _, coeffs, _ = _resolve_channel(ns)
    tp = is_trace_preserving(coeffs, ns.tol)
    # The CP check and the factor each read the Choi blocks from the
    # coefficients: O(n^2) and one n x n GEMM, against O(n^3) for either.
    min_eigenvalue = min_choi_eigenvalue(coeffs)
    kraus_set = None
    if min_eigenvalue >= -ns.tol:
        try:
            kraus_set = kraus_from_channel(coeffs, ns.tol)
        except NotPositiveSemidefiniteError as exc:
            # The factorization's pivot test is relative to max_norm(choi),
            # the eigenvalue test absolute: a channel can pass the one and
            # fail the other. Without a Kraus set it is reported not CP, and
            # stderr says why, as ``kraus`` does.
            _report_not_cp(exc)
    cp = kraus_set is not None
    doc = {
        "cp": cp,
        "tp": tp,
        "min_choi_eigenvalue": min_eigenvalue,
        "completeness_residual": kraus_set.completeness_residual() if cp else None,
    }
    return doc, (EXIT_OK if (cp and tp) else EXIT_PROPERTY)


def _cmd_apply(ns):
    dim, coeffs, _ = _resolve_channel(ns)
    if ns.input is None:
        raise ValueError("--input with a density-matrix JSON file is required")
    doc = _read_json(ns.input)
    state = parse_matrix_document(doc)
    state = as_density_matrix(state, trace_atol=ns.tol, eig_atol=ns.tol)
    if state.shape[0] != dim:
        raise ValueError(
            f"state dimension {state.shape[0]} does not match channel dimension {dim}"
        )
    return matrix_document(apply_channel(coeffs, state)), EXIT_OK


def _cmd_transition(ns):
    dim, coeffs, _ = _resolve_channel(ns)
    p = transition_direct(coeffs)
    doc = {
        "matrix": p.tolist(),
        "row_stochastic": is_row_stochastic(p, ns.tol),
    }
    return doc, EXIT_OK


_COMMANDS = {
    "basis": _cmd_basis,
    "choi": _cmd_choi,
    "kraus": _cmd_kraus,
    "verify": _cmd_verify,
    "apply": _cmd_apply,
    "transition": _cmd_transition,
}


def _add_common_flags(sp, channel: bool):
    sp.add_argument("--n", type=int, default=None, help="matrix dimension (>= 2)")
    if channel:
        sp.add_argument("--family", choices=_FAMILY_NAMES, default=None,
                        help="named channel family")
        sp.add_argument("--p", type=float, default=None, help="family mixing parameter")
        sp.add_argument("--coefficients", default=None, metavar="PATH",
                        help="JSON file with n^2 raw coefficients in basis order")
    sp.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance")
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="write JSON here instead of standard output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagchan",
        description="Diagonal quantum channels: bases, Choi matrices, Kraus sets, "
                    "verification, application, and transition matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common_flags(sub.add_parser("basis", help="emit the orthonormal Hermitian basis"),
                      channel=False)
    _add_common_flags(sub.add_parser("choi", help="emit the Choi matrix of a channel"),
                      channel=True)
    kraus = sub.add_parser("kraus", help="extract Kraus operators")
    _add_common_flags(kraus, channel=True)
    kraus.add_argument("--method", choices=["cholesky", "theorem4"], default="cholesky",
                       help="extraction route: triangular factorization of the Choi matrix, "
                            "or the closed form for the hybrid depolarizing classical family")
    _add_common_flags(sub.add_parser("verify", help="report CP / TP verdicts"), channel=True)
    apply_parser = sub.add_parser("apply", help="apply a channel to a density matrix")
    _add_common_flags(apply_parser, channel=True)
    apply_parser.add_argument("--input", default=None, metavar="PATH",
                              help="JSON matrix document of the input density matrix")
    _add_common_flags(sub.add_parser("transition", help="emit the induced transition matrix"),
                      channel=True)
    return parser


#: Flags with a real value, which may be negative.
_REAL_FLAGS = ("--p", "--tol")


def _is_real(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--p -5e-05`` as ``--p=-5e-05``.

    argparse reads a token that starts with '-' as an option unless it looks
    like a plain negative decimal, so a negative value in exponent form
    after its flag would otherwise be a usage error.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _REAL_FLAGS and token.startswith("-") and _is_real(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _report_not_cp(exc: NotPositiveSemidefiniteError) -> None:
    print(f"error: channel is not completely positive: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser().parse_args(_attach_negative_values(argv))
    try:
        if not (math.isfinite(ns.tol) and ns.tol >= 0.0):
            raise ValueError(f"--tol must be a finite number >= 0, got {ns.tol!r}")
        doc, code = _COMMANDS[ns.command](ns)
        text = render_json(doc) + "\n"
        if ns.output is not None:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except DegenerateChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotPositiveSemidefiniteError as exc:
        _report_not_cp(exc)
        return EXIT_PROPERTY
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: memory ran out for this input{detail}", file=sys.stderr)
        return EXIT_INPUT
    if ns.output is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
