"""The three workloads and the closed loop that times them.

Every workload runs whole rounds of a fixed list of operations, one after
another from one caller thread, until ``--seconds`` have passed; each
operation's output is checked against :mod:`reference` outside its timed
span. Set-up (input generation and cold per-dimension calls) is repeated
``SETUP_REPEATS`` times in untraced runs and its median reported.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import inputs
import reference as ref

SETUP_REPEATS = 5
CLI_TOL = 1e-10
#: A single CLI process is cut off after this many seconds and counted failed.
PROCESS_TIMEOUT_S = 120
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"


@dataclass
class Op:
    """One operation of a round: ``run`` is timed, ``check`` is not."""

    kind: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


@dataclass
class Record:
    kind: str
    n: int
    round: int
    slot: int  # the operation's place in its round
    seconds: float
    problems: list
    known_fault: bool = False


@dataclass
class Outcome:
    """A workload's set-up time, timed records and peak resident set."""

    setup_s: float
    records: list
    peak_rss_mb: float


def _timed(op: Op, round_index: int, slot: int) -> Record:
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed one
        elapsed = perf_counter() - t0
        problems = [f"{type(exc).__name__}: {exc}"]
    else:
        elapsed = perf_counter() - t0
        problems = op.check(out)
    return Record(op.kind, op.n, round_index, slot, elapsed, problems, op.known_fault)


def measure(ops: list[Op], seconds: float, tracer=None) -> list[Record]:
    """Whole rounds of ``ops`` until ``seconds`` of wall time have passed."""
    records: list[Record] = []
    start = perf_counter()
    for round_index in itertools.count():
        for slot, op in enumerate(ops):
            if tracer is not None:
                tracer.n, tracer.op = op.n, len(records)
            records.append(_timed(op, round_index, slot))
        if perf_counter() - start >= seconds:
            return records


def timed_setup(build: Callable[[], object], repeats: int, clear: Callable[[], None]):
    """Run ``build`` ``repeats`` times from cold caches; (median seconds, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        clear()
        t0 = perf_counter()
        result = build()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


# ----------------------------------------------------------------------
# Whole CLI processes
# ----------------------------------------------------------------------

def _matrix(doc) -> np.ndarray:
    entries = np.asarray(doc["entries"], dtype=np.float64)
    m = entries[..., 0] + 1j * entries[..., 1]
    if list(m.shape) != list(doc["shape"]):
        raise ValueError(f"matrix document shape {doc['shape']} does not match its entries")
    return m


def _write_json(path: Path, value) -> str:
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


def _state_document(rho: np.ndarray) -> dict:
    return {
        "shape": list(rho.shape),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }


@dataclass
class CliCall:
    """One ``diagchan`` invocation of the CLI mix and what it was given."""

    kind: str
    n: int
    args: list
    channel: inputs.Channel | None = None
    state: np.ndarray | None = None
    known_fault: bool = False


class CliRunner:
    """Spawns ``diagchan`` processes, traced through trace_child.py if asked."""

    def __init__(self, env: dict, workdir: Path, tracer=None):
        self.env = env
        self.workdir = workdir
        self.tracer = tracer
        self._count = 0

    def _file(self, stem: str) -> Path:
        self._count += 1
        return self.workdir / f"{stem}-{self._count}.json"

    def spawn(self, args: list[str], n: int):
        trace_path = None
        if not args:
            cmd = [sys.executable, "-c", "import diagchan"]
        elif self.tracer is not None:
            trace_path = self._file("trace")
            cmd = [sys.executable, str(TRACE_CHILD), str(trace_path), str(n), *args]
        else:
            cmd = [sys.executable, "-m", "diagchan", *args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        return proc, trace_path

    def op(self, kind: str, n: int, args: list[str], check, expected_exit: int = 0,
           known_fault: bool = False) -> Op:
        def run():
            return self.spawn(args, n)

        def checked(out):
            proc, trace_path = out
            if trace_path is not None and trace_path.exists():
                self.tracer.merge(json.loads(trace_path.read_text(encoding="utf-8")),
                                  self.tracer.op)
                trace_path.unlink()
            if proc.returncode != expected_exit:
                said = proc.stderr.strip()[:200] or proc.stdout.strip()[-200:]
                return [f"{kind}: exit code {proc.returncode}, expected {expected_exit}: {said}"]
            if check is None:
                return []
            try:
                doc = json.loads(proc.stdout)
                return check(doc)
            except (ValueError, KeyError, TypeError) as exc:
                return [f"{kind}: unreadable output: {exc}"]

        return Op(kind, n, run, checked, known_fault)

    def call(self, kind: str, ch: inputs.Channel, *extra: str, state=None,
             known_fault: bool = False) -> CliCall:
        """A CLI call on ``ch``; a raw vector goes through a coefficients file."""
        if ch.family is not None:
            # "--p=" form: argparse reads a separate "-5e-05" as an option.
            spec = ["--n", str(ch.n), "--family", ch.family, f"--p={ch.p!r}"]
        else:
            spec = ["--coefficients",
                    _write_json(self._file("coefficients"), [float(x) for x in ch.coeffs])]
        if state is not None:
            spec += ["--input", _write_json(self._file("state"), _state_document(state))]
        return CliCall(kind, ch.n, [kind, *spec, *extra], ch, state, known_fault)

    def draw(self, rng, n: int) -> list[CliCall]:
        """One round of the fixed CLI mix, its channels and states drawn from ``rng``."""
        def fam(family, where):
            return inputs.family_channel(rng, family, n, where)

        raw_cp_tp = inputs.raw_channel(rng, n, cp=True, tp=True)
        calls = [CliCall("import", n, []) for _ in range(2)]
        calls += [CliCall("basis", n, ["basis", "--n", str(n)]) for _ in range(2)]
        calls += [self.call("choi", ch) for ch in (
            fam("transpose_depolarizing", "interior"),
            inputs.raw_channel(rng, n, cp=False, tp=False))]
        calls += [self.call("verify", ch) for ch in (
            fam("hybrid_transpose_depolarizing_classical", "lo"),
            raw_cp_tp,
            inputs.raw_channel(rng, n, cp=True, tp=False),
            inputs.raw_channel(rng, n, cp=False, tp=True))]
        calls += [self.call("apply", ch, state=inputs.density_matrix(rng, n))
                  for ch in (fam("depolarizing", "interior"), raw_cp_tp)]
        calls += [self.call("transition", ch)
                  for ch in (fam("hybrid_depolarizing_classical", "hi"), raw_cp_tp)]
        calls.append(self.call("kraus", fam("hybrid_depolarizing_classical", "lo")))
        calls.append(self.call("kraus", fam("hybrid_depolarizing_classical", "interior"),
                               "--method", "theorem4"))
        calls.append(self.call("kraus", inputs.fault_channel(), known_fault=True))
        return calls

    def ops(self, calls: list[CliCall]) -> list[Op]:
        """The calls as operations, each checked against its reference."""
        refs = {}
        ops = []
        for c in calls:
            expected_exit = 0
            if c.kind == "import":
                check = None
            elif c.kind == "basis":
                check = functools.partial(_check_basis_doc, n=c.n)
            else:
                if id(c.channel) not in refs:
                    refs[id(c.channel)] = ref.reference(c.channel.phi(), c.n)
                check = functools.partial(_CLI_CHECKS[c.kind], r=refs[id(c.channel)],
                                          state=c.state)
                if c.kind == "verify":
                    expected_exit = checks.expected_verify_exit(refs[id(c.channel)])
            ops.append(self.op(c.kind, c.n, c.args, check, expected_exit, c.known_fault))
        return ops


def _check_basis_doc(doc, n):
    return checks.check_basis([_matrix(e) for e in doc], n)


_CLI_CHECKS = {
    "choi": lambda doc, r, state: checks.check_matrix(_matrix(doc), r.choi, "choi"),
    "verify": lambda doc, r, state: checks.check_verify(doc, r),
    "apply": lambda doc, r, state: checks.check_matrix(_matrix(doc), r.phi(state), "apply"),
    "transition": lambda doc, r, state: checks.check_transition(
        doc["matrix"], doc["row_stochastic"], r.transition),
    "kraus": lambda doc, r, state: checks.check_kraus(
        [_matrix(k) for k in doc["operators"]], r),
}


CLI_KINDS = ("import", "basis", "choi", "kraus", "verify", "apply", "transition")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

#: Dimension of the CLI mix. Its timings are per-operation medians over the
#: rounds of a run, so a run needs many rounds: at n=8 a round of 17
#: processes takes about 3.5 s. At n=16 (kraus at n=12) it took 12 s, a
#: 30 s run made two or three rounds, and its figures spread by a quarter
#: between runs of the same code.
CLI_N = 8


def run_cli(seed: int, seconds: float, ctx) -> Outcome:
    """Whole diagchan processes at n=8, plus the fault channel."""
    runner = CliRunner(ctx.env, ctx.workdir, ctx.tracer)

    def build():
        calls = runner.draw(np.random.default_rng(seed), CLI_N)
        runner.spawn([], CLI_N)  # warm interpreter, byte-code and page caches
        return calls

    setup_s, calls = timed_setup(build, 1 if ctx.tracer else SETUP_REPEATS, lambda: None)
    records = measure(runner.ops(calls), seconds, ctx.tracer)
    return Outcome(ctx.import_s + setup_s, records, ctx.children_rss_mb())


def _cold_calls(ctx, dims):
    for n in dims:
        if ctx.tracer is not None:
            ctx.tracer.n = n
        ctx.diagchan.orthonormal_basis(n)


def _clear_basis_cache(dc):
    clear = getattr(dc.basis.orthonormal_basis, "cache_clear", None)
    if clear is not None:
        clear()


def _api_channel(dc, ch: inputs.Channel):
    if ch.family is not None:
        return dc.DiagonalChannel.from_family(ch.family, ch.n, ch.p)
    return ch.coeffs


def _verify_pipeline(dc, channel):
    """What ``diagchan verify`` computes, through the public API."""
    tp = dc.is_trace_preserving(channel, CLI_TOL)
    lowest = dc.min_choi_eigenvalue(channel)
    cp = lowest >= -CLI_TOL
    kraus_set = dc.kraus_from_choi(dc.choi_matrix(channel), CLI_TOL) if cp else None
    doc = {
        "cp": cp,
        "tp": tp,
        "min_choi_eigenvalue": lowest,
        "completeness_residual": kraus_set.completeness_residual() if cp else None,
    }
    return doc, kraus_set


ALL_VERDICTS = ((True, True), (True, False), (False, True), (False, False))
# A round of 18: its median falls on the two cheapest n=12 CP channels and
# its 90th percentile on the two dearest n=16 CP channels.
VERIFY_MIX = {
    # n: (raw (cp, tp) verdicts, family channels as (family, where))
    8: (ALL_VERDICTS, (("depolarizing", "interior"), ("transpose_depolarizing", "lo"))),
    12: (ALL_VERDICTS, (("transpose_depolarizing", "interior"),
                        ("hybrid_depolarizing_classical", "interior"),
                        ("depolarizing", "hi"),
                        ("hybrid_transpose_depolarizing_classical", "hi"))),
    16: (((True, True), (False, False)), (("hybrid_transpose_depolarizing_classical", "interior"),
                                          ("hybrid_depolarizing_classical", "lo"))),
}


def run_verify_sweep(seed: int, seconds: float, ctx) -> Outcome:
    """The verify pipeline in-process on raw and family channels, n in {8, 12, 16}."""
    dc = ctx.diagchan

    def build():
        rng = np.random.default_rng(seed)
        channels = []
        for n, (verdicts, families) in VERIFY_MIX.items():
            channels += [inputs.raw_channel(rng, n, cp, tp) for cp, tp in verdicts]
            channels += [inputs.family_channel(rng, family, n, where) for family, where in families]
        api = [_api_channel(dc, ch) for ch in channels]
        _cold_calls(ctx, VERIFY_MIX)
        return channels, api

    setup_s, (channels, api) = timed_setup(build, 1 if ctx.tracer else SETUP_REPEATS,
                                           lambda: _clear_basis_cache(dc))
    ops = []
    for ch, channel in zip(channels, api):
        rr = ref.reference(ch.phi(), ch.n)

        def check(out, rr=rr):
            doc, kraus_set = out
            problems = checks.check_verify(doc, rr)
            if kraus_set is not None:
                problems += checks.check_kraus(kraus_set.operators, rr)
            return problems

        ops.append(Op("verify", ch.n, lambda channel=channel: _verify_pipeline(dc, channel), check))
    records = measure(ops, seconds, ctx.tracer)
    return Outcome(ctx.import_s + setup_s, records, ctx.self_rss_mb())


APPLY_FAMILIES = {
    # n: (family at an interior p, (family, interval end))
    16: ("depolarizing", ("transpose_depolarizing", "hi")),
    24: ("hybrid_depolarizing_classical", ("hybrid_transpose_depolarizing_classical", "lo")),
    32: ("transpose_depolarizing", ("depolarizing", "lo")),
}
APPLY_DIMS = tuple(APPLY_FAMILIES)
KRAUS_APPLY_N = 12


def run_apply_stream(seed: int, seconds: float, ctx) -> Outcome:
    """Validate and apply at n in {16, 24, 32}; transitions at n in {12, 16, 24}
    and Kraus applies at n=12 as a minor share."""
    dc = ctx.diagchan

    def build():
        rng = np.random.default_rng(seed)
        per_n = {}
        for n, (interior, (endpoint, where)) in APPLY_FAMILIES.items():
            chans = [inputs.family_channel(rng, interior, n, "interior"),
                     inputs.family_channel(rng, endpoint, n, where),
                     inputs.raw_channel(rng, n, cp=True, tp=True)]
            states = [inputs.density_matrix(rng, n) for _ in range(8)]
            per_n[n] = (chans, [_api_channel(dc, ch) for ch in chans], states)
        kraus_chans = [
            inputs.family_channel(rng, "hybrid_depolarizing_classical", KRAUS_APPLY_N, "hi"),
            inputs.raw_channel(rng, KRAUS_APPLY_N, cp=True, tp=True)]
        kraus_states = [inputs.density_matrix(rng, KRAUS_APPLY_N) for _ in kraus_chans]
        _cold_calls(ctx, (*APPLY_DIMS, KRAUS_APPLY_N))
        kraus_sets = [dc.kraus_from_choi(dc.choi_matrix(_api_channel(dc, ch)), CLI_TOL)
                      for ch in kraus_chans]
        return per_n, list(zip(kraus_chans, kraus_sets, kraus_states))

    setup_s, (per_n, kraus_inputs) = timed_setup(build, 1 if ctx.tracer else SETUP_REPEATS,
                                                 lambda: _clear_basis_cache(dc))

    def apply_op(n, slot, state):
        ch, channel, x = per_n[n][0][slot], per_n[n][1][slot], per_n[n][2][state]
        expected = ch.phi()(x)

        def run():
            rho = dc.as_density_matrix(x)
            return rho, dc.apply_channel(channel, rho)

        def check(out):
            rho, image = out
            return (checks.check_matrix(rho, x, "as_density_matrix")
                    + checks.check_matrix(image, expected, "apply_channel"))

        return Op("apply", n, run, check)

    def transition_op(ch, channel, closed_form):
        n = ch.n
        expected = ref.transition(ch.phi(), n)

        def run():
            if closed_form:
                p = dc.transition_closed_form(dc.diagonal_block_coefficients(channel), n)
            else:
                p = dc.transition_direct(channel)
            return p, dc.is_row_stochastic(p)

        kind = "transition_closed_form" if closed_form else "transition_direct"
        return Op(kind, n, run, lambda out: checks.check_transition(out[0], out[1], expected))

    def kraus_apply_op(ch, kraus_set, x):
        expected = ch.phi()(x)
        return Op("kraus_apply", KRAUS_APPLY_N, lambda: kraus_set.apply(x),
                  lambda out: checks.check_matrix(out, expected, "KrausSet.apply"))

    def channel(n, slot):
        return per_n[n][0][slot], per_n[n][1][slot]

    raw_12 = kraus_inputs[1][0]
    # A round of 24: 9 operations cost less than an n=24 apply, so the
    # round's median lies among its five n=24 applies; its 90th percentile
    # lies between two of the three transition_direct at n=24. There is no
    # transition_direct at n=32: at about 300 ms it would be two thirds of
    # the round's time, and ops_per_s would follow that one operation.
    ops = [transition_op(*channel(32, 1), closed_form=True)]
    ops += [apply_op(16, slot % 3, slot) for slot in range(8)]
    ops += [apply_op(24, slot % 3, slot) for slot in range(5)]
    ops += [apply_op(32, slot, slot) for slot in range(3)]
    ops.append(transition_op(raw_12, _api_channel(dc, raw_12), closed_form=False))
    ops += [transition_op(*channel(n, slot), closed_form=False)
            for n, slot in ((16, 2), (24, 0), (24, 1), (24, 2))]
    ops += [kraus_apply_op(*item) for item in kraus_inputs]
    records = measure(ops, seconds, ctx.tracer)
    return Outcome(ctx.import_s + setup_s, records, ctx.self_rss_mb())


WORKLOADS = {
    "cli": run_cli,
    "verify-sweep": run_verify_sweep,
    "apply-stream": run_apply_stream,
}
