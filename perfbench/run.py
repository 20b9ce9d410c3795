"""diagchan benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is the
result object; raw per-operation records go to perfbench/out/. See
perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread, in this process and in every child: each workload is one
# caller in a closed loop, and an idle BLAS pool spinning on the second CPU
# only adds noise. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


class Context:
    """What a workload needs from its surroundings."""

    def __init__(self, workdir: Path, tracer, import_s: float, diagchan):
        self.workdir = workdir
        self.tracer = tracer
        self.import_s = import_s
        self.diagchan = diagchan
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    @staticmethod
    def self_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @staticmethod
    def children_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli", "verify-sweep", "apply-stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ms(seconds) -> float:
    return seconds * 1e3


def slot_medians_ms(records) -> list:
    """Each operation of the round: the median of its times over the rounds.

    Every round is the same list of operations. On a shared host most
    operations run at the machine's usual speed and a minority is slowed
    by bursts of other load; a per-operation median over the rounds keeps
    the usual time, where a mean, or a quantile of all samples pooled,
    moves with how many bursts a run happened to meet.
    """
    by_slot = {}
    for r in records:
        by_slot.setdefault(r.slot, []).append(r.seconds)
    return [_ms(statistics.median(times)) for _, times in sorted(by_slot.items())]


def round_figures(records) -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms from the per-operation medians."""
    slots = slot_medians_ms(records)
    return {
        "ops_per_s": _metric(len(slots) / (sum(slots) / 1e3), "1/s"),
        "op_p50_ms": _metric(statistics.median(slots), "ms"),
        "op_p90_ms": _metric(statistics.quantiles(slots, n=10)[-1], "ms"),
    }


def end_to_end(outcome) -> dict:
    return {
        "setup_s": _metric(outcome.setup_s, "s"),
        **round_figures(outcome.records),
        "peak_rss_mb": _metric(outcome.peak_rss_mb, "MB"),
    }


def per_layer(outcome, tracer, cli_kinds, processes: bool) -> dict:
    """The tracer's metrics, and the median wall time of each kind of traced
    diagchan process (0 on the in-process workloads)."""
    metrics = {name: _metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    for kind in cli_kinds:
        of_kind = [r.seconds for r in outcome.records
                   if processes and r.kind == kind and not r.known_fault]
        value = _ms(statistics.median(of_kind)) if of_kind else 0.0
        metrics[f"cli.process.{kind}.wall_ms"] = _metric(value, "ms")
    traced = round_figures(outcome.records)
    metrics["trace.ops_per_s"] = traced["ops_per_s"]
    metrics["trace.op_p50_ms"] = traced["op_p50_ms"]
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diagchan" / "__init__.py").is_file():
        print(f"error: no diagchan sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import diagchan
    if Path(diagchan.__file__).resolve().parent != (SRC / "diagchan").resolve():
        print(f"error: imported diagchan from {diagchan.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        if args.workload != "cli":
            tracer.install()
    import_s = time.perf_counter() - T0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ctx = Context(Path(workdir), tracer, import_s, diagchan)
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ctx)
    if tracer is not None:
        tracer.uninstall()

    records = outcome.records
    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"failed {r.kind} n={r.n}: {'; '.join(r.problems)}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(outcome, tracer, workloads.CLI_KINDS,
                            processes=args.workload == "cli")
    else:
        metrics = end_to_end(outcome)
    result = {
        "correct": all(r.known_fault for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {"args": vars(args), "blas_threads": BLAS_THREADS, "result": result,
           "records": [vars(r) for r in records]}
    stem.with_suffix(".json").write_text(json.dumps(raw), encoding="utf-8")
    if tracer is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(tracer.spans),
                                                             encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
