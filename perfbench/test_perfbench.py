"""Tests of the benchmark's own reference, inputs, checks and tracer.

Run from the repository root: python3 -m pytest perfbench -q
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import diagchan as dc  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# ----------------------------------------------------------------------
# The reference agrees with itself and with the paper's closed forms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", ref.FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_block_formula_matches_family_closed_form(family, n):
    rng = np.random.default_rng(n)
    lo, hi = ref.family_range(family, n)
    p = rng.uniform(lo, hi)
    x = _random_matrix(rng, n)
    closed = ref.family_map(family, n, p)(x)
    block = ref.coefficient_map(ref.family_coefficients(family, n, p))(x)
    np.testing.assert_allclose(block, closed, atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_structured_min_eigenvalue_matches_choi_spectrum(seed):
    rng = np.random.default_rng(seed)
    n = 4
    coeffs = np.concatenate([[1.0], rng.uniform(-1, 1, n * n - 1)])
    full = np.linalg.eigvalsh(ref.choi(ref.coefficient_map(coeffs), n))[0]
    assert ref.structured_min_eigenvalue(coeffs) == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("cp", [True, False])
@pytest.mark.parametrize("tp", [True, False])
def test_raw_channels_have_the_requested_verdicts(cp, tp):
    for seed in range(3):
        ch = inputs.raw_channel(np.random.default_rng(seed), 6, cp=cp, tp=tp)
        r = ref.reference(ch.phi(), ch.n)
        assert (r.cp, r.tp) == (cp, tp)
        assert abs(r.min_eigenvalue) >= inputs.VERDICT_MARGIN / ch.n


def test_inputs_repeat_for_a_seed():
    a = inputs.raw_channel(np.random.default_rng(5), 8, cp=False, tp=True)
    b = inputs.raw_channel(np.random.default_rng(5), 8, cp=False, tp=True)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_fault_channel_is_cp_and_tp():
    ch = inputs.fault_channel()
    r = ref.reference(ch.phi(), ch.n)
    assert r.cp and r.tp
    assert 0.0 < r.min_eigenvalue < 1e-11
    assert checks.expected_verify_exit(r) == 0


# ----------------------------------------------------------------------
# Each check passes a correct output and rejects a corrupted one
# ----------------------------------------------------------------------

@pytest.fixture
def channel():
    ch = inputs.raw_channel(np.random.default_rng(0), 3, cp=True, tp=False)
    return ch, ref.reference(ch.phi(), ch.n)


def test_check_kraus(channel):
    ch, r = channel
    ops = [np.array(k) for k in dc.kraus_from_choi(dc.choi_matrix(ch.coeffs)).operators]
    assert checks.check_kraus(ops, r) == []
    bent = [k.copy() for k in ops]
    bent[0][0, 0] *= 1 + 1e-6
    assert checks.check_kraus(bent, r)
    assert checks.check_kraus(ops[:-1], r)
    assert checks.check_kraus(ops + [np.zeros((3, 3))], r)


def test_check_verify(channel):
    ch, r = channel
    ks = dc.kraus_from_choi(dc.choi_matrix(ch.coeffs))
    doc = {"cp": dc.is_completely_positive(ch.coeffs), "tp": dc.is_trace_preserving(ch.coeffs),
           "min_choi_eigenvalue": dc.min_choi_eigenvalue(ch.coeffs),
           "completeness_residual": ks.completeness_residual()}
    assert checks.check_verify(doc, r) == []
    assert checks.expected_verify_exit(r) == 3
    for key, bad in [("cp", False), ("tp", True), ("completeness_residual", None),
                     ("min_choi_eigenvalue", doc["min_choi_eigenvalue"] + 1e-6),
                     ("completeness_residual", doc["completeness_residual"] + 1e-6)]:
        assert checks.check_verify({**doc, key: bad}, r), key


def test_check_transition():
    ch = inputs.family_channel(np.random.default_rng(1), "transpose_depolarizing", 4, "lo")
    expected = ref.transition(ch.phi(), ch.n)
    p = dc.transition_direct(dc.DiagonalChannel.from_family(ch.family, ch.n, ch.p))
    assert checks.check_transition(p, True, expected) == []
    assert checks.check_transition(p, False, expected)
    assert checks.check_transition(p[::-1], True, expected)
    assert checks.check_transition(p * 1.01, True, expected)


def test_check_basis():
    n = 3
    good = np.array(dc.orthonormal_basis(n).elements)
    assert checks.check_basis(good, n) == []
    swapped = good.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    assert checks.check_basis(swapped, n)
    scaled = good.copy()
    scaled[4] *= 1.001
    assert checks.check_basis(scaled, n)
    skew = good.copy()
    skew[0, 0, 1] += 1e-9
    assert checks.check_basis(skew, n)


def test_check_matrix():
    rng = np.random.default_rng(2)
    ch = inputs.raw_channel(rng, 4, cp=True, tp=True)
    x = inputs.density_matrix(rng, 4)
    image = dc.apply_channel(ch.coeffs, x)
    expected = ch.phi()(x)
    assert checks.check_matrix(image, expected, "apply") == []
    assert checks.check_matrix(image + 1e-8, expected, "apply")
    assert checks.check_matrix(image.T, expected, "apply")


def test_cli_op_rejects_wrong_exit_code_and_bad_output():
    runner = workloads.CliRunner(env={}, workdir=ROOT)
    ok = lambda doc: [] if doc == {"a": 1} else ["wrong document"]  # noqa: E731
    op = runner.op("verify", 3, ["verify"], ok, expected_exit=3)
    proc = SimpleNamespace(returncode=3, stdout='{"a": 1}', stderr="")
    assert op.check((proc, None)) == []
    assert op.check((SimpleNamespace(returncode=0, stdout='{"a": 1}', stderr=""), None))
    assert op.check((SimpleNamespace(returncode=3, stdout='{"a": 2}', stderr=""), None))
    assert op.check((SimpleNamespace(returncode=3, stdout="not json", stderr=""), None))


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

def test_tracer_nests_spans_and_counts_recursion_once():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.n = 3
        dc.choi_matrix(ref.family_coefficients("depolarizing", 3, 0.2))
        dc.cli.render_json({"a": [1.0, [2.0, 3.0]]})
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["channels.choi_matrix.calls"][0] == 1
    assert metrics["channels.apply_channel.calls"][0] == 9
    assert metrics["channels.choi_matrix.bytes"][0] == 16 * 3 ** 4
    assert metrics["cli.render_json.calls"][0] == 1
    total = sum(end - start for name, _, parent, start, end in tracer.spans
                if name == "channels.choi_matrix")
    assert 0 < metrics["channels.choi_matrix.self_ms"][0] < total * 1e3
    assert all(parent >= 0 for name, _, parent, _, _ in tracer.spans
               if name == "channels.apply_channel")
    assert dc.choi_matrix.__module__ == "diagchan.channels"
    assert not hasattr(dc.choi_matrix, "__wrapped__")


def test_exponent_fits_the_slope():
    tracer = Tracer()
    for n in (4, 8, 16):
        tracer.stats[("basis.expand", n)] = [2, 2 * 1e-6 * n ** 3]
    assert tracer.metrics()["basis.expand.exponent"][0] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Timing figures
# ----------------------------------------------------------------------

def test_round_figures_use_each_operations_median_over_the_rounds():
    import run

    # Three rounds of nine operations costing 1 to 9 ms; one slow outlier.
    times = [list(range(1, 10)), list(range(1, 10)), [1, 90, *range(3, 10)]]
    records = [workloads.Record("op", 2, k, slot, ms / 1e3, [])
               for k, row in enumerate(times) for slot, ms in enumerate(row)]
    assert run.slot_medians_ms(records) == pytest.approx(list(range(1, 10)))
    figures = run.round_figures(records)
    assert figures["ops_per_s"]["value"] == pytest.approx(9 / 0.045)
    assert figures["op_p50_ms"]["value"] == pytest.approx(5)
    assert figures["op_p90_ms"]["value"] == pytest.approx(9)


# ----------------------------------------------------------------------
# Without the program's sources the benchmark refuses to run
# ----------------------------------------------------------------------

def test_run_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
