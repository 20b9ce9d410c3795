import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from diagchan import cli
from diagchan.channels import (
    ChannelFamily, DiagonalChannel, choi_matrix, family_parameter_range,
)
from diagchan.cli import main, matrix_document, parse_matrix_document, render_json

from conftest import peak_bytes
from oracles import recursive_render_json


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def doc_to_matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


HYBRID_FLAGS = ["--n", "2", "--family", "hybrid_depolarizing_classical", "--p", "0.2"]


# ----------------------------------------------------------------------
# serialization round trips
# ----------------------------------------------------------------------

def test_matrix_document_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = json.loads(render_json(matrix_document(m)))
    assert doc["shape"] == [3, 3]
    assert_allclose(parse_matrix_document(doc), m)


def test_render_json_is_plain_ascii_with_17_digits():
    text = render_json({"x": 0.6, "flag": True, "nothing": None})
    assert text == '{"x":0.59999999999999998,"flag":true,"nothing":null}'


# Entries that stress %.17g: signed zeros, subnormals, both ends of the
# exponent range, and any other finite double.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _complex_matrices(draw):
    k = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(1, k), (k, 1), (k, k)]))
    m = np.empty(shape, dtype=np.complex128)
    m.real = draw(hnp.arrays(np.float64, shape, elements=_ENTRY))
    m.imag = draw(hnp.arrays(np.float64, shape, elements=_ENTRY))
    return m


@settings(max_examples=200, deadline=None)
@given(m=_complex_matrices(), data=st.data())
def test_matrix_document_renders_as_its_nested_entry_lists(m, data):
    # The array renders to the bytes of the nested [re, im] lists, also
    # when it is not C-contiguous.
    for a in (m, m.T):
        nested = {"shape": list(a.shape), "entries": np.stack([a.real, a.imag], -1).tolist()}
        assert render_json(matrix_document(a)) == recursive_render_json(nested)
    bad = m.copy()
    r, c = data.draw(st.integers(0, m.shape[0] - 1)), data.draw(st.integers(0, m.shape[1] - 1))
    part = data.draw(st.sampled_from(["real", "imag"]))
    getattr(bad, part)[r, c] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match="non-finite number in output document"):
        render_json(matrix_document(bad))
    for other in (m.real, m[0], np.zeros(m.shape, np.complex64)):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            render_json({"entries": other})


def test_rendering_a_matrix_document_peaks_below_four_times_its_text():
    # Rows are written from the array itself: no nested-list copy of its
    # entries, which took about 24 times the text.
    choi = choi_matrix(DiagonalChannel.from_family("depolarizing", 24, 0.3).coefficients)
    text = render_json(matrix_document(choi))
    assert peak_bytes(lambda: render_json(matrix_document(choi))) < 4 * len(text)


def test_parse_matrix_document_rejects_bad_grid():
    with pytest.raises(ValueError, match="entry row 1"):
        parse_matrix_document({"shape": [1, 2], "entries": [[[1, 0]]]})
    with pytest.raises(ValueError, match="row 1, column 1"):
        parse_matrix_document({"shape": [1, 1], "entries": [[[1]]]})


# ----------------------------------------------------------------------
# basis
# ----------------------------------------------------------------------

def test_basis_command(capsys):
    code, out = run(capsys, "basis", "--n", "2")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 4
    assert_allclose(doc_to_matrix(docs[0]), np.eye(2) / np.sqrt(2))


def test_basis_count_n3(capsys):
    code, out = run(capsys, "basis", "--n", "3")
    assert code == 0
    assert len(json.loads(out)) == 9


def test_basis_rejects_n1(capsys):
    code, _ = run(capsys, "basis", "--n", "1")
    assert code == 2


# ----------------------------------------------------------------------
# choi
# ----------------------------------------------------------------------

def test_choi_command(capsys):
    code, out = run(capsys, "choi", *HYBRID_FLAGS)
    assert code == 0
    c = doc_to_matrix(json.loads(out))
    assert_allclose(np.diag(c).real, [0.6, 0.4, 0.4, 0.6])
    assert c[0, 3] == pytest.approx(-0.2)


# ----------------------------------------------------------------------
# kraus
# ----------------------------------------------------------------------

def test_kraus_closed_form_method(capsys):
    code, out = run(capsys, "kraus", *HYBRID_FLAGS, "--method", "theorem4")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["method"] == "theorem4"
    assert len(doc["operators"]) == 4
    assert doc["metadata"]["residuals"]["completeness"] < 1e-10
    assert doc["metadata"]["residuals"]["reconstruction"] < 1e-10
    k1 = doc_to_matrix(doc["operators"][0])
    assert_allclose(k1, [[np.sqrt(0.6), 0], [0, -0.2 / np.sqrt(0.6)]])


def test_kraus_cholesky_fully_depolarizing(capsys):
    code, out = run(capsys, "kraus", "--n", "2", "--family", "depolarizing", "--p", "0",
                    "--method", "cholesky")
    assert code == 0
    doc = json.loads(out)
    ops = [doc_to_matrix(d) for d in doc["operators"]]
    assert len(ops) == 4
    for op in ops:
        nz = np.abs(op) > 0
        assert nz.sum() == 1
        assert op[nz][0] == pytest.approx(1 / np.sqrt(2))


def test_kraus_methods_agree(capsys):
    _, out_a = run(capsys, "kraus", *HYBRID_FLAGS, "--method", "cholesky")
    _, out_b = run(capsys, "kraus", *HYBRID_FLAGS, "--method", "theorem4")
    ops_a = [doc_to_matrix(d) for d in json.loads(out_a)["operators"]]
    ops_b = [doc_to_matrix(d) for d in json.loads(out_b)["operators"]]
    assert len(ops_a) == len(ops_b)
    rounded_a = [np.round(op, 12).tolist() for op in ops_a]
    rounded_b = [np.round(op, 12).tolist() for op in ops_b]
    assert rounded_a == rounded_b


def test_kraus_rejects_closed_form_for_other_family(capsys):
    code, _ = run(capsys, "kraus", "--n", "2", "--family", "depolarizing", "--p", "0.5",
                  "--method", "theorem4")
    assert code == 2


def test_kraus_degenerate_boundary(capsys):
    code, _ = run(capsys, "kraus", "--n", "2", "--family", "hybrid_depolarizing_classical",
                  "--p", "1.0", "--method", "theorem4")
    assert code == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, end", [(2, 1), (3, 0), (6, 0), (7, 0), (18, 0), (19, 0), (23, 0)])
def test_theorem4_one_ulp_inside_an_end_exits_4(capsys, n, end):
    # A closed-form pivot rounds to zero or below: degenerate, not an input
    # error and never a set missing an operator.
    p = float(np.nextafter(
        family_parameter_range(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, n)[end], 0.0))
    code = main(["kraus", "--n", str(n), "--family", "hybrid_depolarizing_classical",
                 f"--p={p!r}", "--method", "theorem4"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: closed-form pivots are not all positive")


def test_kraus_rejects_non_cp_vector(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0, 1.1, 1.1, 1.1]))
    code, _ = run(capsys, "kraus", "--coefficients", str(path))
    assert code == 3


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_transpose_family_at_upper_bound(capsys):
    code, out = run(capsys, "verify", "--n", "3", "--family", "transpose_depolarizing",
                    "--p", "0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is True
    assert doc["tp"] is True
    assert abs(doc["min_choi_eigenvalue"]) <= 1e-8
    assert doc["completeness_residual"] <= 1e-10


def test_verify_identity_from_raw_coefficients(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0] * 9))
    code, out = run(capsys, "verify", "--coefficients", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is True and doc["tp"] is True


def test_verify_flags_out_of_range_vector(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0, 1.1, 1.1, 1.1]))
    code, out = run(capsys, "verify", "--coefficients", str(path))
    assert code == 3
    doc = json.loads(out)
    assert doc["cp"] is False
    assert doc["min_choi_eigenvalue"] < -1e-6
    assert doc["completeness_residual"] is None


def test_verify_flags_non_trace_preserving_vector(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([0.9, 0.1, 0.1, 0.1]))
    code, out = run(capsys, "verify", "--coefficients", str(path))
    assert code == 3
    assert json.loads(out)["tp"] is False


def test_pair_halves_near_the_float_limit_get_their_verdicts(capsys, tmp_path):
    # s = a = 1e308: (s + a)/2 overflows, s/2 + a/2 = 1e308 does not, and
    # the coupled block [[0.5, 1e308], [1e308, 0.5]] is far from semidefinite.
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0, 1e308, 1e308, 0.0]))
    code, out = run(capsys, "verify", "--coefficients", str(path))
    assert code == 3
    doc = json.loads(out)
    assert doc["cp"] is False and doc["tp"] is True
    assert doc["min_choi_eigenvalue"] == pytest.approx(-1e308)
    assert main(["kraus", "--coefficients", str(path)]) == 3
    assert "pivot 5.000000e-01 at index 0" in capsys.readouterr().err
    code, out = run(capsys, "choi", "--coefficients", str(path))
    assert code == 0
    assert doc_to_matrix(json.loads(out))[0, 3] == 1e308


def test_verify_rejects_malformed_spec(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0, 0.5, 0.5]))  # not a square count
    code, _ = run(capsys, "verify", "--coefficients", str(path))
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("[1.0, 0.5, 0.5]", "coefficient vector length 3 is not n^2 for any dimension n >= 2"),
    # json.load reads the NaN token as a float.
    ("[1, 0, 0, NaN]", "coefficients must be finite"),
])
def test_coefficient_file_refuses_a_bad_count_or_a_non_finite_entry(capsys, tmp_path, text,
                                                                     message):
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    assert main(["verify", "--coefficients", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ----------------------------------------------------------------------
# apply
# ----------------------------------------------------------------------

def write_state(tmp_path, matrix):
    path = tmp_path / "state.json"
    path.write_text(render_json(matrix_document(np.asarray(matrix, dtype=complex))))
    return str(path)


def test_apply_fully_depolarizing(capsys, tmp_path):
    state = write_state(tmp_path, [[1, 0], [0, 0]])
    code, out = run(capsys, "apply", "--n", "2", "--family", "depolarizing", "--p", "0",
                    "--input", state)
    assert code == 0
    assert_allclose(doc_to_matrix(json.loads(out)), np.eye(2) / 2)


def test_apply_hybrid_classical(capsys, tmp_path):
    state = write_state(tmp_path, [[1, 0], [0, 0]])
    code, out = run(capsys, "apply", *HYBRID_FLAGS, "--input", state)
    assert code == 0
    assert_allclose(doc_to_matrix(json.loads(out)), np.diag([0.6, 0.4]), atol=1e-14)


def test_apply_rejects_non_density_input(capsys, tmp_path):
    state = write_state(tmp_path, [[2, 0], [0, 0]])  # trace two
    code, _ = run(capsys, "apply", *HYBRID_FLAGS, "--input", state)
    assert code == 2


def test_apply_rejects_dimension_mismatch(capsys, tmp_path):
    state = write_state(tmp_path, np.eye(3) / 3)
    code, _ = run(capsys, "apply", *HYBRID_FLAGS, "--input", state)
    assert code == 2


# ----------------------------------------------------------------------
# transition
# ----------------------------------------------------------------------

def test_transition_uniform(capsys):
    code, out = run(capsys, "transition", "--n", "4", "--family", "depolarizing", "--p", "0")
    assert code == 0
    doc = json.loads(out)
    assert_allclose(doc["matrix"], np.full((4, 4), 0.25))
    assert doc["row_stochastic"] is True


def test_transition_identity_from_raw_coefficients(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0] * 9))
    code, out = run(capsys, "transition", "--coefficients", str(path))
    assert code == 0
    assert_allclose(json.loads(out)["matrix"], np.eye(3), atol=1e-14)


def test_transition_hybrid_classical(capsys):
    code, out = run(capsys, "transition", *HYBRID_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert_allclose(doc["matrix"], [[0.6, 0.4], [0.4, 0.6]])
    assert doc["row_stochastic"] is True


# ----------------------------------------------------------------------
# cross-cutting contract
# ----------------------------------------------------------------------

def test_outputs_are_byte_stable(capsys):
    _, first = run(capsys, "kraus", *HYBRID_FLAGS, "--method", "cholesky")
    _, second = run(capsys, "kraus", *HYBRID_FLAGS, "--method", "cholesky")
    assert first == second


def test_stdout_matches_recursive_rendering(capsys, tmp_path, monkeypatch):
    # Every subcommand, the four families at both interval ends and inside,
    # n = 2..5: stdout is byte for byte what the recursive rendering gives.
    documents = []

    def recording(doc):
        documents.append(doc)  # the whole document first, then its parts
        return render_json(doc)

    def check(*args):
        documents.clear()
        code, out = run(capsys, *args)
        assert code in (0, 3)
        assert out == recursive_render_json(documents[0]) + "\n"

    monkeypatch.setattr(cli, "render_json", recording)
    for n in range(2, 6):
        check("basis", "--n", str(n))
        state = write_state(tmp_path, np.eye(n) / n)
        for family in ChannelFamily:
            lo, hi = family_parameter_range(family, n)
            for p in (lo, (lo + hi) / 2, hi):
                flags = ["--n", str(n), "--family", family.value, f"--p={p!r}"]
                for command in (["choi"], ["kraus"], ["verify"], ["apply", "--input", state],
                                ["transition"]):
                    check(*command, *flags)


def refuse_calls(monkeypatch, *names):
    """Replace the named functions of the CLI by ones that fail if called."""
    def refuse(*args):
        raise AssertionError("an n^4-sized array was built")

    for name in names:
        monkeypatch.setattr(cli, name, refuse)


# verify lost its size limit (test_verify_has_no_size_limit); the other
# cases keep the ids they had while it was command3.
@pytest.mark.parametrize("command", [
    pytest.param(["basis"], id="command0"),
    pytest.param(["choi"], id="command1"),
    pytest.param(["kraus"], id="command2"),
    pytest.param(["kraus", "--method", "theorem4"], id="command4"),
])
def test_dense_size_limit_refuses_before_allocating(capsys, monkeypatch, command):
    refuse_calls(monkeypatch, "orthonormal_basis", "choi_matrix", "hybrid_classical_kraus",
                 "kraus_from_channel")
    assert 16 * 64 ** 4 <= cli.DENSE_BYTES_LIMIT < 16 * 65 ** 4
    flags = [] if command == ["basis"] else [
        "--family", "hybrid_depolarizing_classical", "--p", "1e-4"]
    code = main([*command, "--n", "65", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--n 65" in captured.err and str(cli.DENSE_BYTES_LIMIT) in captured.err


def test_verify_has_no_size_limit(capsys, monkeypatch):
    # The Kraus set holds the O(n^2) nonzero entries of the block factor, so
    # verify at n = 128 peaks at a fixed multiple of 16 n^2 bytes, against
    # 4.3 GB for one n^4-sized complex array.
    refuse_calls(monkeypatch, "choi_matrix")
    n = 128
    runs = []
    flags = ["--n", str(n), "--family", "depolarizing", "--p", "0.5"]
    assert peak_bytes(lambda: runs.append(run(capsys, "verify", *flags))) < 64 * 16 * n ** 2
    code, out = runs[0]
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is True and doc["tp"] is True
    assert doc["completeness_residual"] <= 1e-10


def test_verify_refuses_a_large_non_cp_vector(capsys, monkeypatch, tmp_path):
    # n = 128, t = (1, 0, ..., 0): every Choi diagonal entry is 1/128, and
    # weight 1 on the coupled slots of the first pair breaks the coupled block.
    n = 128
    coeffs = np.zeros(n * n)
    coeffs[0] = coeffs[1] = coeffs[1 + n * (n - 1) // 2] = 1.0
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs.tolist()))
    refuse_calls(monkeypatch, "choi_matrix", "kraus_from_channel")
    code, out = run(capsys, "verify", "--coefficients", str(path))
    assert code == 3
    doc = json.loads(out)
    assert doc["cp"] is False and doc["tp"] is True
    assert doc["min_choi_eigenvalue"] < -0.9
    assert doc["completeness_residual"] is None


# Stdout of choi, kraus and verify for the four families at p = 0 and
# n = 2, 3, recorded before these commands moved to the block routes. Their
# coefficient blocks hold -0.0 (p times a negative sign), which must print
# as 0, never as -0.
P0_STDOUT = json.loads((Path(__file__).parent / "data" / "p0_stdout.json").read_text())


def test_p0_stdout_is_byte_identical_to_the_pinned_output(capsys):
    assert len(P0_STDOUT) == 4 * 2 * 3
    for command, expected in P0_STDOUT.items():
        code, out = run(capsys, *command.split())
        assert code == 0, command
        assert out == expected, command


# Exit code and stdout sha256 of every subcommand at n = 2..6, --tol at its
# default and 0: the four families at both ends and the midpoint, theorem4
# on the hybrid family and 20 raw vectors (CP, not CP, rank-deficient with
# -0.0 entries, not TP). Recorded by data/make_cli_digests.py, whose inputs
# the file carries.
CLI_DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())


def test_cli_exit_codes_and_stdout_digests_match_the_pinned_contract(capsys, tmp_path,
                                                                     monkeypatch):
    for name, vector in CLI_DIGESTS["vectors"].items():
        (tmp_path / name).write_text(json.dumps(vector))
    for n, doc in CLI_DIGESTS["states"].items():
        (tmp_path / f"state{n}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert len(CLI_DIGESTS["runs"]) == 840
    for command, (code, digest) in CLI_DIGESTS["runs"].items():
        actual, out = run(capsys, *command.split())
        assert (actual, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest), command


def test_output_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "basis.json"
    code, out = run(capsys, "basis", "--n", "2", "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert len(json.loads(out_path.read_text())) == 4


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_exits_2_and_writes_nothing(capsys, tmp_path, target):
    path = tmp_path / "no" / "such" / "out.json" if target == "missing" else tmp_path
    code = main(["verify", "--n", "3", "--family", "depolarizing", "--p", "0.2",
                 "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 37.3 GiB")])
def test_memory_error_exits_2_with_a_message(capsys, monkeypatch, error):
    def exhaust(ns):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "verify", exhaust)
    code = main(["verify", "--n", "100000", "--family", "depolarizing", "--p", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    detail = f": {error}" if str(error) else ""
    assert captured.err == f"error: memory ran out for this input{detail}\n"


@pytest.mark.parametrize("data", [
    [[1, 0], [0, 0]],
    [True, False, False, False],
    [1.0, 0.5, True, 0.5],
    [10 ** 400, 0, 0, 0],
    {"coefficients": [[1, 0], [0, 0]]},
    {"coefficients": [True, False, False, False]},
])
def test_coefficient_file_refuses_all_but_a_flat_array_of_reals(capsys, tmp_path, data):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--coefficients", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: coefficient file must hold a JSON array of reals\n"


@pytest.mark.parametrize("doc, message", [
    ({"shape": [True, True], "entries": [[[1, 0]]]},
     'matrix document "shape" must be two positive integers'),
    ({"shape": [2, 2], "entries": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]},
     "entry at row 1, column 1 must be an [re, im] pair"),
    ({"shape": [2, 2], "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 10 ** 400]]]},
     "entry at row 2, column 2 must be an [re, im] pair"),
])
def test_apply_input_refuses_booleans_and_huge_integers(capsys, tmp_path, doc, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code = main(["apply", *HYBRID_FLAGS, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("declared", ["2", True, [2], {"n": 2}])
def test_coefficient_file_refuses_a_declared_n_that_is_not_a_number(capsys, tmp_path, declared):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": declared, "coefficients": [1, 0, 0, 0]}))
    code = main(["verify", "--coefficients", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f'error: declared "n" must be a number, got {json.dumps(declared)}\n'


@pytest.mark.parametrize("declared, code", [(2, 0), (2.0, 0), (3, 2)])
def test_coefficient_file_checks_a_declared_numeric_n_against_its_count(capsys, tmp_path,
                                                                        declared, code):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": declared, "coefficients": [1, 0, 0, 0]}))
    assert main(["verify", "--coefficients", str(path)]) == code
    mismatch = "error: declared dimension 3 does not match 4 coefficients\n"
    assert capsys.readouterr().err == ("" if code == 0 else mismatch)


def test_conflicting_channel_flags_rejected(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([1.0] * 4))
    code, _ = run(capsys, "verify", "--family", "depolarizing", "--p", "0.5",
                  "--coefficients", str(path), "--n", "2")
    assert code == 2


def test_kraus_output_reapplies_like_apply_command(capsys, tmp_path):
    state = write_state(tmp_path, [[0.5, 0.25], [0.25, 0.5]])
    _, kraus_out = run(capsys, "kraus", *HYBRID_FLAGS, "--method", "cholesky")
    _, apply_out = run(capsys, "apply", *HYBRID_FLAGS, "--input", state)
    ops = [doc_to_matrix(d) for d in json.loads(kraus_out)["operators"]]
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    via_kraus = sum(op.conj().T @ rho @ op for op in ops)
    via_apply = doc_to_matrix(json.loads(apply_out))
    assert np.max(np.abs(via_kraus - via_apply)) <= 1e-10


# ----------------------------------------------------------------------
# verify reports every well-formed channel
# ----------------------------------------------------------------------

def test_verify_reports_channel_the_factorization_rejects(capsys, tmp_path):
    # Depolarizing at the lower end of its interval, moved 1.28e-11 outward:
    # the smallest Choi eigenvalue, -4.8e-11, passes the absolute test at the
    # default --tol, but the semidefinite Cholesky rejects a pivot against its
    # relative tolerance, so no Kraus set exists and the channel is not CP.
    n = 4
    coeffs = np.full(n * n, -1.0 / (n * n - 1) - 1.28e-11)
    coeffs[0] = 1.0
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs.tolist()))
    code = main(["verify", "--coefficients", str(path)])
    captured = capsys.readouterr()
    out = captured.out
    assert code == 3
    doc = json.loads(out)
    assert doc["cp"] is False
    assert doc["tp"] is True
    assert -1e-10 <= doc["min_choi_eigenvalue"] < 0.0
    assert doc["completeness_residual"] is None
    # stderr names the refused pivot with the line of ``kraus``.
    assert captured.err.startswith("error: channel is not completely positive: pivot ")
    assert main(["kraus", "--coefficients", str(path)]) == 3
    assert capsys.readouterr().err == captured.err


# ----------------------------------------------------------------------
# flag parsing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spelling", [["--p", "-5e-05"], ["--p=-5e-05"], ["--p", "-0.05"]])
def test_negative_p_spellings(capsys, spelling):
    code, out = run(capsys, "choi", "--n", "2", "--family", "depolarizing", *spelling)
    assert code == 0
    p = float(spelling[-1].removeprefix("--p="))
    assert doc_to_matrix(json.loads(out))[0, 3] == pytest.approx(p, abs=1e-15)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    code = main(["verify", "--n", "3", "--family", "depolarizing", "--p", "0.1", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--tol" in captured.err


# ----------------------------------------------------------------------
# refusals with exit 2
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   np.array([[0.0, complex(0.0, -np.inf)]])])
def test_render_json_refuses_a_non_finite_number(value):
    with pytest.raises(ValueError) as error:
        render_json({"x": [value]})
    assert str(error.value) == "non-finite number in output document"


@pytest.mark.parametrize("text, message", [
    ("[1]", 'matrix document must be an object with "shape" and "entries"'),
    ('{"shape": [2, 2]}', 'matrix document must be an object with "shape" and "entries"'),
    ('{"shape": [2, 2], "entries": [[[0.5, 0], [0, 0]]]}',
     "matrix document must carry 2 entry rows"),
    # json.load reads 1e999 as an infinite float.
    ('{"shape": [2, 2], "entries": [[[0.5, 0], [0, 0]], [[0, 0], [1e999, 0]]]}',
     "entry at row 2, column 2 is not finite"),
])
def test_apply_input_refuses_a_malformed_document(capsys, tmp_path, text, message):
    path = tmp_path / "state.json"
    path.write_text(text)
    code = main(["apply", *HYBRID_FLAGS, "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["choi", "--family", "depolarizing", "--p", "0.5"], "--n is required with --family"),
    (["choi", "--n", "2", "--family", "depolarizing"], "--p is required with --family"),
    (["choi", "--n", "2"], "a channel spec needs --family with --p, or --coefficients"),
    (["apply", *HYBRID_FLAGS], "--input with a density-matrix JSON file is required"),
])
def test_incomplete_channel_flags_exit_2(capsys, args, message):
    code = main(args)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_coefficient_object_without_coefficients_exits_2(capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": 2}))
    code = main(["verify", "--coefficients", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == 'error: coefficient file object must carry a "coefficients" array\n'


@pytest.mark.parametrize("flags", [["verify", "--coefficients"],
                                   ["apply", *HYBRID_FLAGS, "--input"]])
def test_json_nested_too_deeply_exits_2_naming_the_file(capsys, tmp_path, flags):
    # Deeper than the parser's recursion limit: a RecursionError in json.load.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main([*flags, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


def test_a_flag_after_p_is_not_taken_for_its_value(capsys):
    # "--tol" starts with "-" but is no number, so it stays a flag and --p
    # has no value: an argparse usage error.
    with pytest.raises(SystemExit) as exit_:
        main(["choi", "--n", "2", "--family", "depolarizing", "--p", "--tol", "0"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --p: expected one argument\n")
