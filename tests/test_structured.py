"""The structured channel routes against their dense oracles.

Raw coefficient vectors with n = 2..8 come in four kinds, CP or not and TP
or not, by construction:

* CP: the Choi matrix is ``lead/n * I`` plus the Choi matrix of the other
  coefficients, whose norm is at most n times their largest magnitude;
  scaling them to ``lead/(n(n+1))`` keeps every eigenvalue above
  ``lead/(n(n+1))``.
* not CP: the first pair couples either its two coupled slots (s = a = 1)
  or its two pair slots (s = 1, a = -1) with weight 1, while the diagonal
  block is scaled to 0.1, so both slots carry at most 0.85 and the 2 x 2
  minor is negative.
* not TP: the leading coefficient is 0.5, 0.9, 1.1 or 1.5 instead of 1.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from diagchan.channels import (
    ChannelFamily,
    DiagonalChannel,
    _choi_blocks,
    _choi_slots,
    apply_channel,
    choi_matrix,
    family_parameter_range,
    is_trace_preserving,
    min_choi_eigenvalue,
)
from diagchan.kraus import (
    KrausSet,
    _factor_blocks,
    _kraus_set,
    _read_choi,
    hybrid_classical_kraus,
    hybrid_classical_pivots,
    kraus_from_channel,
    kraus_from_choi,
    reconstruction_residual,
)
from diagchan.linalg import (
    DEFAULT_TOL,
    HERMITIAN_ATOL,
    NotPositiveSemidefiniteError,
    as_hermitian,
    max_norm,
)
from diagchan.transitions import (
    diagonal_block_coefficients,
    transition_closed_form,
    transition_direct,
)

from oracles import (
    dense_apply,
    dense_choi,
    dense_is_trace_preserving,
    dense_kraus_from_choi,
    dense_min_choi_eigenvalue,
    einsum_kraus_apply,
    loop_psd_cholesky,
    loop_transition_direct,
    operator_stack,
    unit_loop_residual,
)

ATOL = 1e-12


@st.composite
def raw_channels(draw):
    """(n, coefficient vector, cp, tp) for a raw vector of the drawn kind."""
    n = draw(st.integers(2, 8))
    cp, tp = draw(st.booleans()), draw(st.booleans())
    lead = 1.0 if tp else draw(st.sampled_from([0.5, 0.9, 1.1, 1.5]))
    rest = draw(hnp.arrays(np.float64, n * n - 1, elements=st.floats(-1.0, 1.0)))
    num_pairs = n * (n - 1) // 2
    if cp:
        rest *= lead / (n * (n + 1))
    else:
        rest[0] = 1.0
        rest[num_pairs] = draw(st.sampled_from([1.0, -1.0]))
        rest[2 * num_pairs:] *= 0.1
    return n, np.concatenate([[lead], rest]), cp, tp


def random_matrix(rng, n, hermitian):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (m + m.conj().T) / 2 if hermitian else m


@settings(max_examples=60, deadline=None)
@given(raw_channels(), st.booleans(), st.integers(0, 2**32 - 1))
def test_structured_routes_match_dense_oracles(channel, hermitian, seed):
    n, coeffs, cp, tp = channel
    rng = np.random.default_rng(seed)

    dense = dense_choi(coeffs)
    lowest = np.linalg.eigvalsh(dense)[0]
    assert (lowest > 0.0) if cp else (lowest < -0.1)

    x = random_matrix(rng, n, hermitian)
    assert max_norm(apply_channel(coeffs, x) - dense_apply(coeffs, x)) <= ATOL
    assert max_norm(choi_matrix(coeffs) - dense) <= ATOL
    assert is_trace_preserving(coeffs) is tp
    assert dense_is_trace_preserving(coeffs, DEFAULT_TOL) is tp

    count = int(rng.integers(1, n * n + 1))
    ops = [random_matrix(rng, n, False) / n for _ in range(count)]
    kraus_sets = [KrausSet(n, tuple(ops), tuple(range(count)))]
    if cp:
        kraus_sets.append(kraus_from_choi(choi_matrix(coeffs)))
    for ks in kraus_sets:
        assert max_norm(ks.apply(x) - einsum_kraus_apply(ks, x)) <= ATOL
        assert abs(reconstruction_residual(ks, coeffs) - unit_loop_residual(ks, coeffs)) <= ATOL
    if cp:
        assert reconstruction_residual(kraus_sets[1], coeffs) <= 1e-10

    transitions = transition_direct(coeffs)
    assert max_norm(transitions - loop_transition_direct(coeffs)) <= 1e-15
    if tp:
        closed = transition_closed_form(diagonal_block_coefficients(coeffs), n)
        assert max_norm(transitions - closed) <= ATOL


def gram_channel(eps):
    """n = 4 channel whose coupled block is G/4, with G the Gram matrix of
    four unit vectors of which the third lies ``eps`` from the span of the
    first two; t = (1, 0, 0, 0) and no pair coupling. Its third pivot is
    near eps^2 while that row's remainder is near eps."""
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([np.cos(0.7), np.sin(0.7), 0.0, 0.0])
    v3 = 0.6 * v1 + 0.5 * v2 + np.array([0.0, 0.0, eps, 0.0])
    v4 = np.array([0.0, 0.3, 0.8, 0.5])
    vs = np.stack([v / np.linalg.norm(v) for v in (v1, v2, v3, v4)])
    s = (vs @ vs.T)[np.triu_indices(4, 1)] / 4.0
    return np.concatenate([[1.0], s, s, np.zeros(3)])


def family_endpoint(family, n, end):
    return DiagonalChannel.from_family(family, n, family_parameter_range(family, n)[end]).coefficients


PINNED = (
    [family_endpoint(family, n, end) for family in ChannelFamily for n in (2, 3, 5) for end in (0, 1)]
    + [gram_channel(eps) for eps in (4e-6, 1.19e-7, 5.96e-8, 1.44158746e-09)]
    # n = 2 pair blocks [[x, b], [b, x]]: |b| beyond x = 0.5 by 2.5 tol max|C|,
    # so the first pivot needs 5 tol max|C| more; and x = 0 with b = 0.25.
    + [np.array([1.0, 0.5 + 1.25e-10, -0.5 - 1.25e-10, 0.0]), np.array([1.0, 0.25, -0.25, 1.0])]
)


def pinned(test):
    for coeffs in PINNED:
        test = example(coeffs)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(raw_channels().map(lambda channel: channel[1]))
@pinned
def test_structured_cp_check_and_kraus_factor_match_dense(coeffs):
    choi = choi_matrix(coeffs)
    lowest = min_choi_eigenvalue(coeffs)
    assert abs(lowest - dense_min_choi_eigenvalue(coeffs)) <= 1e-12 * max(1.0, max_norm(choi))

    try:
        dense = dense_kraus_from_choi(choi, DEFAULT_TOL)
    except NotPositiveSemidefiniteError as exc:
        with pytest.raises(NotPositiveSemidefiniteError) as structured:
            kraus_from_choi(choi, DEFAULT_TOL)
        assert str(structured.value) == str(exc)
        assert lowest < 0.0
        return
    ks = kraus_from_choi(choi, DEFAULT_TOL)
    assert ks.source_rows == dense.source_rows
    assert max_norm(operator_stack(ks) - operator_stack(dense)) <= 1e-15
    assert reconstruction_residual(ks, coeffs) <= 1e-10 * max(1.0, max_norm(choi))


@pytest.mark.parametrize("coupled, paired, row", [((1, 2), (0, 1), 1), ((0, 1), (1, 2), 0)])
def test_first_failing_row_wins_across_blocks(coupled, paired, row):
    # n = 3, t = 0: every Choi diagonal entry is 1/3. Weight 1 on the coupled
    # slots of one pair and on the pair slots of another breaks both blocks.
    # The coupled slots are rows 0, 4 and 8; pair (0, 1) sits on rows 1 and
    # 3, pair (1, 2) on rows 5 and 7.
    pairs = [(0, 1), (0, 2), (1, 2)]
    s, a = np.zeros(3), np.zeros(3)
    s[pairs.index(coupled)] = a[pairs.index(coupled)] = 1.0
    s[pairs.index(paired)], a[pairs.index(paired)] = 1.0, -1.0
    choi = choi_matrix(np.concatenate([[1.0], s, a, [0.0, 0.0]]))
    with pytest.raises(NotPositiveSemidefiniteError, match=f"at index {row} ") as structured:
        kraus_from_choi(choi)
    with pytest.raises(NotPositiveSemidefiniteError) as dense:
        dense_kraus_from_choi(choi, DEFAULT_TOL)
    assert str(structured.value) == str(dense.value)


def test_kraus_from_choi_refuses_off_pattern_matrices():
    choi = choi_matrix(DiagonalChannel.from_family("depolarizing", 3, 0.5))
    # Slot 0 holds E_11 and slot 1 holds E_12: no diagonal channel couples them.
    for size, accepted in ((1e-6, False), (1e-13, True)):
        off = choi.copy()
        off[0, 1] = off[1, 0] = size
        if accepted:
            assert len(kraus_from_choi(off)) == len(kraus_from_choi(choi))
        else:
            with pytest.raises(ValueError, match="not the Choi matrix of a diagonal channel"):
                kraus_from_choi(off)


@settings(max_examples=80, deadline=None)
@given(raw_channels().map(lambda channel: channel[1]))
@pinned
def test_channel_factor_equals_choi_reader_bit_for_bit(coeffs):
    choi = choi_matrix(coeffs)
    assert np.array_equal(choi, choi.conj().T)
    for tol in (DEFAULT_TOL, 0.0):
        try:
            via_choi = kraus_from_choi(choi, tol)
        except NotPositiveSemidefiniteError as exc:
            with pytest.raises(NotPositiveSemidefiniteError) as via_channel:
                kraus_from_channel(coeffs, tol)
            assert str(via_channel.value) == str(exc)
            continue
        ks = kraus_from_channel(coeffs, tol)
        assert ks.source_rows == via_choi.source_rows
        assert operator_stack(ks).tobytes() == operator_stack(via_choi).tobytes()


def factor_matrix(factor):
    """The n^2 x n^2 factor R scattered from its block record: the entries
    of C's pattern but the last group, the mirrors of b, each of which lies
    below R's diagonal."""
    position, value = factor.entries()
    upper = position.size - factor.b.size
    rows, columns = np.divmod(position[upper:], factor.n ** 2)
    assert np.all(rows > columns)
    r = np.zeros(factor.n ** 4, dtype=np.complex128)
    r[position[:upper]] = value[:upper]
    return r.reshape(factor.n ** 2, -1)


@settings(max_examples=80, deadline=None)
@given(raw_channels().map(lambda channel: channel[1]))
@pinned
# An odd subnormal coupling, 0x0.0222222222222p-1022 / 2 on D and on b.
@example(np.concatenate([[0.5, float.fromhex("0x0.0222222222222p-1022")], np.zeros(23)]))
def test_factor_lies_on_the_choi_layout(coeffs):
    blocks = _choi_blocks(coeffs)
    choi = choi_matrix(coeffs)
    # The oracle factors (C + C^*)/2, summed from halves, and halving moves
    # an odd subnormal entry: only where it moves none are the factors
    # equal bit for bit.
    exact = as_hermitian(choi).tobytes() == choi.tobytes()
    for tol in (DEFAULT_TOL, 0.0):
        try:
            dense = loop_psd_cholesky(choi, tol)
        except NotPositiveSemidefiniteError:
            continue
        r = factor_matrix(_factor_blocks(blocks, tol * blocks.scale()))
        if exact:
            assert r.tobytes() == dense.tobytes()
        else:
            assert max_norm(r - dense) <= 1e-15 * max(1.0, max_norm(choi))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_closed_form_factor_lies_on_the_choi_layout(n, fraction):
    lo, hi = family_parameter_range(ChannelFamily.HYBRID_DEPOLARIZING_CLASSICAL, n)
    p = lo + fraction * (hi - lo)
    with mock.patch("diagchan.kraus._kraus_set", wraps=_kraus_set) as kraus_set:
        hybrid_classical_kraus(n, p)
    factor = kraus_set.call_args.args[0]
    # Real blocks, so that the set's entries are real too.
    assert factor.d.dtype == factor.b.dtype == np.float64
    # Row m of the coupled block's factor: sqrt(pivots[m]) on the diagonal,
    # offdiags[m] over it right of it; each pair's rows sqrt((1-p)/n) alone.
    data = hybrid_classical_pivots(n, p)
    slots = _choi_slots(n)
    want = np.zeros((n * n, n * n), dtype=np.complex128)
    for m, row in enumerate(slots.coupled):
        root = np.sqrt(data.pivots[m])
        want[row, row] = root
        if m < n - 1:
            want[row, slots.coupled[m + 1:]] = data.offdiags[m] / root
    want[slots.upper, slots.upper] = want[slots.lower, slots.lower] = np.sqrt(data.uncoupled)
    assert factor_matrix(factor).tobytes() == want.tobytes()


def test_choi_reader_factors_pair_blocks_whose_squares_underflow():
    # n = 3, t = 0, s = 1/3, a = -1/3: every pair block is [[1, 1], [1, 1]]/3,
    # of rank one. Scaled by 2^-520 its entries are near 1e-157 and their
    # squares subnormal; the power of two scales the factor exactly.
    n = 3
    coeffs = np.concatenate([[1.0], np.full(3, 1 / n), np.full(3, -1 / n), np.zeros(2)])
    choi = choi_matrix(coeffs)
    ks, scaled = kraus_from_choi(choi), kraus_from_choi(choi * 2.0 ** -520)
    assert scaled.source_rows == ks.source_rows
    assert np.array_equal(operator_stack(scaled) * 2.0 ** 260, operator_stack(ks))


def test_both_routes_factor_pair_blocks_whose_squares_overflow():
    # The same channel scaled by 2^520: its entries are near 1e156 and their
    # squares overflow, which a divide-first pivot bound never forms.
    n = 3
    coeffs = np.concatenate([[1.0], np.full(3, 1 / n), np.full(3, -1 / n), np.zeros(2)])
    ks = kraus_from_channel(coeffs)
    for scaled in (kraus_from_choi(choi_matrix(coeffs) * 2.0 ** 520),
                   kraus_from_channel(coeffs * 2.0 ** 520)):
        assert scaled.source_rows == ks.source_rows
        assert np.array_equal(operator_stack(scaled) * 2.0 ** -260, operator_stack(ks))
    assert kraus_from_channel(coeffs * 2.0 ** 520).completeness_residual() > 0.0


@settings(max_examples=80, deadline=None)
@given(raw_channels().map(lambda channel: channel[1]),
       st.sampled_from([1.0, 2.0 ** 520, 2.0 ** -520, 2.0 ** -1040]))
@example(np.array([1.0, 1e308, 1e308, 0.0]), 1.0)
def test_choi_reader_inverts_the_writer_bit_for_bit(coeffs, scale):
    # 2^-1040 makes the coefficients subnormal; [1, 1e308, 1e308, 0] puts
    # 1e308 in the coupled block, past half the float range.
    coeffs = coeffs * scale
    written = _choi_blocks(coeffs)
    choi = choi_matrix(coeffs)
    for tol in (DEFAULT_TOL, 0.0):
        read = _read_choi(choi, tol)[0]
        assert read.n == written.n
        for got, want in zip(read[1:], written[1:]):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def test_choi_reader_keeps_a_choi_matrix_near_the_float_limit():
    # Scaled by 1.5e308 the coupled block's diagonal sums past the float
    # range; its halves do not, and the factor is the unscaled one scaled.
    choi = choi_matrix(DiagonalChannel.from_family("depolarizing", 2, 0.3))
    ks, scaled = kraus_from_choi(choi), kraus_from_choi(1.5e308 * choi)
    assert len(scaled) == len(ks) == 4
    assert scaled.source_rows == ks.source_rows
    assert_allclose(operator_stack(scaled), np.sqrt(1.5e308) * operator_stack(ks), rtol=1e-14)
    # An entry and its mirror of opposite sign near the limit: their
    # difference overflows, that of their halves does not.
    skewed = 1.5e308 * choi
    skewed[0, 3] = 1.7e308
    skewed[3, 0] = -1.7e308
    with pytest.raises(ValueError, match=r"not Hermitian: max \|M - M\^\*\| = inf"):
        kraus_from_choi(skewed)


def test_both_routes_refuse_pair_halves_near_the_float_limit():
    # s = a = 1e308: the coupled block [[0.5, 1e308], [1e308, 0.5]] is far
    # from semidefinite, and the first row of the whole matrix fails.
    coeffs = np.array([1.0, 1e308, 1e308, 0.0])
    message = ("pivot 5.000000e-01 at index 0 is too small for its row remainder"
               " (max 1.000000e+308; needs inf)")
    for route in (lambda: kraus_from_channel(coeffs), lambda: kraus_from_choi(choi_matrix(coeffs))):
        with pytest.raises(NotPositiveSemidefiniteError) as error:
            route()
        assert str(error.value) == message


def test_choi_reader_errors_keep_their_order_and_text():
    choi = choi_matrix(DiagonalChannel.from_family("depolarizing", 2, 0.5))
    # n = 2: slots 0 and 3 hold the coupled block, slots 1 and 2 the pair;
    # (0, 1) lies off the pattern and (1, 2) on it.
    nan_off, inf_on, skewed, stray = choi.copy(), choi.copy(), choi.copy(), choi.copy()
    nan_off[0, 1] = np.nan
    inf_on[1, 2] = np.inf
    skewed[0, 3] += 1e-6
    stray[0, 1] = stray[1, 0] = 1e-6
    skewed_and_stray = skewed.copy()
    skewed_and_stray[0, 1] = 1e-3
    cases = [
        (np.zeros((2, 2, 2)), "expected a 2-D matrix, got an array of rank 3"),
        (np.full((3, 4), np.nan), "matrix entries must be finite"),
        (nan_off, "matrix entries must be finite"),
        (inf_on, "matrix entries must be finite"),
        (np.zeros((3, 4)), "Choi matrix must be square, got shape (3, 4)"),
        (np.eye(3), "Choi matrix size 3 is not n^2 for any dimension n >= 2"),
        (np.eye(1), "Choi matrix size 1 is not n^2 for any dimension n >= 2"),
        (skewed, "matrix is not Hermitian: max |M - M^*| = 1.000e-06 > 1.0e-12"),
        (skewed_and_stray, "matrix is not Hermitian: max |M - M^*| = 1.000e-03 > 1.0e-12"),
        (stray, "not the Choi matrix of a diagonal channel: an entry of magnitude 1.000e-06"
                " lies off its pattern, beyond tolerance 7.5e-11"),
    ]
    for matrix, message in cases:
        with pytest.raises(ValueError) as error:
            kraus_from_choi(matrix)
        assert str(error.value) == message


def test_choi_reader_leaves_its_input_alone():
    # Within the tolerances: a skew on the coupled block and a stray pair off
    # the pattern, both of which the reader removes from its own copies.
    choi = choi_matrix(DiagonalChannel.from_family("transpose_depolarizing", 3, 0.2))
    choi[0, 4] += 3e-13j
    choi[0, 1] = choi[1, 0] = 1e-13
    before = choi.tobytes()
    rows = kraus_from_choi(choi).source_rows
    assert choi.tobytes() == before
    choi.setflags(write=False)
    assert kraus_from_choi(choi).source_rows == rows


def test_factoring_leaves_the_block_record_alone():
    blocks = _choi_blocks(DiagonalChannel.from_family("depolarizing", 4, 0.3))
    before = [part.tobytes() for part in blocks[1:]]
    _factor_blocks(blocks, DEFAULT_TOL * blocks.scale())
    assert [part.tobytes() for part in blocks[1:]] == before


@pytest.mark.parametrize("family", list(ChannelFamily))
def test_choi_reader_does_not_depend_on_memory_layout(family):
    choi = choi_matrix(DiagonalChannel.from_family(family, 3, 0.2))
    ks = kraus_from_choi(choi)
    padded = np.zeros((18, 18), dtype=complex)
    padded[::2, ::2] = choi
    for layout in (choi.T, choi.conj().T, np.asfortranarray(choi), padded[::2, ::2]):
        same = kraus_from_choi(layout)
        assert same.source_rows == ks.source_rows
        assert operator_stack(same).tobytes() == operator_stack(ks).tobytes()
    stray = choi.copy()
    stray[0, 1] = stray[1, 0] = 1e-6
    with pytest.raises(ValueError) as row_major:
        kraus_from_choi(stray)
    with pytest.raises(ValueError) as column_major:
        kraus_from_choi(np.asfortranarray(stray))
    assert str(column_major.value) == str(row_major.value)


def test_choi_reader_runs_the_full_hermiticity_pass_only_when_it_can_fail():
    choi = choi_matrix(DiagonalChannel.from_family("depolarizing", 3, 0.5))
    pivot_tol = DEFAULT_TOL * max_norm(choi)
    rows = kraus_from_choi(choi).source_rows
    # Slots 0 and 1 hold E_11 and E_12, off the pattern; slots 0 and 4 are
    # coupled.
    hermitian = choi.copy()
    hermitian[0, 1] = hermitian[1, 0] = 1e-12
    assert HERMITIAN_ATOL / 2 < 1e-12 < pivot_tol
    assert kraus_from_choi(hermitian).source_rows == rows
    skewed = hermitian.copy()
    skewed[1, 0] += 2e-12
    with pytest.raises(ValueError, match=r"not Hermitian: max \|M - M\^\*\| = 2\.000e-12"):
        kraus_from_choi(skewed)
    # Off-pattern entries within HERMITIAN_ATOL / 2 cannot break Hermiticity
    # however they pair up; the pattern's own drift is checked in O(n^2).
    small = choi.copy()
    small[0, 1] = 4e-13
    assert kraus_from_choi(small).source_rows == rows
    on_pattern = choi.copy()
    on_pattern[0, 4] += 2e-12
    with pytest.raises(ValueError, match=r"not Hermitian: max \|M - M\^\*\| = 2\.000e-12"):
        kraus_from_choi(on_pattern)


def test_choi_reader_at_zero_tolerance_refuses_a_zero_root_under_a_nonzero_remainder():
    # n = 2 with the pair block [[0, 1e-170], [1e-170, 1]] on slots 1 and 2:
    # the remainder's square underflows, so row 1 would divide by a zero root.
    choi = np.diag([0.5, 0.0, 1.0, 0.5]).astype(complex)
    choi[1, 2] = choi[2, 1] = 1e-170
    with pytest.raises(NotPositiveSemidefiniteError, match="at index 1 is too small") as structured:
        kraus_from_choi(choi, 0.0)
    with pytest.raises(NotPositiveSemidefiniteError) as dense:
        dense_kraus_from_choi(choi, 0.0)
    assert str(structured.value) == str(dense.value)


# ----------------------------------------------------------------------
# the pivot rule at its edges
# ----------------------------------------------------------------------

#: With max |C| = 1 the pivot tolerance is this relative tolerance, exactly.
EDGE_TOL = 2.0 ** -30
BELOW, ABOVE = np.nextafter(EDGE_TOL, 0.0), np.nextafter(EDGE_TOL, 1.0)
#: +-EDGE_TOL and the floats one ulp beside each.
EDGES = [sign * v for sign in (1.0, -1.0) for v in (BELOW, EDGE_TOL, ABOVE)]
#: Pivots x whose shortfall 2 EDGE_TOL - x against a least pivot of
#: 2 EDGE_TOL lies one ulp (2^-82) above EDGE_TOL, at it and one ulp below.
NEAR_LEAST = (EDGE_TOL - 2.0 ** -82, EDGE_TOL, ABOVE)


def block_choi(d, pairs=()):
    """The n^2 x n^2 matrix with the coupled block d on the slots i*n+i and,
    on the slots (i*n+j, j*n+i) of each pair i < j, the block
    ``[[x, b], [b*, y]]`` of ``dict(pairs)[(i, j)] = (x, y, b)``, or I."""
    n = len(d)
    c = np.zeros((n * n, n * n), dtype=complex)
    c[::n + 1, ::n + 1] = d
    for i, j in combinations(range(n), 2):
        x, y, b = dict(pairs).get((i, j), (1.0, 1.0, 0.0))
        upper, lower = i * n + j, j * n + i
        c[upper, upper], c[lower, lower], c[upper, lower], c[lower, upper] = x, y, b, np.conj(b)
    return c


def coupled_block(n, pivot, remainder=0.0, second=1.0):
    """I_n with ``pivot`` at (0, 0), ``remainder`` at (0, 1) and (1, 0) and
    ``second`` at (1, 1)."""
    d = np.eye(n)
    d[0, 0], d[0, 1], d[1, 0], d[1, 1] = pivot, remainder, remainder, second
    return d


def edge_cases():
    """Choi-patterned matrices at n = 2 and 3, by kind, whose every entry is
    a float with max |C| = 1. Each places one value of the pivot rule at,
    or one ulp beside, +-EDGE_TOL: a D pivot on each row; D's first
    remainder over a zero pivot; a D pivot whose least pivot is 2 EDGE_TOL
    (remainder 2^-15 over 0.5); and in each pair block its x, its |b| (real,
    negative or imaginary) over x = 0, its x against the least pivot 2
    EDGE_TOL, and its second pivot, as y or as y - |b / R_kk|^2 = y - 1/4."""
    cases = {}
    for n in (2, 3):
        for k in range(n):
            for v in EDGES:
                d = np.eye(n)
                d[k, k] = v
                cases.setdefault("D pivot", []).append(block_choi(d))
        cases.setdefault("D remainder", []).extend(
            block_choi(coupled_block(n, 0.0, v)) for v in (BELOW, EDGE_TOL, ABOVE))
        cases.setdefault("D least pivot", []).extend(
            block_choi(coupled_block(n, x, 2.0 ** -15, 0.5)) for x in NEAR_LEAST)
        for pair in combinations(range(n), 2):
            blocks = {
                "pair x": [(v, 1.0, 0.0) for v in EDGES],
                "pair |b|": [(0.0, 1.0, phase * v) for v in (BELOW, EDGE_TOL, ABOVE)
                             for phase in (1.0, -1.0, 1j)],
                "pair least pivot": [(x, 0.5, 2.0 ** -15) for x in NEAR_LEAST],
                "pair second pivot": [(1.0, v, 0.0) for v in EDGES]
                + [(1.0, 0.25 + v, 0.5) for v in (EDGE_TOL, -EDGE_TOL)],
            }
            for kind, values in blocks.items():
                cases.setdefault(kind, []).extend(
                    block_choi(np.eye(n), {pair: block}) for block in values)
    return cases


EDGE_CASES = edge_cases()


@pytest.mark.parametrize("kind", sorted(EDGE_CASES))
def test_kraus_routes_match_the_row_loop_at_the_pivot_rule_edges(kind):
    outcomes = set()
    for choi in EDGE_CASES[kind]:
        assert max_norm(choi) == 1.0
        try:
            dense = dense_kraus_from_choi(choi, EDGE_TOL)
        except NotPositiveSemidefiniteError as exc:
            with pytest.raises(NotPositiveSemidefiniteError) as structured:
                kraus_from_choi(choi, EDGE_TOL)
            assert str(structured.value) == str(exc)
            outcomes.add(str(exc))
            continue
        ks = kraus_from_choi(choi, EDGE_TOL)
        assert ks.source_rows == dense.source_rows
        assert operator_stack(ks).tobytes() == operator_stack(dense).tobytes()
        outcomes.add(ks.source_rows)
    # Each kind's values fall on both sides of an edge.
    assert len(outcomes) > 1
