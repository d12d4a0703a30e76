"""Correlation matrices: closed-form path, level summaries, numeric path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_coding.codes import CodeVectorSpec, alamouti_n, gram, make_c
from biphoton_coding.correlation import (
    BinnedDecode,
    CodingAssignment,
    G2Matrix,
    acceptance_gate,
    codeword_digits,
    coding_bin_mask,
    contrasts,
    contrasts_from_levels,
    convolution,
    convolution_grid,
    g2_ideal_multi,
    g2_matrix_ideal,
    g2_matrix_ideal_multi,
    g2_matrix_numeric,
    g2_numeric,
    g2_prefactor,
    level_summary,
    matched_decode,
    pair_correlation_kernel,
    sum_frequency_amplitude,
)
from biphoton_coding.errors import (
    BinOverlap,
    ChannelShapeMismatch,
    DegenerateMatrix,
    UnderResolvedGrid,
)
from biphoton_coding.layout import factor_decode, staircase
from biphoton_coding.schmidt import decompose, reconstruct
from biphoton_coding.spectra import (
    FrequencyGrid,
    MultiplexedSpectrum,
    PairShift,
    PhysicalParams,
    marginal_idler_mode,
    marginal_signal_mode,
)

P = PhysicalParams()  # tau = 0.5, gamma3n = 5

CODE4 = alamouti_n(make_c(CodeVectorSpec("linear-h", 4, h=2.0)), 4)
S4 = 86.0 / 9.0  # power of the h = 2 amplitude ladder at n = 4


def test_prefactor_formula():
    assert g2_prefactor(2.0, 3.0, 0.5) == pytest.approx(
        2.0 * math.sqrt(math.pi) / (4.0 * 9.0 * 0.5))


def test_matched_decode_is_conjugation():
    c = np.array([1.0 + 2.0j, -0.5j])
    np.testing.assert_array_equal(matched_decode(c), c.conj())


def test_ideal_single_matched_uniform():
    # one channel is the (1, n) case of the multi-channel form
    ones = np.ones((1, 4))
    assert g2_ideal_multi(ones, ones, prefactor=2.0) == pytest.approx(8.0)
    assert g2_ideal_multi(ones, ones) == pytest.approx(4.0)
    with pytest.raises(ChannelShapeMismatch):
        g2_ideal_multi(np.ones((1, 3)), ones)


def test_ideal_matrix_oracle_values():
    m = g2_matrix_ideal(CODE4)
    assert m.dimension == 4
    np.testing.assert_allclose(np.diag(m.values), S4 ** 2 / 4.0, rtol=1e-12)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert m.values[i, j] == 0.0 and m.values[j, i] == 0.0
    # quasi-orthogonal leakage |2(c1 c4 - c2 c3)|^2 / 4 = (4/9)^2 / 4
    assert m.values[0, 3] == pytest.approx((4.0 / 9.0) ** 2 / 4.0, rel=1e-12)


def test_ideal_matrix_hadamard_is_diagonal():
    m = g2_matrix_ideal(alamouti_n(np.ones(4), 4))
    rep = contrasts(m)
    assert rep.v == pytest.approx(1.0, abs=1e-12)
    assert rep.c_od == pytest.approx(1.0, abs=1e-12)
    off = m.values[~np.eye(4, dtype=bool)]
    assert float(np.max(np.abs(off))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), h=st.floats(0.2, 5.0))
def test_ideal_matrix_h_inversion_reverses_indices(n, h):
    """make_c at 1/h is reverse(make_c at h) / h, so the ideal matrix at 1/h
    is the index-reversed matrix at h divided by h**4."""
    def matrix(h):
        return g2_matrix_ideal(
            alamouti_n(make_c(CodeVectorSpec("linear-h", n, h=h)), n))

    inverted = matrix(1.0 / h)
    reversed_ = matrix(h).values[::-1, ::-1] / h ** 4
    # the structural zeros come out as ~1e-30 rounding noise, so they are
    # compared against the matrix scale rather than entry by entry
    np.testing.assert_allclose(inverted.values, reversed_, rtol=1e-12,
                               atol=1e-12 * np.abs(reversed_).max())
    a, b = contrasts(inverted), contrasts(matrix(h))
    assert a.v == pytest.approx(b.v, rel=1e-12)
    assert a.c_od == pytest.approx(b.c_od, rel=1e-12)


def test_contrast_report_relations():
    rep = contrasts(g2_matrix_ideal(CODE4))
    assert rep.c_od == pytest.approx(
        (rep.g2_max - rep.g2_od) / (rep.g2_max + rep.g2_od), rel=1e-12)
    assert rep.v == pytest.approx(
        (rep.g2_max - rep.g2_min) / (rep.g2_max + rep.g2_min), rel=1e-12)
    assert rep.c_od == pytest.approx(0.9956826767404209, rel=1e-12)
    assert rep.c_non is None
    d = rep.as_dict()
    assert {"v", "c_od", "g2_max", "g2_min", "g2_od"} <= set(d)


def test_contrast_scale_invariance():
    c = make_c(CodeVectorSpec("linear-h", 4, h=2.0))
    a = contrasts(g2_matrix_ideal(alamouti_n(c, 4)))
    b = contrasts(g2_matrix_ideal(alamouti_n((2.0 - 1.0j) * c, 4)))
    assert b.c_od == pytest.approx(a.c_od, rel=1e-12)
    assert b.v == pytest.approx(a.v, rel=1e-12)


def test_contrasts_argument_checks():
    with pytest.raises(DegenerateMatrix):
        contrasts(G2Matrix(values=np.ones((4, 4)), kind="ideal"))
    # M is inferred from D = M**R; 16 is no integer cube
    with pytest.raises(ValueError):
        contrasts(g2_matrix_ideal_multi(CODE4, 2), r_channels=3)


def test_codeword_digits_mixed_radix():
    assert codeword_digits(7, 2, 4) == (1, 3)
    assert codeword_digits(0, 3, 2) == (0, 0, 0)
    # channel 1 is the most significant digit
    assert codeword_digits(8, 2, 4)[0] == 2
    for idx in range(16):
        d = codeword_digits(idx, 2, 4)
        assert d[0] * 4 + d[1] == idx


def test_multi_matrix_reduces_to_single_channel():
    # the single-channel form already carries the uniform 1/N weight
    np.testing.assert_allclose(g2_matrix_ideal_multi(CODE4, 1).values,
                               g2_matrix_ideal(CODE4).values, rtol=1e-13)


def test_ideal_multi_shape_check():
    with pytest.raises(ChannelShapeMismatch):
        g2_ideal_multi(np.ones((2, 4)), np.ones((4, 2)))


def test_normalization_toggle_scales_by_channels():
    g_glob = g2_ideal_multi(np.ones((2, 4)), np.ones((2, 4)))
    g_chan = g2_ideal_multi(np.ones((2, 4)), np.ones((2, 4)),
                            normalization="per_channel")
    assert g_chan == pytest.approx(2.0 * g_glob, rel=1e-12)
    with pytest.raises(ValueError):
        g2_ideal_multi(np.ones((2, 4)), np.ones((2, 4)), normalization="bogus")


def test_level_summary_matches_full_matrix():
    r, m = 2, 4
    matrix = g2_matrix_ideal_multi(CODE4, r)
    levels = level_summary(CODE4, r)
    assert sum(lc.multiplicity for lc in levels) == (m ** r) ** 2
    seen = {}
    for i in range(m ** r):
        di = codeword_digits(i, r, m)
        for j in range(m ** r):
            dj = codeword_digits(j, r, m)
            matched = sum(a == b for a, b in zip(di, dj))
            key = (matched, round(float(matrix.values[i, j]), 9))
            seen[key] = seen.get(key, 0) + 1
    want = {(lc.matched_channels, round(float(lc.value), 9)): lc.multiplicity
            for lc in levels}
    assert seen == want


@pytest.mark.parametrize("h", [2.0, 0.5, 3.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_level_contrasts_match_matrix_contrasts(r, h):
    code = alamouti_n(make_c(CodeVectorSpec("linear-h", 4, h=h)), 4)
    rep_m = contrasts(g2_matrix_ideal_multi(code, r), r_channels=r)
    rep_l = contrasts_from_levels(level_summary(code, r), r)
    # the two paths accumulate products in different orders, so agreement
    # is near machine precision rather than exact
    for field in ("v", "c_od", "g2_max", "g2_min", "g2_od"):
        assert getattr(rep_l, field) == pytest.approx(
            getattr(rep_m, field), rel=1e-9)
    if r == 1:
        assert rep_l.c_non is None and rep_m.c_non is None
    else:
        assert rep_l.c_non == pytest.approx(rep_m.c_non, rel=1e-9)
        # Alamouti zeros leave (R-1) matched levels at (R-1)/R of the top
        assert rep_l.c_non == pytest.approx(1.0 / (2 * r - 1), abs=1e-9)


def test_convolution_identities():
    gs = FrequencyGrid(-4.0, 4.0, 33)
    gi = FrequencyGrid(-2.0, 2.0, 17)
    out = convolution_grid(gs, gi)
    assert out.points == 33 + 17 - 1
    assert out.min == -6.0 and out.max == 6.0
    psi = np.exp(-gs.omegas ** 2) * (1.0 + 0.5j)
    phi = 1.0 / (1.0 + 1j * gi.omegas)
    f = psi[:, None] * phi[None, :]
    np.testing.assert_allclose(sum_frequency_amplitude(f, gs, gi),
                               convolution(psi, phi, gs.spacing),
                               rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        sum_frequency_amplitude(f.T, gs, gi)
    with pytest.raises(UnderResolvedGrid):
        convolution_grid(gs, FrequencyGrid(-2.0, 2.0, 18))


def test_fft_length_matches_scipy():
    # the numeric engine pads to the length scipy would pick, without
    # importing scipy itself
    from scipy.fft import next_fast_len

    from biphoton_coding.correlation import _next_fast_len
    ns = range(1, 5001)
    assert [_next_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


# exact bin-aligned grids; the anti-diagonal sum then has 4096 points
KGS = FrequencyGrid(-407.0, 406.75, 3256)
KGI = FrequencyGrid(-105.0, 105.0, 841)


def test_pair_kernel_matches_closed_form():
    for dq in (0.0, -30.0):
        pair = PairShift(delta_q=dq)
        grid_out, kernel = pair_correlation_kernel(pair, P, KGS, KGI)
        assert grid_out.points == 4096
        _, n_s = marginal_signal_mode(pair, P, KGS)
        _, n_i = marginal_idler_mode(pair, P, KGI)
        want = np.exp(-((grid_out.omegas + dq) * P.tau) ** 2 / 8.0) / (n_s * n_i)
        sup = float(np.max(np.abs(kernel - want))) * n_s * n_i
        assert sup < 1e-12


def test_uncoded_g2_matches_prefactor():
    grid_out, kernel = pair_correlation_kernel(PairShift(), P, KGS, KGI)
    _, n_s = marginal_signal_mode(PairShift(), P, KGS)
    _, n_i = marginal_idler_mode(PairShift(), P, KGI)
    g2 = float(np.sum(grid_out.weights * np.abs(kernel) ** 2))
    assert g2 == pytest.approx(g2_prefactor(n_s, n_i, P.tau), rel=1e-9)


def test_bin_mask_tiling_and_edges():
    grid = FrequencyGrid(-2.0, 2.0, 17)  # spacing 0.25
    mask = coding_bin_mask([-0.5, 0.5], [2.0, 4.0], 1.0, grid)
    at = {float(w): v for w, v in zip(grid.omegas, mask)}
    assert at[-0.5] == 2.0 and at[0.5] == 4.0
    assert at[0.0] == 3.0          # shared edge averages the neighbors
    assert at[-1.0] == 1.0 and at[1.0] == 2.0  # outer edges take half
    assert at[-1.5] == 0.0 and at[1.5] == 0.0  # hard zero out of band
    with pytest.raises(BinOverlap):
        coding_bin_mask([0.0, 0.9], [1.0, 1.0], 1.0, grid)


def test_acceptance_gate_shape():
    grid = FrequencyGrid(-20.0, 20.0, 201)
    spec = MultiplexedSpectrum(params=P, pairs=(PairShift(delta_q=-10.0),
                                                PairShift(delta_q=5.0)))
    gate = acceptance_gate(grid, spec)
    assert gate[np.argmin(np.abs(grid.omegas - 10.0))] == pytest.approx(1.0)
    assert gate[np.argmin(np.abs(grid.omegas + 5.0))] == pytest.approx(1.0)
    np.testing.assert_array_equal(acceptance_gate(grid, spec, math.inf),
                                  np.ones(201))
    with pytest.raises(ValueError):
        acceptance_gate(grid, spec, 0.0)


def comb_grids(n, delta):
    # spacing 0.25 divides delta/2 for the deltas used here
    half_s = 0.5 * n * delta + 20.0
    half_i = 0.5 * (n - 1) * delta + 102.5
    return (FrequencyGrid(-half_s, half_s, int(round(2 * half_s / 0.25)) + 1),
            FrequencyGrid(-half_i, half_i, int(round(2 * half_i / 0.25)) + 1))


def test_numeric_all_ones_calibration():
    spec = MultiplexedSpectrum.comb(2, 60.0, P)
    gs, gi = comb_grids(2, 60.0)
    value = g2_numeric(spec, CodingAssignment(), 60.0, gs, gi)
    _, n_s = marginal_signal_mode(spec.pairs[0], P, gs)
    _, n_i = marginal_idler_mode(spec.pairs[0], P, gi)
    assert value == pytest.approx(2.0 * g2_prefactor(n_s, n_i, P.tau), rel=1e-12)


def test_numeric_argument_checks():
    spec = MultiplexedSpectrum.comb(2, 60.0, P)
    gs, gi = comb_grids(2, 60.0)
    with pytest.raises(ValueError):
        g2_numeric(spec, CodingAssignment(), -1.0, gs, gi)
    with pytest.raises(ChannelShapeMismatch):
        g2_numeric(spec, CodingAssignment(encode=np.ones(3)), 60.0, gs, gi)
    with pytest.raises(ChannelShapeMismatch):
        g2_numeric(spec, CodingAssignment(decode=np.ones(5)), 60.0, gs, gi)
    code = alamouti_n(np.ones(2), 2)
    with pytest.raises(ValueError):
        g2_matrix_numeric(spec, code, 0.0, gs, gi)
    with pytest.raises(ChannelShapeMismatch):
        g2_matrix_numeric(spec, CODE4, 60.0, gs, gi)
    with pytest.raises(BinOverlap):
        g2_matrix_numeric(spec, code, 70.0, gs, gi)
    with pytest.raises(UnderResolvedGrid):   # unequal signal/idler spacing
        g2_matrix_numeric(spec, code, 60.0, gs,
                          FrequencyGrid(gi.min, gi.max, gi.points + 1))
    coarse = FrequencyGrid(gs.min, gs.max, 41)
    with pytest.raises(UnderResolvedGrid):   # marginals need (1/tau)/8
        g2_matrix_numeric(spec, code, 60.0, coarse,
                          FrequencyGrid(gi.min, gi.min + 40 * coarse.spacing,
                                        41))


def test_numeric_matrix_tracks_ideal_two_pairs():
    code = alamouti_n(np.ones(2), 2)
    spec = MultiplexedSpectrum.comb(2, 60.0, P)
    gs, gi = comb_grids(2, 60.0)
    num = g2_matrix_numeric(spec, code, 60.0, gs, gi)
    _, n_s = marginal_signal_mode(spec.pairs[0], P, gs)
    _, n_i = marginal_idler_mode(spec.pairs[0], P, gi)
    ideal = g2_matrix_ideal(code, g2_prefactor(n_s, n_i, P.tau))
    peak = ideal.values.max()
    for i in range(2):
        for j in range(2):
            if i == j:
                assert num.values[i, j] == pytest.approx(ideal.values[i, j],
                                                         rel=0.01)
            else:
                assert abs(num.values[i, j] - ideal.values[i, j]) < 0.01 * peak
    assert num.kind == "numeric"


def multi_channel_cells():
    """Staircase (2, 2) design with the n = 2 amplitude ladder: spectrum,
    grids, closed-form matrix, and the matched, half-matched and fully
    mismatched (encode index, decode index, assignment) cells."""
    layout = staircase(2, 2, bin_width=100.0)
    code = alamouti_n(make_c(CodeVectorSpec("linear-h", 2, h=2.0)), 2)
    pairs = tuple(layout.pair_shift(r, m)
                  for r in range(1, 3) for m in range(1, 3))
    spec = MultiplexedSpectrum(params=P, pairs=pairs)
    gs = FrequencyGrid(-50.0, 350.0, 1601)
    gi = FrequencyGrid(-350.0, 150.0, 2001)

    _, n_s = marginal_signal_mode(spec.pairs[0], P, gs)
    _, n_i = marginal_idler_mode(spec.pairs[0], P, gi)
    ideal = g2_matrix_ideal_multi(code, 2, g2_prefactor(n_s, n_i, P.tau))

    cells = []
    for enc_idx, dec_idx in ((0, 0), (2, 0), (3, 0)):
        enc_digits = codeword_digits(enc_idx, 2, 2)
        dec_digits = codeword_digits(dec_idx, 2, 2)
        enc = np.concatenate([code.column(d) for d in enc_digits])
        dec_rm = np.array([matched_decode(code.column(d)) for d in dec_digits])
        sw, iw = factor_decode(layout, dec_rm)
        bd = BinnedDecode(signal_weights=sw, idler_weights=iw,
                          bin_spacing=100.0)
        cells.append((enc_idx, dec_idx,
                      CodingAssignment(encode=enc, channel_map=bd)))
    return spec, gs, gi, ideal, cells


def test_numeric_multi_channel_cells():
    """The factorized bin decoder reproduces matched, half-matched, and
    fully mismatched closed-form levels."""
    spec, gs, gi, ideal, cells = multi_channel_cells()
    for enc_idx, dec_idx, assign in cells:
        got = g2_numeric(spec, assign, 100.0, gs, gi)
        want = ideal.values[enc_idx, dec_idx]
        assert abs(got - want) < 0.02 * ideal.values.max()
        if want > 0.1 * ideal.values.max():
            assert got == pytest.approx(want, rel=0.02)


# ---------------------------------------------------------------------------
# batched engine against the per-cell reference
# ---------------------------------------------------------------------------

def reference_numerator(spec, encode, mask_s, mask_i, gs, gi, gate):
    """Gated integral of |F|^2 for one cell by direct convolution, with
    the marginals rebuilt for the cell."""
    lam_root = math.sqrt(1.0 / spec.n_pairs)
    f_sum = 0.0
    for pair, w_enc in zip(spec.pairs, encode):
        psi, _ = marginal_signal_mode(pair, spec.params, gs)
        phi, _ = marginal_idler_mode(pair, spec.params, gi)
        kappa = convolution(mask_s * psi, mask_i * phi, gs.spacing)
        f_sum = f_sum + lam_root * pair.weight * w_enc * kappa
    return float(gs.spacing * np.sum(gate * np.abs(f_sum) ** 2))


def reference_g2(spec, assign, bin_width, gs, gi, acceptance_scale=3.0):
    """Per-cell numeric g2: masks, gate and the all-ones reference cell are
    rebuilt for every call, and every pair is convolved directly.  Kept as
    the independent oracle for the batched FFT engine."""
    n = spec.n_pairs
    ones = np.ones(n, complex)
    encode = ones if assign.encode is None else assign.encode
    gate = acceptance_gate(convolution_grid(gs, gi), spec, acceptance_scale)
    if assign.channel_map is not None:
        cm = assign.channel_map

        def binned(weights, grid, ref):
            ks = sorted(weights)
            return coding_bin_mask([k * cm.bin_spacing for k in ks],
                                   [1.0 if ref else weights[k] for k in ks],
                                   cm.bin_spacing, grid)

        num = reference_numerator(spec, encode,
                                  binned(cm.signal_weights, gs, False),
                                  binned(cm.idler_weights, gi, False),
                                  gs, gi, gate)
        ref = reference_numerator(spec, ones,
                                  binned(cm.signal_weights, gs, True),
                                  binned(cm.idler_weights, gi, True),
                                  gs, gi, gate)
    else:
        decode = ones if assign.decode is None else assign.decode
        sig = [p.signal_center for p in spec.pairs]
        idl = [p.delta_p for p in spec.pairs]
        num = reference_numerator(
            spec, ones, coding_bin_mask(sig, encode, bin_width, gs),
            coding_bin_mask(idl, decode, bin_width, gi), gs, gi, gate)
        ref = reference_numerator(
            spec, ones, coding_bin_mask(sig, ones, bin_width, gs),
            coding_bin_mask(idl, ones, bin_width, gi), gs, gi, gate)
    _, n_s = marginal_signal_mode(spec.pairs[0], spec.params, gs)
    _, n_i = marginal_idler_mode(spec.pairs[0], spec.params, gi)
    ridges = len({p.delta_q for p in spec.pairs})
    return g2_prefactor(n_s, n_i, spec.params.tau) * n / ridges * num / ref


ENGINE_RTOL = 1e-11


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", ["ladder", "alamouti"])
@pytest.mark.parametrize("delta", [60.0, 100.0])
def test_batched_engine_matches_per_cell_reference(n, kind, delta):
    c = make_c(CodeVectorSpec("linear-h", n, h=2.0)) if kind == "ladder" \
        else np.ones(n)
    code = alamouti_n(c, n)
    spec = MultiplexedSpectrum.comb(n, delta, P)
    gs, gi = comb_grids(n, delta)
    matrix = g2_matrix_numeric(spec, code, delta, gs, gi).values
    for i in range(n):
        for j in range(n):
            assign = CodingAssignment(encode=code.column(i),
                                      decode=matched_decode(code.column(j)))
            want = reference_g2(spec, assign, delta, gs, gi)
            assert matrix[i, j] == pytest.approx(want, rel=ENGINE_RTOL)
            got = g2_numeric(spec, assign, delta, gs, gi)
            assert got == pytest.approx(want, rel=ENGINE_RTOL)


def test_batched_engine_matches_reference_with_pair_weights_and_ridges():
    # complex pair weights on two ridges, arbitrary encode/decode vectors
    pairs = (PairShift(weight=0.7 - 0.2j, delta_p=-60.0),
             PairShift(weight=-0.4j, delta_p=0.0, delta_q=-120.0),
             PairShift(weight=1.1, delta_p=60.0))
    spec = MultiplexedSpectrum(params=P, pairs=pairs)
    gs = FrequencyGrid(-110.0, 170.0, 1121)
    gi = FrequencyGrid(-165.0, 165.0, 1321)
    assign = CodingAssignment(encode=np.array([1.0, -0.5 + 0.5j, 0.3j]),
                              decode=np.array([0.2, 1.0j, -1.0]))
    for scale in (3.0, math.inf):
        want = reference_g2(spec, assign, 60.0, gs, gi, scale)
        got = g2_numeric(spec, assign, 60.0, gs, gi, scale)
        assert got == pytest.approx(want, rel=ENGINE_RTOL)


def test_batched_engine_matches_reference_on_channel_map_cells():
    spec, gs, gi, _, cells = multi_channel_cells()
    for _, _, assign in cells:
        want = reference_g2(spec, assign, 100.0, gs, gi)
        got = g2_numeric(spec, assign, 100.0, gs, gi)
        assert got == pytest.approx(want, rel=ENGINE_RTOL)


_finite = st.floats(-10.0, 10.0, allow_nan=False)
_complex = st.builds(complex, _finite, _finite)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bin_mask_is_linear_in_weights(data):
    """coding_bin_mask(a u + b v) = a mask(u) + b mask(v): the batched
    engine transforms each mask once and relies on this to combine them."""
    n = data.draw(st.integers(1, 5))
    width = data.draw(st.sampled_from([0.5, 0.75, 1.0, 1.3]))
    gap = data.draw(st.floats(0.0, 1.0))
    start = data.draw(st.floats(-3.0, 0.0))
    centers = start + np.arange(n) * width * (1.0 + gap)
    u = np.array(data.draw(st.lists(_complex, min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(_complex, min_size=n, max_size=n)))
    a, b = data.draw(_complex), data.draw(_complex)
    grid = FrequencyGrid(-4.0, 6.0, 81)   # spacing 0.125
    lhs = coding_bin_mask(centers, a * u + b * v, width, grid)
    rhs = (a * coding_bin_mask(centers, u, width, grid)
           + b * coding_bin_mask(centers, v, width, grid))
    scale = 1.0 + abs(a) * np.abs(u).max() + abs(b) * np.abs(v).max()
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * scale)


@pytest.mark.filterwarnings("ignore::biphoton_coding.errors.DegenerateSpectrum")
def test_marginal_path_equals_schmidt_reconstruction_path():
    """Masking commutes with the rank expansion: summing masked per-pair
    convolutions equals masking the reconstructed two-axis amplitude and
    integrating anti-diagonals."""
    gs = FrequencyGrid(-60.0, 60.0, 481)
    gi = FrequencyGrid(-122.5, 122.5, 981)
    spec = MultiplexedSpectrum.comb(2, 40.0, P)
    weights = np.array([0.8, -0.6j])

    modes = [(marginal_signal_mode(p, P, gs)[0],
              marginal_idler_mode(p, P, gi)[0]) for p in spec.pairs]
    mask_s = coding_bin_mask([p.signal_center for p in spec.pairs],
                             np.ones(2), 40.0, gs)
    mask_i = coding_bin_mask([p.delta_p for p in spec.pairs],
                             np.ones(2), 40.0, gi)

    f1 = sum(w * convolution(mask_s * psi, mask_i * phi, gs.spacing)
             for w, (psi, phi) in zip(weights, modes))

    f = sum(w * psi[:, None] * phi[None, :]
            for w, (psi, phi) in zip(weights, modes))
    d = decompose(f, gs, gi, n_modes=4)
    rec = d.norm * reconstruct(d)
    f2 = sum_frequency_amplitude(mask_s[:, None] * rec * mask_i[None, :],
                                 gs, gi)
    assert float(np.max(np.abs(f1 - f2))) < 1e-6 * float(np.max(np.abs(f1)))
