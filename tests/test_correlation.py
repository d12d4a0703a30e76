"""Correlation matrices: closed-form path, level summaries, numeric path."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_coding import _levels, correlation, spectra
from biphoton_coding.codes import alamouti_n, gram, make_c
from biphoton_coding.correlation import (
    acceptance_gate,
    coding_bin_mask,
    contrasts,
    contrasts_from_levels,
    convolution,
    convolution_grid,
    g2_matrix_ideal,
    g2_matrix_ideal_multi,
    g2_numeric,
    g2_prefactor,
    level_summary,
    matched_decode,
    pair_correlation_kernel,
)
from biphoton_coding.errors import (
    DegenerateMatrix,
    GridTooLarge,
    UnderResolvedGrid,
)
from biphoton_coding.layout import factor_decode, staircase
from biphoton_coding.spectra import (
    FrequencyGrid,
    MultiplexedSpectrum,
    PairShift,
    PhysicalParams,
    marginal_idler_mode,
    marginal_signal_mode,
)

P = PhysicalParams()  # tau = 0.5, gamma3n = 5

CODE4 = alamouti_n(make_c("linear-h", 4, h=2.0))
S4 = 86.0 / 9.0  # power of the h = 2 amplitude ladder at n = 4


def test_prefactor_formula():
    assert g2_prefactor(2.0, 3.0, 0.5) == pytest.approx(
        2.0 * math.sqrt(math.pi) / (4.0 * 9.0 * 0.5))


def test_matched_decode_is_conjugation():
    c = np.array([1.0 + 2.0j, -0.5j])
    np.testing.assert_array_equal(matched_decode(c), c.conj())


def test_ideal_matrix_oracle_values():
    m = g2_matrix_ideal(CODE4)
    assert m.shape == (4, 4)
    np.testing.assert_allclose(np.diag(m), S4 ** 2 / 4.0, rtol=1e-12)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert m[i, j] == 0.0 and m[j, i] == 0.0
    # quasi-orthogonal leakage |2(c1 c4 - c2 c3)|^2 / 4 = (4/9)^2 / 4
    assert m[0, 3] == pytest.approx((4.0 / 9.0) ** 2 / 4.0, rel=1e-12)


def test_ideal_matrix_hadamard_is_diagonal():
    m = g2_matrix_ideal(alamouti_n(np.ones(4)))
    rep = contrasts(m)
    assert rep["v"] == pytest.approx(1.0, abs=1e-12)
    assert rep["c_od"] == pytest.approx(1.0, abs=1e-12)
    off = m[~np.eye(4, dtype=bool)]
    assert float(np.max(np.abs(off))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), h=st.floats(0.2, 5.0))
def test_ideal_matrix_h_inversion_reverses_indices(n, h):
    """make_c at 1/h is reverse(make_c at h) / h, so the ideal matrix at 1/h
    is the index-reversed matrix at h divided by h**4."""
    def matrix(h):
        return g2_matrix_ideal(
            alamouti_n(make_c("linear-h", n, h=h)))

    inverted = matrix(1.0 / h)
    reversed_ = matrix(h)[::-1, ::-1] / h ** 4
    # the structural zeros come out as ~1e-30 rounding noise, so they are
    # compared against the matrix scale rather than entry by entry
    np.testing.assert_allclose(inverted, reversed_, rtol=1e-12,
                               atol=1e-12 * np.abs(reversed_).max())
    a, b = contrasts(inverted), contrasts(matrix(h))
    assert a["v"] == pytest.approx(b["v"], rel=1e-12)
    assert a["c_od"] == pytest.approx(b["c_od"], rel=1e-12)


def test_contrast_report_relations():
    rep = contrasts(g2_matrix_ideal(CODE4))
    assert rep["c_od"] == pytest.approx(
        (rep["g2_max"] - rep["g2_od"]) / (rep["g2_max"] + rep["g2_od"]),
        rel=1e-12)
    assert rep["v"] == pytest.approx(
        (rep["g2_max"] - rep["g2_min"]) / (rep["g2_max"] + rep["g2_min"]),
        rel=1e-12)
    assert rep["c_od"] == pytest.approx(0.9956826767404209, rel=1e-12)
    # c_non only exists for R > 1
    assert set(rep) == {"v", "c_od", "g2_max", "g2_min", "g2_od"}


def test_contrast_scale_invariance():
    c = make_c("linear-h", 4, h=2.0)
    a = contrasts(g2_matrix_ideal(alamouti_n(c)))
    b = contrasts(g2_matrix_ideal(alamouti_n((2.0 - 1.0j) * c)))
    assert b["c_od"] == pytest.approx(a["c_od"], rel=1e-12)
    assert b["v"] == pytest.approx(a["v"], rel=1e-12)


def test_contrasts_argument_checks():
    with pytest.raises(DegenerateMatrix):
        contrasts(np.ones((4, 4)))
    # M is inferred from D = M**R; 16 is no integer cube
    with pytest.raises(ValueError):
        contrasts(g2_matrix_ideal_multi(CODE4, 2), r_channels=3)
    # only a square matrix has a diagonal to match against
    for values in (np.ones((2, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            contrasts(values)


def test_multi_matrix_reduces_to_single_channel():
    # the single-channel form already carries the uniform 1/N weight
    np.testing.assert_allclose(g2_matrix_ideal_multi(CODE4, 1),
                               g2_matrix_ideal(CODE4), rtol=1e-13)


def test_normalization_toggle_scales_by_channels():
    g_glob = g2_matrix_ideal_multi(CODE4, 2)
    g_chan = g2_matrix_ideal_multi(CODE4, 2, normalization="per_channel")
    np.testing.assert_allclose(g_chan, 2.0 * g_glob, rtol=1e-12)
    with pytest.raises(ValueError):
        g2_matrix_ideal_multi(CODE4, 2, normalization="bogus")


@pytest.mark.parametrize("normalization", ["global", "per_channel"])
@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("table", [g2_matrix_ideal_multi, level_summary])
def test_code_space_needs_a_channel(table, r, normalization):
    # the CLI's staircase refuses r < 1 first; called directly, R = 0 used
    # to divide by zero and per_channel returned a table or a numpy error
    with pytest.raises(ValueError, match="at least one channel"):
        table(CODE4, r, normalization=normalization)


def test_level_summary_matches_full_matrix():
    r, m = 2, 4
    matrix = g2_matrix_ideal_multi(CODE4, r)
    levels = level_summary(CODE4, r)
    assert sum(count for _, _, count in levels) == (m ** r) ** 2
    seen = {}
    for i in range(m ** r):
        di = np.unravel_index(i, (m,) * r)
        for j in range(m ** r):
            dj = np.unravel_index(j, (m,) * r)
            matched = sum(a == b for a, b in zip(di, dj))
            key = (matched, round(float(matrix[i, j]), 9))
            seen[key] = seen.get(key, 0) + 1
    want = {(k, round(float(value), 9)): count
            for k, value, count in levels}
    assert seen == want


_PHASE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _code_vectors(draw):
    """make_c's kind and keywords: linear-h with h in [0.2, 5], or
    geometric with |a| >= 0.1 and 0.3 <= |r| <= 1.5 at any phases."""
    if draw(st.booleans()):
        return "linear-h", {"h": draw(st.floats(0.2, 5.0))}
    a = draw(st.floats(0.1, 10.0)) * np.exp(1j * draw(_PHASE))
    r = draw(st.floats(0.3, 1.5)) * np.exp(1j * draw(_PHASE))
    return "geometric", {"a": a, "r": r}


@settings(max_examples=60, deadline=None)
@given(vector=_code_vectors(),
       n_r=st.sampled_from([(n, r) for n in (2, 4, 8) for r in range(1, 7)
                            if n ** r <= 64]),
       normalization=st.sampled_from(["global", "per_channel"]),
       prefactor=st.floats(0.1, 10.0))
def test_level_table_matches_matrix_class_by_class(vector, n_r,
                                                   normalization, prefactor):
    """Each matched class k of the level table holds exactly the class's
    cells of the full matrix, with its extrema and its total; the values
    agree to the table's 12-digit rounding."""
    (kind, kw), (n, r) = vector, n_r
    code = alamouti_n(make_c(kind, n, **kw))
    matrix = g2_matrix_ideal_multi(code, r, prefactor, normalization)
    levels = level_summary(code, r, prefactor, normalization)
    digits = np.unravel_index(np.arange(n ** r), (n,) * r)
    matched = sum(d[:, None] == d[None, :] for d in digits)
    tol = 1e-10 * np.abs(matrix).max()
    for k in range(r + 1):
        cells = matrix[matched == k]
        assert cells.size == n ** r * math.comb(r, k) * (n - 1) ** (r - k)
        rows = [(value, count) for kk, value, count in levels if kk == k]
        assert sum(count for _, count in rows) == cells.size
        values = [value for value, _ in rows]
        assert abs(max(values) - cells.max()) <= tol
        assert abs(min(values) - cells.min()) <= tol
        total = sum(value * count for value, count in rows)
        assert abs(total - cells.sum()) <= tol * cells.size


@pytest.mark.parametrize("h", [2.0, 0.5, 3.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_level_contrasts_match_matrix_contrasts(r, h):
    code = alamouti_n(make_c("linear-h", 4, h=h))
    rep_m = contrasts(g2_matrix_ideal_multi(code, r), r_channels=r)
    rep_l = contrasts_from_levels(level_summary(code, r), r)
    # the two paths accumulate products in different orders, so agreement
    # is near machine precision rather than exact
    for field in ("v", "c_od", "g2_max", "g2_min", "g2_od"):
        assert rep_l[field] == pytest.approx(rep_m[field], rel=1e-9)
    if r == 1:
        assert "c_non" not in rep_l and "c_non" not in rep_m
    else:
        assert rep_l["c_non"] == pytest.approx(rep_m["c_non"], rel=1e-9)
        # Alamouti zeros leave (R-1) matched levels at (R-1)/R of the top
        assert rep_l["c_non"] == pytest.approx(1.0 / (2 * r - 1), abs=1e-9)


def _ideal_multi_digit_loop(code, r, prefactor=1.0, normalization="global"):
    """g2_matrix_ideal_multi as a loop over channel digits: one fancy
    index of |Gram|^2 per channel, channel 1 first."""
    m = len(code)
    lam = correlation._lambda_norm(r, m, normalization)
    d = m ** r
    p = np.abs(gram(code)) ** 2
    values = np.zeros((d, d))
    for digits in np.unravel_index(np.arange(d), (m,) * r):
        values += p[digits[None, :], digits[:, None]]
    return prefactor * lam * values


def _matched_digit_loop(m, r):
    """Matched channels of each cell of the M^R code space, digit by
    digit, one byte per cell."""
    d = m ** r
    matched = np.zeros((d, d), dtype=np.uint8)
    for digits in np.unravel_index(np.arange(d), (m,) * r):
        matched += digits[:, None] == digits[None, :]
    return matched


def _assert_kron_sums_match_digit_loops(code, r, prefactor, normalization):
    matrix = g2_matrix_ideal_multi(code, r, prefactor, normalization)
    assert matrix.flags.c_contiguous
    assert matrix.tobytes() == _ideal_multi_digit_loop(
        code, r, prefactor, normalization).tobytes()
    matched = _matched_digit_loop(len(code), r)
    assert correlation._kron_sum(np.eye(len(code), dtype=np.uint8),
                                 r).tobytes() == matched.tobytes()
    assert contrasts(matrix, r) == correlation._contrast_report(matrix,
                                                                matched, r)


@settings(max_examples=60, deadline=None)
@given(vector=_code_vectors(),
       m_r=st.sampled_from([(m, r) for m in (2, 4, 8, 16)
                            for r in range(1, 9) if m ** r <= 256]),
       normalization=st.sampled_from(["global", "per_channel"]),
       prefactor=st.floats(0.1, 10.0))
def test_kron_sums_match_the_digit_loops_bit_for_bit(vector, m_r,
                                                     normalization, prefactor):
    """The ideal matrix and the matched counts of contrasts are Kronecker
    sums that add the channels in the digit loop's order, so every byte
    agrees with the loop."""
    (kind, kw), (m, r) = vector, m_r
    _assert_kron_sums_match_digit_loops(alamouti_n(make_c(kind, m, **kw)), r,
                                        prefactor, normalization)


def test_kron_sums_match_the_digit_loops_at_the_matrix_threshold():
    # d = 4096, the largest matrix multi-channel writes
    code = alamouti_n(make_c("geometric", 16, a=0.8 - 0.3j, r=0.9j + 0.2))
    _assert_kron_sums_match_digit_loops(code, 3, 2.5, "per_channel")


def test_ideal_matrix_refuses_past_the_budget_before_building(monkeypatch):
    # R = 70, M = 2 used to end in numpy's "Maximum allowed dimension
    # exceeded"; smaller code spaces past the budget simply allocated
    code2 = alamouti_n(make_c("linear-h", 2, h=2.0))
    with pytest.raises(GridTooLarge, match="ideal g2 matrix"):
        g2_matrix_ideal_multi(code2, 70)

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the budget check")

    # d = 2048 counts 32 + 8 MiB of float64, past a 16 MiB budget
    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", 2 ** 24)
    monkeypatch.setattr(correlation, "gram", unreachable)
    with pytest.raises(GridTooLarge, match="ideal g2 matrix would take 40 MiB"):
        g2_matrix_ideal_multi(code2, 11)


@pytest.mark.parametrize("m, r", [(2, 10), (4, 5), (32, 2)])
def test_ideal_matrix_budget_bounds_what_the_build_holds(monkeypatch, m, r):
    # the count is the d x d result plus the (d/M)^2 step before it.  On
    # top come numpy's two ufunc operand buffers of np.getbufsize() values,
    # the M x M channel term and a few array headers, none of which grows
    # with d (132.8-133.6 KB past the count at these d = 1024 code spaces)
    counted = []
    check = correlation.require_grid_memory

    def count(n_values, what):
        counted.append(16 * n_values)
        return check(n_values, what)

    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", 2 ** 24)
    monkeypatch.setattr(correlation, "require_grid_memory", count)
    code = alamouti_n(make_c("linear-h", m, h=2.0))
    tracemalloc.start()
    try:
        g2_matrix_ideal_multi(code, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = m ** r
    assert counted == [8 * (d * d + (d // m) ** 2)]
    fixed = 2 * 8 * np.getbufsize() + 8 * m * m + 2 ** 12
    assert 8 * d * d < peak <= counted[0] + fixed, (peak, counted)


def _level_summary_reference(code, r_channels, prefactor=1.0,
                             normalization="global"):
    """level_summary as a dict convolved R times: each sum is keyed on
    float(f"{v:.12g}") in Python, one cell at a time, and the rows are
    sorted by descending matched count, then descending unscaled value,
    before they are scaled.  The oracle of the vectorized table."""
    m = len(code)
    lam = 1.0 / (r_channels * m) if normalization == "global" else 1.0 / m
    p = np.abs(gram(code)) ** 2
    base = {}
    for i in range(m):
        for j in range(m):
            key = (1 if i == j else 0, float(f"{p[j, i]:.12g}"))
            base[key] = base.get(key, 0) + 1
    acc = {(0, 0.0): 1}
    for _ in range(r_channels):
        nxt = {}
        for (k1, v1), c1 in acc.items():
            for (k2, v2), c2 in base.items():
                key = (k1 + k2, float(f"{v1 + v2:.12g}"))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        acc = nxt
    rows = sorted(acc.items(), key=lambda item: (-item[0][0], -item[0][1]))
    return [(k, prefactor * lam * v, c) for (k, v), c in rows]


# every table stays under ~50k levels (about 25k at n = 8, R = 5)
_LEVEL_SIZES = ([(n, r) for n in (2, 4) for r in range(1, 9)]
                + [(8, r) for r in range(1, 6)] + [(16, 1), (16, 2)])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(vector=_code_vectors(), n_r=st.sampled_from(_LEVEL_SIZES),
       normalization=st.sampled_from(["global", "per_channel"]),
       prefactor=st.floats(1e-3, 1e3))
def test_level_summary_equals_dict_reference(vector, n_r, normalization,
                                             prefactor):
    (kind, kw), (n, r) = vector, n_r
    code = alamouti_n(make_c(kind, n, **kw))
    levels = level_summary(code, r, prefactor, normalization)
    assert levels.tolist() == _level_summary_reference(code, r, prefactor,
                                                       normalization)
    assert all(type(k) is int and type(v) is float and type(c) is int
               for k, v, c in levels.tolist())
    # the field names are the levels.csv header
    assert levels.dtype.names == ("matched_channels", "value",
                                  "multiplicity")


def test_level_rows_tied_by_scaling_follow_unscaled_value():
    # prefactor * lambda near 1e-301 maps the 500 distinct levels onto 38
    # subnormal or zero floats: tied rows keep descending unscaled value
    code = alamouti_n(make_c("linear-h", 8, h=2.0))
    levels = level_summary(code, 3, 1e-300)
    rows = Counter((k, v) for k, v, _ in levels)
    assert (len(levels), len(rows)) == (500, 38)
    # 8**6 cells in all: int64 multiplicities
    assert levels["multiplicity"].dtype == np.int64
    assert levels.tolist() == _level_summary_reference(code, 3, 1e-300)


# every size with a table under ~60k levels; n = 16 at R = 4 passes the
# million-level bound for some codes
_EXTREMA_SIZES = [(n, r) for n in (2, 4, 8, 16) for r in range(1, 5)
                  if n ** r < 16 ** 4]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(vector=_code_vectors(), n_r=st.sampled_from(_EXTREMA_SIZES),
       normalization=st.sampled_from(["global", "per_channel"]),
       prefactor=st.floats(1e-3, 1e3))
def test_level_class_extrema_match_closed_form(vector, n_r, normalization,
                                               prefactor):
    """Class k's largest (smallest) level is k times the largest
    (smallest) matched p plus R - k times the largest (smallest)
    unmatched p, times prefactor * lambda.  Each of the R roundings to 12
    digits moves a sum by at most half a unit of its 12th digit, 5e-12
    relative; the contrast report's g2 extrema meet the same bound."""
    (kind, kw), (n, r) = vector, n_r
    code = alamouti_n(make_c(kind, n, **kw))
    p = np.abs(gram(code)) ** 2
    diag, off = np.diag(p), p[~np.eye(n, dtype=bool)]
    scale = prefactor * correlation._lambda_norm(r, n, normalization)
    hi = {k: scale * (k * diag.max() + (r - k) * off.max())
          for k in range(r + 1)}
    lo = {k: scale * (k * diag.min() + (r - k) * off.min())
          for k in range(r + 1)}
    rtol = r * 5e-12

    def close(got, want):
        return abs(got - want) <= rtol * abs(want)

    levels = level_summary(code, r, prefactor, normalization)
    for k in range(r + 1):
        values = [v for kk, v, _ in levels if kk == k]
        assert close(max(values), hi[k]), (k, max(values), hi[k])
        assert close(min(values), lo[k]), (k, min(values), lo[k])
    report = contrasts_from_levels(levels, r)
    assert close(report["g2_max"], max(hi.values()))
    assert close(report["g2_min"], min(lo.values()))
    assert close(report["g2_od"], max(hi[k] for k in range(r)))


def test_level_keys_past_int64_match_dict_reference(monkeypatch):
    # the matched count moves to exact Python-int keys once it no longer
    # fits above the value bits; a wider shift takes that path at R = 4
    monkeypatch.setattr(_levels, "_K_SHIFT", 61)
    code = alamouti_n(make_c("geometric", 4, a=1.3 + 0.2j, r=0.7 - 0.5j))
    assert (level_summary(code, 6, 0.7).tolist()
            == _level_summary_reference(code, 6, 0.7))


def test_level_multiplicities_are_exact_past_int64():
    # 4**40 cells in all: int64 multiplicities would wrap
    code = alamouti_n(make_c("linear-h", 2, h=2.0))
    levels = level_summary(code, 40)
    assert levels["multiplicity"].dtype == object
    assert sum(count for _, _, count in levels) == 4 ** 40
    assert levels.tolist() == _level_summary_reference(code, 40)


@pytest.mark.parametrize("block_sums", [1, 7, 64])
def test_level_table_is_the_same_at_any_block_size(monkeypatch, block_sums):
    # smaller blocks regroup the running table more often, down to one
    # row of sums per block; n = 2, R = 40 takes the object counts
    monkeypatch.setattr(_levels, "_BLOCK_SUMS", block_sums)
    for (kind, kw), n, r in [
            (("linear-h", {"h": 2.0}), 8, 4),
            (("geometric", {"a": 1.3 + 0.2j, "r": 0.7 - 0.5j}), 4, 5),
            (("linear-h", {"h": 2.0}), 2, 40)]:
        code = alamouti_n(make_c(kind, n, **kw))
        assert (level_summary(code, r).tolist()
                == _level_summary_reference(code, r))


def test_level_sums_past_the_float_range_are_inf_without_warning():
    # |G|^2 near 1.5e308: sums overflow to inf silently, as Python floats do
    code = np.diag([1.1e77, 1.12e77]).astype(complex)
    levels = level_summary(code, 3)
    assert levels.tolist() == _level_summary_reference(code, 3)
    assert levels[0][1] == math.inf


def _rounded(values):
    """correlation's 12-digit rounding of each value, as floats."""
    return _levels._key_values(_levels._decimal_keys(values))


def _assert_rounds_like_python(values):
    """Each value's key reads back as float(f"{v:.12g}"), and it is the
    key of that rounded value too, so equal levels share one key."""
    want = [float(f"{v:.12g}") for v in values]
    got = _rounded(values).tolist()
    for v, g, w in zip(values, got, want):
        assert g == w or (math.isnan(g) and math.isnan(w)), v
    np.testing.assert_array_equal(_levels._decimal_keys(values),
                                  _levels._decimal_keys(want))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0), min_size=1, max_size=40))
def test_decimal_rounding_matches_python_everywhere(values):
    # the whole exponent range, subnormals and infinity included
    _assert_rounds_like_python(values)


def test_decimal_rounding_edge_values():
    tiny = np.finfo(float).tiny
    _assert_rounds_like_python([
        0.0, 5e-324, tiny, tiny * (1 - 2 ** -52), np.finfo(float).max,
        math.inf, math.nan, 1e-33, np.nextafter(1e-33, 0), 1e12,
        np.nextafter(1e12, 0), 999999999999.5, 999999999999.7, 123456789012.5,
        123456789013.5, 0.5, 1.0, 9.999999999995, 9.999999999994999])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mantissa=st.integers(10 ** 11, 10 ** 12 - 1),
       exponent=st.integers(-45, 11), offset=st.integers(-10 ** 6, 10 ** 6),
       drop=st.integers(1, 16), noise=st.integers(10 ** 11, 10 ** 12 - 1))
def test_decimal_rounding_near_ties(mantissa, exponent, offset, drop, noise):
    # sums of two 12-digit decimals of different magnitude: a plus about
    # half a unit of its last digit lands next to a tie; a plus a decimal
    # `drop` decades down, or plus one near 1e-30 (the size of a code's
    # structural zeros squared), lands anywhere in between
    a = float(f"{mantissa}e{exponent - 11}")
    half = float(f"{5 * 10 ** 11 + offset}e{exponent - 23}")
    lower = float(f"{noise}e{exponent - 11 - drop}")
    zero = float(f"{noise}e-41")
    _assert_rounds_like_python([a + half, a + lower, a + zero, zero + half,
                                zero + zero, a + half + zero])


def _antidiagonal_sum(f, spacing):
    """Quadrature of each anti-diagonal of a sampled (signal, idler)
    amplitude: entry n sums f[j, n - j] over every valid j."""
    out = np.zeros(sum(f.shape) - 1, dtype=complex)
    for j in range(f.shape[0]):
        out[j:j + f.shape[1]] += f[j, :]
    return spacing * out


def test_convolution_identities():
    gs = FrequencyGrid(-4.0, 4.0, 33)
    gi = FrequencyGrid(-2.0, 2.0, 17)
    out = convolution_grid(gs, gi)
    assert out.points == 33 + 17 - 1
    assert out.min == -6.0 and out.max == 6.0
    with pytest.raises(UnderResolvedGrid):
        convolution_grid(gs, FrequencyGrid(-2.0, 2.0, 18))
    # the kernel factors the ridge out of each anti-diagonal; summing the
    # sampled pair amplitude itself must give the same numbers
    params = PhysicalParams(gamma3n=0.5)   # idler span +-10 suffices
    gs = FrequencyGrid(-20.0, 20.0, 161)
    gi = FrequencyGrid(-12.0, 12.0, 97)
    pair = PairShift(weight=0.6 - 0.8j, delta_p=1.0, delta_q=-3.0)
    grid_out, kernel = pair_correlation_kernel(pair, params, gs, gi)
    lor = 1.0 / (params.half_linewidth - 1j * (gi.omegas - pair.delta_p))
    ridge = np.exp(-((gs.omegas[:, None] + gi.omegas[None, :]
                      + pair.delta_q) * params.tau) ** 2 / 8.0)
    _, n_s = marginal_signal_mode(pair, params, gs)
    _, n_i = marginal_idler_mode(pair, params, gi)
    want = _antidiagonal_sum(pair.weight * ridge * lor[None, :], gs.spacing) \
        / (n_s * n_i * gs.spacing * np.sum(lor))
    assert grid_out == convolution_grid(gs, gi)
    np.testing.assert_allclose(kernel, want, rtol=0,
                               atol=1e-12 * float(np.max(np.abs(want))))


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
    with pytest.raises(ValueError, match="overlap"):
        coding_bin_mask([0.0, 0.9], [1.0, 1.0], 1.0, grid)
    # complex weight rows give one such mask per row, byte for byte
    rows = np.array([[2.0 - 1.0j, 4.0j], [-1.5, 0.5 + 0.25j]])
    masks = coding_bin_mask([-0.5, 0.5], rows, 1.0, grid)
    assert masks.tobytes() == np.array(
        [_bin_mask_per_center([-0.5, 0.5], w, 1.0, grid)
         for w in rows]).tobytes()
    k = {w: i for i, w in enumerate(at)}
    np.testing.assert_array_equal(masks[:, k[0.0]],
                                  0.5 * rows[:, 0] + 0.5 * rows[:, 1])
    np.testing.assert_array_equal(masks[:, k[1.0]], 0.5 * rows[:, 1])


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
    value = g2_numeric(spec, 60.0, gs, gi)[0, 0]
    _, n_s = marginal_signal_mode(spec.pairs[0], P, gs)
    _, n_i = marginal_idler_mode(spec.pairs[0], P, gi)
    assert value == pytest.approx(2.0 * g2_prefactor(n_s, n_i, P.tau), rel=1e-12)


def test_numeric_argument_checks():
    spec = MultiplexedSpectrum.comb(2, 60.0, P)
    gs, gi = comb_grids(2, 60.0)
    with pytest.raises(ValueError):
        g2_numeric(spec, -1.0, gs, gi)
    with pytest.raises(ValueError, match="encode length must match"):
        g2_numeric(spec, 60.0, gs, gi, encode=np.ones(3))
    with pytest.raises(ValueError, match="decode length must match"):
        g2_numeric(spec, 60.0, gs, gi, decode=np.ones(5))
    # weights are rows: a 3-D array is refused, and every row is checked
    # against the pair count
    with pytest.raises(ValueError, match="2-D array of rows"):
        g2_numeric(spec, 60.0, gs, gi, encode=np.ones((1, 1, 2)))
    with pytest.raises(ValueError, match="encode length must match"):
        g2_numeric(spec, 60.0, gs, gi, encode=np.ones((2, 3)))
    code = alamouti_n(np.ones(2))
    with pytest.raises(ValueError):
        g2_numeric(spec, 0.0, gs, gi, code.T, matched_decode(code.T))
    with pytest.raises(ValueError, match="encode length must match"):
        g2_numeric(spec, 60.0, gs, gi, CODE4.T, matched_decode(CODE4.T))
    with pytest.raises(ValueError, match="overlap"):
        g2_numeric(spec, 70.0, gs, gi, code.T, matched_decode(code.T))
    with pytest.raises(UnderResolvedGrid):   # unequal signal/idler spacing
        g2_numeric(spec, 60.0, gs,
                   FrequencyGrid(gi.min, gi.max, gi.points + 1),
                   code.T, matched_decode(code.T))
    with pytest.raises(UnderResolvedGrid, match="narrower than the grid"):
        g2_numeric(spec, 0.2, gs, gi)   # spacing 0.25
    coarse = FrequencyGrid(gs.min, gs.max, 41)
    with pytest.raises(UnderResolvedGrid):   # marginals need (1/tau)/8
        g2_numeric(spec, 60.0, coarse,
                   FrequencyGrid(gi.min, gi.min + 40 * coarse.spacing, 41),
                   code.T, matched_decode(code.T))


def test_numeric_matrix_tracks_ideal_two_pairs():
    code = alamouti_n(np.ones(2))
    spec = MultiplexedSpectrum.comb(2, 60.0, P)
    gs, gi = comb_grids(2, 60.0)
    num = g2_numeric(spec, 60.0, gs, gi, code.T, matched_decode(code.T))
    _, n_s = marginal_signal_mode(spec.pairs[0], P, gs)
    _, n_i = marginal_idler_mode(spec.pairs[0], P, gi)
    ideal = g2_matrix_ideal(code, g2_prefactor(n_s, n_i, P.tau))
    peak = ideal.max()
    for i in range(2):
        for j in range(2):
            if i == j:
                assert num[i, j] == pytest.approx(ideal[i, j], rel=0.01)
            else:
                assert abs(num[i, j] - ideal[i, j]) < 0.01 * peak


def multi_channel_cells():
    """Staircase (2, 2) design with the n = 2 amplitude ladder: spectrum,
    grids, closed-form matrix, and the matched, half-matched and fully
    mismatched (encode index, decode index, g2_numeric weights) cells."""
    layout = staircase(2, 2, bin_width=100.0)
    code = alamouti_n(make_c("linear-h", 2, h=2.0))
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
        enc_digits = np.unravel_index(enc_idx, (2, 2))
        dec_digits = np.unravel_index(dec_idx, (2, 2))
        enc = np.concatenate([code[:, d] for d in enc_digits])
        dec_rm = np.array([matched_decode(code[:, d]) for d in dec_digits])
        cells.append((enc_idx, dec_idx,
                      {"encode": enc,
                       "channel_map": factor_decode(layout, dec_rm)}))
    return spec, gs, gi, ideal, cells


def test_numeric_multi_channel_cells():
    """The factorized bin decoder reproduces matched, half-matched, and
    fully mismatched closed-form levels."""
    spec, gs, gi, ideal, cells = multi_channel_cells()
    for enc_idx, dec_idx, weights in cells:
        got = g2_numeric(spec, 100.0, gs, gi, **weights)[0, 0]
        want = ideal[enc_idx, dec_idx]
        assert abs(got - want) < 0.02 * ideal.max()
        if want > 0.1 * ideal.max():
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


def reference_g2(spec, bin_width, gs, gi, acceptance_scale=3.0, *,
                 encode=None, decode=None, channel_map=None):
    """Per-cell numeric g2: masks, gate and the all-ones reference cell are
    rebuilt for every call, and every pair is convolved directly.  Kept as
    the independent oracle for the batched FFT engine."""
    n = spec.n_pairs
    ones = np.ones(n, complex)
    encode = ones if encode is None else encode
    gate = acceptance_gate(convolution_grid(gs, gi), spec, acceptance_scale)
    if channel_map is not None:
        signal_weights, idler_weights = channel_map

        def binned(weights, grid, ref):
            ks = sorted(weights)
            return coding_bin_mask([k * bin_width for k in ks],
                                   [1.0 if ref else weights[k] for k in ks],
                                   bin_width, grid)

        num = reference_numerator(spec, encode,
                                  binned(signal_weights, gs, False),
                                  binned(idler_weights, gi, False),
                                  gs, gi, gate)
        ref = reference_numerator(spec, ones,
                                  binned(signal_weights, gs, True),
                                  binned(idler_weights, gi, True),
                                  gs, gi, gate)
    else:
        decode = ones if decode is None else decode
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
    """The code-matrix call equals the per-row calls, and every cell the
    per-cell reference."""
    c = make_c("linear-h", n, h=2.0) if kind == "ladder" \
        else np.ones(n)
    code = alamouti_n(c)
    spec = MultiplexedSpectrum.comb(n, delta, P)
    gs, gi = comb_grids(n, delta)
    decode = matched_decode(code.T)
    matrix = g2_numeric(spec, delta, gs, gi, code.T, decode)
    assert matrix.shape == (n, n)
    for i in range(n):
        row = g2_numeric(spec, delta, gs, gi, code[:, i], decode)
        np.testing.assert_allclose(row, matrix[i:i + 1], rtol=ENGINE_RTOL)
        for j in range(n):
            weights = {"encode": code[:, i], "decode": decode[j]}
            want = reference_g2(spec, delta, gs, gi, **weights)
            assert matrix[i, j] == pytest.approx(want, rel=ENGINE_RTOL)
            got = g2_numeric(spec, delta, gs, gi, **weights)[0, 0]
            assert got == pytest.approx(want, rel=ENGINE_RTOL)


def test_batched_engine_matches_reference_with_pair_weights_and_ridges():
    # complex pair weights on two ridges, arbitrary encode/decode vectors
    pairs = (PairShift(weight=0.7 - 0.2j, delta_p=-60.0),
             PairShift(weight=-0.4j, delta_p=0.0, delta_q=-120.0),
             PairShift(weight=1.1, delta_p=60.0))
    spec = MultiplexedSpectrum(params=P, pairs=pairs)
    gs = FrequencyGrid(-110.0, 170.0, 1121)
    gi = FrequencyGrid(-165.0, 165.0, 1321)
    weights = {"encode": np.array([1.0, -0.5 + 0.5j, 0.3j]),
               "decode": np.array([0.2, 1.0j, -1.0])}
    for scale in (3.0, math.inf):
        want = reference_g2(spec, 60.0, gs, gi, scale, **weights)
        got = g2_numeric(spec, 60.0, gs, gi, acceptance_scale=scale,
                         **weights)[0, 0]
        assert got == pytest.approx(want, rel=ENGINE_RTOL)


def test_batched_engine_matches_reference_on_channel_map_cells():
    spec, gs, gi, _, cells = multi_channel_cells()
    for _, _, weights in cells:
        want = reference_g2(spec, 100.0, gs, gi, **weights)
        got = g2_numeric(spec, 100.0, gs, gi, **weights)[0, 0]
        assert got == pytest.approx(want, rel=ENGINE_RTOL)


def test_channel_map_takes_encode_rows():
    # the cells share decode index 0, so one channel_map serves them all:
    # each encode row is a source-side amplitude row against that decoder
    spec, gs, gi, _, cells = multi_channel_cells()
    channel_map = cells[0][2]["channel_map"]
    rows = np.array([weights["encode"] for _, _, weights in cells])
    got = g2_numeric(spec, 100.0, gs, gi, rows, channel_map=channel_map)
    assert got.shape == (len(cells), 1)
    for row, want_row in zip(got, rows):
        want = g2_numeric(spec, 100.0, gs, gi, want_row,
                          channel_map=channel_map)
        np.testing.assert_allclose(row, want[0], rtol=ENGINE_RTOL)


def test_channel_map_replaces_decode():
    # the factorized decoder takes the place of the per-pair decode, so
    # giving both is refused rather than one being dropped
    spec, gs, gi, _, cells = multi_channel_cells()
    weights = cells[0][2]
    with pytest.raises(ValueError, match="decode or channel_map"):
        g2_numeric(spec, 100.0, gs, gi, decode=np.ones(spec.n_pairs),
                   **weights)


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


def _bin_mask_per_center(centers, weights, bin_width, grid):
    """One weight vector's mask, center by center, sampling grid.omegas
    afresh for every comparison."""
    mask = np.zeros(grid.points, dtype=complex)
    half = bin_width / 2.0
    eps = 0.25 * grid.spacing
    for c, wt in zip(np.asarray(centers, dtype=float),
                     np.asarray(weights, dtype=complex)):
        inside = (grid.omegas > c - half + eps) & (grid.omegas < c + half - eps)
        mask[inside] += wt
        for edge in (c - half, c + half):
            mask[np.abs(grid.omegas - edge) <= eps] += 0.5 * wt
    return mask


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bin_masks_match_the_per_center_loop_bit_for_bit(data):
    """A weight vector gives the per-center loop's mask and a 2-D array of
    rows the stack of its rows' masks, byte for byte.  Abutting bins
    (gap 0) put samples on shared edges, and every bin's outer edges
    land on samples of the 0.125-spaced grid when its center does."""
    n = data.draw(st.integers(1, 5))
    width = data.draw(st.sampled_from([0.5, 0.75, 1.0, 1.3]))
    gap = data.draw(st.sampled_from([0.0, 0.0, 0.5, 1.0]))
    start = data.draw(st.sampled_from([-3.0, -2.875, -2.5])
                      | st.floats(-3.0, 0.0))
    centers = start + np.arange(n) * width * (1.0 + gap)
    rows = data.draw(st.integers(1, 4))
    weights = np.array(data.draw(st.lists(
        st.lists(_complex, min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    grid = FrequencyGrid(-4.0, 6.0, 81)
    masks = coding_bin_mask(centers, weights, width, grid)
    assert masks.shape == (rows, 81)
    oracle = np.array([_bin_mask_per_center(centers, w, width, grid)
                       for w in weights])
    assert masks.tobytes() == oracle.tobytes()
    one_by_one = np.array([coding_bin_mask(centers, w, width, grid)
                           for w in weights])
    assert masks.tobytes() == one_by_one.tobytes()
    assert coding_bin_mask(centers, weights[0], width, grid).tobytes() \
        == oracle[0].tobytes()


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                     np.ones((2, 2)), 1.0],
                         ids=["short", "long", "short-rows", "scalar"])
def test_bin_mask_refuses_weights_of_the_wrong_length(weights):
    # a short vector used to drop the last bins and a long one to ignore
    # its extra weights: [1, 2] on three centers left the third bin zero
    grid = FrequencyGrid(-2.0, 2.0, 17)
    with pytest.raises(ValueError, match="one weight per center"):
        coding_bin_mask([-1.0, 0.0, 1.0], weights, 1.0, grid)


def test_marginal_path_equals_schmidt_reconstruction_path():
    """Masking commutes with the rank expansion: summing masked per-pair
    convolutions equals masking the two-axis amplitude rebuilt from its
    Schmidt modes (the SVD of the quadrature-weighted samples) and
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
    root_s = np.sqrt(gs.weights)[:, None]
    root_i = np.sqrt(gi.weights)[None, :]
    u, sigma, vh = np.linalg.svd(root_s * f * root_i, full_matrices=False)
    rec = (u[:, :4] * sigma[:4] / root_s) @ (vh[:4] / root_i)
    f2 = _antidiagonal_sum(mask_s[:, None] * rec * mask_i[None, :],
                           gs.spacing)
    assert float(np.max(np.abs(f1 - f2))) < 1e-6 * float(np.max(np.abs(f1)))


def test_numeric_engine_refuses_ffts_past_the_budget():
    # two (n + 1) x n x nfft complex tensors: 845.8 MiB at n = 32 on these
    # grids (delta 100), past the 256 MiB budget; refused before the FFTs
    code = alamouti_n(make_c("linear-h", 32, h=1.0))
    gs, gi = comb_grids(32, 100.0)
    spec = MultiplexedSpectrum.comb(32, 100.0, P)
    with pytest.raises(GridTooLarge, match="g2 FFTs would take 845.8 MiB"):
        g2_numeric(spec, 100.0, gs, gi, code.T, matched_decode(code.T))


def test_numeric_budget_bounds_what_the_kernel_holds(monkeypatch):
    # _gated_power holds the masked idler marginals and their transforms at
    # once: at n = 16, delta 100 it grows by 86.0 MiB under tracemalloc,
    # within the 113.9 MiB of (signal masks + idler masks) x pairs x nfft
    # that the budget counts, and past the 60.3 MiB of (idler masks + 1) x
    # pairs x nfft.  At small n a fixed FFT overhead passes the count
    # (0.63 against 0.41 MiB at n = 2), immaterial against 256 MiB.
    counted, grown = [], []
    check, kernel = correlation.require_grid_memory, correlation._gated_power

    def count(n_values, what):
        counted.append(16 * n_values)
        return check(n_values, what)

    def traced(*args):
        tracemalloc.start()
        try:
            out = kernel(*args)
            grown.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(correlation, "require_grid_memory", count)
    monkeypatch.setattr(correlation, "_gated_power", traced)
    code = alamouti_n(make_c("linear-h", 16, h=1.0))
    spec = MultiplexedSpectrum.comb(16, 100.0, P)
    g2_numeric(spec, 100.0, *spectra.comb_grids(16, 100.0, P), code.T,
               matched_decode(code.T))
    assert 0 < grown[0] <= counted[0], (grown, counted)


def test_numeric_engine_refuses_before_building_masks(monkeypatch):
    # the FFT budget follows from the grid sizes, the mask count and the
    # pair count alone, so a refused config builds no mask and no marginal
    # (at n = 4, delta 1e6 the automatic grids would take ~2.1 GiB of masks
    # and ~1.7 GiB of marginals before the refusal)
    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", 2 ** 18)

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the budget check")

    for name in ("coding_bin_mask", "marginal_signal_mode",
                 "marginal_idler_mode"):
        monkeypatch.setattr(correlation, name, unreachable)
    gs, gi = comb_grids(4, 100.0)
    spec = MultiplexedSpectrum.comb(4, 100.0, P)
    with pytest.raises(GridTooLarge, match="numeric g2 FFTs"):
        g2_numeric(spec, 100.0, gs, gi, CODE4.T, matched_decode(CODE4.T))
    with pytest.raises(GridTooLarge, match="numeric g2 FFTs"):
        g2_numeric(spec, 100.0, gs, gi)


@pytest.mark.parametrize("gs, gi, match", [
    # the spacing check of the convolution axis
    (FrequencyGrid(-60.0, 60.0, 481), FrequencyGrid(-122.5, 122.5, 491),
     "equal spacing"),
    # the marginals' resolution check: spacing 5 at tau = 0.5
    (FrequencyGrid(-100.0, 100.0, 41), FrequencyGrid(-200.0, 200.0, 81),
     "grid spacing 5 exceeds"),
], ids=["unequal-spacing", "too-coarse"])
def test_numeric_engine_refuses_grids_before_building_masks(monkeypatch, gs,
                                                            gi, match):
    # grid refusals come before any coding mask, at the real budget
    def unreachable(*args, **kwargs):
        raise AssertionError("a mask was built before the grid check")

    monkeypatch.setattr(correlation, "coding_bin_mask", unreachable)
    spec = MultiplexedSpectrum.comb(2, 40.0, P)
    with pytest.raises(UnderResolvedGrid, match=match):
        g2_numeric(spec, 40.0, gs, gi, np.eye(2), np.eye(2))
