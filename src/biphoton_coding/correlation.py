"""Second-order correlation g2(0) for coded multiplexed pair spectra.

Two computation paths are provided.  The ideal path evaluates the
closed-form expression valid for well-separated pairs: g2 is proportional
to |sum_n H^d_n H^e_n|^2, so the whole encode/decode matrix is a Gram
matrix of the codebook.  The numeric path models the coding operations as
they act in frequency space: encode and decode weights are painted onto
hard frequency bins of width delta (signal axis for encoding, idler axis
for decoding; everything outside the bin union is discarded by the
demultiplexer), the masked mode pairs are convolved onto the
sum-frequency axis, and |F(omega)|^2 is integrated under a Gaussian
acceptance gate a few pump bandwidths wide around each channel's
energy-conservation line.  Neighboring-pair overlap and finite-bin
leakage enter only through the numeric path; the two paths agree when
bins are wide compared with both the Gaussian mode width and the
Lorentzian linewidth.

Both paths return plain ndarrays indexed (encode index, decode index).
A single channel is the R = 1 case of the M^R multi-channel code space,
whose ideal matrix and matched-channel counts are Kronecker sums over
channels (Horn and Johnson, Topics in Matrix Analysis, sec. 4.4).  One
contrast routine serves full matrices and level_summary tables alike:
it reads only the extrema of each matched-channel class k = 0..R.

Masks are linear in their weights, so a whole matrix is one batch: one
pass over an axis's bins paints every weight row's mask, each masked
marginal takes one zero-padded FFT and FFT(F_ij) = sum_p c_p
FFT(M^s_i psi_p) FFT(M^i_j phi_p) is a contraction over pairs.  The
all-ones reference cell (one extra row and column) fixes the scale, so
the uncoded value matches 2 sqrt(pi) N / (N_s^2 N_i^2 tau) and both paths
share units; contrast metrics are insensitive to this calibration.
"""

from __future__ import annotations

import math

import numpy as np

from .codes import gram
from .errors import DegenerateMatrix, GridTooLarge, UnderResolvedGrid
from .spectra import (FrequencyGrid, MultiplexedSpectrum, PhysicalParams,
                      gaussian_envelope, lorentzian_factor,
                      marginal_idler_mode, marginal_signal_mode,
                      require_grid_memory)


def matched_decode(codeword) -> np.ndarray:
    """Decode vector matched to a codeword: entrywise complex conjugate.

    This is the single place fixing the matched-decoding convention; with
    it the matched inner sum is sum |c|^2, real and maximal.
    """
    return np.conj(np.asarray(codeword, dtype=complex))


def g2_prefactor(n_s: float, n_i: float, tau: float) -> float:
    """Uncoded single-pair g2(0): 2 sqrt(pi) / (N_s^2 N_i^2 tau)."""
    return 2.0 * math.sqrt(math.pi) / (n_s ** 2 * n_i ** 2 * tau)


# ---------------------------------------------------------------------------
# convolution and the pair kernel
# ---------------------------------------------------------------------------

def convolution_grid(grid_s: FrequencyGrid, grid_i: FrequencyGrid) -> FrequencyGrid:
    """Sum-frequency axis carrying the discrete convolution output; grids
    of unequal spacing raise UnderResolvedGrid, and a sum axis past the
    float range GridTooLarge."""
    ds, di = grid_s.spacing, grid_i.spacing
    if abs(ds - di) > 1e-9 * ds:
        raise UnderResolvedGrid(
            f"signal/idler grids need equal spacing for convolution "
            f"({ds:.6g} vs {di:.6g})")
    try:
        return FrequencyGrid(grid_s.min + grid_i.min, grid_s.max + grid_i.max,
                             grid_s.points + grid_i.points - 1)
    except ValueError:
        raise GridTooLarge("the sum-frequency axis of these grids passes "
                           "the float range") from None


def convolution(signal_mode, idler_mode, spacing: float) -> np.ndarray:
    """Discrete quadrature convolution (psi * phi)(omega) on the sum axis."""
    return spacing * np.convolve(np.asarray(signal_mode, dtype=complex),
                                 np.asarray(idler_mode, dtype=complex))


def pair_correlation_kernel(pair, params: PhysicalParams,
                            grid_s: FrequencyGrid, grid_i: FrequencyGrid):
    """Joint correlation kernel of one pair on the sum-frequency axis.

    Integrates the pair amplitude along anti-diagonals and divides by the
    idler line integral and by the marginal norms N_s N_i.  The Gaussian
    ridge depends on omega_s + omega_i alone, so each anti-diagonal sum is
    the ridge at that sum times a partial sum of the idler Lorentzian:
    the convolution of the Lorentzian with N_s ones.  The result is
    (1 / (N_s N_i)) exp(-(omega + delta_q)^2 tau^2 / 8) up to the slow
    omega-dependence of that truncated line integral; wide grids push the
    residual well below one percent.

    Returns (grid_out, kernel).
    """
    grid_out = convolution_grid(grid_s, grid_i)
    spacing = grid_s.spacing
    _, n_s = marginal_signal_mode(pair, params, grid_s)
    _, n_i = marginal_idler_mode(pair, params, grid_i)
    lor = lorentzian_factor(params, grid_i.omegas, pair.delta_p)
    line_integral = spacing * np.sum(lor)
    kernel = pair.weight \
        * gaussian_envelope(params, grid_out.omegas, pair.delta_q) \
        * convolution(np.ones(grid_s.points), lor, spacing)
    return grid_out, kernel / (n_s * n_i * line_integral)


# ---------------------------------------------------------------------------
# ideal (closed-form) path
# ---------------------------------------------------------------------------

def g2_matrix_ideal(code: np.ndarray, prefactor: float = 1.0) -> np.ndarray:
    """Ideal N x N correlation matrix over (encode column, decode column).

    The R = 1 case of g2_matrix_ideal_multi: entry (i, j) uses codeword i
    for encoding and the matched decode of codeword j, giving
    prefactor/N * |<col_j, col_i>|^2.
    """
    return g2_matrix_ideal_multi(code, 1, prefactor)


def _lambda_norm(r: int, m: int, normalization: str) -> float:
    # 'global' spreads unit total weight over all R*M pairs; 'per_channel'
    # keeps the printed 1/M factor.  The two differ by 1/R overall.
    if r < 1:
        raise ValueError(f"need at least one channel, got R = {r}")
    if normalization == "global":
        return 1.0 / (r * m)
    if normalization == "per_channel":
        return 1.0 / m
    raise ValueError(f"unknown normalization {normalization!r}")


def _kron_sum(a: np.ndarray, r: int) -> np.ndarray:
    """a (+) ... (+) a, r copies: entry (i, j) sums a[i_k, j_k] over the
    digits of np.unravel_index over (M,) * r, channel 1 first and added
    first.  Each step fills a preallocated (n, M, n, M) array."""
    out, m = a, len(a)
    for _ in range(r - 1):
        n = len(out)
        out = np.add(out[:, None, :, None], a[None, :, None, :],
                     out=np.empty((n, m, n, m), a.dtype)).reshape(n * m, -1)
    return out


def g2_matrix_ideal_multi(code: np.ndarray, r_channels: int,
                          prefactor: float = 1.0,
                          normalization: str = "global") -> np.ndarray:
    """Ideal correlation matrix over the full M^R code space.

    Every channel draws from the same order-M codebook; the digits of an
    index, np.unravel_index over (M,) * R with channel 1 first, give the
    per-channel choices.  Entry (i, j) is prefactor * lam * sum_r
    |<col_{j_r}, col_{i_r}>|^2, lam the normalization of _lambda_norm: a
    Kronecker sum, scaled in place.  Its d x d float64 values plus the
    (d/M)^2 of the step before are checked against spectra.MAX_GRID_BYTES
    before any array is built (GridTooLarge past it).
    """
    m = len(code)
    lam = _lambda_norm(r_channels, m, normalization)
    d = m ** r_channels
    # float64 values, in the budget's 16-byte units
    require_grid_memory((d * d + (d // m) ** 2 + 1) // 2,
                        "the ideal g2 matrix")
    # one channel's term, |<col_j, col_i>|^2 at [i, j]
    values = _kron_sum(np.ascontiguousarray((np.abs(gram(code)) ** 2).T),
                       r_channels)
    values *= prefactor * lam
    return values


# level_summary's table bound: at M = 16 the table grows ~20x per channel
# (486,864 levels at R = 4), so R = 8 would otherwise run for hours
_MAX_LEVELS = 1_000_000


def level_summary(code: np.ndarray, r_channels: int, prefactor: float = 1.0,
                  normalization: str = "global") -> np.recarray:
    """Distinct correlation levels of the M^R code space, grouped by the
    number of matched channels, without enumerating all M^R x M^R cells.

    Returns a record array, one row per level, with the fields
    matched_channels, value and multiplicity, sorted by descending
    matched channels, then value.  The per-channel value distribution is
    convolved R times.  Each sum is rounded to 12 significant digits,
    float(f"{v:.12g}"), and grouped on an exact integer key (matched
    count, decimal exponent, mantissa); the sums of a step are appended
    to the running table in blocks of about 2**16, and the table is
    regrouped by key after each block.  The rows come out in reversed
    key order and are then scaled by prefactor times the normalization,
    so rows whose scaled values coincide (a subnormal, zero or infinite
    product) follow descending unscaled value.  The multiplicities are
    int64 while M**(2R) stays below 2**63 and exact Python ints (an
    object field) past it, so .tolist() gives (int, float, int) tuples.
    Raises ValueError as soon as the table passes a million levels.
    """
    # compiled on the first table, so that the commands that build none
    # do not pay its compile time and heap
    from ._levels import convolve_levels

    lam = _lambda_norm(r_channels, len(code), normalization)
    matched, values, counts = convolve_levels(np.abs(gram(code)) ** 2,
                                              r_channels, _MAX_LEVELS)
    with np.errstate(over="ignore"):   # inf, as Python floats give
        values = prefactor * lam * values
    return np.rec.fromarrays([matched, values, counts],
                             names="matched_channels,value,multiplicity")


# ---------------------------------------------------------------------------
# contrast metrics
# ---------------------------------------------------------------------------

def _contrast_report(values, matched, r: int) -> dict:
    """Contrast metrics from values and their matched-channel counts.

    Only the extrema of each class k = 0..R enter.  V uses the global
    max/min; C_od compares the matched maximum against the largest value
    with a mismatched channel; for R > 1, C_non compares the fully matched
    maximum against the lowest (R-1)-matched value.  Returns a dict of v,
    c_od, g2_max, g2_min and g2_od, plus c_non only when R > 1.
    """
    hi, lo = {}, {}
    for k in range(r + 1):
        cls = values[matched == k]
        if cls.size:
            hi[k], lo[k] = float(cls.max()), float(cls.min())
    g_max, g_min = max(hi.values()), min(lo.values())
    if g_max == g_min:
        raise DegenerateMatrix("all correlation entries are equal")
    g_od = max(v for k, v in hi.items() if k < r)
    report = {"v": (g_max - g_min) / (g_max + g_min),
              "c_od": (g_max - g_od) / (g_max + g_od),
              "g2_max": g_max, "g2_min": g_min, "g2_od": g_od}
    if r > 1:
        report["c_non"] = (hi[r] - lo[r - 1]) / (hi[r] + lo[r - 1])
    return report


def contrasts(values, r_channels: int = 1) -> dict:
    """Visibility and contrast metrics of a square correlation matrix over
    an M^R code space (M inferred from the dimension D = M**R)."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    d = len(values)
    m = round(d ** (1.0 / max(r_channels, 1)))
    if r_channels < 1 or m ** r_channels != d:
        raise ValueError(f"dimension {d} is not M**R for R = {r_channels}")
    # matched channels of cell (i, j), one byte per cell
    matched = _kron_sum(np.eye(m, dtype=np.uint8), r_channels)
    return _contrast_report(values, matched, r_channels)


def contrasts_from_levels(levels, r_channels: int) -> dict:
    """Contrast metrics computed from a level_summary table."""
    return _contrast_report(levels["value"], levels["matched_channels"],
                            r_channels)


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------

def _require_disjoint_bins(centers, bin_width: float):
    """Raise ValueError when bins of width bin_width about centers overlap."""
    gaps = np.diff(np.sort(np.asarray(centers, dtype=float)))
    if gaps.size and gaps.min() < bin_width * (1.0 - 1e-9):
        raise ValueError(
            f"coding bins of width {bin_width:.4g} overlap at center "
            f"spacing {gaps.min():.4g}")


def coding_bin_mask(centers, weights, bin_width: float,
                    grid: FrequencyGrid) -> np.ndarray:
    """Piecewise-constant coding mask: one hard bin of width bin_width per
    center, zero outside the bin union (nothing passes out of band).

    weights is a vector or an array of rows, its last axis one weight per
    center (ValueError otherwise); the masks keep its leading shape.  A
    grid sample landing on a shared bin edge takes the average of the
    adjacent weights, which keeps masks mirror-symmetric on symmetric
    grids whose spacing divides bin_width/2.
    """
    centers = np.asarray(centers, dtype=float)
    _require_disjoint_bins(centers, bin_width)
    w = np.asarray(weights, dtype=complex)
    if w.shape[-1:] != centers.shape:
        raise ValueError(f"coding weights of shape {w.shape} need one "
                         f"weight per center ({len(centers)})")
    mask = np.zeros(w.shape[:-1] + (grid.points,), dtype=complex)
    omegas = grid.omegas
    half = bin_width / 2.0
    eps = 0.25 * grid.spacing
    for c, wt in zip(centers, np.moveaxis(w, -1, 0)[..., None]):
        mask[..., (omegas > c - half + eps) & (omegas < c + half - eps)] += wt
        for edge in (c - half, c + half):
            mask[..., np.abs(omegas - edge) <= eps] += 0.5 * wt
    return mask


def acceptance_gate(grid_out: FrequencyGrid, spec: MultiplexedSpectrum,
                    scale: float = 3.0) -> np.ndarray:
    """Gaussian sum-frequency intensity gate about each channel ridge.

    A channel with joint shift delta_q emits its coincidences along the
    energy-conservation ridge omega = -delta_q, with envelope width set
    by the pump bandwidth 2/tau.  The gate accepts `scale` pump
    bandwidths around every ridge: max_r exp(-((omega + delta_r) tau
    / (2 scale))^2).  Pass math.inf to accept the full axis.
    """
    if not scale > 0:
        raise ValueError("acceptance scale must be positive")
    tau = spec.params.tau
    acc = np.zeros(grid_out.points)
    for dq in sorted({p.delta_q for p in spec.pairs}):
        x = (grid_out.omegas + dq) * tau / (2.0 * scale)
        np.maximum(acc, np.exp(-x * x), out=acc)
    return acc


def _next_fast_len(n: int) -> int:
    """Smallest length >= n (n >= 1) with no prime factor above 11: the
    sizes pocketfft transforms fastest, as scipy.fft.next_fast_len picks
    them for complex input.  Each odd 11-smooth f up to a power of two
    >= n gets the least power of two that lifts it to n, so the work grows
    with the count of such f, like (log n)**4 (~35 ms near 1e14, ~1 s near
    1e30), not with the gap to the answer."""
    top = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5, 7, 11):
        odd = [f * p ** k for f in odd for k in range(top.bit_length())
               if f * p ** k <= top]
    return min(f << (-(-n // f) - 1).bit_length() for f in odd)


def _gated_power(amps, masks_s, masks_i, psi, phi, gate, spacing: float,
                 nfft: int) -> np.ndarray:
    """Gated integral of |F_ab|^2 for every signal mask a and idler mask b.

    F_ab = sum_p amps[a, p] convolution(masks_s[a] psi_p, masks_i[b] phi_p)
    with psi_p / phi_p the pair marginals (rows of psi / phi).  Each masked
    marginal takes one FFT zero-padded to nfft: the idler ones at once,
    the signal ones (times their amplitudes) one signal mask at a time,
    each with its pair contraction and inverse transform.  The idler step
    holds the masked idler marginals and their transforms at once, so the
    kernel grows by about (idler masks + 1) * pairs * (N_i + nfft) complex
    values, N_i the idler grid points: within the (signal masks + idler
    masks) * pairs * nfft that `g2_numeric`'s budget counts for a square
    code (86.0 of 113.9 MiB at n = 16, delta 100).
    """
    n_out = psi.shape[1] + phi.shape[1] - 1
    idl = np.fft.fft(masks_i[:, None, :] * phi, nfft)
    rows = (np.fft.ifft(np.einsum("pk,bpk->bk",
                                  np.fft.fft(a[:, None] * m * psi, nfft),
                                  idl))[:, :n_out]
            for a, m in zip(amps, masks_s))
    return spacing ** 3 * np.array([np.abs(f) ** 2 @ gate for f in rows])


def _weight_rows(weights, n: int, what: str) -> np.ndarray:
    """Per-pair weight rows: a vector is one row, None one all-ones row;
    each row is checked against the pair count."""
    w = np.atleast_2d(np.asarray(np.ones(n) if weights is None else weights,
                                 complex))
    if w.ndim != 2:
        raise ValueError(f"{what} must be one weight row or a 2-D array "
                         f"of rows, got {w.ndim} dimensions")
    if w.shape[1] != n:
        raise ValueError(f"{what} length must match the pair count")
    return w


def g2_numeric(spec: MultiplexedSpectrum, bin_width: float,
               grid_s: FrequencyGrid, grid_i: FrequencyGrid,
               encode=None, decode=None, *,
               channel_map: tuple[dict, dict] | None = None,
               acceptance_scale: float = 3.0) -> np.ndarray:
    """g2(0) of every (encode row, decode row) cell through the
    frequency-bin numeric path.

    encode/decode are per-pair weight rows: a vector is one row and None
    one all-ones row (uncoded / all-pass).  The result is the (encode rows
    x decode rows) array, so one cell is [0, 0], and a code's matrix over
    (encode column, decode column) is g2_numeric(spec, w, grid_s, grid_i,
    code.T, matched_decode(code.T)).  Single channel: each encode row
    becomes signal-axis bins centered on each pair's signal frequency and
    each decode row idler bins at delta_p, so both coding stages act
    imperfectly once the bins stop being wide against the mode profiles.
    A channel_map (signal_weights, idler_weights), the two dicts of
    layout.factor_decode, replaces decode by the one factorized bin
    decoder: bin k is centered at k * bin_width with width bin_width, and
    bins absent from a dict are blocked.  Each encode row then stays an
    exact per-pair amplitude row (applied at the source, before
    multiplexing).  The scale is calibrated against the all-ones cell so
    the result is directly comparable to the ideal path.  A bin_width
    below either grid's spacing, or unequal grid spacings, raise
    UnderResolvedGrid.  Every refusal, the FFT budget (GridTooLarge past
    spectra.MAX_GRID_BYTES) included, comes before the first coding mask
    is built; the marginals are built once for all cells.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    # a narrower bin holds one sample or none, and its g2 reads as a
    # contrast the grid cannot resolve
    spacing = max(grid_s.spacing, grid_i.spacing)
    if bin_width < spacing:
        raise UnderResolvedGrid(
            f"coding bins of width {bin_width:.4g} are narrower than the "
            f"grid spacing {spacing:.4g}")
    p, n = spec.params, spec.n_pairs
    encode = _weight_rows(encode, n, "encode")
    if channel_map is not None:
        if decode is not None:
            raise ValueError("give decode or channel_map, not both")
        (sig, sig_w), (idl, idl_w) = (
            ([k * bin_width for k in sorted(w)], [w[k] for k in sorted(w)])
            for w in channel_map)
        rows_s, rows_i, amps = [sig_w] * len(encode), [idl_w], encode
    else:
        sig = [pr.signal_center for pr in spec.pairs]
        idl = [pr.delta_p for pr in spec.pairs]
        rows_s, rows_i = encode, _weight_rows(decode, n, "decode")
        amps = np.ones(encode.shape)   # weights already live in the signal mask
    _require_disjoint_bins(sig, bin_width)
    _require_disjoint_bins(idl, bin_width)
    grid_out = convolution_grid(grid_s, grid_i)
    # the padded length is never shorter, and its search slows like
    # (log n)**4: a convolution no budget admits is checked unpadded
    nfft = (_next_fast_len(grid_out.points) if grid_out.points < 2 ** 53
            else grid_out.points)
    require_grid_memory((len(rows_s) + len(rows_i) + 2) * n * nfft,
                        "the numeric g2 FFTs")
    psi, n_s = map(np.array, zip(*(marginal_signal_mode(pr, p, grid_s)
                                   for pr in spec.pairs)))
    phi, n_i = map(np.array, zip(*(marginal_idler_mode(pr, p, grid_i)
                                   for pr in spec.pairs)))
    gate = acceptance_gate(grid_out, spec, acceptance_scale)
    # each axis's masks, then its all-ones reference mask
    masks_s = coding_bin_mask(sig, [*rows_s, np.ones(len(sig))], bin_width,
                              grid_s)
    masks_i = coding_bin_mask(idl, [*rows_i, np.ones(len(idl))], bin_width,
                              grid_i)
    lam_root = math.sqrt(1.0 / n) * np.array([pr.weight for pr in spec.pairs])
    power = _gated_power(lam_root * np.vstack([amps, np.ones(n)]), masks_s,
                         masks_i, psi, phi, gate, grid_s.spacing, nfft)
    # all-ones reference in closed form: prefactor * M per ridge, summed
    # over ridges and divided by the global 1/(R M) weight -> pref * n / R
    ridges = len({pr.delta_q for pr in spec.pairs})
    ideal_ref = g2_prefactor(n_s[0], n_i[0], p.tau) * n / ridges
    return ideal_ref * power[:-1, :-1] / power[-1, -1]
