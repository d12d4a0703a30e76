"""Acceptance gate: one test per shipped claim, one verdict line each.

Each test prints `ACCEPTANCE criterion-NN: PASS|FAIL (...)` with the
measured numbers before asserting, so the verdicts survive in captured
output even when a criterion genuinely fails.
"""

import time

import numpy as np
import pytest

from biphoton_coding.codes import alamouti_n, make_c
from biphoton_coding.correlation import (
    contrasts,
    contrasts_from_levels,
    g2_matrix_ideal,
    g2_numeric,
    g2_prefactor,
    level_summary,
    matched_decode,
    pair_correlation_kernel,
)
from biphoton_coding.dynamics import (
    DriveParams,
    compare_dynamics,
    dsi_analytic,
    dsi_first_order,
    integrate_eom,
)
from biphoton_coding.errors import CycleDetected
from biphoton_coding.layout import ChannelLayout, dimension, factor_decode, staircase, validate
from biphoton_coding.schmidt import decompose, entropy
from biphoton_coding.spectra import (
    FrequencyGrid,
    MultiplexedSpectrum,
    PairShift,
    PhysicalParams,
    comb_grids,
    marginal_idler_mode,
    marginal_signal_mode,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::biphoton_coding.errors.DegenerateSpectrum")


def ladder_code(n, h):
    return alamouti_n(make_c("linear-h", n, h=h))


def verdict(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def unit_peak_deviation(amp, ref):
    """Sup-norm distance of |amp|^2 and |ref|^2, each scaled to unit peak."""
    x, y = np.abs(amp) ** 2, np.abs(ref) ** 2
    return float(np.max(np.abs(x / x.max() - y / y.max())))


def test_criterion_01_hadamard_reduction():
    t0 = time.time()
    worst_off = 0.0
    ok = True
    for n in (4, 16):
        matrix = g2_matrix_ideal(ladder_code(n, 1.0))
        rep = contrasts(matrix)
        off = matrix[~np.eye(n, dtype=bool)]
        worst_off = max(worst_off, float(np.max(np.abs(off))))
        ok &= rep["v"] == 1.0 and rep["c_od"] == 1.0
    elapsed = time.time() - t0
    ok &= worst_off <= 1e-12 and elapsed < 1.0
    assert verdict("criterion-01", ok,
                   f"V=C_od=1, max mismatch {worst_off:.3g}, {elapsed:.2f}s")


def test_criterion_02_h_inversion_symmetry():
    t0 = time.time()
    worst = 0.0
    for n in (4, 16):
        for h in (1.25, 1.5, 2.0):
            c_fwd = contrasts(g2_matrix_ideal(ladder_code(n, h)))["c_od"]
            c_inv = contrasts(g2_matrix_ideal(ladder_code(n, 1.0 / h)))["c_od"]
            worst = max(worst, abs(c_fwd - c_inv))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert verdict("criterion-02", ok,
                   f"max |C_od(h) - C_od(1/h)| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_03_convolution_identity():
    t0 = time.time()
    params = PhysicalParams()
    grid_s = FrequencyGrid(-407.0, 406.75, 3256)
    grid_i = FrequencyGrid(-105.0, 105.0, 841)
    worst = 0.0
    for dq in (0.0, -30.0):
        pair = PairShift(delta_q=dq)
        grid_out, kernel = pair_correlation_kernel(pair, params, grid_s, grid_i)
        assert grid_out.points == 4096
        _, n_s = marginal_signal_mode(pair, params, grid_s)
        _, n_i = marginal_idler_mode(pair, params, grid_i)
        want = np.exp(-((grid_out.omegas + dq) * params.tau) ** 2 / 8.0) \
            / (n_s * n_i)
        worst = max(worst, float(np.max(np.abs(kernel - want)) * n_s * n_i))
    grid_out, kernel = pair_correlation_kernel(PairShift(), params,
                                               grid_s, grid_i)
    _, n_s = marginal_signal_mode(PairShift(), params, grid_s)
    _, n_i = marginal_idler_mode(PairShift(), params, grid_i)
    g2 = float(np.sum(grid_out.weights * np.abs(kernel) ** 2))
    g2_dev = abs(g2 / g2_prefactor(n_s, n_i, params.tau) - 1.0)
    elapsed = time.time() - t0
    ok = worst < 5e-3 and g2_dev < 5e-3 and elapsed < 5.0
    assert verdict("criterion-03",
                   ok, f"kernel sup dev {worst:.3g}, g2 dev {g2_dev:.3g}, "
                       f"{elapsed:.2f}s")


def test_criterion_04_numeric_matches_ideal_when_resolved():
    t0 = time.time()
    params = PhysicalParams(tau=0.5)
    code = ladder_code(4, 2.0)
    grid_s, grid_i = comb_grids(4, 100.0, params)
    spec = MultiplexedSpectrum.comb(4, 100.0, params)
    numeric = g2_numeric(spec, 100.0, grid_s, grid_i, code.T,
                         matched_decode(code.T))
    _, n_s = marginal_signal_mode(spec.pairs[0], params, grid_s)
    _, n_i = marginal_idler_mode(spec.pairs[0], params, grid_i)
    ideal = g2_matrix_ideal(code, g2_prefactor(n_s, n_i, params.tau))
    # cells below one percent of the peak are held to that floor instead
    # of a relative bound (several ideal cells are exactly zero)
    floor = 0.01 * ideal.max()
    dev = np.where(ideal > floor,
                   np.abs(numeric - ideal) / np.maximum(ideal, 1e-300),
                   np.abs(numeric - ideal) / floor)
    worst = float(dev.max())
    elapsed = time.time() - t0
    ok = worst < 0.01 and elapsed < 60.0
    assert verdict("criterion-04", ok,
                   f"max cell deviation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_05_contrast_grows_with_separation():
    t0 = time.time()
    code = ladder_code(4, 2.0)
    deltas = (5.0, 10.0, 20.0, 50.0, 100.0)
    curves = {}
    for tau in (0.25, 0.4):
        params = PhysicalParams(tau=tau)
        cods = []
        for delta in deltas:
            grid_s, grid_i = comb_grids(4, delta, params)
            spec = MultiplexedSpectrum.comb(4, delta, params)
            matrix = g2_numeric(spec, delta, grid_s, grid_i, code.T,
                                matched_decode(code.T))
            cods.append(contrasts(matrix)["c_od"])
        curves[tau] = cods
    monotone = all(b >= a - 1e-12
                   for curve in curves.values()
                   for a, b in zip(curve, curve[1:]))
    ordered = all(x <= y + 1e-12
                  for x, y in zip(curves[0.25], curves[0.4]))
    elapsed = time.time() - t0
    ok = monotone and ordered and elapsed < 300.0
    assert verdict(
        "criterion-05", ok,
        "tau=0.25: " + "/".join(f"{c:.4f}" for c in curves[0.25])
        + "; tau=0.40: " + "/".join(f"{c:.4f}" for c in curves[0.4])
        + f"; {elapsed:.1f}s")


def test_criterion_06_level_structure_and_scaling():
    t0 = time.time()
    maxima = {}
    ok = True
    detail = []
    for r, m in ((2, 8), (4, 4), (8, 2)):
        code = ladder_code(m, 2.0)
        levels = level_summary(code, r)
        matched_counts = {k for k, _, _ in levels}
        ok &= matched_counts == set(range(r + 1))
        rep = contrasts_from_levels(levels, r)
        ok &= abs(rep["c_non"] - 1.0 / (2 * r - 1)) <= 1e-9
        # per-channel normalization rescales every level by exactly R
        alt = level_summary(code, r, normalization="per_channel")
        ok &= all(abs(a - r * b) <= 1e-9 * max(1.0, abs(a))
                  for (_, a, _), (_, b, _) in zip(alt, levels))
        maxima[(r, m)] = rep["g2_max"]
        detail.append(f"({r},{m}): levels {len(matched_counts)}, "
                      f"gmax {rep['g2_max']:.4f}")
    r1 = maxima[(2, 8)] / maxima[(8, 2)]
    r2 = maxima[(2, 8)] / maxima[(4, 4)]
    r3 = maxima[(4, 4)] / maxima[(8, 2)]
    ratios_ok = (abs(r1 / 4.0 - 1.0) < 0.15 and abs(r2 / 2.0 - 1.0) < 0.15
                 and abs(r3 / 2.0 - 1.0) < 0.15)
    elapsed = time.time() - t0
    ok = ok and ratios_ok and elapsed < 60.0
    assert verdict("criterion-06", ok,
                   "; ".join(detail) + f"; maxima ratio {r1:.3f}:"
                   f"{r3:.3f} vs 4:2; {elapsed:.1f}s")


def test_criterion_07_code_space_dimensions():
    dims = (dimension(staircase(2, 8)), dimension(staircase(4, 4)),
            dimension(staircase(8, 2)))
    ok = dims == (64, 256, 256)
    assert verdict("criterion-07", ok, f"dimensions {dims}")


def test_criterion_08_layout_decodability():
    t0 = time.time()
    lay = staircase(2, 4)
    info = validate(lay)
    ok = info["valid"] and info["dof"] == 1

    rng = np.random.default_rng(3)
    target = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    sig_w, idl_w = factor_decode(lay, target)
    worst = 0.0
    for r in range(1, 3):
        for m in range(1, 5):
            k, kp = lay.placement[(r, m)]
            worst = max(worst, abs(sig_w[k] * idl_w[kp] - target[r - 1, m - 1]))
    worst /= float(np.abs(target).max())
    ok &= worst < 1e-12

    cycle_placement = {(1, 1): (1, 1), (1, 2): (2, 2),
                       (2, 1): (1, 2), (2, 2): (2, 1)}
    try:
        validate(ChannelLayout(r=2, m=2, placement=cycle_placement))
        cycle_ok = False
    except CycleDetected:
        cycle_ok = True
    elapsed = time.time() - t0
    ok = ok and cycle_ok and elapsed < 1.0
    assert verdict("criterion-08", ok,
                   f"dof {info['dof']}, round-trip {worst:.3g}, "
                   f"cycle rejected {cycle_ok}, {elapsed:.2f}s")


def test_criterion_09_schmidt_weights():
    t0 = time.time()
    grid = FrequencyGrid(-400.0, 400.0, 512)
    ws, wi = grid.omegas[:, None], grid.omegas[None, :]

    separable = np.exp(-ws ** 2 / 50.0) * np.exp(-wi ** 2 / 18.0)
    s_sep = entropy(decompose(separable, grid, grid))

    f = sum(np.exp(-((ws - c) ** 2 + (wi - c) ** 2) / 128.0)
            for c in (-300.0, -100.0, 100.0, 300.0))
    d = decompose(f, grid, grid)
    lam_dev = float(np.max(np.abs(d.lambdas[:4] - 0.25))) / 0.25
    sum_dev = abs(float(np.sum(d.lambdas)) - 1.0)
    elapsed = time.time() - t0
    ok = s_sep < 1e-4 and lam_dev < 0.01 and sum_dev < 1e-8 and elapsed < 30.0
    assert verdict("criterion-09", ok,
                   f"separable S {s_sep:.3g}, max |lambda - 1/4| rel "
                   f"{lam_dev:.3g}, sum dev {sum_dev:.3g}, {elapsed:.1f}s")


def test_criterion_10_dynamics_against_closed_form():
    t0 = time.time()
    drive = DriveParams()  # detunings 50, unit drive weights, tau = 0.5
    grid_s = FrequencyGrid(-8.0, 8.0, 32)
    grid_i = FrequencyGrid(-10.0, 10.0, 32)
    # compare_dynamics checks convergence and gives the deviation from the
    # Delta -> infinity form, which only promises 3 sqrt(2) e^{-1/2}/(Delta
    # tau) ~ 0.10 here; the 5% gate holds the first-order form instead
    rep = compare_dynamics(drive, grid_s, grid_i)
    zeroth_dev = rep["max_deviation"]
    ws, wi = grid_s.omegas[:, None], grid_i.omegas[None, :]
    first = dsi_first_order(drive, ws, wi)
    numeric = integrate_eom(drive, grid_s, grid_i)[1][-1]
    shape_dev = unit_peak_deviation(numeric, first)
    shape_ok = shape_dev < 0.05
    predicted = unit_peak_deviation(dsi_analytic(drive, ws, wi), first)
    zeroth_ok = abs(zeroth_dev - predicted) < 0.005

    tiny = FrequencyGrid(-4.0, 4.0, 3)
    window = np.linspace(-drive.tau / 8.0, drive.tau / 8.0, 33)
    y, _ = integrate_eom(drive, tiny, tiny, window)
    dev_a = dev_b = 0.0
    for t, a_amp, b_amp in zip(window, y[:, 1], y[:, 2]):
        om_a, om_b = (w * drive.envelope(t)
                      for w in (drive.omega_a_tilde, drive.omega_b_tilde))
        a_ref = -om_a / (2.0 * drive.delta1)
        b_ref = om_a * om_b / (4.0 * drive.delta1 * drive.delta2)
        dev_a = max(dev_a, abs(a_amp - a_ref) / abs(a_ref))
        dev_b = max(dev_b, abs(b_amp - b_ref) / abs(b_ref))
    track_ok = dev_a < 0.05 and dev_b < 0.05

    peaks = {}
    for oa, ob in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
        d = DriveParams(omega_a_tilde=oa, omega_b_tilde=ob)
        peaks[(oa, ob)] = float(np.max(np.abs(
            integrate_eom(d, tiny, tiny)[1])))
    s21 = peaks[(2.0, 1.0)] / (2.0 * peaks[(1.0, 1.0)])
    s22 = peaks[(2.0, 2.0)] / (4.0 * peaks[(1.0, 1.0)])
    scale_ok = abs(s21 - 1.0) < 0.01 and abs(s22 - 1.0) < 0.01

    elapsed = time.time() - t0
    ok = shape_ok and zeroth_ok and track_ok and scale_ok and elapsed < 300.0
    assert verdict(
        "criterion-10", ok,
        f"|D|^2 shape dev {shape_dev:.4f} from first order (gate 0.05), "
        f"{zeroth_dev:.4f} from zeroth order (predicted {predicted:.4f}), "
        f"A/B tracking {dev_a:.4f}/{dev_b:.4f}, drive-product scaling "
        f"{s21:.6f}/{s22:.6f}, {elapsed:.1f}s"), (
        f"|D|^2 shape deviation {shape_dev:.4f} from the first-order form "
        f"against the 0.05 gate; zeroth-order deviation {zeroth_dev:.4f} "
        f"against its predicted truncation {predicted:.4f} (within 0.005)")
