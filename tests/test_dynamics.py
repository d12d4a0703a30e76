"""Cascade amplitude integration against the adiabatic closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from biphoton_coding import dynamics, spectra
from biphoton_coding.dynamics import (
    DriveParams,
    compare_dynamics,
    default_t_final,
    dsi_analytic,
    dsi_first_order,
    integrate_eom,
    solve_ivp,
)
from biphoton_coding.errors import (GridTooLarge, NotConverged, StepFailure,
                                    ValidityWarning)
from biphoton_coding.spectra import FrequencyGrid, PhysicalParams, jsa_single

TINY_S = FrequencyGrid(-4.0, 4.0, 3)
TINY_I = FrequencyGrid(-4.0, 4.0, 3)


def test_zero_drive_stays_in_vacuum():
    y, d = integrate_eom(DriveParams(omega_a_tilde=0.0), TINY_S, TINY_I)
    assert y.shape == (1, 3 + TINY_S.points)
    assert d.shape == (1, TINY_S.points, TINY_I.points)
    assert y[0, 0] == 1.0 and float(np.max(np.abs(y[0, 1:]))) == 0.0
    assert float(np.max(np.abs(d))) == 0.0
    rep = compare_dynamics(DriveParams(omega_a_tilde=0.0), TINY_S, TINY_I)
    assert rep["note"] == "no biphoton generated"


def test_pulse_shape():
    d = DriveParams(omega_a_tilde=2.0, tau=0.5, pulse_center=1.0)
    peak = 2.0 / (math.sqrt(math.pi) * 0.5)
    assert d.pulse_a(1.0) == pytest.approx(peak)
    assert d.pulse_a(1.5) == pytest.approx(peak * math.exp(-1.0))
    assert d.pulse_b(1.0) == pytest.approx(peak / 2.0)


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", -0.5), ("tau", math.nan), ("gamma3n", 0.0),
    ("gamma3n", -5.0), ("delta1", 0.0), ("delta2", 0.0),
    ("omega_a_tilde", math.inf), ("g_s", math.nan)])
def test_drive_params_rejects_bad_fields(field, value):
    with pytest.raises(ValueError):
        DriveParams(**{field: value})


def test_default_t_final():
    d = DriveParams(pulse_center=2.0, tau=0.25, gamma3n=5.0)
    assert default_t_final(d) == pytest.approx(2.0 + 2.0 + 2.0)


def _sector_norm(y):
    """|eps|^2 + |A|^2 + |B|^2 + sum |C|^2 at each time."""
    return np.sum(np.abs(y) ** 2, axis=1)


def test_norm_conserved_without_decay():
    y, _ = integrate_eom(DriveParams(gamma3n=1e-12), TINY_S, TINY_I, [3.0])
    assert _sector_norm(y)[-1] == pytest.approx(1.0, abs=1e-8)


def test_sector_norm_monotone_with_decay():
    d = DriveParams()
    t_eval = np.linspace(-3.0, default_t_final(d), 200)
    y, dsi = integrate_eom(d, TINY_S, TINY_I, t_eval)
    norms = _sector_norm(y)
    assert float(np.max(np.diff(norms))) < 1e-10
    assert norms[-1] + float(np.sum(np.abs(dsi[-1]) ** 2)) <= 1.0 + 1e-10


def test_adiabatic_tracking_near_pulse_center():
    # steady-state forms -Omega_a/(2 Delta1) and
    # Omega_a Omega_b/(4 Delta1 Delta2) hold to first order in 1/Delta
    # close to the envelope peak, where the drive derivative is small
    d = DriveParams()
    window = np.linspace(-d.tau / 8.0, d.tau / 8.0, 33)
    y, _ = integrate_eom(d, TINY_S, TINY_I, window)
    dev_a = dev_b = 0.0
    for t, a_amp, b_amp in zip(window, y[:, 1], y[:, 2]):
        om_a, om_b = d.pulse_a(t), d.pulse_b(t)
        a_ref = -om_a / (2.0 * d.delta1)
        b_ref = om_a * om_b / (4.0 * d.delta1 * d.delta2)
        dev_a = max(dev_a, abs(a_amp - a_ref) / abs(a_ref))
        dev_b = max(dev_b, abs(b_amp - b_ref) / abs(b_ref))
    assert dev_a < 0.05
    assert dev_b < 0.05


def test_c_amplitude_matches_driven_decay_quadrature():
    from scipy.integrate import quad

    d = DriveParams(delta1=500.0, delta2=500.0)
    grid = FrequencyGrid(-6.0, 6.0, 5)
    t_final = default_t_final(d)
    c_amp = integrate_eom(d, grid, grid, [t_final])[0][-1, 3:]

    def b_adiabatic(t):
        return d.pulse_a(t) * d.pulse_b(t) / (4.0 * d.delta1 * d.delta2)

    c_scale = float(np.max(np.abs(c_amp)))
    for k, dws in enumerate(grid.omegas):
        def integrand(t, dws=dws):
            return (np.exp(1j * dws * t)
                    * np.exp(-d.gamma3n / 2.0 * (t_final - t))
                    * b_adiabatic(t))
        re = quad(lambda t: integrand(t).real, -3.0, t_final, limit=400)[0]
        im = quad(lambda t: integrand(t).imag, -3.0, t_final, limit=400)[0]
        closed = d.g_s * (re + 1j * im)
        assert abs(c_amp[k] - closed) < 0.01 * c_scale


def test_biphoton_kernel_proportional_to_jsa():
    d = DriveParams()
    params = PhysicalParams(gamma3n=d.gamma3n, tau=d.tau)
    ws = np.linspace(-6.0, 6.0, 41)[:, None]
    wi = np.linspace(-9.0, 9.0, 37)[None, :]
    ratio = dsi_analytic(d, ws, wi) / jsa_single(params, ws, wi)
    r0 = ratio.flat[0]
    assert float(np.max(np.abs(ratio - r0))) < 1e-10 * abs(r0)


def test_biphoton_kernel_halves_at_half_linewidth():
    d = DriveParams()
    peak = abs(dsi_analytic(d, 0.0, 0.0)) ** 2
    for wi in (d.gamma3n / 2.0, -d.gamma3n / 2.0):
        assert abs(dsi_analytic(d, -wi, wi)) ** 2 / peak == pytest.approx(0.5)


def _unit_peak_deviation(amp, ref):
    x, y = np.abs(amp) ** 2, np.abs(ref) ** 2
    return float(np.max(np.abs(x / x.max() - y / y.max())))


def test_first_order_equals_analytic_at_zero_sum_frequency():
    d = DriveParams(delta1=40.0, delta2=70.0, pulse_center=0.3)
    wi = np.linspace(-9.0, 9.0, 19)
    assert np.allclose(dsi_first_order(d, -wi, wi), dsi_analytic(d, -wi, wi),
                       rtol=1e-14, atol=0.0)


def test_first_order_tends_to_analytic_with_detuning():
    ws = np.linspace(-8.0, 8.0, 17)[:, None]
    wi = np.linspace(-10.0, 10.0, 21)[None, :]
    gaps = []
    for delta in (50.0, 500.0, 5000.0):
        d = DriveParams(delta1=delta, delta2=delta)
        ref = dsi_analytic(d, ws, wi)
        gap = np.abs(dsi_first_order(d, ws, wi) - ref) / np.abs(ref).max()
        gaps.append(float(gap.max()))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    assert gaps[1] / gaps[0] == pytest.approx(0.1, rel=0.1)


def test_first_order_matches_integrated_shape():
    # the criterion-10 grid; the bound rejects a form with only the
    # (Delta2 + s) denominator (0.034) and one with the opposite sign (0.20)
    d = DriveParams()
    gs = FrequencyGrid(-8.0, 8.0, 32)
    gi = FrequencyGrid(-10.0, 10.0, 32)
    ws, wi = gs.omegas[:, None], gi.omegas[None, :]
    numeric = integrate_eom(d, gs, gi)[1][-1]
    assert _unit_peak_deviation(numeric, dsi_first_order(d, ws, wi)) < 0.005
    s = ws + wi
    only_b = dsi_analytic(d, ws, wi) * d.delta2 / (d.delta2 + s)
    opposite = dsi_analytic(d, ws, wi) * d.delta1 * d.delta2 \
        / ((d.delta1 - s / 2.0) * (d.delta2 - s))
    assert _unit_peak_deviation(numeric, only_b) > 0.005
    assert _unit_peak_deviation(numeric, opposite) > 0.005


def test_numeric_biphoton_factorizes_along_ridge():
    # D always splits into a sum-frequency factor times the idler
    # Lorentzian; dividing the Lorentzian out must collapse the surface
    # onto a single curve in the sum detuning
    d = DriveParams()
    gs = FrequencyGrid(-8.0, 8.0, 17)
    gi = FrequencyGrid(-10.0, 10.0, 21)
    _, dsi = integrate_eom(d, gs, gi)
    ridge = dsi[-1] * (d.gamma3n / 2.0 - 1j * gi.omegas)[None, :]
    buckets = {}
    for i in range(gs.points):
        for j in range(gi.points):
            key = round(float(gs.omegas[i] + gi.omegas[j]), 9)
            buckets.setdefault(key, []).append(ridge[i, j])
    scale = max(abs(v) for vs in buckets.values() for v in vs)
    for vs in buckets.values():
        arr = np.array(vs)
        assert float(np.max(np.abs(arr - arr.mean()))) < 1e-5 * scale


def test_peak_scales_as_drive_product():
    peaks = {}
    for oa, ob in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
        d = DriveParams(omega_a_tilde=oa, omega_b_tilde=ob)
        _, dsi = integrate_eom(d, TINY_S, TINY_I)
        peaks[(oa, ob)] = float(np.max(np.abs(dsi)))
    assert peaks[(2.0, 1.0)] / peaks[(1.0, 1.0)] == pytest.approx(2.0, rel=0.01)
    assert peaks[(2.0, 2.0)] / peaks[(1.0, 1.0)] == pytest.approx(4.0, rel=0.01)


def test_deviation_shrinks_with_detuning():
    # the residual shape error of the closed form is the first
    # adiabatic correction, so doubling both detunings should halve it
    gs = FrequencyGrid(-8.0, 8.0, 12)
    gi = FrequencyGrid(-10.0, 10.0, 12)
    devs = []
    for delta in (50.0, 100.0, 200.0):
        rep = compare_dynamics(DriveParams(delta1=delta, delta2=delta), gs, gi)
        assert rep["converged"]
        devs.append(rep["max_deviation"])
    assert devs[0] > devs[1] > devs[2]
    assert devs[1] / devs[0] == pytest.approx(0.5, abs=0.15)


def test_compare_peaks_agree():
    rep = compare_dynamics(DriveParams(), TINY_S, TINY_I)
    assert rep["peak_numeric"] == pytest.approx(rep["peak_analytic"], rel=0.05)


def test_weak_drive_warning():
    d = DriveParams(omega_a_tilde=10.0, tau=0.1)
    with pytest.warns(ValidityWarning):
        integrate_eom(d, TINY_S, TINY_I, [1.0])


def reference_eom(drive, grid_s, grid_i, t_final, t_eval, rtol=1e-8,
                  atol=1e-12):
    """D on the full 3 + ns + ns*ni system, every D_jk an ODE unknown with
    D_jk' = g_i e^{i w_ik t} C_j.  Kept as the independent oracle for the
    closed-sector integration with D by quadrature; returns D at each
    t_eval time, shape (len(t_eval), ns, ni).  The default tolerances are
    those of `integrate_eom`."""
    from scipy.integrate import solve_ivp

    ws, wi = grid_s.omegas, grid_i.omegas
    ns, ni = len(ws), len(wi)
    decay = drive.gamma3n / 2.0 - 1j * drive.lamb_shift

    def rhs(t, y):
        eps, a, b = y[0], y[1], y[2]
        c = y[3:3 + ns]
        om_a = drive.pulse_a(t)
        om_b = drive.pulse_b(t)
        phase_s = np.exp(1j * ws * t)
        deps = 0.5j * np.conj(om_a) * a
        da = 1j * (0.5 * om_a * eps + drive.delta1 * a + 0.5 * np.conj(om_b) * b)
        db = 1j * (0.5 * om_b * a + drive.delta2 * b) \
            - drive.g_s * np.sum(np.conj(phase_s) * c)
        dc = drive.g_s * phase_s * b - decay * c
        dd = drive.g_i * c[:, None] * np.exp(1j * wi * t)[None, :]
        return np.concatenate(([deps, da, db], dc, dd.ravel()))

    y0 = np.zeros(3 + ns + ns * ni, dtype=complex)
    y0[0] = 1.0
    t_start = drive.pulse_center - 6.0 * drive.tau
    sol = solve_ivp(rhs, (t_start, t_final), y0, method="DOP853",
                    t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[3 + ns:].T.reshape(len(t_eval), ns, ni)


@pytest.mark.parametrize("delta", [50.0, 200.0])
@pytest.mark.parametrize("t_final", [None, 30.0])
@pytest.mark.parametrize("shifts", [
    {}, {"lamb_shift": 1.3, "pulse_center": 0.7}])
def test_quadrature_matches_full_system(delta, t_final, shifts):
    d = DriveParams(delta1=delta, delta2=delta, **shifts)
    gs = FrequencyGrid(-8.0, 8.0, 12)
    gi = FrequencyGrid(-10.0, 10.0, 14)
    if t_final is None:
        t_final = default_t_final(d)
    # the two times compare_dynamics reads for its drift check
    t_eval = [t_final - 1.0, t_final]
    want = reference_eom(d, gs, gi, t_final, t_eval)
    _, got = integrate_eom(d, gs, gi, t_eval)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) < 1e-7 * scale


def test_quadrature_resolves_a_wide_long_window():
    # t_final 100 and an idler span of +-100: nodes spaced by the time span
    # alone (2,001 over [t_start, t]) alias the pair ridge into a ghost
    # ~1/3 of the peak amplitude near w_i ~ pi/spacing
    d = DriveParams()
    gs = FrequencyGrid(-8.0, 8.0, 12)
    gi = FrequencyGrid(-100.0, 100.0, 41)
    t_eval = [99.0, 100.0]
    # |D| peaks at ~3e-11; at atol 1e-12 the oracle's own D is off by
    # ~2e-4 of that after 100 time units, so it runs far tighter here
    want = reference_eom(d, gs, gi, 100.0, t_eval, rtol=1e-12, atol=1e-20)
    _, got = integrate_eom(d, gs, gi, t_eval)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) < 1e-7 * scale


def test_t_eval_contract():
    d = DriveParams()
    t_start = d.pulse_center - 6.0 * d.tau
    t_eval = np.array([t_start, 0.0, 2.5, default_t_final(d)])
    y, dsi = integrate_eom(d, TINY_S, TINY_I, t_eval)
    assert y.shape == (4, 3 + TINY_S.points)
    assert dsi.shape == (4, TINY_S.points, TINY_I.points)
    # no time has passed: the vacuum, and no pair has been emitted
    assert y[0, 0] == 1.0 and np.all(y[0, 1:] == 0.0)
    assert np.all(dsi[0] == 0.0)
    assert float(np.max(np.abs(dsi[-1]))) > 0.0
    # each d[k] is D at its own time, as a window ending there gives it,
    # not the running sum of a later time
    _, alone = integrate_eom(d, TINY_S, TINY_I, [0.0, 2.5])
    scale = float(np.max(np.abs(alone)))
    assert float(np.max(np.abs(dsi[1:3] - alone))) < 1e-6 * scale
    for bad in ([], [0.0, -1.0], [0.0, 0.0], [t_start - 0.1, 0.0]):
        with pytest.raises(ValueError):
            integrate_eom(d, TINY_S, TINY_I, bad)
    with pytest.raises(ValueError, match="precede the start -3"):
        integrate_eom(d, TINY_S, TINY_I, [-10.0])


def test_integration_stops_at_the_last_requested_time(monkeypatch):
    # a window that ends inside the pulse is integrated to its end, not on
    # to default_t_final (6.0 here)
    spans = []
    solve = dynamics.solve_ivp

    def recording(fun, t_span, y0):
        spans.append(t_span)
        return solve(fun, t_span, y0)

    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    d = DriveParams()
    window = np.linspace(-d.tau / 8.0, d.tau / 8.0, 33)
    integrate_eom(d, TINY_S, TINY_I, t_eval=window)
    assert spans == [(d.pulse_center - 6.0 * d.tau, window[-1])]


def test_pair_amplitude_budget_counts_every_time(monkeypatch):
    # d holds one D per requested time and the running sum one more: on an
    # 8 x 2,000 grid (0.24 MiB per D) two times hold 0.73 MiB and fit a
    # 1 MiB budget, four hold 1.22 MiB and are refused before integrating
    def no_solver(*args):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", 2 ** 20)
    monkeypatch.setattr(dynamics, "solve_ivp", no_solver)
    d = DriveParams()
    gs, gi = FrequencyGrid(-4.0, 4.0, 8), FrequencyGrid(-4.0, 4.0, 2000)
    with pytest.raises(AssertionError, match="solver was called"):
        integrate_eom(d, gs, gi, [0.5, 1.0])
    with pytest.raises(GridTooLarge,
                       match="pair amplitudes D would take 1.221 MiB"):
        integrate_eom(d, gs, gi, [0.25, 0.5, 0.75, 1.0])


def test_not_converged_when_stopped_inside_pulse():
    with pytest.raises(NotConverged):
        compare_dynamics(DriveParams(), TINY_S, TINY_I, t_final=0.5)


def _driven_pair():
    # y0' = (i w - g) y0 + e^{i nu t} has the closed form below; y1' = -50 y1
    # decays so fast that, once it is gone, the step size sits at the
    # method's stability limit and steps keep being rejected
    lam, nu, fast = 2j - 0.3, 5j, 50.0

    def fun(t, y):
        return np.array([lam * y[0] + np.exp(nu * t), -fast * y[1]])

    def exact(t):
        t = np.asarray(t, dtype=float)
        return np.array([np.exp(lam * t)
                         + (np.exp(nu * t) - np.exp(lam * t)) / (nu - lam),
                         np.exp(-fast * t) + 0j])

    return fun, exact


def test_stepper_matches_closed_form():
    fun, exact = _driven_pair()
    t_eval = np.linspace(0.0, 10.0, 7)
    sol = solve_ivp(fun, (0.0, 10.0), exact(0.0))
    # after the two start-up calls every attempted step makes 6 new calls
    steps = len(sol.ts) - 1
    assert (sol.nfev - 2) // 6 > steps
    scale = float(np.max(np.abs(exact(np.linspace(0.0, 10.0, 1001)))))
    assert sol.ts[0] == 0.0 and sol.ts[-1] == 10.0
    assert float(np.max(np.abs(sol(t_eval) - exact(t_eval)))) < 1e-7 * scale
    # the dense output inside every step, not only at its ends
    ts = sol.ts
    inside = (ts[:-1, None] + np.diff(ts)[:, None] * [0.2, 0.5, 0.9]).ravel()
    assert float(np.max(np.abs(sol(inside) - exact(inside)))) < 1e-7 * scale


def test_stepper_takes_the_rk45_steps():
    # the same tableau and step control as scipy's RK45, so the same
    # steps to rounding.  A stage buffer reused as the next step's first
    # derivative without a copy agrees with the closed form to ~2e-8 still,
    # but restarts each rejected step from the wrong slope and drifts here
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    fun, exact = _driven_pair()
    t_eval = np.linspace(0.0, 10.0, 7)
    sol = solve_ivp(fun, (0.0, 10.0), exact(0.0))
    ref = scipy_solve_ivp(fun, (0.0, 10.0), exact(0.0), method="RK45",
                          t_eval=t_eval, rtol=1e-8, atol=1e-16,
                          dense_output=True)
    assert sol.nfev == ref.nfev
    assert len(sol.ts) == len(ref.sol.ts)
    assert float(np.max(np.abs(sol.ts - ref.sol.ts))) < 1e-8
    assert float(np.max(np.abs(sol(t_eval) - ref.y))) < 1e-12


def test_stepper_fails_at_a_singularity():
    # y = 1 / (1 - t) blows up at t = 1: the step shrinks to rounding level
    with pytest.raises(StepFailure):
        solve_ivp(lambda t, y: y ** 2, (0.0, 2.0), np.ones(1))


def test_stepper_counts_its_dense_output_against_the_budget(monkeypatch):
    # a long window keeps every step; each holds five state-sized arrays
    # (the start state and four interpolation coefficients), here 5 * 100
    # complex values, so a 1 MiB budget is passed at step 132
    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", 2 ** 20)
    with pytest.raises(GridTooLarge, match="dense output at step 132 "):
        solve_ivp(lambda t, y: 1j * y, (0.0, 1000.0), np.ones(100, complex))
    # the same problem over a short window stays inside it
    assert solve_ivp(lambda t, y: 1j * y, (0.0, 1.0),
                     np.ones(100, complex)).ts[-1] == 1.0


def test_stepper_holds_its_steps_once():
    # 321 steps of a 2,000-state oscillator keep 49 MiB of dense output;
    # stacking per-step lists into arrays at the end held them twice
    # (98 MiB peak), where a buffer grown in place holds them once
    tracemalloc.start()
    try:
        sol = solve_ivp(lambda t, y: 1j * y, (0.0, 30.0),
                        np.ones(2000, complex))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sol.ts) == 322
    stored = sol._ys.nbytes + sol._qs.nbytes
    assert peak <= 1.25 * stored
