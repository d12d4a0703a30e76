"""Cascade amplitude integration against the adiabatic closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from biphoton_coding.errors import GridTooLarge, NotConverged, ValidityWarning
from biphoton_coding.spectra import (FrequencyGrid, MultiplexedSpectrum,
                                     PairShift, PhysicalParams, jsa_multiplexed)

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
    assert d.omega_a_tilde * d.envelope(1.0) == pytest.approx(peak)
    assert d.omega_a_tilde * d.envelope(1.5) == pytest.approx(
        peak * math.exp(-1.0))
    assert d.omega_b_tilde * d.envelope(1.0) == pytest.approx(peak / 2.0)


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
    """sum_j |C_j|^2, the one-signal-photon sector, at each time."""
    return np.sum(np.abs(y[:, 3:]) ** 2, axis=1)


def test_norm_conserved_without_decay():
    # 6 tau after the pulse center B is gone, so without decay C stops
    # changing
    d = DriveParams(gamma3n=1e-12)
    t1 = d.pulse_center + 6.0 * d.tau
    y, _ = integrate_eom(d, TINY_S, TINY_I, [t1, t1 + 2.0, t1 + 10.0])
    norms = _sector_norm(y)
    assert norms[0] > 0.0
    assert np.allclose(norms, norms[0], rtol=1e-9, atol=0.0)


def test_sector_norm_monotone_with_decay():
    # after the pulse each C_j only decays at the collective rate:
    # |C_j(t2)| = |C_j(t1)| e^{-gamma3n (t2 - t1) / 2} for t1 >= t0 + 6 tau.
    # What B has left (5e-17) moves C by up to 3.4e-8 of itself once C
    # has decayed by e^{-7.5}
    d = DriveParams()
    t_eval = np.linspace(d.pulse_center + 6.0 * d.tau, default_t_final(d), 20)
    y, _ = integrate_eom(d, TINY_S, TINY_I, t_eval)
    c = np.abs(y[:, 3:])
    decay = np.exp(-d.gamma3n * (t_eval - t_eval[0]) / 2.0)
    assert np.allclose(c, c[0] * decay[:, None], rtol=1e-6, atol=0.0)
    assert np.all(np.diff(_sector_norm(y)) < 0.0)


def _signed(lo, hi):
    return st.builds(lambda x, sign: sign * x, st.floats(lo, hi),
                     st.sampled_from([-1.0, 1.0]))


# strong drives included: unitarity does not need the adiabatic limit
@pytest.mark.filterwarnings("ignore::biphoton_coding.errors.ValidityWarning")
@settings(max_examples=25, deadline=None, derandomize=True)
@given(om_a=_signed(0.0, 5.0), om_b=_signed(0.0, 5.0),
       delta1=_signed(3.0, 300.0), delta2=_signed(3.0, 300.0),
       tau=st.floats(0.1, 2.0), pulse_center=st.floats(-3.0, 3.0),
       lamb_shift=st.floats(-5.0, 5.0))
def test_closed_block_is_unitary(om_a, om_b, delta1, delta2, tau,
                                 pulse_center, lamb_shift):
    # (eps, A, B) evolves under i times a Hermitian matrix and emission
    # does not act back on it, so its norm stays 1 at every time.  Every
    # Magnus step is exp(i K) with K Hermitian, unitary to rounding, so
    # the bound is rounding accumulated over a window's ~10^4 steps: the
    # worst of 60 draws from this strategy was 9.7e-13
    d = DriveParams(omega_a_tilde=om_a, omega_b_tilde=om_b, delta1=delta1,
                    delta2=delta2, tau=tau, pulse_center=pulse_center,
                    lamb_shift=lamb_shift)
    t_start = pulse_center - 6.0 * tau
    t_eval = np.linspace(t_start, default_t_final(d), 25)
    y, _ = integrate_eom(d, TINY_S, TINY_I, t_eval)
    norms = np.sum(np.abs(y[:, :3]) ** 2, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-11


def test_adiabatic_tracking_near_pulse_center():
    # steady-state forms -Omega_a/(2 Delta1) and
    # Omega_a Omega_b/(4 Delta1 Delta2) hold to first order in 1/Delta
    # close to the envelope peak, where the drive derivative is small
    d = DriveParams()
    window = np.linspace(-d.tau / 8.0, d.tau / 8.0, 33)
    y, _ = integrate_eom(d, TINY_S, TINY_I, window)
    dev_a = dev_b = 0.0
    for t, a_amp, b_amp in zip(window, y[:, 1], y[:, 2]):
        om_a, om_b = (w * d.envelope(t)
                      for w in (d.omega_a_tilde, d.omega_b_tilde))
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
        om_a, om_b = (w * d.envelope(t)
                      for w in (d.omega_a_tilde, d.omega_b_tilde))
        return om_a * om_b / (4.0 * d.delta1 * d.delta2)

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
    ratio = dsi_analytic(d, ws, wi) / jsa_multiplexed(
        MultiplexedSpectrum(params=params, pairs=(PairShift(),)), ws, wi)
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
    for oa, ob in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1e-12, 1.0)):
        d = DriveParams(omega_a_tilde=oa, omega_b_tilde=ob)
        _, dsi = integrate_eom(d, TINY_S, TINY_I)
        peaks[(oa, ob)] = float(np.max(np.abs(dsi)))
    assert peaks[(2.0, 1.0)] / peaks[(1.0, 1.0)] == pytest.approx(2.0, rel=0.01)
    assert peaks[(2.0, 2.0)] / peaks[(1.0, 1.0)] == pytest.approx(4.0, rel=0.01)
    # a faint drive: B peaks near 1e-16, and no absolute tolerance hides it
    assert peaks[(1e-12, 1.0)] / (1e-12 * peaks[(1.0, 1.0)]) \
        == pytest.approx(1.0, rel=0.01)


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
    t_eval time, shape (len(t_eval), ns, ni)."""
    from scipy.integrate import solve_ivp

    ws, wi = grid_s.omegas, grid_i.omegas
    ns, ni = len(ws), len(wi)
    decay = drive.gamma3n / 2.0 - 1j * drive.lamb_shift

    def rhs(t, y):
        eps, a, b = y[0], y[1], y[2]
        c = y[3:3 + ns]
        om_a = drive.omega_a_tilde * drive.envelope(t)
        om_b = drive.omega_b_tilde * drive.envelope(t)
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
    # to default_t_final (6.0 here), in one pass over the quadrature nodes
    calls = []
    solve = dynamics.solve_ivp

    def recording(hamiltonian, t, y0):
        calls.append(t)
        return solve(hamiltonian, t, y0)

    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    d = DriveParams()
    window = np.linspace(-d.tau / 8.0, d.tau / 8.0, 33)
    integrate_eom(d, TINY_S, TINY_I, t_eval=window)
    assert len(calls) == 1
    assert calls[0][0] == d.pulse_center - 6.0 * d.tau
    assert calls[0][-1] == window[-1]


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


def _hermitian(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return (a + a.conj().T) / 2.0


def test_solve_ivp_matches_the_commuting_closed_form():
    # H(t) = f(t) M commutes with itself at all times, so
    # y(t) = exp(i F(t) M) y0 with F' = f; nfev counts every H evaluated
    m = _hermitian(np.random.default_rng(7))
    lam, v = np.linalg.eigh(m)
    evaluated = []

    def hamiltonian(t):
        evaluated.append(len(t))
        return (2.0 + np.cos(3.0 * t))[:, None, None] * m

    t = np.linspace(0.0, 10.0, 41)
    y0 = np.array([1.0, 0.5j, -0.25])
    sol = solve_ivp(hamiltonian, t, y0)
    phase = np.exp(1j * np.outer(2.0 * t + np.sin(3.0 * t) / 3.0, lam))
    want = (v * phase[:, None, :]) @ v.conj().T @ y0
    assert sol.y.shape == (41, 3) and np.all(sol.y[0] == y0)
    assert float(np.max(np.abs(sol.y - want))) < 1e-8
    assert sol.nfev == sum(evaluated)


def test_solve_ivp_matches_dop853_on_a_driven_three_level_system():
    # a pulse that moves a third of the population to the upper level,
    # where the commutator term of each step counts
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    h_free = np.diag([0.0, 8.0, -3.0])
    coupling = np.array([[0.0, 10.0, 0.0], [10.0, 0.0, 7.0], [0.0, 7.0, 0.0]])

    def hamiltonian(t):
        return h_free + np.exp(-np.asarray(t) ** 2)[..., None, None] * coupling

    t = np.linspace(-4.0, 4.0, 161)
    y0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    ref = scipy_solve_ivp(lambda s, y: 1j * hamiltonian(s) @ y, (-4.0, 4.0),
                          y0, method="DOP853", t_eval=t, rtol=1e-12,
                          atol=1e-14)
    got = solve_ivp(hamiltonian, t, y0).y
    assert abs(got[-1, 2]) ** 2 > 0.3
    assert float(np.max(np.abs(got - ref.y.T))) < 1e-8
