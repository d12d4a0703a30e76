"""Cascade equations of motion and the closed-form pair amplitude.

The driven cascade to first order in the emission couplings, with the
mu-indexed atomic sums collapsed to one collective mode (phase-matching
sum 1).  Vacuum eps, intermediate A and upper B evolve as y' = i H(t) y
with H Hermitian, integrated by the embedded Dormand-Prince 5(4) pair
below on numpy alone.  The one-signal-photon amplitudes C_j and the pair
amplitudes D_jk on the signal x idler grid are closed-form transforms of
B, summed in one Simpson pass over the integrator's dense output.

Emission does not act back on B.  The full system's back-action
-g_s sum_j e^{-i w_sj t} C_j is, on a discrete signal grid, an artificial
decay at rate ~2 pi g_s^2 / (mode spacing); leaving it out moves D by at
most 3.7e-8 of its peak at the default g_s = g_i = 1e-3, against the full
system integrated by scipy (`reference_eom` in the tests).  D is a
one-way probe of the emitted idler field: C already decays at the
collective rate gamma3n/2, which *is* the idler emission, so letting a
truncated D grid drain C as well would count that decay twice.

All rates in units of gamma, like the rest of the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .errors import NotConverged, StepFailure, ValidityWarning
from .spectra import MAX_GRID_BYTES, FrequencyGrid, require_grid_memory


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6(1), 1980;
# Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6): stage nodes _C and
# coefficients _A, whose last row is the fifth-order solution, so the last
# stage is the next step's first derivative; _E, the fifth- minus the
# fourth-order weights, estimates the local error; and _P, the quartic
# continuous extension y(t + x h) = y + h sum_j x^j (K^T _P)_j.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
               -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


# error-per-step tolerances; B, which C and D are transforms of, peaks
# near 1e-4 and its tail is far smaller, so an atol near it would hide it
# from the step control
_RTOL = 1e-8
_ATOL = 1e-16


class DenseOutput:
    """The continuous extension of every accepted step; called with an
    array of times in [ts[0], ts[-1]], returns the states, shape
    (n_state, len(t)).  nfev counts the right-hand-side calls made."""

    def __init__(self, ts, ys, qs, nfev):
        self.ts = ts        # step boundaries
        self._ys = ys       # state at each step start, (n_steps, n_state)
        self._qs = qs       # h K^T _P of each step, (n_steps, 4, n_state)
        self.nfev = nfev

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts, t, side="right") - 1,
                    0, len(self._ys) - 1)
        x = (t - self.ts[k]) / (self.ts[k + 1] - self.ts[k])
        powers = x[:, None] ** np.arange(1, 5)
        return (self._ys[k]
                + np.einsum("kj,kjn->kn", powers, self._qs[k])).T


def _rms(x) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


# bench/tracer.py wraps dynamics.solve_ivp by name and reads len(args[2])
# and the result's .nfev
def solve_ivp(fun, t_span, y0) -> DenseOutput:
    """Integrate y' = fun(t, y) over t_span by Dormand-Prince 5(4) with
    error-per-step control at rtol _RTOL and atol _ATOL, and return the
    dense output.  Raises StepFailure when the step size falls to rounding
    level, as it does approaching a singularity, and GridTooLarge as soon
    as the stored steps (five state-sized arrays each) pass
    spectra.MAX_GRID_BYTES."""
    t, t_end = map(float, t_span)
    if not t < t_end:
        raise ValueError("the integration interval must be increasing")
    y = np.array(y0)
    f = fun(t, y)
    # initial step (Hairer, Norsett & Wanner II.4): a small Euler probe
    # sizes h so that the local error lands near the tolerance
    scale = _ATOL + _RTOL * np.abs(y)
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    bound = max(d1, d2)
    h = min(100.0 * h0, (0.01 / bound) ** 0.2 if bound > 1e-15
            else max(1e-6, 1e-3 * h0))
    nfev = 2
    k = np.empty((7, y.size), dtype=np.result_type(y, f))
    # per step: its start state, then h K^T _P (float64 at least); grown in
    # place (realloc) by an eighth, so the stored steps are never held twice
    ts, n, steps = [t], 0, np.empty((16, 5, y.size), np.result_type(y, f, 1.0))
    while t < t_end:
        rejected = False
        while True:
            if h < 10.0 * math.ulp(t):
                raise StepFailure(f"step size underflow at t = {t:.6g}")
            t_new = min(t + h, t_end)
            h = t_new - t
            k[0] = f
            for s in range(1, 6):
                k[s] = fun(t + _C[s] * h, y + h * (_A[s, :s] @ k[:s]))
            y_new = y + h * (_A[6] @ k[:6])
            k[6] = fun(t_new, y_new)
            nfev += 6
            scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms(h * (_E @ k) / scale)
            if err < 1.0:
                break
            # a NaN or infinite error estimate shrinks the step by 5
            h *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        ts.append(t_new)
        if n == len(steps):
            steps.resize((n + n // 8 + 1, *steps.shape[1:]), refcheck=False)
        steps[n, 0], steps[n, 1:] = y, h * (_P.T @ k)
        n += 1
        require_grid_memory(5 * y.size * n,
                            f"the solver's dense output at step {n}")
        # a copy: k[6] is overwritten by the next attempt, and a rejected
        # attempt must restart from this step's end derivative
        t, y, f = t_new, y_new, k[6].copy()
        growth = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        h *= min(1.0, growth) if rejected else growth
    steps.resize((n, *steps.shape[1:]), refcheck=False)
    return DenseOutput(np.array(ts), steps[:, 0], steps[:, 1:], nfev)


@dataclass(frozen=True)
class DriveParams:
    """Pulse and level parameters for the two-drive cascade."""

    omega_a_tilde: float = 1.0
    omega_b_tilde: float = 1.0
    tau: float = 0.5
    delta1: float = 50.0
    delta2: float = 50.0
    gamma3n: float = 5.0
    lamb_shift: float = 0.0
    pulse_center: float = 0.0
    g_s: float = 1e-3
    g_i: float = 1e-3

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError("drive parameters must be finite")
        if not (self.tau > 0 and self.gamma3n > 0):
            raise ValueError("tau and gamma3n must be positive")
        # dsi_analytic divides by both detunings
        if self.delta1 == 0 or self.delta2 == 0:
            raise ValueError("delta1 and delta2 must be nonzero")

    def envelope(self, t: float) -> float:
        """exp(-(t-t0)^2/tau^2) / (sqrt(pi) tau), the shape both pulses share."""
        x = (t - self.pulse_center) / self.tau
        return math.exp(-x * x) / (math.sqrt(math.pi) * self.tau)

    def pulse_a(self, t: float) -> float:
        """Omega_a(t) = omega_a_tilde * envelope(t)."""
        return self.omega_a_tilde * self.envelope(t)

    def pulse_b(self, t: float) -> float:
        return self.omega_b_tilde * self.envelope(t)

    def check_weak_drive(self):
        peak = 1.0 / (math.sqrt(math.pi) * self.tau)
        if abs(self.omega_a_tilde) * peak > 0.1 * abs(self.delta1) or \
           abs(self.omega_b_tilde) * peak > 0.1 * abs(self.delta2):
            warnings.warn("drive peak exceeds a tenth of its detuning; the "
                          "adiabatic solutions degrade", ValidityWarning)


# Simpson nodes per half period of the fastest oscillation of the
# integrands of C and Bhat
_NODES_PER_HALF_PERIOD = 4


def default_t_final(drive: DriveParams) -> float:
    """Past the pulse plus several collective decay times."""
    return drive.pulse_center + 8.0 * drive.tau + 10.0 / drive.gamma3n


def integrate_eom(drive: DriveParams, grid_s: FrequencyGrid,
                  grid_i: FrequencyGrid, t_eval=None):
    """Integrate the cascade amplitudes from the vacuum initial state.

    eps' = i (Omega_a/2) A
    A'   = i [(Omega_a/2) eps + Delta1 A + (Omega_b/2) B]
    B'   = i [(Omega_b/2) A + Delta2 B]
    C_j  = g_s int B(t') e^{i w_sj t'} e^{-kappa (t - t')} dt'
    D_jk = g_i int C_j(t') e^{i w_ik t'} dt'
         = g_i / (kappa - i w_ik) [g_s Bhat_jk - e^{i w_ik t} C_j]

    over [t_start, t], with kappa = gamma3n/2 - i lamb_shift and Bhat_jk =
    int B(t') e^{i (w_sj + w_ik) t'} dt'.  Starts 6 tau before the pulse
    center with eps = 1 and integrates only to the last of t_eval (strictly
    increasing, none before the start; default [default_t_final]).
    Returns (y, d) at the t_eval times: y, shape (len(t_eval), 3 +
    n_signal), is (eps, A, B, C_1..C_n) and d, shape (len(t_eval),
    n_signal, n_idler), is D.  eps, A and B are read from the quartic dense
    output of `solve_ivp` (rtol 1e-8, atol 1e-16); C and Bhat are composite
    Simpson sums of B read from it, on nodes spaced to resolve the fastest
    oscillation of the integrands.  Raises GridTooLarge, before reading
    either grid, when the D grids it holds (one per time plus Bhat) would
    pass spectra.MAX_GRID_BYTES.
    """
    drive.check_weak_drive()
    t_start = drive.pulse_center - 6.0 * drive.tau
    if t_eval is None:
        t_eval = [default_t_final(drive)]
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size == 0 or np.any(np.diff(t_eval) <= 0):
        raise ValueError("evaluation times must be strictly increasing")
    if t_eval[0] < t_start:
        raise ValueError("evaluation times must not precede the start "
                         f"{t_start:.4g} (6 tau before the pulse center)")
    require_grid_memory((len(t_eval) + 1) * grid_s.points * grid_i.points,
                        "the pair amplitudes D")
    ws, wi = grid_s.omegas, grid_i.omegas
    # y' = (h_free + envelope(t) h_drive) y: i times a Hermitian matrix,
    # since both pulses are real and share the envelope
    h_free = 1j * np.diag([0.0, drive.delta1, drive.delta2])
    om_a, om_b = drive.omega_a_tilde, drive.omega_b_tilde
    h_drive = 0.5j * np.array([[0.0, om_a, 0.0], [om_a, 0.0, om_b],
                               [0.0, om_b, 0.0]])
    sol = solve_ivp(lambda t, y: (h_free + drive.envelope(t) * h_drive) @ y,
                    (t_start, float(t_eval[-1])),
                    np.array([1.0, 0.0, 0.0], dtype=complex))
    kappa = drive.gamma3n / 2.0 - 1j * drive.lamb_shift
    # composite Simpson (weights 1, 4, 2, ..., 4, 1), one rule per interval
    # between successive times.  The integrands oscillate at up to the sum
    # detuning plus the free frequencies of A and B, widened by the decay
    # and the pulse spectrum (down e^{-25} at 10/tau)
    band = (np.max(np.abs(ws)) + np.max(np.abs(wi))
            + max(abs(drive.delta1), abs(drive.delta2))
            + abs(drive.lamb_shift) + drive.gamma3n + 10.0 / drive.tau)
    spacing = math.pi / (_NODES_PER_HALF_PERIOD * band)
    # nodes read from the dense output at a time: a block's phase factors
    # (nodes x n_signal, nodes x n_idler, two of each live at once) stay a
    # few MiB on a long window, and each stays inside the budget on a wide
    # grid
    block = max(1, min(4096, MAX_GRID_BYTES // (16 * (len(ws) + len(wi)))))
    # running sums: Bhat, and C / g_s
    b_hat = np.zeros((len(ws), len(wi)), dtype=complex)
    c = np.zeros(len(ws), dtype=complex)
    y = np.empty((len(t_eval), 3 + len(ws)), dtype=complex)
    y[:, :3] = sol(t_eval).T
    d = np.empty((len(t_eval), *b_hat.shape), dtype=complex)
    for k, (t_prev, t) in enumerate(zip([t_start, *t_eval[:-1]], t_eval)):
        m = 2 * max(1, math.ceil((t - t_prev) / (2.0 * spacing)))
        nodes = np.linspace(t_prev, t, m + 1)
        w = np.ones(m + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (t - t_prev) / (3.0 * m)
        c *= np.exp(-kappa * (t - t_prev))
        for lo in range(0, m + 1, block):
            tn = nodes[lo:lo + block]
            wb = w[lo:lo + block] * sol(tn)[2]
            phase_s = np.exp(1j * np.outer(tn, ws))
            b_hat += (wb[:, None] * phase_s).T @ np.exp(1j * np.outer(tn, wi))
            c += (wb * np.exp(-kappa * (t - tn))) @ phase_s
        y[k, 3:] = drive.g_s * c
        d[k] = drive.g_s * drive.g_i * (b_hat - np.exp(1j * wi * t)
                                        * c[:, None]) / (kappa - 1j * wi)
    return y, d


def dsi_analytic(drive: DriveParams, domega_s, domega_i):
    """Closed-form long-time pair amplitude for Gaussian pulses.

    g_s g_i (omega_a_tilde omega_b_tilde / (4 Delta1 Delta2 sqrt(2 pi) tau))
    * exp(-(dws+dwi)^2 tau^2 / 8) / (gamma3n/2 - i(dwi + lamb_shift)),
    with the pulse-center phase e^{i (dws+dwi) t0} retained so the complex
    amplitude, not just the modulus, matches the integrated dynamics.

    This is the Delta -> infinity form: it drops the dependence of the
    intermediate-state denominators on the sum detuning s = dws + dwi
    (see `dsi_first_order`).  Its unit-peak |D|^2 shape error is
    max_s (3 s / Delta) e^{-s^2 tau^2 / 4} = 3 sqrt(2) e^{-1/2} / (Delta tau)
    at Delta1 = Delta2 = Delta, about 0.10 at Delta tau = 25.
    """
    ds = np.asarray(domega_s, dtype=float)
    di = np.asarray(domega_i, dtype=float)
    s = ds + di
    amp = drive.g_s * drive.g_i * drive.omega_a_tilde * drive.omega_b_tilde \
        / (4.0 * drive.delta1 * drive.delta2 * math.sqrt(2.0 * math.pi) * drive.tau)
    gauss = np.exp(-(s * drive.tau) ** 2 / 8.0 + 1j * s * drive.pulse_center)
    lor = 1.0 / (drive.gamma3n / 2.0 - 1j * (di + drive.lamb_shift))
    return amp * gauss * lor


def dsi_first_order(drive: DriveParams, domega_s, domega_i):
    """Pair amplitude with the sum-frequency dependence of the denominators.

    dsi_analytic * Delta1 Delta2 / ((Delta1 + s/2) (Delta2 + s)), with
    s = dws + dwi.  Fourier-transforming the B and A equations of
    `integrate_eom` (eps ~ 1, time dependence e^{-i nu t}) gives

        B^(s)  = -(Omega_b A / 2)^(s) / (Delta2 + s)
        A^(nu) = -Omega_a^(nu) / (2 (Delta1 + nu)),

    and the pair amplitude at sum detuning s is set by B^(s).  The product
    of the two equal-width Gaussian pulses centres nu on s/2, so to first
    order in s/Delta the zeroth-order denominators Delta1 Delta2 become
    (Delta1 + s/2)(Delta2 + s).  Valid for |s| << Delta1, Delta2.  What
    it leaves out is second order in s/Delta plus the AC Stark shift of the
    vacuum, which grows with omega_a_tilde^2 / (Delta1 tau): at the default
    drive the unit-peak |D|^2 shape error is about 1e-3 at Delta = 50, and
    about 1e-4 with both drive weights at 0.1.
    """
    s = np.asarray(domega_s, dtype=float) + np.asarray(domega_i, dtype=float)
    factor = drive.delta1 * drive.delta2 \
        / ((drive.delta1 + s / 2.0) * (drive.delta2 + s))
    return dsi_analytic(drive, domega_s, domega_i) * factor


def compare_dynamics(drive: DriveParams, grid_s: FrequencyGrid,
                     grid_i: FrequencyGrid,
                     t_final: float | None = None) -> dict:
    """Sup-norm shape deviation of the integrated |D|^2 from the closed form.

    Both surfaces are normalized to unit peak before comparing.
    `max_deviation` is measured against the Delta -> infinity form
    `dsi_analytic`, whose own shape error is 3 sqrt(2) e^{-1/2} / (Delta tau)
    at equal detunings (0.10 at Delta tau = 25); `dsi_first_order` holds the
    integrated surface to far less than that.  Integrates to t_final
    (default: default_t_final) and reads D there and one time unit
    earlier; raises NotConverged when |D|^2 drifted by more than 1e-4 of
    its peak over that last unit.
    """
    if t_final is None:
        t_final = default_t_final(drive)
    _, d = integrate_eom(drive, grid_s, grid_i, [t_final - 1.0, t_final])
    d_before, d_after = np.abs(d) ** 2
    peak = float(d_after.max())
    if peak == 0.0:
        return {"max_deviation": None, "converged": True, "peak_numeric": 0.0,
                "t_final": float(t_final), "note": "no biphoton generated"}
    drift = float(np.max(np.abs(d_after - d_before))) / peak
    if drift > 1e-4:
        raise NotConverged(
            f"|D|^2 still changing by {drift:.3e} of peak per unit time")

    analytic = np.abs(dsi_analytic(
        drive, grid_s.omegas[:, None], grid_i.omegas[None, :])) ** 2
    deviation = float(np.max(np.abs(d_after / peak - analytic / analytic.max())))
    return {"max_deviation": deviation, "converged": True,
            "peak_numeric": peak, "peak_analytic": float(analytic.max()),
            "t_final": float(t_final)}
