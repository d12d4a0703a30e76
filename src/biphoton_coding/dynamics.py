"""Cascade equations of motion and the closed-form pair amplitude.

Integrates the collective single-excitation amplitudes of the driven
cascade: vacuum eps, intermediate A, upper B and one-signal-photon C_j on
a grid of signal mode detunings.  The mu-indexed atomic sums are collapsed
to one collective mode with the phase-matching sum set to 1, so the ODE
is a small complex system of 3 + n_signal unknowns.  The pair amplitudes
D_jk on the signal x idler detuning grid are not ODE unknowns but a
quadrature of C over the integrator's dense output.

Mode couplings g_s, g_i are kept small (default 1e-3).  They only scale
C and D globally, but the discrete signal-mode continuum would otherwise
feed an artificial decay back onto B at rate ~2 pi g_s^2 / (mode spacing).
The D amplitudes are one-way probes of the emitted idler field,
D_jk(t) = g_i int C_j(t') e^{i w_ik t'} dt': C already decays at the
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
from .spectra import FrequencyGrid


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: the rest of
    the package runs on numpy alone and starts without scipy."""
    from scipy.integrate import solve_ivp as solve
    return solve(*args, **kwargs)


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

    def pulse_a(self, t):
        """Omega_a(t) = (omega_a_tilde / (sqrt(pi) tau)) exp(-(t-t0)^2/tau^2)."""
        x = (np.asarray(t, dtype=float) - self.pulse_center) / self.tau
        return self.omega_a_tilde / (math.sqrt(math.pi) * self.tau) * np.exp(-x ** 2)

    def pulse_b(self, t):
        x = (np.asarray(t, dtype=float) - self.pulse_center) / self.tau
        return self.omega_b_tilde / (math.sqrt(math.pi) * self.tau) * np.exp(-x ** 2)

    def check_weak_drive(self):
        peak = 1.0 / (math.sqrt(math.pi) * self.tau)
        if abs(self.omega_a_tilde) * peak > 0.1 * abs(self.delta1) or \
           abs(self.omega_b_tilde) * peak > 0.1 * abs(self.delta2):
            warnings.warn("drive peak exceeds a tenth of its detuning; the "
                          "adiabatic solutions degrade", ValidityWarning)


@dataclass(frozen=True)
class AmplitudeState:
    """Snapshot of all collective amplitudes at one time."""

    time: float
    eps: complex
    a_amp: complex
    b_amp: complex
    c_amp: np.ndarray      # shape (n_signal,)
    d_amp: np.ndarray      # shape (n_signal, n_idler)

    @property
    def sector_norm(self) -> float:
        """|eps|^2 + |A|^2 + |B|^2 + sum |C|^2 (the closed sector)."""
        return float(abs(self.eps) ** 2 + abs(self.a_amp) ** 2
                     + abs(self.b_amp) ** 2 + np.sum(np.abs(self.c_amp) ** 2))

    @property
    def total_norm(self) -> float:
        return self.sector_norm + float(np.sum(np.abs(self.d_amp) ** 2))


@dataclass(frozen=True)
class DynamicsResult:
    times: np.ndarray
    states: list

    @property
    def final(self) -> AmplitudeState:
        return self.states[-1]


# D quadrature: Simpson nodes per half period of the fastest oscillation
# of C_j e^{i w_ik t}, and nodes read from the dense output at a time,
# which bounds memory at _BLOCK x (n_signal + n_idler) complex values
# however long the window
_NODES_PER_HALF_PERIOD = 4
_BLOCK = 4096


def default_t_final(drive: DriveParams) -> float:
    """Past the pulse plus several collective decay times."""
    return drive.pulse_center + 8.0 * drive.tau + 10.0 / drive.gamma3n


def integrate_eom(drive: DriveParams, grid_s: FrequencyGrid,
                  grid_i: FrequencyGrid, t_final: float | None = None,
                  t_eval=None) -> DynamicsResult:
    """Integrate the cascade amplitudes from the vacuum initial state.

    eps' = i (Omega_a*/2) A
    A'   = i [(Omega_a/2) eps + Delta1 A + (Omega_b*/2) B]
    B'   = i [(Omega_b/2) A + Delta2 B] - g_s sum_j e^{-i w_sj t} C_j
    C_j' = g_s e^{i w_sj t} B - (gamma3n/2 - i lamb_shift) C_j
    D_jk = g_i int_{t_start}^{t} e^{i w_ik t'} C_j(t') dt'

    Starts 6 tau before the pulse center with eps = 1.  DOP853 carries
    eps, A, B and C; each D(t) is a composite Simpson sum of C read from
    the dense output, on nodes spaced to resolve the fastest oscillation
    of the integrand.  Returns states at t_eval (default: only t_final),
    which must be increasing.
    """
    drive.check_weak_drive()
    ws = grid_s.omegas
    wi = grid_i.omegas
    ns = len(ws)
    if t_final is None:
        t_final = default_t_final(drive)
    t_start = drive.pulse_center - 6.0 * drive.tau
    if t_eval is None:
        t_eval = [t_final]
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.min() < t_start or t_eval.max() > t_final:
        raise ValueError(
            f"evaluation times must lie between the start {t_start:.4g} "
            f"(6 tau before the pulse center) and t_final {t_final:.4g}")

    decay = drive.gamma3n / 2.0 - 1j * drive.lamb_shift

    def rhs(t, y):
        eps, a, b, c = y[0], y[1], y[2], y[3:]
        om_a = drive.pulse_a(t)
        om_b = drive.pulse_b(t)
        phase_s = np.exp(1j * ws * t)
        deps = 0.5j * np.conj(om_a) * a
        da = 1j * (0.5 * om_a * eps + drive.delta1 * a + 0.5 * np.conj(om_b) * b)
        db = 1j * (0.5 * om_b * a + drive.delta2 * b) \
            - drive.g_s * np.vdot(phase_s, c)
        dc = drive.g_s * phase_s * b - decay * c
        return np.concatenate(([deps, da, db], dc))

    y0 = np.zeros(3 + ns, dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (t_start, float(t_final)), y0, method="DOP853",
                    t_eval=t_eval, rtol=1e-8, atol=1e-12, dense_output=True)
    if not sol.success:
        raise StepFailure(f"integrator aborted: {sol.message}")
    # D by composite Simpson (weights 1, 4, 2, ..., 4, 1), one rule per
    # interval between successive times.  The integrand oscillates at up to
    # the sum detuning plus the free frequencies of A, B and C, widened by
    # the decay and the pulse spectrum (down e^{-25} at 10/tau)
    band = (np.max(np.abs(ws)) + np.max(np.abs(wi))
            + max(abs(drive.delta1), abs(drive.delta2))
            + abs(drive.lamb_shift) + drive.gamma3n + 10.0 / drive.tau)
    spacing = math.pi / (_NODES_PER_HALF_PERIOD * band)
    d = np.zeros((ns, len(wi)), dtype=complex)
    states, t_prev = [], t_start
    for k, t in enumerate(sol.t):
        m = 2 * max(1, math.ceil((t - t_prev) / (2.0 * spacing)))
        nodes = np.linspace(t_prev, t, m + 1)
        w = np.ones(m + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= drive.g_i * (t - t_prev) / (3.0 * m)
        for lo in range(0, m + 1, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            d += sol.sol(nodes[blk])[3:] @ (
                w[blk, None] * np.exp(1j * np.outer(nodes[blk], wi)))
        y = sol.y[:, k]
        states.append(AmplitudeState(
            time=float(t), eps=complex(y[0]), a_amp=complex(y[1]),
            b_amp=complex(y[2]), c_amp=y[3:].copy(), d_amp=d.copy()))
        t_prev = t
    return DynamicsResult(times=sol.t, states=states)


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
    integrated surface to far less than that.  Raises
    NotConverged when |D|^2 is still drifting by more than 1e-4 of its
    peak per unit time at the end of the integration.
    """
    if t_final is None:
        t_final = default_t_final(drive)
    result = integrate_eom(drive, grid_s, grid_i, t_final=t_final,
                           t_eval=[t_final - 1.0, t_final])
    before, after = result.states
    d_before = np.abs(before.d_amp) ** 2
    d_after = np.abs(after.d_amp) ** 2
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
