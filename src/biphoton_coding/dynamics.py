"""Cascade equations of motion and the closed-form pair amplitude.

The driven cascade to first order in the emission couplings, with the
mu-indexed atomic sums collapsed to one collective mode (phase-matching
sum 1).  Vacuum eps, intermediate A and upper B evolve as y' = i H(t) y
with H Hermitian, stepped by fourth-order Magnus on numpy alone, every
step unitary.  The one-signal-photon amplitudes C_j and the pair
amplitudes D_jk on the signal x idler grid are closed-form transforms of
B: Simpson sums of B on the very nodes the Magnus scan steps through.

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
from typing import NamedTuple

import numpy as np

from .errors import NotConverged, ValidityWarning
from .spectra import MAX_GRID_BYTES, FrequencyGrid, require_grid_memory


# fourth-order Magnus (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009;
# Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999): the two
# Gauss-Legendre points of a step, as fractions of it
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
# largest h max||H|| of one step.  On the `reference_eom` cases of the
# tests (h max||H|| up to 0.65 per Simpson gap), D moves from a converged
# run by up to 1.5e-6 of its peak at one step per gap, 1.3e-8 at 0.16 and
# 1.7e-9 at 0.1, far inside the tests' 1e-7 gate
_THETA = 0.1
# steps exponentiated per batched eigh
_BLOCK = 4096


class Solution(NamedTuple):
    y: np.ndarray   # the states at the requested times, (len(t), len(y0))
    nfev: int       # evaluations of H, one per time


# bench/tracer.py wraps dynamics.solve_ivp by name and reads len(args[2])
# and the result's .nfev
def solve_ivp(hamiltonian, t, y0) -> Solution:
    """Integrate y' = i H(t) y, H Hermitian, from y(t[0]) = y0 by
    fourth-order Magnus and return the states at the times t.

    hamiltonian maps an array of times to the stack of their H.  Every
    gap of t takes s equal steps, s = ceil(max gap * max ||H|| / _THETA),
    with the spectral norm read at the times t.  A step of length h is
    exp(i K), K = h/2 (H1 + H2) + i sqrt(3)/12 h^2 [H2, H1] with H1 and H2
    at its two Gauss points, exponentiated through `np.linalg.eigh`, so
    every step is unitary and a gap of length zero is the identity.
    """
    t = np.asarray(t, dtype=float)
    gaps = np.diff(t)
    norm = max(np.abs(np.linalg.eigvalsh(hamiltonian(t[i:i + _BLOCK]))).max()
               for i in range(0, len(t), _BLOCK))
    steps = np.abs(gaps).max(initial=0.0) * norm / _THETA
    # a block holds about max(s, _BLOCK) steps of 3 x 3 complex matrices:
    # GridTooLarge before any is built when a drive far stronger than its
    # detunings needs more than the budget holds
    require_grid_memory(9 * max(steps, _BLOCK),
                        f"the Magnus steps of this drive ({steps:.3g} a gap)")
    s = max(1, math.ceil(steps))
    y = np.empty((len(t), len(y0)), dtype=complex)
    y[0] = y0
    per = max(1, _BLOCK // s)
    for lo in range(0, len(gaps), per):
        g = gaps[lo:lo + per] / s
        start = (t[lo:lo + len(g), None] + g[:, None] * np.arange(s)).ravel()
        h = np.repeat(g, s)
        h1, h2 = (hamiltonian(start + c * h) for c in _GAUSS)
        h = h[:, None, None]
        k = h / 2 * (h1 + h2) \
            + 1j * math.sqrt(3.0) / 12 * h ** 2 * (h2 @ h1 - h1 @ h2)
        lam, v = np.linalg.eigh(k)
        u = ((v * np.exp(1j * lam)[:, None, :]) @ v.conj().swapaxes(1, 2)
             ).reshape(len(g), s, *k.shape[1:])
        # each gap's steps, the later ones on the left
        for j in range(1, s):
            u[:, 0] = u[:, j] @ u[:, 0]
        for i, step in enumerate(u[:, 0], lo):
            y[i + 1] = step @ y[i]
    return Solution(y, len(t) + 2 * s * len(gaps))


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

    def envelope(self, t):
        """exp(-(t-t0)^2/tau^2) / (sqrt(pi) tau), the shape both pulses
        share, at a time or an array of times."""
        x = (t - self.pulse_center) / self.tau
        return np.exp(-x * x) / (math.sqrt(math.pi) * self.tau)

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
    n_signal, n_idler), is D.  C and Bhat are composite Simpson sums of B
    on nodes spaced to resolve the fastest oscillation of the integrands,
    and one `solve_ivp` call steps (eps, A, B) through those very nodes,
    so nothing is interpolated.  Raises GridTooLarge, before reading
    either grid, when the D grids it holds (one per time plus Bhat) would
    pass spectra.MAX_GRID_BYTES, before building a node when the nodes
    would, and before stepping when the drive's Magnus steps would.
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
    kappa = drive.gamma3n / 2.0 - 1j * drive.lamb_shift
    # composite Simpson (weights 1, 4, 2, ..., 4, 1), one rule of m[k] gaps
    # per interval between successive times.  The integrands oscillate at
    # up to the sum detuning plus the free frequencies of A and B, widened
    # by the decay and the pulse spectrum (down e^{-25} at 10/tau)
    band = (np.max(np.abs(ws)) + np.max(np.abs(wi))
            + max(abs(drive.delta1), abs(drive.delta2))
            + abs(drive.lamb_shift) + drive.gamma3n + 10.0 / drive.tau)
    spacing = math.pi / (_NODES_PER_HALF_PERIOD * band)
    starts = [t_start, *t_eval[:-1]]
    m = 2 * np.maximum(1.0, np.ceil(np.diff(t_eval, prepend=t_start)
                                    / (2.0 * spacing)))
    # three amplitudes, the time and the weight: 64 bytes a node
    n_nodes = 1.0 + m.sum()
    count = f"{n_nodes:,.0f}" if n_nodes < 1e15 else f"{n_nodes:.3g}"
    require_grid_memory(4 * n_nodes,
                        f"the cascade state at {count} quadrature nodes")
    m = m.astype(int)
    ends = np.cumsum(m)
    nodes = np.concatenate([[t_start]] + [
        np.linspace(t_prev, t, mk + 1)[1:]
        for t_prev, t, mk in zip(starts, t_eval, m)])
    # y' = i (h_free + envelope(t) h_drive) y, with a real symmetric h_drive
    # since both pulses are real and share the envelope
    h_free = np.diag([0.0, drive.delta1, drive.delta2])
    om_a, om_b = drive.omega_a_tilde / 2.0, drive.omega_b_tilde / 2.0
    h_drive = np.array([[0, om_a, 0], [om_a, 0, om_b], [0, om_b, 0]])
    states = solve_ivp(
        lambda t: h_free + drive.envelope(t)[:, None, None] * h_drive,
        nodes, np.array([1.0, 0.0, 0.0], dtype=complex)).y
    # nodes summed at a time: a block's phase factors (nodes x n_signal,
    # nodes x n_idler, two of each live at once) stay a few MiB on a long
    # window, and each stays inside the budget on a wide grid
    block = max(1, min(4096, MAX_GRID_BYTES // (16 * (len(ws) + len(wi)))))
    # running sums: Bhat, and C / g_s
    b_hat = np.zeros((len(ws), len(wi)), dtype=complex)
    c = np.zeros(len(ws), dtype=complex)
    y = np.empty((len(t_eval), 3 + len(ws)), dtype=complex)
    y[:, :3] = states[ends]
    d = np.empty((len(t_eval), *b_hat.shape), dtype=complex)
    for k, (t_prev, t) in enumerate(zip(starts, t_eval)):
        w = np.ones(m[k] + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (t - t_prev) / (3.0 * m[k])
        span = slice(ends[k] - m[k], ends[k] + 1)
        tn_k, b_k = nodes[span], states[span, 2]
        c *= np.exp(-kappa * (t - t_prev))
        for lo in range(0, m[k] + 1, block):
            tn = tn_k[lo:lo + block]
            wb = w[lo:lo + block] * b_k[lo:lo + block]
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
    its peak over that last unit, and ValueError when t_final is too large
    for that earlier time to differ from it.
    """
    default = t_final is None
    if default:
        t_final = default_t_final(drive)
    if not t_final - 1.0 < t_final:
        whose = " (the drive's default)" if default else ""
        raise ValueError(f"t_final {t_final:.4g}{whose} is too large to "
                         "read D one time unit earlier")
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
