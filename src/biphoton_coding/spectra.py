"""Joint spectral amplitudes of cascade-emitted photon pairs.

All frequencies, rates, and shifts are expressed in units of the natural
linewidth gamma; pulse durations in units of 1/gamma, inputs and outputs
alike.

The single-pair amplitude is a Gaussian ridge along the energy-conservation
axis omega_s + omega_i, its width set by the pulse duration tau, times a
Lorentzian of half-width gamma3n / 2 in the idler detuning; the drive
strength only scales it.  Multiplexed spectra sum shifted, weighted copies.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import GridTooLarge, UnderResolvedGrid

_RESOLUTION = 8.0    # grid samples per 1/tau
_IDLER_SPAN = 20.0   # idler grid half-span around each pair, in gamma3n

# largest complex array, in bytes, that a run may hold (16 times a
# 1024 x 1024 amplitude): a JSA, the pair amplitudes D, the cascade state
# at its quadrature nodes, the numeric g2 FFTs or a code matrix; larger
# ones are refused, not allocated
MAX_GRID_BYTES = 2 ** 28


def require_grid_memory(n_values: int, what: str):
    """Raise GridTooLarge if n_values complex numbers exceed MAX_GRID_BYTES."""
    nbytes = 16 * n_values
    if nbytes > MAX_GRID_BYTES:
        try:
            mib = nbytes / 2 ** 20
        except OverflowError:   # an integer count past the float range
            mib = math.inf
        raise GridTooLarge(
            f"{what} would take {mib:.4g} MiB, past the "
            f"{MAX_GRID_BYTES / 2 ** 20:g} MiB budget")


@dataclass(frozen=True)
class PhysicalParams:
    """Source constants defining the pair amplitude.

    gamma3n        collectively broadened decay rate of the idler transition
    tau            drive pulse duration (1/e half-width of the field envelope)
    coupling_prefactor  emission couplings, collective phase sum, drive
                   detunings and pulse areas, folded into one complex
                   overall scale (default 1; it cancels in every contrast
                   metric).  `dynamics.DriveParams` models the drive itself.
    """

    gamma3n: float = 5.0
    tau: float = 0.5
    coupling_prefactor: complex = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError("physical parameters must be finite")
        if not (self.gamma3n > 0 and self.tau > 0):
            raise ValueError("gamma3n and tau must both be positive")

    @property
    def half_linewidth(self) -> float:
        """Lorentzian half-width gamma3n / 2."""
        return 0.5 * self.gamma3n


@dataclass(frozen=True)
class PairShift:
    """One multiplexed component: complex weight and its frequency shifts.

    delta_p shifts the idler resonance; delta_q shifts the joint
    (sum-frequency) Gaussian ridge.  The component peaks at
    domega_i = delta_p on the line domega_s + domega_i = -delta_q.
    """

    weight: complex = 1.0
    delta_p: float = 0.0
    delta_q: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.weight) and np.isfinite(self.delta_p)
                and np.isfinite(self.delta_q)):
            raise ValueError("pair shift fields must be finite")

    @property
    def signal_center(self) -> float:
        """Signal detuning at which |f_n| peaks."""
        return -(self.delta_p + self.delta_q)


@dataclass(frozen=True)
class MultiplexedSpectrum:
    params: PhysicalParams
    pairs: tuple = ()

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise ValueError("need at least one pair")
        object.__setattr__(self, "pairs", tuple(self.pairs))

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @staticmethod
    def comb(n_pairs, delta, params):
        """Unit-weight pairs evenly spread along the energy-conservation axis.

        Idler shifts are (n - (n_pairs+1)/2) * delta, so four pairs sit at
        (-1.5, -0.5, 0.5, 1.5) * delta, all on the uncoded ridge
        (delta_q = 0).
        """
        centers = (np.arange(1, n_pairs + 1) - 0.5 * (n_pairs + 1)) * delta
        pairs = tuple(PairShift(delta_p=float(dp)) for dp in centers)
        return MultiplexedSpectrum(params=params, pairs=pairs)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid omega in [min, max] with the given number of points."""

    min: float
    max: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("grid needs at least two points")
        if not self.min < self.max:
            raise ValueError("grid min must be below max")
        if not math.isfinite(self.max - self.min):
            raise ValueError("grid span max - min passes the float range")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.points - 1)

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights."""
        w = np.full(self.points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def comb_grids(n_pairs: int, delta: float, params: PhysicalParams):
    """Equal-spacing signal/idler grids sized for an n-pair comb.

    Spacing resolves the Gaussian ridge with margin and is snapped to
    divide delta/2 so that coding-bin edges land exactly on samples; the
    signal span covers every coding bin plus ~7 sigma of Gaussian tail,
    the idler span the +-20*gamma3n window each Lorentzian norm needs.
    Raises GridTooLarge when a point count or a span passes the float
    range or a spacing underflows to 0.
    """
    s0 = min(0.98 / (_RESOLUTION * params.tau), params.gamma3n / 4.0)
    half_s = 0.5 * n_pairs * delta + 10.0 / params.tau
    half_i = 0.5 * (n_pairs - 1) * delta + (_IDLER_SPAN + 0.5) * params.gamma3n
    # near either end of the float range: math.ceil raises OverflowError
    # on an infinite count, a spacing of 0 is a ZeroDivisionError, and
    # FrequencyGrid a ValueError on an infinite span
    try:
        s = (delta / 2.0) / math.ceil((delta / 2.0) / s0)
        ks = math.ceil(half_s / s)
        ki = math.ceil(half_i / s)
        return (FrequencyGrid(-ks * s, ks * s, 2 * ks + 1),
                FrequencyGrid(-ki * s, ki * s, 2 * ki + 1))
    except (OverflowError, ZeroDivisionError, ValueError):
        raise GridTooLarge(
            f"the automatic grids for delta = {delta:.4g} would need a point "
            f"count or span past the float range") from None


def gaussian_envelope(params: PhysicalParams, sum_detuning, delta_q=0.0):
    """Joint Gaussian ridge exp(-(domega_s + domega_i + delta_q)^2 tau^2 / 8).

    Depends on the detunings only through their sum; delta_q may be complex.
    Returns an array (0-d for a scalar sum): float64 for a real delta_q,
    complex128 for a complex one.
    """
    kind = complex if np.iscomplexobj(delta_q) else float
    s = np.asarray(sum_detuning, dtype=kind) + delta_q
    # exp is taken in complex128 for both kinds: numpy's float64 exp (an
    # AVX-512 kernel where the CPU has one) differs from its complex exp in
    # the last bit of about one sample in twenty, and the complex one keeps
    # a real ridge bit-equal to the real part of a complex ridge
    g = np.asarray(-(s * params.tau) ** 2 / 8.0, dtype=complex)
    np.exp(g, out=g)
    return g if kind is complex else g.real


def lorentzian_factor(params: PhysicalParams, domega_i, delta_p=0.0):
    """Idler resonance 1 / (gamma3n/2 - i(domega_i - delta_p))."""
    u = np.asarray(domega_i, dtype=float) - delta_p
    return 1.0 / (params.half_linewidth - 1j * u)


def jsa_multiplexed(spec: MultiplexedSpectrum, domega_s, domega_i):
    """Weighted sum of shifted single-pair amplitudes.

    coupling_prefactor * sum_n H_n exp(-(ds+di+delta_qn)^2 tau^2/8)
    / (gamma3n/2 - i(di - delta_pn)); one default pair at gamma3n = 5,
    tau = 0.5 gives 0.4 (real) on resonance.  Raises GridTooLarge, before
    sampling, past MAX_GRID_BYTES, and ValueError when a sample passes the
    float range.
    """
    p = spec.params
    ds = np.asarray(domega_s, dtype=float)
    di = np.asarray(domega_i, dtype=float)
    shape = np.broadcast(ds, di).shape
    require_grid_memory(math.prod(shape), "the joint spectral amplitude")
    out = np.zeros(shape, dtype=complex)
    ridges = {}     # pairs on one ridge (same delta_q) share its samples
    # an overflowing sample becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for pair in spec.pairs:
            if pair.delta_q not in ridges:
                ridges[pair.delta_q] = gaussian_envelope(p, ds + di,
                                                         pair.delta_q)
            out += pair.weight * ridges[pair.delta_q] \
                * lorentzian_factor(p, di, pair.delta_p)
        out = p.coupling_prefactor * out
    if not np.all(np.isfinite(out)):
        raise ValueError("the sampled amplitude is not finite")
    return out


def _require_resolution(grid: FrequencyGrid, params: PhysicalParams):
    # Eight samples per 1/tau keeps Gaussian quadrature error far below
    # the documented mode-norm tolerances.
    limit = (1.0 / params.tau) / _RESOLUTION
    if grid.spacing > limit:
        raise UnderResolvedGrid(
            f"grid spacing {grid.spacing:.4g} exceeds (1/tau)/{_RESOLUTION:g} "
            f"= {limit:.4g}")


def marginal_signal_mode(pair: PairShift, params: PhysicalParams,
                         grid: FrequencyGrid):
    """Gaussian signal profile of one pair, unit-normalized on the grid.

    The unnormalized profile is -exp(-(ds + delta_p + delta_q
    + i*gamma3n/2)^2 tau^2 / 8): a Gaussian centered at the pair's signal
    frequency carrying a linear chirp and an overall amplitude boost
    exp((gamma3n tau)^2 / 16) from the complex shift.  Returns (samples,
    n_s) with n_s the quadrature L2 norm that was divided out.
    """
    _require_resolution(grid, params)
    shift = pair.delta_p + pair.delta_q + 1j * params.half_linewidth
    raw = -gaussian_envelope(params, grid.omegas, shift)
    n_s = np.sqrt(np.sum(grid.weights * np.abs(raw) ** 2))
    return raw / n_s, float(n_s)


def marginal_idler_mode(pair: PairShift, params: PhysicalParams,
                        grid: FrequencyGrid):
    """Lorentzian idler profile of one pair, unit-normalized on the grid.

    Requires the grid to span at least +-20 gamma3n around delta_p; the
    slowly decaying tails otherwise bias the norm at the percent level.
    """
    _require_resolution(grid, params)
    span = _IDLER_SPAN * params.gamma3n
    if grid.min > pair.delta_p - span or grid.max < pair.delta_p + span:
        raise UnderResolvedGrid(
            f"idler grid must span +-{_IDLER_SPAN:g}*gamma3n around delta_p "
            f"(need [{pair.delta_p - span:.4g}, {pair.delta_p + span:.4g}], "
            f"have [{grid.min:.4g}, {grid.max:.4g}])")
    raw = lorentzian_factor(params, grid.omegas, pair.delta_p)
    n_i = np.sqrt(np.sum(grid.weights * np.abs(raw) ** 2))
    return raw / n_i, float(n_i)
