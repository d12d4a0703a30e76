"""Schmidt decomposition of sampled joint spectral amplitudes.

The amplitude is sampled on a signal x idler grid, weighted by the square
roots of the trapezoidal quadrature weights, and factored by a dense SVD.
The squared singular values, normalized to unit sum, are the Schmidt
weights lambda_n; the unweighted singular vectors are the discrete signal
and idler mode functions.  With modes=False only the singular values are
computed (LAPACK builds no U or Vh), which is all the `schmidt` command
needs for the weights, entropy and norm it writes.

When the pairs of a spectrum all share one real delta_q (every CLI
config does) the weighted amplitude is a real matrix times a unit-modulus
phase per idler sample, the phase of the idler factor h = c sum_p w_p
L(w_i - delta_p).  The SVD then runs on the real matrix, half the bytes
of the complex one, and the idler modes take the phase back; a real
sample matrix is decomposed in real arithmetic too.  The weights equal
the complex SVD's to about 1e-16 absolute.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, UnderResolvedGrid
from .spectra import (
    FrequencyGrid,
    MultiplexedSpectrum,
    gaussian_envelope,
    jsa_multiplexed,
    lorentzian_factor,
    require_grid_memory,
)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Weights and mode functions of one decomposition.

    lambdas holds the full descending spectrum (sums to 1); signal_modes
    and idler_modes keep only the first n_modes columns, and are None on a
    weights-only decomposition.  n_modes is also the window of leading
    weights checked for degeneracy.  norm is the quadrature L2 norm of
    the input amplitude that was divided out, so
    f ~= norm * sum_n sqrt(lambda_n) psi_n(w_s) phi_n(w_i).
    """

    lambdas: np.ndarray
    signal_modes: np.ndarray | None   # shape (grid_s.points, n_modes)
    idler_modes: np.ndarray | None    # shape (n_modes, grid_i.points)
    norm: float
    n_modes: int


def _check_grids(spec, grid_s, grid_i):
    p = spec.params
    # Must resolve both the Gaussian ridge (width ~1/tau) and the
    # Lorentzian (width ~gamma3n).
    limit = 0.5 * min(1.0 / p.tau, p.gamma3n)
    for name, g in (("signal", grid_s), ("idler", grid_i)):
        if g.spacing > limit:
            raise UnderResolvedGrid(
                f"{name} grid spacing {g.spacing:.4g} exceeds "
                f"min(1/tau, gamma3n)/2 = {limit:.4g}")


def _weighted_samples(spec, grid_s: FrequencyGrid, grid_i: FrequencyGrid):
    """The quadrature-weighted samples A = W_s^1/2 f W_i^1/2 as (r, phase),
    with A = r * phase: phase is a unit-modulus row or 1.0.

    r is real, so the SVD runs in real arithmetic on half the bytes, for a
    real sample matrix and for a spectrum whose pairs all share one real
    delta_q.  There f = G(w_s + w_i + delta_q) h(w_i), with G the real
    Gaussian ridge and h = c sum_p w_p L(w_i - delta_p), so
    r = W_s^1/2 G W_i^1/2 diag(|h|) and phase = h / |h| (1 where h = 0);
    the complex amplitude is never sampled.  A diagonal unitary leaves
    singular values unchanged, so A and r share them.
    """
    root_s = np.sqrt(grid_s.weights)[:, None]
    root_i = np.sqrt(grid_i.weights)[None, :]
    if isinstance(spec, MultiplexedSpectrum):
        _check_grids(spec, grid_s, grid_i)
        ridges = {pair.delta_q for pair in spec.pairs}
        delta_q = ridges.pop()
        if not ridges and not np.iscomplexobj(delta_q):
            p = spec.params
            require_grid_memory(grid_s.points * grid_i.points,
                                "the joint spectral amplitude")
            h = p.coupling_prefactor * sum(
                pair.weight * lorentzian_factor(p, grid_i.omegas, pair.delta_p)
                for pair in spec.pairs)
            mag = np.abs(h)
            phase = np.ones_like(h)
            np.divide(h, mag, out=phase, where=mag > 0)
            r = gaussian_envelope(p, grid_s.omegas[:, None]
                                  + grid_i.omegas[None, :], delta_q) * root_s
            r *= root_i * mag
            return r, phase
        f = jsa_multiplexed(spec, grid_s.omegas[:, None],
                            grid_i.omegas[None, :])
    else:
        f = np.asarray(spec)
        f = f.astype(np.result_type(f, float), copy=False)
        if f.shape != (grid_s.points, grid_i.points):
            raise ValueError("sample matrix shape does not match the grids")
    return root_s * f * root_i, 1.0


def decompose(spec, grid_s: FrequencyGrid, grid_i: FrequencyGrid,
              n_modes: int | None = None, *,
              modes: bool = True) -> SchmidtDecomposition:
    """Schmidt-decompose a multiplexed spectrum (or a precomputed sample
    matrix of shape (grid_s.points, grid_i.points)).

    modes=False computes the singular values only and leaves both mode
    arrays None; the weights, norm, n_modes and degeneracy warning are
    those of the full decomposition.

    A real sample matrix, or a spectrum whose pairs all share one real
    delta_q (every CLI config), is factored as a real matrix times a
    column phase taken from the idler factor h (see _weighted_samples);
    its weights equal those of the complex SVD to about 1e-16 absolute.
    Two or more ridges, a complex delta_q or a complex sample matrix take
    the complex SVD.

    Phase gauge: each signal mode is rotated so its largest-magnitude
    sample is real positive, with the inverse rotation applied to the
    paired idler mode (the product is gauge invariant; only the relative
    phase between the two is physical).
    """
    if n_modes is not None and n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    # an overflowing sample becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        a, idler_phase = _weighted_samples(spec, grid_s, grid_i)
    if not np.all(np.isfinite(a)):
        raise ValueError("the sampled amplitude is not finite")
    if modes:
        u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    else:
        sigma = np.linalg.svd(a, compute_uv=False)

    # hypot scales internally: inf only when the norm itself passes the
    # float range
    norm = math.hypot(*sigma)
    if norm == 0.0:
        raise ValueError("zero amplitude; nothing to decompose")
    if not math.isfinite(norm):
        raise ValueError("the amplitude's norm passes the float range")
    # scaled by the largest singular value, so squaring cannot overflow
    scaled = (sigma / sigma[0]) ** 2
    lambdas = scaled / np.sum(scaled)

    rank = len(sigma)
    if n_modes is None:
        n_modes = min(64, rank)
    n_modes = min(n_modes, rank)

    gaps = np.abs(np.diff(lambdas[:n_modes]))
    if np.any(gaps < 1e-10):
        warnings.warn("adjacent Schmidt weights nearly degenerate; modes "
                      "within the degenerate subspace are an arbitrary mix",
                      DegenerateSpectrum)
    if not modes:
        return SchmidtDecomposition(lambdas=lambdas, signal_modes=None,
                                    idler_modes=None, norm=norm,
                                    n_modes=n_modes)

    psi = u[:, :n_modes] / np.sqrt(grid_s.weights)[:, None]
    phi = vh[:n_modes, :] * idler_phase / np.sqrt(grid_i.weights)[None, :]

    # fix the free phase per Schmidt pair
    for n in range(n_modes):
        k = int(np.argmax(np.abs(psi[:, n])))
        phase = psi[k, n] / abs(psi[k, n])
        psi[:, n] /= phase
        phi[n, :] *= phase

    return SchmidtDecomposition(lambdas=lambdas, signal_modes=psi,
                                idler_modes=phi, norm=norm, n_modes=n_modes)


def entropy(d: SchmidtDecomposition) -> float:
    """Entanglement entropy -sum lambda ln lambda (0 ln 0 := 0)."""
    lam = d.lambdas[d.lambdas > 0]
    return float(-np.sum(lam * np.log(lam)))


def reconstruct(d: SchmidtDecomposition) -> np.ndarray:
    """Rebuild sum_n sqrt(lambda_n) psi_n phi_n from the stored modes.

    Equals the input amplitude divided by d.norm when all modes are kept.
    """
    if d.signal_modes is None:
        raise ValueError("a weights-only decomposition has no modes to "
                         "reconstruct from; decompose with modes=True")
    root = np.sqrt(d.lambdas[:d.n_modes])
    return (d.signal_modes * root[None, :]) @ d.idler_modes
