"""Schmidt decomposition of sampled joint spectral amplitudes.

The amplitude is sampled on a signal x idler grid, weighted by the square
roots of the trapezoidal quadrature weights, and factored by a dense SVD.
The squared singular values, normalized to unit sum, are the Schmidt
weights lambda_n; the unweighted singular vectors are the discrete signal
and idler mode functions.  With modes=False only the singular values are
computed (LAPACK builds no U or Vh), which is all the `schmidt` command
needs for the weights, entropy and norm it writes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, UnderResolvedGrid
from .spectra import FrequencyGrid, MultiplexedSpectrum, jsa_multiplexed


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


def decompose(spec, grid_s: FrequencyGrid, grid_i: FrequencyGrid,
              n_modes: int | None = None, *,
              modes: bool = True) -> SchmidtDecomposition:
    """Schmidt-decompose a multiplexed spectrum (or a precomputed sample
    matrix of shape (grid_s.points, grid_i.points)).

    modes=False computes the singular values only and leaves both mode
    arrays None; the weights, norm, n_modes and degeneracy warning are
    those of the full decomposition.

    Phase gauge: each signal mode is rotated so its largest-magnitude
    sample is real positive, with the inverse rotation applied to the
    paired idler mode (the product is gauge invariant; only the relative
    phase between the two is physical).
    """
    if n_modes is not None and n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    # an overflowing sample becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(spec, MultiplexedSpectrum):
            _check_grids(spec, grid_s, grid_i)
            f = jsa_multiplexed(spec, grid_s.omegas[:, None],
                                grid_i.omegas[None, :])
        else:
            f = np.asarray(spec, dtype=complex)
            if f.shape != (grid_s.points, grid_i.points):
                raise ValueError("sample matrix shape does not match the grids")

        ws = grid_s.weights
        wi = grid_i.weights
        a = np.sqrt(ws)[:, None] * f * np.sqrt(wi)[None, :]
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

    psi = u[:, :n_modes] / np.sqrt(ws)[:, None]
    phi = vh[:n_modes, :] / np.sqrt(wi)[None, :]

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
