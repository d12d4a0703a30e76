"""Schmidt weights of sampled joint spectral amplitudes.

The amplitude is sampled on a signal x idler grid and weighted by the
square roots of the trapezoidal quadrature weights.  The squared singular
values of that matrix, normalized to unit sum, are the Schmidt weights
lambda_n; with the entropy and the norm they are all the `schmidt`
command writes, so no singular vector is ever computed.

When the pairs of a spectrum all share one real delta_q (every bench
config does) the weighted amplitude is a real matrix R times a
unit-modulus phase per idler sample, the phase of the idler factor
h = c sum_p w_p L(w_i - delta_p).  A diagonal unitary leaves the singular
values unchanged, so the complex amplitude is never sampled: R is built
in blocks of signal rows, and the weights are the eigenvalues of the
Gram matrix of R's shorter side (symmetric, so LAPACK's eigvalsh), which
equal the squared singular values.  A real sample matrix takes the same
path.  Any other amplitude is complex and takes the values-only complex
SVD, which is faster there than the eigensolver of A A^H.
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

# signal rows of the one-ridge R sampled at a time
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Weights of one decomposition.

    lambdas holds the full descending spectrum (sums to 1), and n_modes,
    min(64, rank), is the window of leading weights checked for
    degeneracy.  norm is the quadrature L2 norm of the input amplitude.
    """

    lambdas: np.ndarray
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
    """A matrix with the singular values of A = W_s^1/2 f W_i^1/2.

    For a spectrum whose pairs all share one real delta_q,
    f = G(w_s + w_i + delta_q) h(w_i), with G the real Gaussian ridge and
    h = c sum_p w_p L(w_i - delta_p).  A is then R diag(h / |h|), and the
    real R = W_s^1/2 G W_i^1/2 diag(|h|) is returned; the complex
    amplitude is never sampled.  R is filled _BLOCK_ROWS signal rows at a
    time, each block by the whole-matrix expression, so it is bit-equal
    to one call on the full grid while the ridge's complex exp buffer and
    temporaries stay the size of a block.  Otherwise A itself is
    returned: real for a real sample matrix, complex for any other
    spectrum.  The grids, the budget and a sample matrix's shape are
    checked before any array is built, the grid axes included.
    """
    if isinstance(spec, MultiplexedSpectrum):
        _check_grids(spec, grid_s, grid_i)
        require_grid_memory(grid_s.points * grid_i.points,
                            "the joint spectral amplitude")
    elif np.shape(spec) != (grid_s.points, grid_i.points):
        raise ValueError("sample matrix shape does not match the grids")
    root_s = np.sqrt(grid_s.weights)[:, None]
    root_i = np.sqrt(grid_i.weights)[None, :]
    if isinstance(spec, MultiplexedSpectrum):
        ridges = {pair.delta_q for pair in spec.pairs}
        delta_q = ridges.pop()
        if not ridges and not np.iscomplexobj(delta_q):
            p = spec.params
            w_s, w_i = grid_s.omegas[:, None], grid_i.omegas[None, :]
            h = p.coupling_prefactor * sum(
                pair.weight * lorentzian_factor(p, grid_i.omegas, pair.delta_p)
                for pair in spec.pairs)
            col_scale = root_i * np.abs(h)
            r = np.empty((grid_s.points, grid_i.points))
            for lo in range(0, grid_s.points, _BLOCK_ROWS):
                rows = slice(lo, lo + _BLOCK_ROWS)
                np.multiply(gaussian_envelope(p, w_s[rows] + w_i, delta_q),
                            root_s[rows], out=r[rows])
                r[rows] *= col_scale
            return r
        f = jsa_multiplexed(spec, grid_s.omegas[:, None],
                            grid_i.omegas[None, :])
    else:
        f = np.asarray(spec)
        f = f.astype(np.result_type(f, float), copy=False)
    return root_s * f * root_i


def decompose(spec, grid_s: FrequencyGrid,
              grid_i: FrequencyGrid) -> SchmidtDecomposition:
    """Schmidt weights of a multiplexed spectrum (or a precomputed sample
    matrix of shape (grid_s.points, grid_i.points)).

    A real sample matrix, or a spectrum whose pairs all share one real
    delta_q (every bench config), yields a real matrix R with the weighted
    amplitude's singular values (see _weighted_samples).  R is scaled by
    max|R|, so no Gram entry can overflow, and the weights are the
    eigenvalues of the Gram matrix of its shorter side (eigvalsh), with
    solver noise below 0 clipped to 0; the norm is max|R| sqrt(trace).
    The weights equal the SVD's of the same R to a few n eps absolute.
    Two or more ridges, a complex delta_q or a complex sample matrix take
    the values-only complex SVD.  Adjacent weights within 1e-10 among the
    leading n_modes raise a DegenerateSpectrum warning.
    """
    # an overflowing sample becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        a = _weighted_samples(spec, grid_s, grid_i)
    if not np.all(np.isfinite(a)):
        raise ValueError("the sampled amplitude is not finite")
    if np.iscomplexobj(a):
        sigma = np.linalg.svd(a, compute_uv=False)
        # hypot scales internally: inf only when the norm itself passes
        # the float range
        norm = _checked_norm(math.hypot(*sigma))
        # scaled by the largest singular value, so squaring cannot overflow
        weights = (sigma / sigma[0]) ** 2
    else:
        peak = float(np.max(np.abs(a)))
        a /= peak or 1.0   # an all-zero R keeps a zero norm, refused below
        gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
        del a   # R, its Gram matrix and LAPACK's copy are never all live
        norm = _checked_norm(peak * math.sqrt(np.trace(gram)))
        weights = np.maximum(np.linalg.eigvalsh(gram), 0.0)[::-1]
    lambdas = weights / np.sum(weights)

    n_modes = min(64, len(lambdas))
    gaps = np.abs(np.diff(lambdas[:n_modes]))
    if np.any(gaps < 1e-10):
        warnings.warn(f"adjacent Schmidt weights nearly degenerate: two of "
                      f"the leading {n_modes} differ by less than 1e-10",
                      DegenerateSpectrum)
    return SchmidtDecomposition(lambdas=lambdas, norm=norm, n_modes=n_modes)


def _checked_norm(norm: float) -> float:
    if norm == 0.0:
        raise ValueError("zero amplitude; nothing to decompose")
    if not math.isfinite(norm):
        raise ValueError("the amplitude's norm passes the float range")
    return norm


def entropy(d: SchmidtDecomposition) -> float:
    """Entanglement entropy -sum lambda ln lambda (0 ln 0 := 0)."""
    lam = d.lambdas[d.lambdas > 0]
    return float(-np.sum(lam * np.log(lam)))
