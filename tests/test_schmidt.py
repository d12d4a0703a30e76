"""Schmidt decomposition on quadrature-weighted sample matrices."""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_coding import schmidt, spectra
from biphoton_coding.errors import DegenerateSpectrum, UnderResolvedGrid
from biphoton_coding.schmidt import decompose, entropy
from biphoton_coding.spectra import (
    FrequencyGrid,
    MultiplexedSpectrum,
    PairShift,
    PhysicalParams,
    gaussian_envelope,
    jsa_multiplexed,
    lorentzian_factor,
)

# trailing near-zero weights are always mutually degenerate, so most
# decompositions emit the degeneracy warning; it only matters where the
# leading weights collide
pytestmark = pytest.mark.filterwarnings("ignore::biphoton_coding.errors.DegenerateSpectrum")

GRID = FrequencyGrid(-400.0, 400.0, 512)


def blob(ws, wi, center, sigma=8.0):
    return np.exp(-((ws - center) ** 2 + (wi - center) ** 2) / (2 * sigma ** 2))


def test_separable_input_is_rank_one():
    ws, wi = GRID.omegas[:, None], GRID.omegas[None, :]
    f = np.exp(-ws ** 2 / 50.0) * np.exp(-wi ** 2 / 18.0)
    d = decompose(f, GRID, GRID)
    assert d.lambdas[0] == pytest.approx(1.0, abs=1e-6)
    assert entropy(d) < 1e-4


def test_four_component_uniform_weights():
    ws, wi = GRID.omegas[:, None], GRID.omegas[None, :]
    f = sum(blob(ws, wi, c) for c in (-300.0, -100.0, 100.0, 300.0))
    with pytest.warns(DegenerateSpectrum):
        d = decompose(f, GRID, GRID)
    np.testing.assert_allclose(d.lambdas[:4], 0.25, rtol=1e-10)
    assert float(np.sum(d.lambdas)) == pytest.approx(1.0, abs=1e-8)
    assert entropy(d) == pytest.approx(math.log(4.0), abs=1e-8)


def single_pair_quarter_tau():
    params = PhysicalParams(tau=0.25)
    spec = MultiplexedSpectrum(params=params, pairs=(PairShift(),))
    grid_s = FrequencyGrid(-60.0, 60.0, 601)
    grid_i = FrequencyGrid(-120.0, 120.0, 1201)
    return spec, grid_s, grid_i


def test_single_pair_regression():
    # frozen baseline; the pair is genuinely entangled at gamma3n*tau = 1.25
    spec, gs, gi = single_pair_quarter_tau()
    d = decompose(spec, gs, gi)
    assert d.n_modes == 64
    assert d.lambdas[0] == pytest.approx(0.8193882853339827, rel=1e-6)
    assert entropy(d) == pytest.approx(0.7332579386243485, rel=1e-6)
    assert float(np.sum(d.lambdas)) == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(d.lambdas) <= 1e-15)


def test_phase_gauge_and_determinism():
    spec, gs, gi = single_pair_quarter_tau()
    d1 = decompose(spec, gs, gi)
    d2 = decompose(spec, gs, gi)
    np.testing.assert_array_equal(d1.lambdas, d2.lambdas)


def test_well_separated_pairs_nearly_degenerate():
    """Four pairs separated on both axes: the leading four weights cluster
    near 1/4 and carry over 95 percent of the norm."""
    params = PhysicalParams(tau=0.05)
    pairs = tuple(PairShift(delta_p=d, delta_q=d)
                  for d in (-300.0, -100.0, 100.0, 300.0))
    spec = MultiplexedSpectrum(params=params, pairs=pairs)
    gs = FrequencyGrid(-700.0, 700.0, 561)
    gi = FrequencyGrid(-400.0, 400.0, 321)
    d = decompose(spec, gs, gi)
    top = d.lambdas[:4]
    assert float(np.sum(top)) > 0.95
    assert np.max(np.abs(top - 0.25)) / 0.25 < 0.07
    assert top[3] / d.lambdas[4] > 10.0  # clean gap to the residue


def test_rejects_under_resolved_grids():
    spec = MultiplexedSpectrum(params=PhysicalParams(), pairs=(PairShift(),))
    coarse = FrequencyGrid(-60.0, 60.0, 31)  # spacing 4 > min(1/tau, g3n)/2
    fine_i = FrequencyGrid(-120.0, 120.0, 961)
    with pytest.raises(UnderResolvedGrid):
        decompose(spec, coarse, fine_i)


def test_sample_matrix_shape_checked():
    with pytest.raises(ValueError):
        decompose(np.ones((10, 10)), GRID, GRID)


def test_zero_amplitude_rejected():
    with pytest.raises(ValueError):
        decompose(np.zeros((512, 512)), GRID, GRID)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(1.0, 12.0), b=st.floats(1.0, 12.0),
       points=st.integers(300, 600), span=st.floats(5.0, 6.0))
def test_double_gaussian_matches_closed_form(a, b, points, span):
    """exp(-(ws + wi)^2 / 2a^2 - (ws - wi)^2 / 2b^2) has Schmidt weights
    (1 - mu^2) mu^(2n), mu = (b - a) / (b + a), and Schmidt number
    K = (a^2 + b^2) / 2ab (Law, Walmsley & Eberly, PRL 84, 5304, 2000).
    A sweep of 39 (a, b) pairs on 300-600-point grids met 8.9e-16 in
    lambda and 1.8e-15 relative in K."""
    grid = FrequencyGrid(-span * max(a, b), span * max(a, b), points)
    ws, wi = grid.omegas[:, None], grid.omegas[None, :]
    f = np.exp(-(ws + wi) ** 2 / (2 * a * a) - (ws - wi) ** 2 / (2 * b * b))
    mu = (b - a) / (b + a)
    want = (1 - mu ** 2) * mu ** (2 * np.arange(points))
    # the geometric tail falls below the 1e-10 gap within the first 64
    # weights, so the degeneracy warning always fires there
    with pytest.warns(DegenerateSpectrum):
        d = decompose(f, grid, grid)
    assert np.max(np.abs(d.lambdas - want)) <= 1e-13
    k = 1.0 / float(np.sum(d.lambdas ** 2))
    assert k == pytest.approx((a * a + b * b) / (2 * a * b), rel=1e-13)


def polar(m, ph):
    return m * complex(math.cos(ph), math.sin(ph))


def coarsest_grid(params, points):
    # just inside the coarsest spacing _check_grids allows
    spacing = 0.49 * min(1.0 / params.tau, params.gamma3n)
    half = 0.5 * (points - 1) * spacing
    return FrequencyGrid(-half, half, points)


def test_scaled_sample_matrix_has_the_same_weights():
    # sigma^2 of a 1e200-scale matrix passes the float range; the weights
    # are scale-free and the norm scales with it
    ws, wi = GRID.omegas[:, None], GRID.omegas[None, :]
    f = sum(blob(ws, wi, c, sigma=s) for c, s in ((-100.0, 8.0), (150.0, 20.0)))
    d = decompose(f, GRID, GRID)
    big = decompose(1e200 * f, GRID, GRID)
    np.testing.assert_allclose(big.lambdas, d.lambdas, rtol=0, atol=1e-13)
    assert big.norm == pytest.approx(1e200 * d.norm, rel=1e-13)


def test_non_finite_sample_or_norm_rejected():
    f = np.ones((512, 512))
    f[3, 7] = np.inf
    # finite samples whose largest singular value is inf
    grid = FrequencyGrid(-400.0, 400.0, 64)
    huge = np.full((64, 64), 1e307)
    with pytest.raises(ValueError, match="not finite"):
        decompose(f, GRID, GRID)
    with pytest.raises(ValueError, match="passes the float range"):
        decompose(huge, grid, grid)


@settings(max_examples=20, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2 * math.pi),
                                st.floats(-60.0, 60.0)),
                      min_size=1, max_size=6),
       delta_q=st.floats(-20.0, 20.0),
       coupling=st.tuples(st.floats(0.01, 100.0), st.floats(0.0, 2 * math.pi)),
       tau=st.floats(0.3, 2.0), points=st.integers(120, 240))
def test_one_ridge_real_svd_matches_complex_svd(pairs, delta_q, coupling, tau,
                                                points):
    """Pairs on one real ridge are decomposed from the real
    W_s^1/2 G W_i^1/2 |h| without sampling the complex amplitude.  The
    oracle is the values-only complex SVD of the same pairs' weighted
    sample matrix.  Both are backward stable, so weights and norm agree
    to a few n eps (n <= 240): 1e-13 bounds them."""
    spec = MultiplexedSpectrum(
        params=PhysicalParams(tau=tau, coupling_prefactor=polar(*coupling)),
        pairs=tuple(PairShift(weight=polar(m, ph), delta_p=dp, delta_q=delta_q)
                    for m, ph, dp in pairs))
    grid = coarsest_grid(spec.params, points)
    f = jsa_multiplexed(spec, grid.omegas[:, None], grid.omegas[None, :])
    with mock.patch.object(schmidt, "jsa_multiplexed",
                           side_effect=AssertionError("complex JSA sampled")):
        d = decompose(spec, grid, grid)
    root = np.sqrt(grid.weights)
    sigma = np.linalg.svd(root[:, None] * f * root[None, :], compute_uv=False)
    want = (sigma / sigma[0]) ** 2
    np.testing.assert_allclose(d.lambdas, want / np.sum(want), rtol=0,
                               atol=1e-13)
    assert d.norm == pytest.approx(math.hypot(*sigma), rel=1e-13)


def test_two_ridges_or_complex_delta_q_decompose_their_sample_matrix():
    """Pairs on two ridges, or on a complex one, are sampled as the complex
    amplitude: the decomposition is that of its sample matrix, bit for bit."""
    params = PhysicalParams(tau=0.5)
    grid = FrequencyGrid(-60.0, 60.0, 161)
    two = (PairShift(weight=0.6 + 0.8j, delta_p=-20.0),
           PairShift(weight=1.0, delta_p=20.0, delta_q=30.0))
    shifted = (PairShift(weight=1.0 - 0.5j, delta_p=10.0, delta_q=5.0 + 1.0j),)
    for pairs in (two, shifted):
        spec = MultiplexedSpectrum(params=params, pairs=pairs)
        f = jsa_multiplexed(spec, grid.omegas[:, None], grid.omegas[None, :])
        d = decompose(spec, grid, grid)
        oracle = decompose(f, grid, grid)
        np.testing.assert_array_equal(d.lambdas, oracle.lambdas)
        assert d.norm == oracle.norm


def one_ridge_spectrum(pairs, delta_q, coupling, tau, ridge="one real"):
    """Pairs on the real ridge delta_q; with ridge "two", one more pair on
    a second ridge 25 away, and with "complex", on delta_q + 1j."""
    if ridge == "complex":
        delta_q = complex(delta_q, 1.0)
    extra = (PairShift(weight=0.8 - 0.6j, delta_q=delta_q + 25.0),) \
        if ridge == "two" else ()
    return MultiplexedSpectrum(
        params=PhysicalParams(tau=tau, coupling_prefactor=polar(*coupling)),
        pairs=tuple(PairShift(weight=polar(m, ph), delta_p=dp, delta_q=delta_q)
                    for m, ph, dp in pairs) + extra)


@pytest.mark.parametrize("signal_longer", [False, True])
@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2 * math.pi),
                                st.floats(-60.0, 60.0)),
                      min_size=1, max_size=4),
       delta_q=st.floats(-20.0, 20.0),
       coupling=st.tuples(st.floats(0.01, 100.0), st.floats(0.0, 2 * math.pi)),
       tau=st.floats(0.3, 2.0),
       sizes=st.lists(st.integers(2, 250).filter(lambda n: n % 64),
                      min_size=2, max_size=2, unique=True).map(sorted),
       ridge=st.sampled_from(["one real", "two", "complex"]))
def test_gram_weights_match_svd_of_the_same_r(signal_longer, pairs, delta_q,
                                              coupling, tau, sizes, ridge):
    """The weights are eigenvalues of the Gram matrix of the shorter side
    of R (one real ridge) or of the complex A (two ridges or a complex
    delta_q); the oracle is the values-only SVD of the same matrix, on
    non-square grids of either orientation whose sizes are not multiples
    of the 64-row sampling block.

    Writing R for either, forming G = R R^H in floating point adds E with
    |E| <= c n eps |R| |R|^T entrywise (c = 1 for a real R, a small
    constant for complex products), n the longer side (the inner
    dimension), so ||E||_2 <= c n eps ||R||_F^2; eigvalsh is backward stable
    and adds c k eps ||G||_2, k the shorter side.  By Weyl each eigenvalue
    moves by at most the norm of the perturbation, and after division by
    trace G = ||R||_F^2 >= ||G||_2 each weight moves by (n + c k) eps at
    most, as does the SVD's own.  64 n eps bounds both, and the norm's
    relative error likewise."""
    short, long = sizes
    n_s, n_i = (long, short) if signal_longer else (short, long)
    spec = one_ridge_spectrum(pairs, delta_q, coupling, tau, ridge)
    gs, gi = coarsest_grid(spec.params, n_s), coarsest_grid(spec.params, n_i)
    sigma = np.linalg.svd(schmidt._weighted_samples(spec, gs, gi),
                          compute_uv=False)
    want = (sigma / sigma[0]) ** 2
    want /= np.sum(want)
    d = decompose(spec, gs, gi)
    tol = 64 * long * np.finfo(float).eps
    assert d.lambdas.shape == (short,)
    np.testing.assert_allclose(d.lambdas, want, rtol=0, atol=tol)
    assert d.norm == pytest.approx(math.hypot(*sigma), rel=tol)


def signal_axis(rows):
    """A signal axis of `rows` samples at spacing 0.8.  A FrequencyGrid
    needs two points, so a single row is a stand-in with the attributes
    _weighted_samples reads."""
    if rows == 1:
        return SimpleNamespace(points=1, omegas=np.array([0.7]),
                               weights=np.array([0.8]), spacing=0.8)
    half = 0.4 * (rows - 1)
    return FrequencyGrid(-half, half, rows)


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
def test_blocked_ridge_equals_the_whole_matrix_expression(rows):
    spec = one_ridge_spectrum([(1.0, 0.3, -20.0), (0.7, 2.0, 15.0)], 4.0,
                              (2.0, 1.0), 0.5)
    p = spec.params
    gs, gi = signal_axis(rows), FrequencyGrid(-40.0, 40.0, 97)
    h = p.coupling_prefactor * sum(
        pair.weight * lorentzian_factor(p, gi.omegas, pair.delta_p)
        for pair in spec.pairs)
    want = gaussian_envelope(p, gs.omegas[:, None] + gi.omegas[None, :],
                             4.0) * np.sqrt(gs.weights)[:, None]
    want *= np.sqrt(gi.weights)[None, :] * np.abs(h)
    np.testing.assert_array_equal(schmidt._weighted_samples(spec, gs, gi),
                                  want)

    # two ridges: the complex A, block by block, equals the weighted
    # samples of the whole grid
    two = MultiplexedSpectrum(params=p, pairs=spec.pairs + (
        PairShift(weight=0.5j, delta_p=5.0, delta_q=-12.0),))
    f = jsa_multiplexed(two, gs.omegas[:, None], gi.omegas[None, :])
    want = np.sqrt(gs.weights)[:, None] * f * np.sqrt(gi.weights)[None, :]
    got = schmidt._weighted_samples(two, gs, gi)
    assert got.dtype == complex
    assert got.tobytes() == want.tobytes()


def test_many_ridges_hold_three_amplitudes_at_most(monkeypatch):
    """Eight ridges at a budget of exactly one complex 192 x 192 amplitude
    A: the blocked sampling holds A and one block's temporaries, the Gram
    step A, its conjugate and G (also A, the grid being square), so the
    tracemalloc peak stays within 3 A plus 64 KiB for the grid axes, the
    quadrature weights and the eigenvalues.  Sampling the whole grid at
    once held the amplitude, its exp buffer and one Gaussian per ridge:
    about 11 A."""
    n = 192
    a_bytes = 16 * n * n
    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", a_bytes)
    params = PhysicalParams(tau=0.5)
    spec = MultiplexedSpectrum(params=params, pairs=tuple(
        PairShift(weight=1.0 + 0.1j * k, delta_p=-40.0 + 10.0 * k,
                  delta_q=-40.0 + 11.0 * k) for k in range(8)))
    grid = FrequencyGrid(-95.0, 95.0, n)
    tracemalloc.start()
    try:
        decompose(spec, grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * a_bytes + 64 * 1024, peak / a_bytes
