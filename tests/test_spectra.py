"""Joint spectral amplitude, marginals and grids."""

import dataclasses
import math

import numpy as np
import pytest

from biphoton_coding.errors import UnderResolvedGrid
from biphoton_coding.spectra import (
    FrequencyGrid,
    MultiplexedSpectrum,
    PairShift,
    PhysicalParams,
    gaussian_envelope,
    jsa_multiplexed,
    lorentzian_factor,
    marginal_idler_mode,
    marginal_signal_mode,
)

P = PhysicalParams()  # gamma3n = 5, tau = 0.5, unit coupling
ONE = MultiplexedSpectrum(params=P, pairs=(PairShift(),))  # one default pair


def quad_norm(grid, samples):
    return math.sqrt(float(np.sum(grid.weights * np.abs(samples) ** 2)))


def test_on_resonance_value():
    # gaussian factor 1, lorentzian 1/(gamma3n/2) at the origin
    assert jsa_multiplexed(ONE, 0.0, 0.0) == pytest.approx(0.4, abs=1e-12)
    assert abs(complex(jsa_multiplexed(ONE, 0.0, 0.0)).imag) < 1e-15


def test_energy_conserving_axis_is_lorentzian():
    x = np.linspace(-40.0, 40.0, 401)
    f = jsa_multiplexed(ONE, -x, x)  # sum detuning zero all along
    np.testing.assert_allclose(np.abs(f), 1.0 / np.hypot(2.5, x), rtol=1e-12)


def test_gaussian_envelope_width():
    # amplitude FWHM of exp(-(s tau)^2 / 8) is sqrt(32 ln 2)/tau, about 9.4
    # linewidths at tau = 0.5
    fwhm = math.sqrt(32.0 * math.log(2.0)) / P.tau
    assert gaussian_envelope(P, fwhm / 2.0) == pytest.approx(0.5, rel=1e-12)
    assert fwhm == pytest.approx(9.4194, abs=1e-3)


def test_gaussian_envelope_shift():
    s = np.linspace(-10.0, 10.0, 41)
    np.testing.assert_allclose(gaussian_envelope(P, s, delta_q=-3.0),
                               gaussian_envelope(P, s - 3.0), rtol=1e-14)


def test_lorentzian_factor_center():
    w = np.linspace(-30.0, 30.0, 61)
    lor = lorentzian_factor(P, w, delta_p=7.0)
    assert np.argmax(np.abs(lor)) == np.argmin(np.abs(w - 7.0))
    assert lor[np.argmax(np.abs(lor))] == pytest.approx(1.0 / 2.5)


def test_multiplexed_is_linear_in_pairs():
    a = PairShift(weight=0.7, delta_p=-12.0, delta_q=4.0)
    b = PairShift(weight=1.1 - 0.3j, delta_p=9.0, delta_q=-6.0)
    ws = np.linspace(-25.0, 25.0, 41)[:, None]
    wi = np.linspace(-30.0, 30.0, 37)[None, :]
    # c shares a's ridge, whose samples are computed once for both
    c = PairShift(weight=-0.4j, delta_p=20.0, delta_q=4.0)
    fa, fb, fc = (jsa_multiplexed(MultiplexedSpectrum(params=P, pairs=(x,)),
                                  ws, wi) for x in (a, b, c))
    fabc = jsa_multiplexed(MultiplexedSpectrum(params=P, pairs=(a, b, c)),
                           ws, wi)
    np.testing.assert_array_equal(fabc, fa + fb + fc)


def test_overflowing_samples_rejected():
    # weight times prefactor is 1e600: every sample passes the float range
    spec = MultiplexedSpectrum(params=PhysicalParams(coupling_prefactor=1e300),
                               pairs=(PairShift(weight=1e300),))
    w = np.linspace(-10.0, 10.0, 11)
    with pytest.raises(ValueError, match="not finite"):
        jsa_multiplexed(spec, w[:, None], w[None, :])


def test_real_ridge_is_the_real_part_of_the_complex_one():
    # a real delta_q gives float64 samples bit-equal to the real part of
    # the complex ridge, so a product with a complex factor is unchanged
    s = np.linspace(-300.0, 300.0, 20001)
    for dq in (0.0, -3.0):
        real = gaussian_envelope(P, s, dq)
        ridge = gaussian_envelope(P, s, complex(dq))
        assert real.dtype == np.float64 and ridge.dtype == np.complex128
        np.testing.assert_array_equal(real, ridge.real)


def test_pair_peak_location():
    # |f|^2 factorizes in (sum, idler), so the peak sits at
    # idler = delta_p on the ridge sum = -delta_q
    pair = PairShift(delta_p=30.0, delta_q=-80.0)
    spec = MultiplexedSpectrum(params=P, pairs=(pair,))
    ws = np.linspace(20.0, 80.0, 121)
    wi = np.linspace(0.0, 60.0, 121)
    f = np.abs(jsa_multiplexed(spec, ws[:, None], wi[None, :]))
    i, j = np.unravel_index(int(np.argmax(f)), f.shape)
    assert ws[i] == pytest.approx(50.0, abs=0.5)   # -(delta_p + delta_q)
    assert wi[j] == pytest.approx(30.0, abs=0.5)
    assert pair.signal_center == pytest.approx(50.0)


def test_comb_layout():
    spec = MultiplexedSpectrum.comb(4, 100.0, P)
    assert spec.n_pairs == 4
    assert [p.delta_p for p in spec.pairs] == [-150.0, -50.0, 50.0, 150.0]
    assert all(p.delta_q == 0.0 for p in spec.pairs)
    assert all(p.weight == 1.0 for p in spec.pairs)


def test_parameter_validation():
    with pytest.raises(ValueError):
        PhysicalParams(tau=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(gamma3n=-1.0)
    for bad in (dict(tau=math.nan), dict(gamma3n=math.inf),
                dict(coupling_prefactor=complex(1.0, math.nan))):
        with pytest.raises(ValueError):
            PhysicalParams(**bad)
    with pytest.raises(ValueError):
        PairShift(weight=float("inf"))
    with pytest.raises(ValueError):
        MultiplexedSpectrum(params=P, pairs=())


@pytest.mark.parametrize("field",
                         [f.name for f in dataclasses.fields(PhysicalParams)])
def test_every_physical_parameter_changes_the_amplitude(field):
    # a field the amplitude never reads would be a config key that
    # silently does nothing
    spec = MultiplexedSpectrum.comb(2, 6.0, P)
    ws = np.linspace(-10.0, 10.0, 9)[:, None]
    wi = np.linspace(-10.0, 10.0, 9)[None, :]
    perturbed = dataclasses.replace(P, **{field: 1.5 * getattr(P, field)})
    moved = dataclasses.replace(spec, params=perturbed)
    assert not np.array_equal(jsa_multiplexed(spec, ws, wi),
                              jsa_multiplexed(moved, ws, wi))


def test_grid_basics():
    g = FrequencyGrid(-10.0, 10.0, 81)
    assert g.spacing == pytest.approx(0.25)
    assert g.omegas[0] == -10.0 and g.omegas[-1] == 10.0
    # trapezoid weights integrate a constant to the span
    assert float(np.sum(g.weights)) == pytest.approx(20.0, rel=1e-12)
    assert g.weights[0] == pytest.approx(g.spacing / 2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 1.0, 1)


def test_signal_marginal_norm_and_center():
    pair = PairShift(delta_p=20.0, delta_q=-50.0)
    grid = FrequencyGrid(0.0, 60.0, 601)
    mode, n_s = marginal_signal_mode(pair, P, grid)
    assert quad_norm(grid, mode) == pytest.approx(1.0, abs=1e-8)
    # analytic norm: N_s^2 = exp((gamma3n tau)^2 / 16) * 2 sqrt(pi) / tau
    n_sq = math.exp((P.gamma3n * P.tau) ** 2 / 16.0) \
        * 2.0 * math.sqrt(math.pi) / P.tau
    assert n_s ** 2 == pytest.approx(n_sq, rel=1e-3)
    assert n_s ** 2 == pytest.approx(10.478067929707816, rel=1e-9)
    peak = grid.omegas[int(np.argmax(np.abs(mode)))]
    assert peak == pytest.approx(30.0, abs=grid.spacing)  # -(dp + dq)


def test_idler_marginal_norm_converges_to_lorentzian():
    pair = PairShift()
    target = 2.0 * math.pi / P.gamma3n
    devs = []
    for half in (100.0, 250.0, 500.0):
        grid = FrequencyGrid(-half, half, int(round(2 * half / 0.25)) + 1)
        mode, n_i = marginal_idler_mode(pair, P, grid)
        assert quad_norm(grid, mode) == pytest.approx(1.0, abs=1e-8)
        devs.append(abs(n_i ** 2 - target) / target)
    assert devs[-1] < 5e-3
    assert devs[0] > devs[1] > devs[2]  # truncated tails shrink


def test_idler_marginal_peak():
    pair = PairShift(delta_p=50.0)
    grid = FrequencyGrid(-100.0, 200.0, 1201)
    mode, _ = marginal_idler_mode(pair, P, grid)
    assert grid.omegas[int(np.argmax(np.abs(mode)))] == pytest.approx(50.0)


def test_signal_marginal_rejects_coarse_grid():
    # ridge resolution bound is (1/tau)/8 = 0.25 at tau = 0.5
    with pytest.raises(UnderResolvedGrid):
        marginal_signal_mode(PairShift(), P, FrequencyGrid(-30.0, 30.0, 61))


def test_idler_marginal_requires_wing_coverage():
    with pytest.raises(UnderResolvedGrid):
        marginal_idler_mode(PairShift(delta_p=80.0), P,
                            FrequencyGrid(-30.0, 30.0, 601))


def line_integral(params, omega_s):
    """Closed-form idler line integral of the unit-coupling amplitude.

    A Gaussian convolved with a Lorentzian is a Faddeeva function:
    int f(ws, wi) dwi = pi conj(w(a ws + i a gamma3n/2)), a = tau/(2 sqrt 2).
    """
    from scipy.special import wofz

    a = params.tau / (2.0 * math.sqrt(2.0))
    return math.pi * np.conj(wofz(a * (np.asarray(omega_s)
                                       + 1j * params.half_linewidth)))


def test_line_integral_closed_form_matches_quadrature():
    wi = FrequencyGrid(-2000.0, 2000.0, 400001)
    ws = np.array([-20.0, -7.5, 0.0, 3.0, 25.0])
    brute = jsa_multiplexed(ONE, ws[:, None], wi.omegas[None, :]) @ wi.weights
    np.testing.assert_allclose(line_integral(P, ws), brute, rtol=1e-13)


def test_signal_marginal_tracks_line_integral_shape():
    """The normalized signal marginal follows the idler line integral of
    the amplitude only approximately: integrating the Lorentzian against
    the shifted Gaussian leaves a sum-detuning-dependent Faddeeva factor
    behind.  At gamma3n*tau = 2.5 the unit-normalized shapes differ by
    about 0.13 in sup norm; pin that level so regressions in either
    direction show up."""
    grid = FrequencyGrid(-30.0, 30.0, 601)
    integral = line_integral(P, grid.omegas)
    mode, _ = marginal_signal_mode(PairShift(), P, grid)
    a = integral / quad_norm(grid, integral)
    b = mode / quad_norm(grid, mode)
    k = int(np.argmax(np.abs(b)))
    a *= np.exp(1j * (np.angle(b[k]) - np.angle(a[k])))
    dev = float(np.max(np.abs(a - b)))
    assert 0.05 < dev < 0.2
