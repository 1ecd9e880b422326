"""Special-function and quadrature tests against independent oracles."""

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from vbpoisson.errors import IntegrationError
from vbpoisson.special_math import (
    GigParams,
    _exp_e1,
    bessel_k_half_ratio,
    digamma,
    gig_moments,
    integrate_1d,
    log_bessel_k_half,
    log_gamma,
    sigmoid,
)


def _gig_quadrature(a, b, fn):
    """Direct quadrature of fn against the unnormalized GIG(1/2) density."""
    scale = np.sqrt(b / a)
    grid = np.linspace(1e-9, scale * 60.0 + 60.0 / a, 400001)
    log_dens = -0.5 * np.log(grid) - 0.5 * (a * grid + b / grid)
    log_dens -= log_dens.max()
    dens = np.exp(log_dens)
    norm = np.trapezoid(dens, grid)
    return np.trapezoid(fn(grid) * dens, grid) / norm


def test_gig_mean_and_inverse_mean_match_quadrature():
    mean, inv_mean, _ = gig_moments(GigParams(a=1.0, b=1.0))
    assert mean == pytest.approx(2.0, rel=1e-12)
    assert inv_mean == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = float(rng.uniform(0.2, 5.0))
        b = float(rng.uniform(0.2, 5.0))
        mean, inv_mean, log_mean = gig_moments(GigParams(a=a, b=b))
        assert mean == pytest.approx(_gig_quadrature(a, b, lambda t: t), rel=1e-6)
        assert inv_mean == pytest.approx(_gig_quadrature(a, b, lambda t: 1.0 / t), rel=1e-6)
        assert log_mean == pytest.approx(_gig_quadrature(a, b, np.log), abs=1e-4)


def _gig_log_moment_quad(a, b):
    """E(log t) under GIG(1/2, a, b) by adaptive quadrature over u = log t."""
    mode = np.log(np.sqrt(b / a))

    def log_dens(u):
        # t^{-1/2} dt = e^{u/2} du; shifted by its value at the mode
        with np.errstate(over="ignore"):
            return 0.5 * (u - mode) - 0.5 * (a * (np.exp(u) - np.exp(mode))
                                              + b * (np.exp(-u) - np.exp(-mode)))

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    norm, _ = integrate.quad(lambda u: np.exp(log_dens(u)), -np.inf, np.inf, **opts)
    first, _ = integrate.quad(
        lambda u: (u - mode) * np.exp(log_dens(u)), -np.inf, np.inf, **opts
    )
    return mode + first / norm


def test_gig_log_moment_matches_quadrature():
    # the closed form agrees to about 1e-15; a finite difference in the
    # Bessel order, at step 1e-5, is off by up to 1e-9 on these cases
    rng = np.random.default_rng(12)
    cases = [(1.0, 1.0), (1e-3, 1e-4), (50.0, 40.0), (0.01, 2e3)]
    cases += [tuple(10.0 ** rng.uniform(-3.0, 1.7, size=2)) for _ in range(12)]
    for a, b in cases:
        _, _, log_mean = gig_moments(GigParams(a=a, b=b))
        assert log_mean == pytest.approx(_gig_log_moment_quad(a, b), rel=1e-12, abs=1e-15)


def test_gig_moments_vectorised_equal_scalar_calls():
    rng = np.random.default_rng(13)
    a = 10.0 ** rng.uniform(-3.0, 2.0, size=60)
    b = 10.0 ** rng.uniform(-4.0, 6.0, size=60)
    b[:3] = [1e-12, 1e8, 3e9]  # reaches z = 2 sqrt(ab) beyond 700
    for a_arg in (a, 0.37):
        vec = gig_moments(GigParams(a=a_arg, b=b))
        a_list = a if np.ndim(a_arg) else np.full(b.shape, a_arg)
        scalar = np.array(
            [gig_moments(GigParams(a=float(ai), b=float(bi))) for ai, bi in zip(a_list, b)]
        )
        for k in range(3):
            assert vec[k].shape == b.shape
            np.testing.assert_array_equal(vec[k], scalar[:, k])
    assert all(isinstance(v, float) for v in gig_moments(GigParams(a=2.0, b=3.0)))
    with pytest.raises(ValueError, match="GigParams.b"):
        GigParams(a=1.0, b=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="GigParams.a"):
        GigParams(a=np.array([np.inf]), b=1.0)


def test_gig_log_moment_follows_asymptotic_series_where_exp_overflows():
    # log-moment minus 0.5 log(b/a) is e^z E1(z) with z = 2 sqrt(ab), whose
    # expansion is 1/z - 1/z^2 + 2/z^3 - 6/z^4 + 24/z^5 - ...
    z = np.array([200.0, 699.999, 700.0, 700.001, 1500.0, 5000.0, 1e4])
    a = np.ones_like(z)
    b = (z / 2.0) ** 2
    _, _, log_mean = gig_moments(GigParams(a=a, b=b))
    assert np.all(np.isfinite(log_mean))
    series = sum((-1) ** k * sp.factorial(k) / z ** (k + 1) for k in range(16))
    np.testing.assert_allclose(log_mean, 0.5 * np.log(b / a) + series, rtol=1e-15)
    np.testing.assert_allclose(_exp_e1(z), series, rtol=1e-14)
    # exp1 and the series meet without a step at the switch-over
    below = _exp_e1(np.nextafter(700.0, 0.0))
    assert _exp_e1(700.0) == pytest.approx(below, rel=1e-14)


def test_gig_moments_satisfy_mean_inequality():
    # E(t) * E(1/t) >= 1 for any positive random variable
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = float(rng.uniform(1e-3, 50.0))
        b = float(rng.uniform(1e-3, 50.0))
        mean, inv_mean, _ = gig_moments(GigParams(a=a, b=b))
        assert mean > 0.0 and inv_mean > 0.0
        assert mean * inv_mean >= 1.0


def test_gig_rejects_unsupported_order():
    # order 1/2 is the only one; there is no order to set
    with pytest.raises(TypeError):
        GigParams(a=1.0, b=1.0, order=1.5)
    with pytest.raises(ValueError):
        gig_moments(GigParams(a=-1.0, b=1.0))


def test_digamma_recurrence_and_known_value():
    assert digamma(1.0) == pytest.approx(-np.euler_gamma, rel=1e-12)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 20.0, size=50)
    np.testing.assert_allclose(digamma(x + 1.0), digamma(x) + 1.0 / x, rtol=1e-10)
    with pytest.raises(ValueError):
        digamma(0.0)


def test_log_gamma_recurrence():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 30.0, size=50)
    np.testing.assert_allclose(log_gamma(x + 1.0), log_gamma(x) + np.log(x), rtol=1e-10)
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)


def test_sigmoid_endpoints_and_symmetry():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(800.0) == pytest.approx(1.0)
    assert sigmoid(-800.0) == pytest.approx(0.0)
    x = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones_like(x), rtol=1e-12)


def test_half_order_bessel_closed_forms_match_scipy():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 30.0, size=40)
    np.testing.assert_allclose(
        log_bessel_k_half(x), np.log(sp.kv(0.5, x)), rtol=1e-10
    )
    np.testing.assert_allclose(
        bessel_k_half_ratio(x), sp.kv(1.5, x) / sp.kv(0.5, x), rtol=1e-10
    )


def test_integrate_finite_intervals():
    assert integrate_1d(np.sin, 0.0, np.pi, 1e-10) == pytest.approx(2.0, rel=1e-9)
    assert integrate_1d(lambda t: t**3, -1.0, 1.0, 1e-10) == pytest.approx(0.0, abs=1e-10)
    poly = integrate_1d(lambda t: 3.0 * t**2, 0.0, 2.0, 1e-10)
    assert poly == pytest.approx(8.0, rel=1e-9)


def test_integrate_rejects_non_finite_bounds():
    for lower, upper in [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)]:
        with pytest.raises(ValueError, match="finite"):
            integrate_1d(lambda t: np.exp(-t), lower, upper, 1e-10)


def test_integrate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate_1d(np.sin, 1.0, 0.0, 1e-8)


def test_integration_error_carries_estimate():
    err = IntegrationError("tolerance not reached", estimate=0.5)
    assert err.estimate == 0.5
