"""Special-function and quadrature tests against independent oracles."""

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from vbpoisson.errors import IntegrationError
from vbpoisson.special_math import gamma_entropy, gig_moments, integrate_1d, log_gamma


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
    mean, inv_mean = gig_moments(1.0, 1.0)
    assert mean == pytest.approx(2.0, rel=1e-12)
    assert inv_mean == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = float(rng.uniform(0.2, 5.0))
        b = float(rng.uniform(0.2, 5.0))
        mean, inv_mean = gig_moments(a, b)
        assert mean == pytest.approx(_gig_quadrature(a, b, lambda t: t), rel=1e-6)
        assert inv_mean == pytest.approx(_gig_quadrature(a, b, lambda t: 1.0 / t), rel=1e-6)


def test_gig_moments_vectorised_equal_scalar_calls():
    rng = np.random.default_rng(13)
    a = 10.0 ** rng.uniform(-3.0, 2.0, size=60)
    b = 10.0 ** rng.uniform(-4.0, 6.0, size=60)
    b[:3] = [1e-12, 1e8, 3e9]
    for a_arg in (a, 0.37):
        vec = gig_moments(a_arg, b)
        a_list = a if np.ndim(a_arg) else np.full(b.shape, a_arg)
        scalar = np.array(
            [gig_moments(float(ai), float(bi)) for ai, bi in zip(a_list, b)]
        )
        for k in range(2):
            assert vec[k].shape == b.shape
            np.testing.assert_array_equal(vec[k], scalar[:, k])
    with pytest.raises(ValueError, match="b must be positive"):
        gig_moments(1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="a must be positive"):
        gig_moments(np.array([np.inf]), 1.0)


def test_gig_moments_satisfy_mean_inequality():
    # E(t) * E(1/t) >= 1 for any positive random variable
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = float(rng.uniform(1e-3, 50.0))
        b = float(rng.uniform(1e-3, 50.0))
        mean, inv_mean = gig_moments(a, b)
        assert mean > 0.0 and inv_mean > 0.0
        assert mean * inv_mean >= 1.0


def test_gig_rejects_unsupported_order():
    # order 1/2 is the only one; there is no order to set
    with pytest.raises(TypeError):
        gig_moments(1.0, 1.0, order=1.5)
    with pytest.raises(ValueError):
        gig_moments(-1.0, 1.0)


def test_log_gamma_recurrence():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 30.0, size=50)
    np.testing.assert_allclose(log_gamma(x + 1.0), log_gamma(x) + np.log(x), rtol=1e-10)
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)


def test_gamma_entropy_is_either_familys_entropy_without_its_log_moment_term():
    rng = np.random.default_rng(8)
    shape = 10.0 ** rng.uniform(-1.0, 2.0, size=40)
    rate = 10.0 ** rng.uniform(-3.0, 3.0, size=40)
    # E log x is e_log under Gamma(shape, rate) and -e_log under its inverse
    e_log = sp.digamma(shape) - np.log(rate)
    gamma = stats.gamma(shape, scale=1.0 / rate).entropy() + (shape - 1.0) * e_log
    inv_gamma = stats.invgamma(shape, scale=rate).entropy() + (shape + 1.0) * e_log
    np.testing.assert_allclose(gamma_entropy(shape, rate), gamma, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gamma_entropy(shape, rate), inv_gamma, rtol=1e-12, atol=1e-12)


def test_gig_mean_is_the_half_order_bessel_ratio():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 30.0, size=40)
    # with a = b = x the GIG mean is the Bessel ratio at r = x
    np.testing.assert_allclose(
        gig_moments(x, x)[0], sp.kv(1.5, x) / sp.kv(0.5, x), rtol=1e-10
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
