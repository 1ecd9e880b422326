"""Quadratic likelihood bound: geometry, refresh and expected log-likelihood."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vbpoisson.core import Dataset
from vbpoisson.errors import DivergenceError
from vbpoisson.likelihood import poisson_logpmf, quad_bound, refresh
from vbpoisson.linalg import GaussianPosterior


def test_bound_touches_exponential_at_expansion_point():
    for xi in (-3.0, -0.5, 0.0, 1.2, 4.0):
        assert quad_bound(xi, xi) == pytest.approx(np.exp(xi), rel=1e-12)


def test_bound_sits_below_exponential_beyond_the_expansion_point():
    xs = np.linspace(-4.0, 4.0, 41)
    for xi in xs:
        for x in xs:
            diff = quad_bound(x, xi) - np.exp(x)
            if x > xi:
                assert diff < 0.0
            elif x < xi:
                assert diff > 0.0


def test_refresh_builds_weighted_moments():
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
    y = rng.poisson(1.0, size=5).astype(float)
    ds = Dataset(x, y)
    xi = rng.standard_normal(5)
    q = refresh(xi, ds)
    expected = (x * np.exp(xi)[:, None]).T @ x
    np.testing.assert_allclose(q.s_x_xi, expected, rtol=1e-12)
    np.testing.assert_allclose(q.s_x_xi, q.s_x_xi.T, rtol=0, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), p=st.integers(1, 12))
def test_refresh_score_is_the_surrogate_linear_term(seed, n, p):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.1, 5.0)])
    y = rng.poisson(rng.uniform(0.0, 20.0), size=n).astype(float)
    xi = rng.normal(0.0, 3.0, n)
    q = refresh(xi, Dataset(x, y))
    # bit for bit: every engine's coefficient update reads this field
    assert np.array_equal(q.score, x.T @ (y - np.exp(xi) * (1.0 - xi)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an 80-bit long double")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), p=st.integers(1, 80))
def test_s_is_exactly_symmetric_within_its_rounding(seed, n, p):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=p - 1)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * scales])
    xi = rng.uniform(-5.0, 5.0, size=n)
    q = refresh(xi, Dataset(x, np.zeros(n)))
    s = q.s_x_xi
    assert np.array_equal(s, s.T)
    # each product r_ij r_ik carries the rounding of e^(xi_i / 2) and of three
    # products, and the sum of n of them adds n more (Higham 2002, sec. 3.1):
    # (n + 4) eps of sum_i e^xi_i |x_ij x_ik|, counting eps as two units
    x_long = x.astype(np.longdouble)
    exact = (x_long * np.exp(xi.astype(np.longdouble))[:, None]).T @ x_long
    scale = (np.abs(x) * np.exp(xi)[:, None]).T @ np.abs(x)
    bound = (n + 4) * np.finfo(float).eps * scale
    assert np.all(np.abs(s - exact).astype(float) <= bound)
    assert np.all(np.abs(q.s_diag - np.diag(exact)).astype(float) <= np.diag(bound))


def test_refresh_rejects_overflowing_expansion():
    ds = Dataset(np.ones((1, 1)), np.zeros(1))
    with pytest.raises(DivergenceError):
        refresh(np.array([701.0]), ds)


def test_expected_loglik_single_zero_count():
    # one observation, intercept only, count 0, point-mass posterior at 0:
    # the bound evaluates to -exp(0) = -1
    ds = Dataset(np.ones((1, 1)), np.zeros(1))
    q = refresh(np.zeros(1), ds)
    point = GaussianPosterior(np.zeros(1), np.zeros((1, 1)))
    assert point.expected_loglik(q) == pytest.approx(-1.0, rel=1e-12)


def test_expected_loglik_matches_poisson_at_degenerate_posterior():
    # with a point-mass posterior and the expansion at the same point, the
    # bound equals the exact Poisson log-likelihood up to the y! constant
    rng = np.random.default_rng(1)
    x = np.column_stack([np.ones(8), rng.standard_normal((8, 2))])
    beta = np.array([0.3, 0.2, -0.1])
    y = rng.poisson(np.exp(x @ beta)).astype(float)
    ds = Dataset(x, y)
    eta = x @ beta
    q = refresh(eta, ds)
    val = GaussianPosterior(beta, np.zeros((3, 3))).expected_loglik(q)
    exact = float(y @ eta - np.sum(np.exp(eta)))
    assert val == pytest.approx(exact, rel=1e-10)


def test_expected_loglik_decreases_with_extra_variance():
    rng = np.random.default_rng(2)
    x = np.column_stack([np.ones(10), rng.standard_normal((10, 2))])
    y = rng.poisson(1.5, size=10).astype(float)
    ds = Dataset(x, y)
    mu = np.array([0.1, 0.0, 0.0])
    q = refresh(x @ mu, ds)
    tight = GaussianPosterior(mu, np.zeros((3, 3))).expected_loglik(q)
    loose = GaussianPosterior(mu, 0.5 * np.eye(3)).expected_loglik(q)
    assert loose < tight


def test_expected_loglik_equals_the_matrix_product_trace():
    # a dense factor's O(p^2) elementwise sum equals tr(S D) for the
    # symmetric S and D it meets
    rng = np.random.default_rng(3)
    for n, p in ((30, 200), (12, 5), (4, 1)):
        x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = rng.poisson(2.0, size=n).astype(float)
        ds = Dataset(x, y)
        q = refresh(0.3 * rng.standard_normal(n), ds)
        mu = rng.standard_normal(p)
        a = rng.standard_normal((p, p))
        sigma = a @ a.T / p
        d_beta = np.outer(mu, mu) + sigma
        xmu = x @ mu
        m_xi = np.exp(q.xi) * (1.0 - q.xi)
        by_trace = float(
            -m_xi @ (1.0 + xmu)
            - 0.5 * np.sum(q.xi**2 * np.exp(q.xi))
            - 0.5 * np.trace(q.s_x_xi @ d_beta)
            + y @ xmu
        )
        assert GaussianPosterior(mu, sigma).expected_loglik(q) == pytest.approx(by_trace, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(1, 15))
def test_expected_loglik_matches_the_trace_and_masked_forms(seed, n, p):
    # oracles built from X @ v: the trace form at the plain moments and the
    # masked form at the Bernoulli mask's moments
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.1, 3.0)])
    y = rng.poisson(rng.uniform(0.0, 20.0), size=n).astype(float)
    q = refresh(rng.normal(0.0, 2.0, n), Dataset(x, y))
    m_xi = np.exp(q.xi) * (1.0 - q.xi)
    mu = rng.normal(0.0, 2.0, p)
    a = rng.standard_normal((p, p))
    factor = GaussianPosterior(mu, a @ a.T / p + 1e-3 * np.eye(p))
    d_beta = np.outer(mu, mu) + factor.covariance
    xmu = x @ mu
    by_trace = float(
        -m_xi @ (1.0 + xmu)
        - 0.5 * np.sum(q.xi**2 * np.exp(q.xi))
        - 0.5 * np.trace(q.s_x_xi @ d_beta)
        + y @ xmu
    )
    assert factor.expected_loglik(q) == pytest.approx(by_trace, rel=1e-12)
    p_incl = rng.uniform(0.0, 1.0, p)
    p_incl[rng.random(p) < 0.2] = rng.choice([0.0, 1.0])
    omega = np.outer(p_incl, p_incl) + np.diag(p_incl * (1.0 - p_incl))
    masked = float(
        (y - m_xi) @ (x @ (p_incl * mu))
        - 0.5 * np.sum(d_beta * (q.s_x_xi * omega))
        - np.sum(np.exp(q.xi) * (1.0 - q.xi + 0.5 * q.xi**2))
    )
    assert factor.expected_loglik(q, col=p_incl) == pytest.approx(masked, rel=1e-12)


def test_poisson_logpmf_matches_scipy():
    y = np.arange(0.0, 200.0)
    for log_rate in (-5.0, -0.3, 0.0, 1.7, 4.5):
        np.testing.assert_allclose(
            poisson_logpmf(y, log_rate), stats.poisson.logpmf(y, np.exp(log_rate)),
            rtol=1e-12, atol=1e-12,
        )
