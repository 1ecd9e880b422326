"""Thresholding rules, the information criterion search and its bookkeeping."""

import numpy as np
import pytest
from scipy import stats

from vbpoisson.core import Dataset, GaussianPosterior, FitResult, Method
from vbpoisson.sparsify import (
    default_grid,
    poisson_loglik,
    threshold_bernoulli,
    threshold_hard,
)


def _fit_from(mu, method=Method.LAPLACE, p_incl=None):
    p = mu.shape[0]
    return FitResult(
        method=method,
        posterior=GaussianPosterior(np.asarray(mu, dtype=float), np.eye(p)),
        inclusion_prob=np.ones(p) if p_incl is None else np.asarray(p_incl, dtype=float),
        hyper_expectations={},
        elbo_trace=np.array([-1.0]),
        iterations=1,
        converged=True,
    )


def _dataset(seed=0, n=40, p=4):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = rng.poisson(2.0, size=n).astype(float)
    return Dataset(x, y)


def test_poisson_loglik_matches_scipy():
    ds = _dataset()
    beta = np.array([0.3, 0.1, -0.2, 0.0])
    rates = np.exp(ds.design @ beta)
    expected = float(np.sum(stats.poisson.logpmf(ds.response.astype(int), rates)))
    assert poisson_loglik(beta, ds) == pytest.approx(expected, rel=1e-12)


def test_poisson_loglik_overflow_returns_minus_inf():
    ds = _dataset()
    beta = np.array([800.0, 0.0, 0.0, 0.0])
    assert poisson_loglik(beta, ds) == -np.inf


def test_zero_threshold_grid_is_identity():
    ds = _dataset()
    mu = np.array([0.2, 0.4, -0.3, 0.05])
    sparse = threshold_hard(_fit_from(mu), ds, grid=np.array([0.0]))
    np.testing.assert_array_equal(sparse.beta_hat, mu)
    assert sparse.kappa == 0.0
    assert sparse.df == 4


def test_threshold_search_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(20):
        ds = _dataset(seed=100 + trial, p=5)
        mu = rng.normal(0.0, 0.5, size=5)
        fit = _fit_from(mu)
        grid = default_grid(mu)
        sparse = threshold_hard(fit, ds, grid=grid)
        best_aic = np.inf
        best_kappa = None
        for kappa in np.sort(grid):
            bh = mu.copy()
            bh[1:] = np.where(np.abs(mu[1:]) <= kappa, 0.0, mu[1:])
            df = 1 + int(np.count_nonzero(bh[1:]))
            aic = -poisson_loglik(bh, ds) + 2.0 * df
            if aic <= best_aic:
                best_aic = aic
                best_kappa = kappa
        assert sparse.kappa == pytest.approx(best_kappa)
        assert sparse.aic == pytest.approx(best_aic)


def test_ties_go_to_the_larger_threshold():
    ds = _dataset()
    mu = np.array([0.2, 0.0, 0.0, 0.0])
    # every threshold produces the same fit, so the last (largest) one wins
    sparse = threshold_hard(_fit_from(mu), ds, grid=np.array([0.01, 0.1, 1.0]))
    assert sparse.kappa == pytest.approx(1.0)


def test_intercept_survives_any_threshold():
    ds = _dataset()
    mu = np.array([1e-6, 0.5, 0.5, 0.5])
    sparse = threshold_hard(_fit_from(mu), ds, grid=np.array([10.0]))
    assert sparse.beta_hat[0] == pytest.approx(1e-6)
    assert sparse.support == (0,)
    assert sparse.p_binary[0] == 1.0


def test_bernoulli_rule_matches_direct_comparison():
    ds = _dataset(p=6)
    rng = np.random.default_rng(33)
    for _ in range(1000):
        p_incl = np.concatenate([[1.0], rng.uniform(0.0, 1.0, size=5)])
        mu = rng.normal(0.0, 1.0, size=6)
        fit = _fit_from(mu, method=Method.BERNOULLI, p_incl=p_incl)
        sparse = threshold_bernoulli(fit)
        expect = np.where(p_incl > 0.5, mu, 0.0)
        expect[0] = mu[0]
        np.testing.assert_array_equal(sparse.beta_hat, expect)
        np.testing.assert_array_equal(sparse.p_binary[1:], (p_incl[1:] > 0.5).astype(float))
        assert sparse.p_binary[0] == 1.0


def test_bernoulli_rule_rejects_other_fits():
    with pytest.raises(ValueError):
        threshold_bernoulli(_fit_from(np.array([0.1, 0.2])))


def test_hard_rule_rejects_bernoulli_fit():
    ds = _dataset()
    fit = _fit_from(np.array([0.1, 0.2, 0.3, 0.4]), method=Method.BERNOULLI)
    with pytest.raises(ValueError):
        threshold_hard(fit, ds)


def test_empty_grid_rejected():
    ds = _dataset()
    with pytest.raises(ValueError):
        threshold_hard(_fit_from(np.array([0.1, 0.2, 0.3, 0.4])), ds, grid=np.array([]))


def test_default_grid_spans_the_slopes():
    mu = np.array([0.5, 0.02, -0.9, 0.1])
    grid = default_grid(mu)
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(0.9)
    assert np.all(np.diff(grid) > 0.0)


def test_the_top_threshold_zeroes_the_largest_slope():
    # 10**log10(3.7) rounds an ulp below 3.7, where a plain logspace grid ends
    mu = np.array([0.2, 0.4, -3.7, 0.05])
    assert np.logspace(-4, np.log10(3.7), 50)[-1] < 3.7
    grid = default_grid(mu)
    assert grid[-1] == 3.7
    np.testing.assert_array_equal(grid[:-1], np.logspace(-4, np.log10(3.7), 50)[:-1])
    sparse = threshold_hard(_fit_from(mu), _dataset(), grid=grid[-1:])
    assert sparse.kappa == 3.7
    assert sparse.support == (0,)
    np.testing.assert_array_equal(sparse.beta_hat, [0.2, 0.0, 0.0, 0.0])
