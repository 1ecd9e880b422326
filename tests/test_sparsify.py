"""Thresholding rules, the information criterion search and its bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vbpoisson import sparsify
from vbpoisson.core import Dataset, GaussianPosterior, FitResult, Method
from vbpoisson.sparsify import poisson_loglik, threshold_bernoulli, threshold_hard


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


def test_strong_slopes_get_the_zero_threshold():
    rng = np.random.default_rng(5)
    mu = np.array([0.2, 0.8, -0.6, 0.5])
    x = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    ds = Dataset(x, rng.poisson(np.exp(x @ mu)).astype(float))
    sparse = threshold_hard(_fit_from(mu), ds)
    assert sparse.kappa == 0.0
    np.testing.assert_array_equal(sparse.beta_hat, mu)
    assert sparse.df == 4


def _criterion(mu, kappa, ds):
    """-loglik + 2 df of the slopes above `kappa`, the intercept always kept."""
    bh = mu.copy()
    bh[1:] = np.where(np.abs(mu[1:]) <= kappa, 0.0, mu[1:])
    df = 1 + int(np.count_nonzero(bh[1:]))
    return -poisson_loglik(bh, ds) + 2.0 * df


@st.composite
def _threshold_cases(draw):
    """A Poisson dataset and slopes with exact zeros and repeated magnitudes."""
    p, n = draw(st.integers(1, 8)), draw(st.integers(5, 60))
    pool = [0.0] + draw(st.lists(st.floats(1e-6, 1.5), min_size=1, max_size=4))
    slopes = [draw(st.sampled_from(pool)) * draw(st.sampled_from([-1.0, 1.0]))
              for _ in range(p - 1)]
    mu = np.array([draw(st.floats(-1.0, 1.5))] + slopes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    truth = mu * draw(st.floats(0.0, 1.0))
    y = rng.poisson(np.exp(np.clip(x @ truth, None, 4.0))).astype(float)
    return mu, Dataset(x, y)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_threshold_cases())
def test_threshold_search_matches_brute_force(case):
    mu, ds = case
    sparse = threshold_hard(_fit_from(mu), ds)
    mags = np.abs(mu[1:])
    top = mags.max(initial=0.0)
    seen = {}  # thresholds that zero the same slopes share one criterion
    for kappa in np.concatenate(([0.0], mags, np.linspace(0.0, 1.1 * top, 2001))):
        key = tuple(mags <= kappa)
        if key not in seen:
            seen[key] = _criterion(mu, kappa, ds)
        assert sparse.aic <= seen[key] + 1e-9 * abs(seen[key])
    assert sparse.kappa in np.append(mags, 0.0)
    zeroed = np.flatnonzero(sparse.beta_hat[1:] == 0.0)
    np.testing.assert_array_equal(zeroed, np.flatnonzero(mags <= sparse.kappa))
    assert sparse.beta_hat[0] == mu[0] and sparse.p_binary[0] == 1.0 and 0 in sparse.support


def test_ties_go_to_the_larger_threshold(monkeypatch):
    monkeypatch.setattr(sparsify, "_aic", lambda loglik, df: 1.0)
    sparse = threshold_hard(_fit_from(np.array([0.2, 0.5, -0.9, 0.5])), _dataset())
    assert sparse.kappa == 0.9


def test_intercept_survives_any_threshold(monkeypatch):
    monkeypatch.setattr(sparsify, "_aic", lambda loglik, df: 1.0)
    sparse = threshold_hard(_fit_from(np.array([1e-6, 0.5, 0.5, 0.5])), _dataset())
    assert sparse.beta_hat[0] == 1e-6
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


def test_the_top_threshold_zeroes_the_largest_slope(monkeypatch):
    monkeypatch.setattr(sparsify, "_aic", lambda loglik, df: 1.0)
    mu = np.array([0.2, 0.4, -3.7, 0.05])
    sparse = threshold_hard(_fit_from(mu), _dataset())
    assert sparse.kappa == 3.7
    assert sparse.support == (0,)
    np.testing.assert_array_equal(sparse.beta_hat, [0.2, 0.0, 0.0, 0.0])
