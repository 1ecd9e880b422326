"""Behavioral checks for the three coordinate-ascent engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from vbpoisson import cavi
from vbpoisson.bernoulli import (
    elbo_bernoulli, fit_bernoulli, init_bernoulli, omega_from_p, update_bernoulli,
)
from vbpoisson.core import Dataset, Hyperparameters, Method
from vbpoisson.harness import LOW_DIM, generate
from vbpoisson.laplace import elbo_laplace, fit_laplace, init_laplace, update_laplace
from vbpoisson.likelihood import refresh
from vbpoisson.special_math import gig_moments
from vbpoisson.spike_slab import elbo_cs, fit_cs, init_cs, update_cs


def _small_data(seed=0, n=80, p=5):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = np.zeros(p)
    beta[0] = 0.5
    beta[2] = 0.8
    y = rng.poisson(np.exp(x @ beta)).astype(float)
    return Dataset(x, y), beta


def test_laplace_init_expectations():
    ds, _ = _small_data()
    hp = Hyperparameters()
    state = init_laplace(ds, hp)
    assert state.e_eta == pytest.approx(hp.nu / hp.delta)
    assert state.e_a_inv == pytest.approx(hp.A)
    np.testing.assert_allclose(state.e_tau, np.ones(ds.p))
    assert np.all(np.isfinite(state.posterior.mean))


def test_laplace_keeps_the_log_moment_of_its_last_scale_sweep():
    ds, _ = _small_data()
    hp = Hyperparameters()
    state = init_laplace(ds, hp)
    for _ in range(3):
        state = update_laplace(state, ds, hp)
        mu, sigma = state.posterior.mean, state.posterior.covariance
        # the second-moment diagonal as the ELBO forms it
        d_diag = np.diag(np.outer(mu, mu) + sigma)
        _, _, fresh = gig_moments(state.e_eta, d_diag[1:])
        np.testing.assert_array_equal(state.e_log_tau, fresh)


def test_cs_init_probabilities():
    ds, _ = _small_data()
    state = init_cs(ds, Hyperparameters(), p_start=0.7)
    assert state.p_incl[0] == 1.0
    np.testing.assert_allclose(state.p_incl[1:], 0.7)
    assert state.alpha_tau2 == pytest.approx((ds.p - 1) / 2.0)


def test_bernoulli_init_mask_moments():
    ds, _ = _small_data()
    state = init_bernoulli(ds, Hyperparameters())
    assert state.p_incl[0] == 1.0
    np.testing.assert_allclose(np.diag(state.omega), state.p_incl)
    np.testing.assert_allclose(state.omega, state.omega.T)


def test_omega_from_p_closed_form():
    p = np.array([1.0, 0.3, 0.8])
    om = omega_from_p(p)
    assert om[1, 1] == pytest.approx(0.3)
    assert om[1, 2] == pytest.approx(0.3 * 0.8)
    assert om[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("fitter", [fit_laplace, fit_cs, fit_bernoulli])
def test_fits_converge_on_clean_data(fitter):
    ds, _ = _small_data()
    fit = fitter(ds)
    assert fit.converged
    assert fit.iterations < Hyperparameters().max_iter
    assert fit.elbo_trace[-1] > fit.elbo_trace[0]
    assert np.all(np.isfinite(fit.posterior.mean))
    assert np.all(fit.inclusion_prob >= 0.0) and np.all(fit.inclusion_prob <= 1.0)
    assert fit.inclusion_prob[0] == 1.0


def test_laplace_matches_poisson_ml_under_weak_prior():
    # with the shrinkage strength driven to zero the Gaussian mean should sit
    # near the exact Poisson maximum likelihood estimate
    ds, _ = _small_data(seed=3, n=400, p=4)
    hp = Hyperparameters(nu=1e-6, delta=100.0, A=1e4)
    fit = fit_laplace(ds, hp)

    def neg_loglik(beta):
        eta = ds.design @ beta
        return float(np.sum(np.exp(eta)) - ds.response @ eta)

    res = optimize.minimize(neg_loglik, np.zeros(ds.p), method="BFGS")
    np.testing.assert_allclose(fit.posterior.mean, res.x, rtol=0.05, atol=0.02)


def test_cs_separates_signal_from_noise():
    rng = np.random.default_rng(12)
    train, _, beta_true = generate(LOW_DIM, np.random.default_rng([11, 0]))
    del rng
    fit = fit_cs(train)
    signal = np.flatnonzero(beta_true[1:]) + 1
    noise = np.setdiff1d(np.arange(1, train.p), signal)
    assert fit.inclusion_prob[signal].min() > fit.inclusion_prob[noise].max()


def test_bernoulli_separates_signal_from_noise():
    train, _, beta_true = generate(LOW_DIM, np.random.default_rng([11, 1]))
    fit = fit_bernoulli(train)
    signal = np.flatnonzero(beta_true[1:]) + 1
    noise = np.setdiff1d(np.arange(1, train.p), signal)
    assert fit.inclusion_prob[signal].min() > fit.inclusion_prob[noise].max()


def test_cs_keeps_the_better_of_its_two_starts():
    train, _, _ = generate(LOW_DIM, np.random.default_rng([11, 2]))
    hp = Hyperparameters()
    fit = fit_cs(train, hp)
    finals = []
    for p_start in (0.5, 0.9):
        run = cavi.run(init_cs(train, hp, p_start), train, hp, update_cs, elbo_cs)
        finals.append(run.trace[-1])
    assert fit.elbo_trace[-1] == pytest.approx(max(finals), rel=1e-12)


def test_cs_reports_interval_posterior():
    ds, _ = _small_data()
    fit = fit_cs(ds)
    assert fit.interval_posterior is not None
    assert fit.interval_posterior.mean.shape == fit.posterior.mean.shape
    assert fit_laplace(ds).interval_posterior is None
    assert fit_bernoulli(ds).interval_posterior is None


def test_method_tags():
    ds, _ = _small_data()
    assert fit_laplace(ds).method is Method.LAPLACE
    assert fit_cs(ds).method is Method.CS
    assert fit_bernoulli(ds).method is Method.BERNOULLI


def test_engines_are_deterministic():
    ds, _ = _small_data(seed=9)
    for fitter in (fit_laplace, fit_cs, fit_bernoulli):
        a = fitter(ds)
        b = fitter(ds)
        np.testing.assert_array_equal(a.posterior.mean, b.posterior.mean)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)


def _implied_entropies(method, state, hp, p):
    """scipy.stats entropies of the Gamma and inverse-Gamma factors whose means
    (or inverse means) the state stores, keyed by their ELBO term."""
    if method == "laplace":
        shape = p + hp.nu - 1.0
        return {
            "eta_entropy": stats.gamma(shape, scale=state.e_eta / shape).entropy(),
            "tau0_entropy": stats.invgamma(1.0, scale=1.0 / state.e_tau_inv[0]).entropy(),
            "a_entropy": stats.invgamma(1.0, scale=1.0 / state.e_a_inv).entropy(),
        }
    if method == "cs":
        shape = state.alpha_tau2
        return {
            "tau2_entropy": stats.invgamma(shape, scale=shape / state.e_tau2_inv).entropy(),
            "a_entropy": stats.invgamma(1.0, scale=1.0 / state.e_a_inv).entropy(),
        }
    shape = hp.a_gamma + 0.5
    return {"alpha_entropy": np.sum(stats.gamma(shape, scale=state.e_alpha / shape).entropy())}


_SWEEPS = {
    "laplace": (init_laplace, update_laplace, elbo_laplace),
    "cs": (init_cs, update_cs, elbo_cs),
    "bernoulli": (init_bernoulli, update_bernoulli, elbo_bernoulli),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 60),
    p=st.integers(2, 8),
    sweeps=st.integers(1, 6),
)
def test_elbo_entropies_are_those_of_the_stored_factors(seed, n, p, sweeps):
    """Each Gamma or inverse-Gamma entropy in the bound is the entropy of the
    factor the update fitted, the one its stored expectation came from."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = np.concatenate([[rng.uniform(-0.5, 1.5)], rng.normal(0.0, 0.5, p - 1)])
    ds = Dataset(x, rng.poisson(np.exp(np.minimum(x @ beta, 5.0))).astype(float))
    hp = Hyperparameters()
    for method, (init, update, elbo_terms) in _SWEEPS.items():
        state = init(ds, hp)
        for _ in range(sweeps):
            state = update(state, ds, hp)
            state.quad = refresh(ds.design @ state.linear_coef, ds)
        terms = elbo_terms(state, ds, hp)
        for name, want in _implied_entropies(method, state, hp, p).items():
            assert terms[name] == pytest.approx(want, rel=1e-12, abs=1e-12), (method, name)
