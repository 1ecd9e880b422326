"""Behavioral checks for the three coordinate-ascent engines."""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy import special as sp

from vbpoisson import bernoulli, cavi, laplace, spike_slab
from vbpoisson.bernoulli import elbo_bernoulli, fit_bernoulli, init_bernoulli, update_bernoulli
from vbpoisson.core import Dataset, Hyperparameters, Method
from vbpoisson.harness import LOW_DIM, generate
from vbpoisson.laplace import elbo_laplace, fit_laplace, init_laplace, update_laplace
from vbpoisson.likelihood import QuadApprox, refresh
from vbpoisson.linalg import GaussianPosterior, pd_inverse
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
    np.testing.assert_allclose(state.p_incl[1:], 0.5)


@pytest.mark.parametrize("engine", ["laplace", "cs", "bernoulli"])
def test_a_wide_design_gets_the_factor_of_the_dense_precision(engine):
    # n < p runs the capacitance solve; inverting the precision the n >= p path
    # forms must give the same factor on the engine's own states
    ds, _ = _small_data(n=15, p=40)
    hp = Hyperparameters()
    init, update, beta = {
        "laplace": (init_laplace, update_laplace, laplace.update_beta_laplace),
        "cs": (init_cs, update_cs, lambda s: spike_slab.update_beta_cs(s, hp)),
        "bernoulli": (init_bernoulli, update_bernoulli, bernoulli.update_beta_bernoulli),
    }[engine]
    state = init(ds, hp)
    for _ in range(3):
        state = update(state, ds, hp)
    s, score = state.quad.s_x_xi, state.quad.score
    if engine == "laplace":
        precision = s + np.diag(state.e_tau_inv)
    elif engine == "cs":
        precision = s + np.diag(state.e_tau2_inv * (state.p_incl + (1.0 - state.p_incl) / hp.c))
    else:
        # S o Omega, Omega the mask's second moments p p^T + diag(p (1 - p))
        p = state.p_incl
        precision = s * (np.outer(p, p) + np.diag(p * (1.0 - p))) + np.diag(state.e_alpha)
        score = p * score
    sigma, logdet = pd_inverse(precision)
    post = beta(state)
    # covariance is the factor's one dense accessor; the variances come from V
    np.testing.assert_allclose(post.covariance, sigma, rtol=0, atol=1e-10 * np.max(np.abs(sigma)))
    np.testing.assert_allclose(
        post.variances, np.diag(sigma), rtol=0, atol=1e-10 * np.max(np.abs(sigma)))
    mean = sigma @ score
    np.testing.assert_allclose(post.mean, mean, rtol=0, atol=1e-10 * np.max(np.abs(mean)))
    assert post.logdet == pytest.approx(logdet, rel=1e-10)


def _count_computations(monkeypatch, cls, name, counts):
    """Replace the cached property cls.name by one that counts its computations."""
    inner = cls.__dict__[name].func

    def counted(self):
        counts[name] += 1
        return inner(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


@pytest.mark.parametrize("fitter", [fit_laplace, fit_cs, fit_bernoulli])
def test_a_wide_fit_forms_no_p_by_p_matrix_per_sweep(monkeypatch, fitter):
    # n < p: Laplace and CS form neither X^T W X nor a dense covariance, which
    # their fits form only when read; the Bernoulli mask sweep reads both, once
    # per sweep, and nothing else does. Each bound forms its root R once, and
    # its solves, its ELBO term and its X^T W X all read that one
    counts = {"s_x_xi": 0, "covariance": 0, "_root": 0}
    _count_computations(monkeypatch, QuadApprox, "s_x_xi", counts)
    _count_computations(monkeypatch, GaussianPosterior, "covariance", counts)
    _count_computations(monkeypatch, QuadApprox, "_root", counts)
    bounds = []
    init = QuadApprox.__init__

    def counted_init(self, *args, **kwargs):
        bounds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadApprox, "__init__", counted_init)
    ds, _ = _small_data(n=12, p=30)
    fit = fitter(ds, Hyperparameters(epsilon=1e-300, max_iter=15))
    assert fit.iterations == 15
    expected = {
        fit_laplace: {"s_x_xi": 0, "covariance": 0},
        fit_cs: {"s_x_xi": 0, "covariance": 0},
        fit_bernoulli: {"s_x_xi": 15, "covariance": 15},
    }[fitter]
    assert counts == {**expected, "_root": len(bounds)}


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


def test_cs_runs_one_start_on_intercept_only_data(monkeypatch):
    # at p = 1 init_cs pins the only entry, so a second start repeats the first
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return init_cs(*args)

    monkeypatch.setattr(spike_slab, "init_cs", counted)
    rng = np.random.default_rng(4)
    ds = Dataset(np.ones((30, 1)), rng.poisson(2.0, size=30).astype(float))
    fit = spike_slab.fit_cs(ds)
    assert calls == [(0.5,)]
    assert fit.converged and fit.inclusion_prob.tolist() == [1.0]
    fit_cs(_small_data()[0])
    assert calls[1:] == [(0.5,), (0.9,)]


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


def _gamma(shape, rate, mean):
    """A Gamma factor's scipy.stats entropy, from its stored mean, and the
    -(shape - 1) E log x part of it, from its stored rate."""
    entropy = stats.gamma(shape, scale=mean / shape).entropy()
    return np.sum(entropy), np.sum(-(shape - 1.0) * (sp.digamma(shape) - np.log(rate)))


def _inv_gamma(shape, rate, inv_mean):
    """An inverse-Gamma factor's scipy.stats entropy, from its stored inverse
    mean, and the (shape + 1) E log x part of it, from its stored rate."""
    entropy = stats.invgamma(shape, scale=shape / inv_mean).entropy()
    return entropy, (shape + 1.0) * (np.log(rate) - sp.digamma(shape))


def _gig_half(e_eta, d, p):
    """The GIG(1/2, E eta, d_j) factors' scipy.stats entropies, and the
    (p - 1) log 2 + 1/2 sum E log tau_j part of them, both by quadrature."""
    factors = [stats.geninvgauss(0.5, np.sqrt(e_eta * dj), scale=np.sqrt(dj / e_eta))
               for dj in d]
    dropped = (p - 1) * np.log(2.0) + 0.5 * sum(f.expect(np.log) for f in factors)
    return sum(f.entropy() for f in factors), dropped


def _indicators(state, hp):
    """The Bernoulli indicators' and the Beta factors' scipy.stats entropies,
    each Beta factor at the inclusion value it was last refitted at."""
    q = state.pi_p[1:]
    beta = stats.beta(hp.rho1 + q, hp.rho2 + 1.0 - q).entropy()
    return (np.sum(stats.bernoulli(state.p_incl[1:]).entropy()), 0.0), (np.sum(beta), 0.0)


def _implied_entropies(method, state, hp, p):
    """The entropy and dropped E log x part of each factor the state stores but
    the Gaussian, keyed by the factor's ELBO term."""
    if method == "laplace":
        d = state.posterior.mean[1:] ** 2 + np.diag(state.posterior.covariance)[1:]
        return {
            "tau_entropy": _gig_half(state.e_eta, d, p),
            "eta_entropy": _gamma(p + hp.nu - 1.0, state.rate_eta, state.e_eta),
            "tau0_entropy": _inv_gamma(1.0, state.rate_tau0, state.e_tau_inv[0]),
            "a_entropy": _inv_gamma(1.0, state.rate_a, state.e_a_inv),
        }
    indicator, pi = _indicators(state, hp)
    if method == "cs":
        return {
            "z_entropy": indicator,
            "pi_entropy": pi,
            "tau2_entropy": _inv_gamma(state.alpha_tau2, state.beta_tau2, state.e_tau2_inv),
            "a_entropy": _inv_gamma(1.0, state.rate_a, state.e_a_inv),
        }
    return {
        "gamma_entropy": indicator,
        "pi_entropy": pi,
        "alpha_entropy": _gamma(hp.a_gamma + 0.5, state.rate_alpha, state.e_alpha),
    }


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
    """Each entropy term in the bound but the Gaussian's, with the E log x part
    the bound drops added back, is the entropy of the factor the update fitted,
    the one its stored expectations came from. scipy computes the GIG entropy
    and E log tau_j by quadrature, so that term is held to 1e-8."""
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
        for name, (want, dropped) in _implied_entropies(method, state, hp, p).items():
            rel = 1e-8 if name == "tau_entropy" else 1e-12
            assert terms[name] + dropped == pytest.approx(want, rel=rel, abs=1e-12), (
                method, name)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60), p=st.integers(1, 11))
def test_no_sweep_at_fixed_xi_lowers_the_bound(seed, n, p):
    """Every engine's sweep maximises the bound over each factor in turn, so
    with the expansion points held, 15 sweeps never lower it, p = 1 included."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = np.concatenate([[rng.uniform(-0.5, 1.5)], rng.normal(0.0, 0.5, p - 1)])
    ds = Dataset(x, rng.poisson(np.exp(np.minimum(x @ beta, 5.0))).astype(float))
    hp = Hyperparameters()
    for method, (init, update, elbo_terms) in _SWEEPS.items():
        state = init(ds, hp)
        values = []
        for _ in range(15):
            state = update(state, ds, hp)
            values.append(cavi.elbo(elbo_terms(state, ds, hp)))
        steps = np.diff(values) / np.abs(values[:-1])
        assert steps.min() >= -1e-12, (method, int(np.argmin(steps)), steps.min())


def _reference_gamma_sweep(state):
    """The mask sweep as one numpy-scalar expression per slope, the form the
    float sweep must round exactly as."""
    mu, sigma = state.posterior.mean, state.posterior.covariance
    cross = state.quad.s_x_xi * (np.outer(mu, mu) + sigma)
    score = state.quad.score
    p_new = state.p_incl.copy()
    p_new[0] = 1.0
    args = []
    for j in range(1, mu.shape[0]):
        arg = (
            score[j] * mu[j]
            - 0.5 * cross[j, j]
            - (p_new @ cross[j] - p_new[j] * cross[j, j])
            + state.e_log_pi[j]
            - state.e_log_1mpi[j]
        )
        args.append(arg)
        p_new[j] = cavi.damped_step(p_new[j], arg)
    return p_new, np.array(args)


def _sweep_state(seed, p, scale, pinned):
    """A mask-sweep state with p slopes: S = X^T W X and Sigma from random
    factors, a score and mean spread by `scale`, and inclusion probabilities
    of which a share `pinned` sit exactly at 0 or 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((int(rng.integers(1, 2 * p + 2)), p))
    s_x = (x * rng.uniform(0.1, 5.0, size=(x.shape[0], 1))).T @ x
    a = rng.standard_normal((p, p)) / p
    p_incl = rng.uniform(0.0, 1.0, size=p)
    at = rng.uniform(size=p) < pinned
    p_incl[at] = rng.integers(0, 2, size=at.sum())
    e_log_pi = -rng.exponential(2.0, size=p)
    return types.SimpleNamespace(
        posterior=GaussianPosterior(scale * rng.standard_normal(p), a @ a.T),
        quad=types.SimpleNamespace(s_x_xi=s_x, score=scale * rng.standard_normal(p)),
        p_incl=p_incl,
        e_log_pi=e_log_pi,
        e_log_1mpi=e_log_pi - rng.normal(0.0, scale, size=p),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e6]),
    pinned=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_the_mask_sweep_rounds_as_the_numpy_scalar_sweep(seed, p, scale, pinned):
    state = _sweep_state(seed, p, scale, pinned)
    ref, _ = _reference_gamma_sweep(state)
    assert bernoulli.update_gamma_bernoulli(state).tobytes() == ref.tobytes()


def test_the_mask_sweep_saturates_where_the_logistic_overflows():
    # arguments far past +-709, where e^-arg overflows or vanishes, and at
    # the edge of e^x's range, with inclusion probabilities at 0 and 1
    state = _sweep_state(7, 40, 1e6, 0.5)
    ref, args = _reference_gamma_sweep(state)
    assert args.min() < -710.0 and args.max() > 710.0
    assert {0.0, 1.0} <= set(state.p_incl[1:].tolist())
    assert bernoulli.update_gamma_bernoulli(state).tobytes() == ref.tobytes()
    # arguments within a few ulps of -log(largest float), where e^-arg starts
    # to overflow, met exactly: with mu and Sigma zero, arg is E log pi
    edge = np.log(np.finfo(float).max)
    below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
    near = np.array([np.nextafter(below, 0.0), below, edge, above, np.nextafter(above, np.inf)])
    state.e_log_pi = np.resize(np.concatenate([near, -near]), 40)
    state.e_log_1mpi = np.zeros(40)
    state.posterior = GaussianPosterior(np.zeros(40), np.zeros((40, 40)))
    ref, args = _reference_gamma_sweep(state)
    np.testing.assert_array_equal(args, state.e_log_pi[1:])
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(-args)).any() and np.isfinite(np.exp(-args[args < 0])).any()
    assert bernoulli.update_gamma_bernoulli(state).tobytes() == ref.tobytes()
