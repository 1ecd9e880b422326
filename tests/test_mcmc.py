"""Sampler components and the marginal accuracy score."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.special import logsumexp

from vbpoisson import mcmc
from vbpoisson.core import Dataset, Hyperparameters, Method, rho2_for_inclusion
from vbpoisson.harness import LOW_DIM, generate
from vbpoisson.likelihood import XI_OVERFLOW
from vbpoisson.mcmc import (
    _TARGET_LOW,
    Chain,
    McmcConfig,
    _gig_half,
    accuracy,
    accuracy_discrete,
    sample,
)


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        McmcConfig(thin=0)
    # the proposal scale is a module constant, not a setting
    with pytest.raises(TypeError):
        McmcConfig(step_scale=0.0)


def test_gig_sampler_matches_closed_form_moments():
    # order-1/2 draws: E(t) = sqrt(b/a) + 1/a and E(1/t) = sqrt(a/b)
    rng = np.random.default_rng(14)
    n = 200000
    for a, b in [(1.0, 1.0), (2.0, 0.5), (0.7, 3.0)]:
        draws = _gig_half(a, np.full(n, b), rng.standard_normal(n), rng.random(n))
        assert draws.mean() == pytest.approx(np.sqrt(b / a) + 1.0 / a, rel=0.02)
        assert (1.0 / draws).mean() == pytest.approx(np.sqrt(a / b), rel=0.02)


def test_gig_sampler_is_the_reciprocal_of_numpys_wald_draw():
    # a normal and then a uniform per element is the stream Generator.wald
    # draws from; the transform matches it over Wald means 1e-3 to 1e4
    a = 1.7
    b = a / np.geomspace(1e-3, 1e4, 200) ** 2
    rng = np.random.default_rng(8)
    normal, uniform = np.array([(rng.standard_normal(), rng.random()) for _ in b]).T
    draws = _gig_half(a, b, normal, uniform)
    rng = np.random.default_rng(8)
    wald = [rng.wald(np.sqrt(a / v), a) for v in b]
    np.testing.assert_allclose(1.0 / draws, wald, rtol=1e-9, atol=0.0)
    # b is floored at 1e-12 per element
    floored = _gig_half(a, np.array([0.0, 1e-14, 1e-12]), normal[:3], uniform[:3])
    np.testing.assert_array_equal(floored, _gig_half(a, np.full(3, 1e-12), normal[:3], uniform[:3]))


def test_accuracy_is_high_for_a_matched_normal():
    rng = np.random.default_rng(6)
    draws = rng.normal(1.0, 0.5, size=2000)
    score = accuracy(lambda t: stats.norm.pdf(t, 1.0, 0.5), draws)
    assert score > 93.0


def test_accuracy_is_low_for_a_shifted_normal():
    rng = np.random.default_rng(6)
    draws = rng.normal(1.0, 0.5, size=2000)
    score = accuracy(lambda t: stats.norm.pdf(t, 5.0, 0.5), draws)
    assert score < 10.0


def test_accuracy_requires_enough_draws():
    with pytest.raises(ValueError):
        accuracy(lambda t: stats.norm.pdf(t), np.zeros(50))


def test_accuracy_handles_a_constant_chain():
    draws = np.full(500, 2.0)
    tight = accuracy(lambda t: stats.norm.pdf(t, 2.0, 1e-5), draws)
    assert tight > 95.0
    far = accuracy(lambda t: stats.norm.pdf(t, 10.0, 1e-5), draws)
    assert far < 5.0


def test_discrete_accuracy_hand_values():
    chain = np.array([1.0, 1.0, 1.0, 0.0])
    assert accuracy_discrete(0.75, chain) == pytest.approx(100.0)
    assert accuracy_discrete(0.5, chain) == pytest.approx(75.0)
    assert accuracy_discrete(1.0, np.zeros(10)) == pytest.approx(0.0)


def _conjugate_dataset(seed=19):
    rng = np.random.default_rng(seed)
    n = 120
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    beta = np.array([0.6, 0.8, 0.0])
    y = rng.poisson(np.exp(x @ beta)).astype(float)
    return Dataset(x, y), beta


@pytest.mark.parametrize("model", [Method.LAPLACE, Method.CS, Method.BERNOULLI])
def test_short_chains_recover_strong_signals(model):
    ds, beta = _conjugate_dataset()
    mc = McmcConfig(iterations=3000, burn_in=1000, thin=5, seed=3)
    chain = sample(model, ds, Hyperparameters(), mc)
    assert chain.draws.shape[0] == 400
    assert 0.01 <= chain.acceptance_rate <= 1.0
    b0 = chain.column("beta0")
    b1 = chain.column("beta1")
    assert abs(b0.mean() - beta[0]) < 0.3
    assert abs(b1.mean() - beta[1]) < 0.3
    if model is not Method.LAPLACE:  # the strong slope stays in the slab
        assert chain.column({Method.CS: "z1", Method.BERNOULLI: "gamma1"}[model]).mean() > 0.9


@pytest.mark.parametrize("model", list(Method))
def test_sampler_is_deterministic_for_a_fixed_seed(model):
    # the window of iterations 100-199 straddles the end of burn-in, and the
    # last window (1000-1036) is partial
    ds, _ = _conjugate_dataset()
    mc = McmcConfig(iterations=1037, burn_in=130, thin=7, seed=11)
    a = sample(model, ds, Hyperparameters(), mc)
    b = sample(model, ds, Hyperparameters(), mc)
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate
    assert a.draws.shape[0] == len(range(130, 1037, 7))


@pytest.mark.parametrize("model", list(Method))
@pytest.mark.parametrize("burn_in", [250, 0])
def test_the_default_proposal_tunes_a_short_burn_in(model, burn_in):
    # `low` replication 0 without a proposal covariance: stepping by the
    # identity, these chains accepted under 3% of their moves, or under 1%
    # and raised TuningError
    train, _, beta = generate(LOW_DIM, np.random.default_rng([2024, 0]))
    hp = Hyperparameters(rho2=rho2_for_inclusion(np.count_nonzero(beta) / LOW_DIM.p))
    chain = sample(model, train, hp, McmcConfig(iterations=1500, burn_in=burn_in, thin=3, seed=11))
    assert chain.acceptance_rate > _TARGET_LOW


def test_integrating_pi_out_keeps_the_inclusion_posterior():
    # one slope: P(gamma1 = 1 | y) by quadrature over (beta0, beta1), each with
    # its marginal Student-t prior (2a degrees of freedom, scale sqrt(b/a)),
    # against the chain's inclusion frequency
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal(25)
    y = rng.poisson(np.exp(0.5 + 0.25 * x1)).astype(float)
    hp = Hyperparameters(a_gamma=3.0, b_gamma=3.0, rho2=2.0)
    grid = np.linspace(-2.0, 2.5, 301)
    log_t = stats.t.logpdf(grid, 2.0 * hp.a_gamma, scale=np.sqrt(hp.b_gamma / hp.a_gamma))
    eta_on = grid[:, None, None] + grid[None, :, None] * x1
    on = (y * eta_on - np.exp(eta_on)).sum(-1) + log_t[:, None] + log_t[None, :]
    eta_off = grid[:, None] + 0.0 * x1
    off = (y * eta_off - np.exp(eta_off)).sum(-1) + log_t
    log_odds = (np.log(hp.rho1 / hp.rho2) + logsumexp(on) - logsumexp(off)
                + np.log(grid[1] - grid[0]))
    oracle = 1.0 / (1.0 + np.exp(-log_odds))
    assert oracle == pytest.approx(0.0962, abs=1e-4)
    ds = Dataset(np.column_stack([np.ones(25), x1]), y)
    freq = np.mean([
        sample(Method.BERNOULLI, ds, hp, McmcConfig(20000, 2000, 1, seed)).column("gamma1").mean()
        for seed in (0, 1)
    ])
    # over 8 seed pairs the mean of two such chains had a Monte Carlo sd of
    # 0.005, so this is 5 sd; the prior odds alone would give 1/3
    assert freq == pytest.approx(oracle, abs=0.025)


def test_one_eta_loglik_is_minus_inf_past_the_overflow_guard():
    y = np.array([1.0, 2.0])
    assert mcmc._poisson_loglik(np.array([0.5, XI_OVERFLOW + 1.0]), y) == -np.inf
    assert mcmc._poisson_loglik(np.array([0.5, XI_OVERFLOW]), y) > -np.inf


def _count_likelihood_calls(monkeypatch):
    calls = []
    inner = mcmc._poisson_loglik

    def counted(eta, y):
        calls.append(eta)
        return inner(eta, y)

    monkeypatch.setattr(mcmc, "_poisson_loglik", counted)
    return calls


@pytest.mark.parametrize("model", [Method.LAPLACE, Method.CS])
def test_gibbs_sweep_reuses_the_cached_likelihood(monkeypatch, model):
    # the sweep never moves beta, so each iteration evaluates only its proposal
    ds, _ = _conjugate_dataset()
    calls = _count_likelihood_calls(monkeypatch)
    sample(model, ds, Hyperparameters(), McmcConfig(iterations=300, burn_in=100, seed=5))
    assert len(calls) == 300 + 1


def test_bernoulli_sweep_starts_from_the_cached_likelihood(monkeypatch):
    # per iteration: the proposal, and a fresh evaluation only when the mask
    # moved; the sweep scores its flips from the cached eta
    ds, _ = _conjugate_dataset()
    sweep = mcmc._flip_sweep
    calls = _count_likelihood_calls(monkeypatch)
    moves = []

    def checked(x, y, beta, gamma, eta, logit, u, setup=None):
        np.testing.assert_array_equal(eta, x @ (gamma * beta))
        before = len(calls)
        out = sweep(x, y, beta, gamma, eta, logit, u, setup)
        assert len(calls) == before  # the flips are scored by their differences
        moves.append(out[1])
        return out

    monkeypatch.setattr(mcmc, "_flip_sweep", checked)
    n_iter = 300
    mc = McmcConfig(iterations=n_iter, burn_in=100, seed=5)
    sample(Method.BERNOULLI, ds, Hyperparameters(), mc)
    assert len(moves) == n_iter and 0 < sum(moves) < n_iter
    assert len(calls) == 1 + n_iter + sum(moves)


def _loglik(eta, y):
    return -np.inf if np.any(eta > XI_OVERFLOW) else float(y @ eta - np.sum(np.exp(eta)))


def _sequential_flip_sweep(x, y, beta, gamma, eta, logit, u, setup=None):
    """The mask sweep one slope at a time: score slope j's flip, decide it, move on;
    a setup kept by the caller is ignored."""
    gamma, flipped, ll = gamma.copy(), False, _loglik(eta, y)
    for j in range(1, gamma.size):
        eta_flip = eta + (1.0 - 2.0 * gamma[j]) * beta[j] * x[:, j]
        ll_flip = _loglik(eta_flip, y)
        ll_on, ll_off = (ll, ll_flip) if gamma[j] > 0.5 else (ll_flip, ll)
        delta = ll_on - ll_off + logit[j - 1]
        new = float(u[j - 1] < 1.0 / (1.0 + np.exp(np.clip(-delta, -700, 700))))
        if new != gamma[j]:
            eta, ll, flipped = eta_flip, ll_flip, True
        gamma[j] = new
    return gamma, flipped


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    p=st.integers(1, 12),
    overflow=st.booleans(),
)
def test_the_block_mask_sweep_matches_the_sequential_one(seed, n, p, overflow):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = rng.normal(0.0, 0.5, p)
    gamma = np.concatenate([[1.0], (rng.random(p - 1) < 0.5).astype(float)])
    if overflow and p > 1:
        # switching this slope on pushes some eta past XI_OVERFLOW
        j = rng.integers(1, p)
        gamma[j], beta[j] = 0.0, 1e4
    eta = x @ (gamma * beta)
    y = rng.poisson(np.exp(np.minimum(eta, 4.0))).astype(float)
    # one eta keeps the scalar arithmetic
    assert float(mcmc._poisson_loglik(eta, y)) == _loglik(eta, y)
    logit, u = rng.normal(0.0, 2.0, p - 1), rng.random(p - 1)
    args = (x, y, beta, gamma.copy(), eta, logit, u)
    mask, flipped = mcmc._flip_sweep(*args)
    ref_mask, ref_flipped = _sequential_flip_sweep(*args)
    np.testing.assert_array_equal(mask, ref_mask)
    assert flipped == ref_flipped
    np.testing.assert_array_equal(args[3], gamma)  # the caller's mask is left alone


def _recording_scores(seen):
    """Patch the sweep's expit to append each pass's argument, its signed
    scores plus logit, to `seen`."""
    return mock.patch.object(mcmc, "expit", lambda a: seen.append(a) or special.expit(a))


# Hand-built sweeps at the edges of the exponential's range: three rows, a
# zero intercept and slopes (beta, on, x column); y counts
_EDGE_SWEEPS = {
    # switching slope 1 on lands row 0's eta at 705, inside (700, 709.78]:
    # past the guard, though e^705 is finite
    "guard band": ([(704.0, 0, [1.0, 0.0, 0.0]), (1.0, 1, [1.0, 0.5, -2.0]),
                    (0.3, 0, [0.5, -1.0, 1.0])], [2.0, 1.0, 0.0]),
    # slope 1's step of 715 overflows expm1, but row 0 sits at eta = -20, so
    # the flipped state stays inside the guard and its likelihood is finite
    "step past expm1": ([(715.0, 0, [1.0, 0.0, 0.0]), (1.0, 1, [-20.0, 1.0, 0.5]),
                         (0.3, 0, [0.5, -1.0, 1.0])], [0.0, 1.0, 2.0]),
    # row 0's e^eta underflows to 0 beside that kind of step, which takes it
    # to eta = -40; e^eta * expm1(step) would be 0 * inf
    "underflowed row": ([(760.0, 0, [1.0, 0.0, 0.0]), (1.0, 1, [-800.0, 1.0, 0.5]),
                         (0.3, 0, [0.5, -1.0, 1.0])], [1.0, 1.0, 0.0]),
    # switching slope 1 off drops row 0's e^695 from the likelihood; ll plus
    # that difference would keep none of the remaining digits
    "dominant row dropped": ([(695.0, 1, [1.0, 0.0, 0.0]), (1.0, 1, [0.0, 1.0, 0.5]),
                              (0.3, 0, [0.0, -1.0, 1.0])], [0.0, 1.0, 2.0]),
}


@pytest.mark.parametrize("case", sorted(_EDGE_SWEEPS))
def test_the_mask_sweep_at_the_edges_of_the_exponential(case):
    slopes, y = _EDGE_SWEEPS[case]
    x = np.column_stack([np.ones(3)] + [col for _, _, col in slopes])
    beta = np.array([0.0] + [b for b, _, _ in slopes])
    gamma = np.array([1.0] + [float(on) for _, on, _ in slopes])
    y = np.array(y)
    eta = x @ (gamma * beta)
    assert np.isfinite(_loglik(eta, y))
    # a flip from this state past the guard scores -inf, so it is never taken
    past = (eta[:, None] + x[:, 1:] * np.where(gamma[1:] > 0.5, -beta[1:], beta[1:])
            > XI_OVERFLOW).any(axis=0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        logit, u = rng.normal(0.0, 2.0, 3), rng.random(3)
        args = (x, y, beta, gamma, eta, logit, u)
        seen = []
        with warnings.catch_warnings(), _recording_scores(seen):
            warnings.simplefilter("error", RuntimeWarning)
            mask, flipped = mcmc._flip_sweep(*args)
        guarded = np.where(gamma[1:] > 0.5, np.inf, -np.inf)  # stays on, stays off
        np.testing.assert_array_equal(seen[0][past], guarded[past])
        ref_mask, ref_flipped = _sequential_flip_sweep(*args)
        np.testing.assert_array_equal(mask, ref_mask)
        assert flipped == ref_flipped


def test_the_bernoulli_chain_is_the_sequential_sweeps_chain(monkeypatch):
    train, _, beta = generate(LOW_DIM, np.random.default_rng([2024, 0]))
    hp = Hyperparameters(rho2=rho2_for_inclusion(np.count_nonzero(beta) / LOW_DIM.p))
    mc = McmcConfig(iterations=2000, burn_in=500, thin=1, seed=7)
    chain = sample(Method.BERNOULLI, train, hp, mc)
    monkeypatch.setattr(mcmc, "_flip_sweep", _sequential_flip_sweep)
    ref = sample(Method.BERNOULLI, train, hp, mc)
    np.testing.assert_array_equal(chain.draws, ref.draws)
    assert chain.acceptance_rate == ref.acceptance_rate
    # the masks moved, so the two sweeps had decisions to agree on
    assert np.ptp(chain.draws[:, LOW_DIM.p:], axis=0).any()


def test_a_sweep_setup_is_rebuilt_only_when_beta_or_the_mask_moved(monkeypatch):
    train, _, beta = generate(LOW_DIM, np.random.default_rng([2024, 0]))
    hp = Hyperparameters(rho2=rho2_for_inclusion(np.count_nonzero(beta) / LOW_DIM.p))
    build, sweep = mcmc._flip_setup, mcmc._flip_sweep
    builds, states = [], []

    def counted(*args):
        builds.append(1)
        return build(*args)

    def recorded(x, y, beta, gamma, eta, logit, u, setup=None):
        states.append(beta.tobytes() + gamma.tobytes())
        # a kept setup is the one this state would build
        for kept, fresh in zip(setup, build(x, y, beta, gamma, eta, logit)):
            np.testing.assert_array_equal(kept, fresh)
        return sweep(x, y, beta, gamma, eta, logit, u, setup)

    monkeypatch.setattr(mcmc, "_flip_setup", counted)
    monkeypatch.setattr(mcmc, "_flip_sweep", recorded)
    sample(Method.BERNOULLI, train, hp, McmcConfig(iterations=600, burn_in=200, seed=3))
    changed = sum(a != b for a, b in zip([None] + states, states))
    assert len(states) == 600 and len(builds) == changed, (len(builds), changed)
    # some sweeps started where the last one did, so a setup was kept
    assert changed < len(states)


def _exact_flip_change(eta, step, y):
    """y·step - e^eta·expm1(step), each term in long double, summed exactly."""
    ld = np.longdouble
    terms = np.concatenate([y.astype(ld) * step.astype(ld),
                            -np.exp(eta.astype(ld)) * np.expm1(step.astype(ld))])
    head = terms.astype(float)
    return math.fsum([*head, *(terms - head.astype(ld)).astype(float)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    p=st.integers(2, 12),
    intercept=st.floats(-3.0, 8.0),
    log_scale=st.floats(-6.0, 0.5),
)
def test_flip_scores_are_at_least_as_close_as_likelihood_differences(
        seed, n, p, intercept, log_scale):
    # every slope off and u = 1, so one pass scores every flip and takes none;
    # its argument to expit is then d itself
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = np.concatenate([[intercept], rng.normal(0.0, 10.0**log_scale, p - 1)])
    gamma = np.concatenate([[1.0], np.zeros(p - 1)])
    eta = x @ (gamma * beta)
    y = rng.poisson(np.exp(np.minimum(eta, 6.0))).astype(float)
    ll = _loglik(eta, y)
    seen = []
    with _recording_scores(seen):
        mcmc._flip_sweep(x, y, beta, gamma, eta, np.zeros(p - 1), np.ones(p - 1))
    (d,) = seen
    for j in range(1, p):
        step = beta[j] * x[:, j]
        exact = _exact_flip_change(eta, step, y)
        scale = np.abs(y * step).sum() + (np.exp(eta) * np.abs(np.expm1(step))).sum()
        # at least as close, up to two rounding units of the terms' scale;
        # on these inputs ll_flip - ll misses by up to 1.2e8 such units
        assert abs(d[j - 1] - exact) <= (abs(_loglik(eta + step, y) - ll - exact)
                                        + 2.0 * np.finfo(float).eps * scale)


def test_chain_column_lookup():
    chain = Chain(
        draws=np.array([[1.0, 2.0], [3.0, 4.0]]),
        param_names=["beta0", "beta1"],
        acceptance_rate=0.3,
    )
    np.testing.assert_array_equal(chain.column("beta1"), [2.0, 4.0])
    with pytest.raises(ValueError):
        chain.column("missing")
