"""Metropolis-within-Gibbs sampler for the exact posteriors, plus the
accuracy measure comparing variational marginals against chain KDEs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Hyperparameters, Method
from .errors import TuningError
from .likelihood import XI_OVERFLOW
from .special_math import integrate_1d

_ADAPT_WINDOW = 100
_TARGET_LOW = 0.25
_TARGET_HIGH = 0.40
_STEP_SCALE = 0.1


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 10000
    burn_in: int = 5000
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be below iterations")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")


@dataclass
class Chain:
    draws: np.ndarray
    param_names: list
    acceptance_rate: float

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


def _poisson_loglik(eta: np.ndarray, y: np.ndarray):
    """The log-likelihood up to a constant of eta, or of each column of an n x k
    eta; -inf where eta passes XI_OVERFLOW (its exp is capped there, unused)."""
    ll = y @ eta - np.exp(np.minimum(eta, XI_OVERFLOW)).sum(axis=0)
    return np.where((eta > XI_OVERFLOW).any(axis=0), -np.inf, ll)


_VAR_FLOOR = 1e-12


def _inv_gamma(rng: np.random.Generator, shape: float, rate: float) -> float:
    # floor both pieces so early iterations with all-zero coefficients cannot
    # collapse a variance to exactly zero
    return max(rate, _VAR_FLOOR) / max(rng.gamma(shape), _VAR_FLOOR)


def _gig_half(rng: np.random.Generator, a: float, b: float | np.ndarray):
    """Draw from GIG(order 1/2, a, b) via the reciprocal inverse Gaussian; a
    vector `b` gives one draw per element, in order."""
    b = np.maximum(b, 1e-12)
    return 1.0 / rng.wald(np.sqrt(a / b), a)


def _flip_sweep(x, y, beta, gamma, eta, ll, logit, u):
    """One Gibbs pass over the inclusion mask of slopes 1..p-1, in order.

    Slope j is on with probability 1 / (1 + e^-(ll_on - ll_off + logit[j-1])),
    and stays or flips as u[j-1] falls below that; `eta` = x @ (gamma * beta)
    and `ll` is its log-likelihood. Every remaining slope's flip is scored at
    once from the running eta; after an accepted flip only the slopes past it
    are scored again. Returns the mask, its eta and ll, and whether it moved.
    """
    gamma, flipped, j = gamma.copy(), False, 1
    while j < gamma.size:
        on = gamma[j:] > 0.5
        eta_flip = eta[:, None] + x[:, j:] * np.where(on, -beta[j:], beta[j:])
        ll_flip = _poisson_loglik(eta_flip, y)
        delta = np.where(on, ll - ll_flip, ll_flip - ll) + logit[j - 1:]
        prob = 1.0 / (1.0 + np.exp(np.clip(-delta, -700, 700)))
        moved = np.flatnonzero((u[j - 1:] < prob) != on)
        if moved.size == 0:
            break
        k = moved[0]
        gamma[j + k] = 1.0 - gamma[j + k]
        eta, ll, flipped = eta_flip[:, k], ll_flip[k], True
        j += k + 1
    return gamma, eta, ll, flipped


def sample(
    model: Method,
    dataset: Dataset,
    hp: Hyperparameters | None = None,
    mc: McmcConfig | None = None,
    proposal_cov: np.ndarray | None = None,
) -> Chain:
    """Run one chain targeting the exact posterior of the chosen model.

    Each iteration is a random-walk Metropolis move on β, stepping by
    `_STEP_SCALE` times the Cholesky factor of `proposal_cov` (the identity
    without one) adapted per burn-in window (Roberts & Rosenthal, 2009), then
    the model's Gibbs sweep, which returns whether it moved the mask `gamma`.
    """
    hp = hp or Hyperparameters()
    mc = mc or McmcConfig()
    rng = np.random.default_rng(mc.seed)
    x, y, p = dataset.design, dataset.response, dataset.p
    chol = np.linalg.cholesky(proposal_cov) if proposal_cov is not None else np.eye(p)
    step = _STEP_SCALE
    # start at a ridge regression on log1p counts; an all-zero start lets the
    # scale draws collapse toward zero and pin the walk there
    beta = np.linalg.solve(x.T @ x + np.eye(p), x.T @ np.log1p(y))
    # only the Bernoulli sweep moves the mask off all ones; 1.0 * b is exact
    gamma = np.ones(p)

    def likelihood(b):
        eta = x @ (gamma * b)
        return eta, float(_poisson_loglik(eta, y))

    if model is Method.LAPLACE:
        tau = np.ones(p)
        eta = hp.nu / hp.delta
        a_var = hp.A

        def log_prior(b):
            return -0.5 * float(np.sum(b**2 / tau))

        def gibbs():
            nonlocal eta, a_var
            tau[1:] = _gig_half(rng, eta, beta[1:] ** 2)
            tau[0] = _inv_gamma(rng, 1.0, 0.5 * beta[0] ** 2 + 1.0 / a_var)
            rate = hp.delta + 0.5 * np.sum(tau[1:])
            eta = rng.gamma(p + hp.nu - 1.0) / rate
            a_var = _inv_gamma(rng, 1.0, 1.0 / tau[0] + 1.0 / hp.A)
            return False

        def snapshot():
            return np.concatenate([beta, tau, [eta, a_var]])

        names = [f"beta{j}" for j in range(p)] + [f"tau{j}" for j in range(p)] + ["eta", "a"]

    elif model is Method.CS:
        z = np.ones(p)
        pi = np.full(p, 0.5)
        tau2 = 1.0
        a_var = hp.A

        def log_prior(b):
            v = np.where(z > 0.5, tau2, hp.c * tau2)
            v[0] = tau2
            return -0.5 * float(np.sum(b**2 / v))

        def gibbs():
            nonlocal tau2, a_var
            # given β the indicators are independent: slab vs spike odds for
            # all of them, each from its old πⱼ, then all πⱼ from the new ones
            b2 = beta[1:] ** 2
            l1 = -0.5 * np.log(tau2) - 0.5 * b2 / tau2 + np.log(pi[1:])
            l0 = -0.5 * np.log(hp.c * tau2) - 0.5 * b2 / (hp.c * tau2) + np.log(1.0 - pi[1:])
            z[1:] = rng.random(p - 1) < 1.0 / (1.0 + np.exp(np.clip(l0 - l1, -700, 700)))
            pi[1:] = rng.beta(hp.rho1 + z[1:], hp.rho2 + 1.0 - z[1:])
            scale = np.where(z > 0.5, 1.0, hp.c)
            scale[0] = 1.0
            rate = 1.0 / a_var + 0.5 * float(np.sum(beta**2 / scale))
            tau2 = _inv_gamma(rng, 0.5 + p / 2.0, rate)
            a_var = _inv_gamma(rng, 1.0, 1.0 / tau2 + 1.0 / hp.A)
            return False

        def snapshot():
            return np.concatenate([beta, z[1:], [tau2, a_var]])

        names = [f"beta{j}" for j in range(p)] + [f"z{j}" for j in range(1, p)] + ["tau2", "a"]

    elif model is Method.BERNOULLI:
        pi = np.full(p, 0.5)
        alpha = hp.a_gamma / hp.b_gamma

        def log_prior(b):
            return -0.5 * float(np.sum(alpha * b**2))

        def gibbs():
            nonlocal alpha
            alpha = rng.gamma(hp.a_gamma + 0.5, size=p) / (hp.b_gamma + 0.5 * beta**2)
            # β has not moved since the loop last evaluated it, so the cached
            # likelihood is one side of each flip; only the other side is new
            logit = np.log(pi[1:]) - np.log(1.0 - pi[1:])
            gamma[:], _, _, flipped = _flip_sweep(x, y, beta, gamma, cur_eta, cur_ll, logit,
                                                  rng.random(p - 1))
            pi[1:] = rng.beta(hp.rho1 + gamma[1:], hp.rho2 + 1.0 - gamma[1:])
            return flipped

        def snapshot():
            return np.concatenate([beta, gamma[1:]])

        names = [f"beta{j}" for j in range(p)] + [f"gamma{j}" for j in range(1, p)]

    else:
        raise ValueError(f"unsupported model: {model}")

    kept, window_acc, post_acc = [], 0, 0
    cur_eta, cur_ll = likelihood(beta)
    cur_lp = cur_ll + log_prior(beta)
    for it in range(mc.iterations):
        prop = beta + step * (chol @ rng.standard_normal(p))
        prop_eta, prop_ll = likelihood(prop)
        accepted = bool(np.log(rng.random()) < prop_ll + log_prior(prop) - cur_lp)
        if accepted:
            beta, cur_eta, cur_ll = prop, prop_eta, prop_ll
        if it >= mc.burn_in:
            post_acc += accepted
        else:
            window_acc += accepted
            if (it + 1) % _ADAPT_WINDOW == 0:
                rate = window_acc / _ADAPT_WINDOW
                if rate < _TARGET_LOW:
                    step *= 0.7
                elif rate > _TARGET_HIGH:
                    step *= 1.4
                window_acc = 0
        # the sweep never moves β; a moved mask is evaluated afresh rather
        # than taken from the sweep's running update, which rounds differently
        if gibbs():
            cur_eta, cur_ll = likelihood(beta)
        cur_lp = cur_ll + log_prior(beta)
        if it >= mc.burn_in and (it - mc.burn_in) % mc.thin == 0:
            kept.append(snapshot())
    rate = post_acc / (mc.iterations - mc.burn_in)
    if rate < 0.01:
        raise TuningError("post-adaptation acceptance rate below 1 percent")
    return Chain(draws=np.array(kept), param_names=names, acceptance_rate=float(rate))


def _kde(chain: np.ndarray, bandwidth: float):
    def density(t: float) -> float:
        zsc = (t - chain) / bandwidth
        return float(np.mean(np.exp(-0.5 * zsc**2)) / (bandwidth * np.sqrt(2.0 * np.pi)))

    return density


def accuracy(vb_marginal, chain_column: np.ndarray) -> float:
    """100 minus half the L1 distance (in percent) between q and the KDE."""
    chain_column = np.asarray(chain_column, dtype=float)
    m = chain_column.shape[0]
    if m < 100:
        raise ValueError("need at least 100 kept draws")
    sd = float(chain_column.std())
    if sd == 0.0:
        v = float(chain_column[0])
        w = 1e-3 * (1.0 + abs(v))
        q1 = integrate_1d(vb_marginal, v - w, v + w, 1e-6)
        return accuracy_discrete(min(q1, 1.0), np.ones(1))
    bw = 1.06 * sd * m ** (-0.2)
    kde = _kde(chain_column, bw)
    lo = float(chain_column.min()) - 5.0 * bw
    hi = float(chain_column.max()) + 5.0 * bw
    l1 = integrate_1d(lambda t: abs(vb_marginal(t) - kde(t)), lo, hi, 1e-6)
    # mass of q lying outside the integration window also counts toward L1
    q_inside = integrate_1d(vb_marginal, lo, hi, 1e-6)
    l1 += max(0.0, 1.0 - q_inside)
    return float(np.clip(100.0 * (1.0 - 0.5 * l1), 0.0, 100.0))


def accuracy_discrete(vb_p1: float, chain_binary: np.ndarray) -> float:
    """Accuracy for Bernoulli components against the empirical frequency."""
    f1 = float(np.mean(chain_binary))
    l1 = abs(vb_p1 - f1) + abs((1.0 - vb_p1) - (1.0 - f1))
    return float(np.clip(100.0 * (1.0 - 0.5 * l1), 0.0, 100.0))
