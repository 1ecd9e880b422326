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


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 10000
    burn_in: int = 5000
    thin: int = 10
    step_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be below iterations")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if not self.step_scale > 0.0:
            raise ValueError("step_scale must be positive")


@dataclass
class Chain:
    draws: np.ndarray
    param_names: list
    acceptance_rate: float

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


def _poisson_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    if np.any(eta > XI_OVERFLOW):
        return -np.inf
    return float(y @ eta - np.sum(np.exp(eta)))


_VAR_FLOOR = 1e-12


def _inv_gamma(rng: np.random.Generator, shape: float, rate: float) -> float:
    # floor both pieces so early iterations with all-zero coefficients cannot
    # collapse a variance to exactly zero
    return max(rate, _VAR_FLOOR) / max(rng.gamma(shape), _VAR_FLOOR)


def _gig_half(rng: np.random.Generator, a: float, b: float) -> float:
    """Draw from GIG(order 1/2, a, b) via the reciprocal inverse Gaussian."""
    b = max(b, 1e-12)
    x = rng.wald(np.sqrt(a / b), a)
    return 1.0 / x


class _WalkState:
    """Random-walk proposal with burn-in step adaptation."""

    def __init__(self, p: int, step: float, proposal_cov: np.ndarray | None):
        self.step = step
        self.chol = np.linalg.cholesky(proposal_cov) if proposal_cov is not None else np.eye(p)
        self.window_acc = 0
        self.window_n = 0
        self.post_acc = 0
        self.post_n = 0

    def propose(self, rng: np.random.Generator, beta: np.ndarray) -> np.ndarray:
        return beta + self.step * (self.chol @ rng.standard_normal(beta.shape[0]))

    def record(self, accepted: bool, adapting: bool):
        if adapting:
            self.window_acc += accepted
            self.window_n += 1
            if self.window_n == _ADAPT_WINDOW:
                rate = self.window_acc / self.window_n
                if rate < _TARGET_LOW:
                    self.step *= 0.7
                elif rate > _TARGET_HIGH:
                    self.step *= 1.4
                self.window_acc = 0
                self.window_n = 0
        else:
            self.post_acc += accepted
            self.post_n += 1


def sample(
    model: Method,
    dataset: Dataset,
    hp: Hyperparameters | None = None,
    mc: McmcConfig | None = None,
    proposal_cov: np.ndarray | None = None,
) -> Chain:
    """Run one chain targeting the exact posterior of the chosen model."""
    hp = hp or Hyperparameters()
    mc = mc or McmcConfig()
    rng = np.random.default_rng(mc.seed)
    x, y, p = dataset.design, dataset.response, dataset.p
    walk = _WalkState(p, mc.step_scale, proposal_cov)
    # start at a ridge regression on log1p counts; an all-zero start lets the
    # scale draws collapse toward zero and pin the walk there
    beta = np.linalg.solve(x.T @ x + np.eye(p), x.T @ np.log1p(y))

    if model is Method.LAPLACE:
        tau = np.ones(p)
        eta = hp.nu / hp.delta
        a_var = hp.A

        def log_target(b):
            return _poisson_loglik(x @ b, y) - 0.5 * float(np.sum(b**2 / tau))

        def gibbs():
            nonlocal tau, eta, a_var
            for j in range(1, p):
                tau[j] = _gig_half(rng, eta, beta[j] ** 2)
            tau[0] = _inv_gamma(rng, 1.0, 0.5 * beta[0] ** 2 + 1.0 / a_var)
            rate = hp.delta + 0.5 * np.sum(tau[1:])
            eta = rng.gamma(p + hp.nu - 1.0) / rate
            a_var = _inv_gamma(rng, 1.0, 1.0 / tau[0] + 1.0 / hp.A)

        def snapshot():
            return np.concatenate([beta, tau, [eta, a_var]])

        names = [f"beta{j}" for j in range(p)] + [f"tau{j}" for j in range(p)] + ["eta", "a"]

    elif model is Method.CS:
        z = np.ones(p)
        pi = np.full(p, 0.5)
        tau2 = 1.0
        a_var = hp.A

        def _prior_var(zv):
            v = np.where(zv > 0.5, tau2, hp.c * tau2)
            v[0] = tau2
            return v

        def log_target(b):
            return _poisson_loglik(x @ b, y) - 0.5 * float(np.sum(b**2 / _prior_var(z)))

        def gibbs():
            nonlocal z, pi, tau2, a_var
            for j in range(1, p):
                # slab vs spike odds for the latent indicator
                l1 = -0.5 * np.log(tau2) - 0.5 * beta[j] ** 2 / tau2 + np.log(pi[j])
                l0 = (
                    -0.5 * np.log(hp.c * tau2)
                    - 0.5 * beta[j] ** 2 / (hp.c * tau2)
                    + np.log(1.0 - pi[j])
                )
                prob = 1.0 / (1.0 + np.exp(np.clip(l0 - l1, -700, 700)))
                z[j] = float(rng.random() < prob)
                pi[j] = rng.beta(hp.rho1 + z[j], hp.rho2 + 1.0 - z[j])
            scale = np.where(z > 0.5, 1.0, hp.c)
            scale[0] = 1.0
            rate = 1.0 / a_var + 0.5 * float(np.sum(beta**2 / scale))
            tau2 = _inv_gamma(rng, 0.5 + p / 2.0, rate)
            a_var = _inv_gamma(rng, 1.0, 1.0 / tau2 + 1.0 / hp.A)

        def snapshot():
            return np.concatenate([beta, z[1:], [tau2, a_var]])

        names = (
            [f"beta{j}" for j in range(p)]
            + [f"z{j}" for j in range(1, p)]
            + ["tau2", "a"]
        )

    elif model is Method.BERNOULLI:
        gamma = np.ones(p)
        pi = np.full(p, 0.5)
        alpha = hp.a_gamma / hp.b_gamma

        def log_target(b):
            return _poisson_loglik(x @ (gamma * b), y) - 0.5 * float(np.sum(alpha * b**2))

        def gibbs():
            nonlocal gamma, pi, alpha
            alpha = rng.gamma(hp.a_gamma + 0.5, size=p) / (hp.b_gamma + 0.5 * beta**2)
            eta_cur = x @ (gamma * beta)
            ll_cur = _poisson_loglik(eta_cur, y)
            for j in range(1, p):
                # the current linear predictor is one side of the flip; only
                # the other side's likelihood is new
                eta_flip = eta_cur + (1.0 - 2.0 * gamma[j]) * beta[j] * x[:, j]
                ll_flip = _poisson_loglik(eta_flip, y)
                ll_on, ll_off = (ll_cur, ll_flip) if gamma[j] > 0.5 else (ll_flip, ll_cur)
                delta = ll_on - ll_off + np.log(pi[j]) - np.log(1.0 - pi[j])
                prob = 1.0 / (1.0 + np.exp(np.clip(-delta, -700, 700)))
                new = float(rng.random() < prob)
                if new != gamma[j]:
                    eta_cur, ll_cur = eta_flip, ll_flip
                gamma[j] = new
                pi[j] = rng.beta(hp.rho1 + gamma[j], hp.rho2 + 1.0 - gamma[j])

        def snapshot():
            return np.concatenate([beta, gamma[1:]])

        names = [f"beta{j}" for j in range(p)] + [f"gamma{j}" for j in range(1, p)]

    else:
        raise ValueError(f"unsupported model: {model}")

    kept = []
    cur_lp = log_target(beta)
    for it in range(mc.iterations):
        adapting = it < mc.burn_in
        prop = walk.propose(rng, beta)
        prop_lp = log_target(prop)
        accepted = np.log(rng.random()) < prop_lp - cur_lp
        if accepted:
            beta = prop
            cur_lp = prop_lp
        walk.record(bool(accepted), adapting)
        gibbs()
        cur_lp = log_target(beta)
        if it >= mc.burn_in and (it - mc.burn_in) % mc.thin == 0:
            kept.append(snapshot())
    if walk.post_n and walk.post_acc / walk.post_n < 0.01:
        raise TuningError("post-adaptation acceptance rate below 1 percent")
    draws = np.array(kept)
    rate = walk.post_acc / walk.post_n if walk.post_n else 0.0
    return Chain(draws=draws, param_names=names, acceptance_rate=float(rate))


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
