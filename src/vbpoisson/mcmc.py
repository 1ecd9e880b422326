"""Metropolis-within-Gibbs sampler for the exact posteriors, plus the
accuracy measure comparing variational marginals against chain KDEs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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


def _poisson_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    """The log-likelihood of eta up to a constant; -inf past XI_OVERFLOW."""
    return -np.inf if eta.max() > XI_OVERFLOW else float(y @ eta - np.exp(eta).sum())


_VAR_FLOOR = 1e-12


def _inv_gamma(g: float, rate: float) -> float:
    """rate / g for a standard-gamma draw g; both are floored so that early
    all-zero coefficients cannot collapse a variance to exactly zero."""
    return max(rate, _VAR_FLOOR) / max(g, _VAR_FLOOR)


def _gig_half(a: float, b: np.ndarray, normal: np.ndarray, uniform: np.ndarray):
    """GIG(order 1/2, a, b) draws, one per element of `b`: the reciprocals of
    inverse Gaussian draws of mean m = sqrt(a / b) and shape a, by numpy's
    transform of one standard normal and one uniform per element (Michael,
    Schucany & Haas 1976). Its root is m / q, q = (r + sqrt(r² + 4a))² / 4a
    with r = |normal|·sqrt(m), written without numpy's cancellation at large
    m; it is kept if uniform ≤ q / (1 + q), else m·q is drawn."""
    mean = np.sqrt(a / np.maximum(b, 1e-12))
    r = np.abs(normal) * np.sqrt(mean)
    q = (r + np.sqrt(r * r + 4.0 * a)) ** 2 / (4.0 * a)
    return np.where(uniform <= q / (1.0 + q), q, 1.0 / q) / mean


def _flip_setup(x, y, beta, gamma, eta, logit):
    """A mask sweep's work before its first flip, which depends only on its
    starting (beta, gamma, eta): the mask's states, the flip signs, the steps
    s_j = ±beta_j x_j with y·s_j, expm1(s_j) and the largest step, and the
    first pass's on-probabilities. Sweeps from the same state can share it."""
    on, sign = gamma[1:] > 0.5, 1.0 - 2.0 * gamma[1:]
    step = x[:, 1:] * (sign * beta[1:])
    y_step, reach = y @ step, float(step.max(initial=0.0))
    growth = np.expm1(np.minimum(step, XI_OVERFLOW))
    setup = (on, sign, step, y_step, reach, growth)
    return setup + (_flip_probs(setup, eta, 1, logit),)


def _flip_probs(setup, eta, j, logit):
    """The on-probabilities of slopes j.. at eta, each scored by its flip.

    Flipping slope j steps the log-likelihood by d_j = y·s_j - e^eta·expm1(s_j),
    so one matrix-vector product scores every flip. While max(eta, 0) + max(s)
    may pass XI_OVERFLOW, where that product could overflow, the flips are
    scored from their flipped eta instead, -inf past the guard.
    """
    _, sign, step, y_step, reach, growth = setup[:6]
    e, top, r = np.exp(eta), float(eta.max(initial=0.0)), slice(j - 1, None)
    if top + reach <= XI_OVERFLOW:
        d = y_step[r] - e @ growth[:, r]
    else:
        flip = eta[:, None] + step[:, r]
        d = y_step[r] - (np.exp(np.minimum(flip, XI_OVERFLOW)) - e[:, None]).sum(axis=0)
        d[(flip > XI_OVERFLOW).any(axis=0)] = -np.inf
    return expit(sign[r] * d + logit[r])


def _flip_sweep(x, y, beta, gamma, eta, logit, u, setup=None):
    """One Gibbs pass over the 0/1 inclusion mask of slopes 1..p-1, in order.

    Slope j is on with probability expit(ll_on - ll_off + logit[j-1]), and
    stays or flips as u[j-1] falls below that; `eta` = x @ (gamma * beta) is
    inside the guard. Each pass scores every remaining flip at once; after an
    accepted flip only the slopes past it are scored again. `setup` is
    `_flip_setup` of this (beta, gamma, eta), if the caller kept one. Returns
    the mask and whether it moved.
    """
    setup = setup or _flip_setup(x, y, beta, gamma, eta, logit)
    on, step, prob = setup[0], setup[2], setup[6]
    gamma, flipped, j = gamma.copy(), False, 1
    # slopes j.. keep their starting state until the pass that reaches them
    while (moved := ((u[j - 1:] < prob) != on[j - 1:]).nonzero()[0]).size:
        k = moved[0]
        gamma[j + k] = 1.0 - gamma[j + k]
        eta, flipped, j = eta + step[:, j - 1 + k], True, j + k + 1
        if j == gamma.size:
            break
        prob = _flip_probs(setup, eta, j, logit)
    return gamma, flipped


def sample(
    model: Method, dataset: Dataset, hp: Hyperparameters | None = None,
    mc: McmcConfig | None = None, proposal_cov: np.ndarray | None = None
) -> Chain:
    """Run one chain targeting the exact posterior of the chosen model.

    Each iteration is a random-walk Metropolis move on β, stepping by
    `_STEP_SCALE` times the Cholesky factor of `proposal_cov` (without one,
    of the inverse of XᵀWX + I at the start, W = e^(Xβ)) adapted per burn-in
    window (Roberts & Rosenthal, 2009), then the model's Gibbs sweep, which
    returns β's prior precision and whether it moved the mask `gamma`. Each
    window draws its moves, uniforms and Gibbs variates in a few block calls.
    The weights πⱼ are integrated out (Liu 1994): each slope's prior odds of
    inclusion are ρ₁/ρ₂.
    """
    hp = hp or Hyperparameters()
    mc = mc or McmcConfig()
    rng = np.random.default_rng(mc.seed)
    x, y, p = dataset.design, dataset.response, dataset.p
    # start at a ridge regression on log1p counts; an all-zero start lets the
    # scale draws collapse toward zero and pin the walk there
    beta = np.linalg.solve(x.T @ x + np.eye(p), x.T @ np.log1p(y))
    if proposal_cov is None:  # the Laplace approximation's covariance at the start
        w = np.exp(np.minimum(x @ beta, XI_OVERFLOW))
        proposal_cov = np.linalg.inv((x.T * w) @ x + np.eye(p))
    chol = np.linalg.cholesky(proposal_cov)
    step = _STEP_SCALE
    # only the Bernoulli model moves the mask off all ones (1.0 * b is exact)
    # or starts β's prior precision away from 1
    gamma, prec = np.ones(p), np.ones(p)

    if model is Method.LAPLACE:
        tau, eta, a_var = np.ones(p), hp.nu / hp.delta, hp.A

        def variates(n):
            return (rng.standard_normal((n, p - 1)), rng.random((n, p - 1)),
                    rng.standard_exponential((n, 2)).tolist(),
                    rng.standard_gamma(p + hp.nu - 1.0, n).tolist())

        def gibbs(v, i):
            nonlocal eta, a_var
            tau[1:] = _gig_half(eta, beta[1:] ** 2, v[0][i], v[1][i])
            tau[0] = _inv_gamma(v[2][i][0], 0.5 * beta[0] ** 2 + 1.0 / a_var)
            eta = v[3][i] / (hp.delta + 0.5 * tau[1:].sum())
            a_var = _inv_gamma(v[2][i][1], 1.0 / tau[0] + 1.0 / hp.A)
            return 1.0 / tau, False

        def snapshot():
            return np.concatenate([beta, tau, [eta, a_var]])

        names = [f"beta{j}" for j in range(p)] + [f"tau{j}" for j in range(p)] + ["eta", "a"]

    elif model is Method.CS:
        z, tau2, a_var = np.ones(p), 1.0, hp.A
        # slab against spike log odds of slope j: base + spread * beta_j^2 / tau2
        base, spread = np.log(hp.rho1 / hp.rho2) + 0.5 * np.log(hp.c), 0.5 * (1.0 / hp.c - 1.0)

        def variates(n):
            return (rng.random((n, p - 1)), rng.standard_gamma(0.5 + p / 2.0, n).tolist(),
                    rng.standard_exponential(n).tolist())

        def gibbs(v, i):
            nonlocal tau2, a_var
            # given β the indicators are independent (George & McCulloch 1993)
            odds = base + spread * beta[1:] ** 2 / tau2
            z[1:] = v[0][i] < expit(odds)
            scale = np.where(z > 0.5, 1.0, hp.c)
            tau2 = _inv_gamma(v[1][i], 1.0 / a_var + 0.5 * float(beta @ (beta / scale)))
            a_var = _inv_gamma(v[2][i], 1.0 / tau2 + 1.0 / hp.A)
            return 1.0 / (scale * tau2), False

        def snapshot():
            return np.concatenate([beta, z[1:], [tau2, a_var]])

        names = [f"beta{j}" for j in range(p)] + [f"z{j}" for j in range(1, p)] + ["tau2", "a"]

    elif model is Method.BERNOULLI:
        logit = np.full(p - 1, np.log(hp.rho1 / hp.rho2))
        prec *= hp.a_gamma / hp.b_gamma

        def variates(n):
            return rng.standard_gamma(hp.a_gamma + 0.5, (n, p)), rng.random((n, p - 1))

        setup, setup_beta = None, None

        def gibbs(v, i):
            nonlocal setup, setup_beta
            alpha = v[0][i] / (hp.b_gamma + 0.5 * beta**2)
            # β has not moved since the loop last evaluated it, so the cached
            # eta is one side of each flip; only the other side is new. The
            # last sweep's setup holds until a proposal is accepted (a new β
            # object) or a sweep moves the mask
            if setup_beta is not beta:
                setup, setup_beta = _flip_setup(x, y, beta, gamma, cur_eta, logit), beta
            gamma[:], flipped = _flip_sweep(x, y, beta, gamma, cur_eta, logit, v[1][i], setup)
            if flipped:
                setup_beta = None
            return alpha, flipped

        def snapshot():
            return np.concatenate([beta, gamma[1:]])

        names = [f"beta{j}" for j in range(p)] + [f"gamma{j}" for j in range(1, p)]

    else:
        raise ValueError(f"unsupported model: {model}")

    kept, keep = [], range(mc.burn_in, mc.iterations)[::mc.thin]
    accepted = np.zeros(mc.iterations, dtype=bool)
    cur_eta = x @ (gamma * beta)
    cur_ll = _poisson_loglik(cur_eta, y)
    cur_lp = cur_ll - 0.5 * float(beta @ (prec * beta))
    for start in range(0, mc.iterations, _ADAPT_WINDOW):
        n = min(_ADAPT_WINDOW, mc.iterations - start)
        moves = rng.standard_normal((n, p)) @ (step * chol.T)
        log_u = np.log(rng.random(n)).tolist()
        v = variates(n)
        for i in range(n):
            prop = beta + moves[i]
            prop_eta = x @ (gamma * prop)
            prop_ll = _poisson_loglik(prop_eta, y)
            if log_u[i] < prop_ll - 0.5 * float(prop @ (prec * prop)) - cur_lp:
                beta, cur_eta, cur_ll = prop, prop_eta, prop_ll
                accepted[start + i] = True
            # the sweep never moves β and returns the mask alone; a moved
            # mask's eta and likelihood are evaluated here
            prec, moved = gibbs(v, i)
            if moved:
                cur_eta = x @ (gamma * beta)
                cur_ll = _poisson_loglik(cur_eta, y)
            cur_lp = cur_ll - 0.5 * float(beta @ (prec * beta))
            if start + i in keep:
                kept.append(snapshot())
        if start + n <= mc.burn_in:
            rate = accepted[start:start + n].mean()
            step *= 0.7 if rate < _TARGET_LOW else 1.4 if rate > _TARGET_HIGH else 1.0
    rate = accepted[mc.burn_in:].mean()
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
