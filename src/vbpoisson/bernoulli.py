"""Coordinate-ascent VB for the Bernoulli-Gaussian (masked coefficient) prior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method
from .errors import DivergenceError, NumericalError
from .likelihood import QuadApprox, refresh
from .linalg import pd_inverse, single_blas_thread
from .special_math import digamma, log_gamma, sigmoid


def omega_from_p(p_incl: np.ndarray) -> np.ndarray:
    """Second-moment matrix of the Bernoulli mask; diagonal equals p_incl."""
    return np.outer(p_incl, p_incl) + np.diag(p_incl * (1.0 - p_incl))


@dataclass
class BernoulliState:
    """Variational state for the Bernoulli-Gaussian engine."""

    posterior: GaussianPosterior
    p_incl: np.ndarray
    e_alpha: np.ndarray
    e_log_pi: np.ndarray
    e_log_1mpi: np.ndarray
    omega: np.ndarray
    quad: QuadApprox
    logdet_sigma: float = 0.0
    pi_p: np.ndarray | None = None


def init_bernoulli(dataset: Dataset, hp: Hyperparameters) -> BernoulliState:
    """Half-open mask, prior-mean precisions, log1p-count expansion points."""
    if dataset.n < 1 or dataset.p < 1:
        raise ValueError("dataset must be non-empty")
    p = dataset.p
    p_incl = np.full(p, 0.5)
    p_incl[0] = 1.0
    state = BernoulliState(
        posterior=GaussianPosterior(np.zeros(p), np.eye(p)),
        p_incl=p_incl,
        e_alpha=hp.a_vec(p) / hp.b_vec(p),
        e_log_pi=np.zeros(p),
        e_log_1mpi=np.zeros(p),
        omega=omega_from_p(p_incl),
        quad=refresh(np.log1p(dataset.response), dataset),
    )
    state.pi_p = p_incl.copy()
    state.e_log_pi, state.e_log_1mpi = _pi_expectations(p_incl, hp)
    state.posterior = update_beta_bernoulli(state, dataset)
    return state


def _pi_expectations(p_incl: np.ndarray, hp: Hyperparameters) -> tuple[np.ndarray, np.ndarray]:
    norm = digamma(hp.rho1 + hp.rho2 + 1.0)
    return digamma(hp.rho1 + p_incl) - norm, digamma(hp.rho2 - p_incl + 1.0) - norm


def update_beta_bernoulli(
    state: BernoulliState, dataset: Dataset, refresh_xi: bool = True
) -> GaussianPosterior:
    """Gaussian coefficient update under the masked design moments."""
    precision = state.quad.s_x_xi * state.omega + np.diag(state.e_alpha)
    sigma, logdet = pd_inverse(precision)
    resid = dataset.response - state.quad.m_xi
    mu = sigma @ (state.p_incl * (dataset.design.T @ resid))
    if refresh_xi:
        state.quad = refresh(dataset.design @ (state.p_incl * mu), dataset)
    state.logdet_sigma = logdet
    return GaussianPosterior(mean=mu, covariance=sigma)


def update_alpha_bernoulli(state: BernoulliState, hp: Hyperparameters) -> np.ndarray:
    """Gamma precision expectations from fresh second moments."""
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_diag = mu**2 + np.diag(sigma)
    if np.any(d_diag < 0.0):
        raise NumericalError("negative second-moment diagonal")
    p = d_diag.shape[0]
    return (hp.a_vec(p) + 0.5) / (hp.b_vec(p) + 0.5 * d_diag)


def update_gamma_bernoulli(
    state: BernoulliState, dataset: Dataset, damping: float = 0.5
) -> np.ndarray:
    """Sequential mask-probability sweep; each slope sees the freshest values.

    Each probability moves only part of the way toward its coordinate
    optimum.  The bound is concave in every single inclusion probability, so
    the partial step still ascends, while full steps tend to lock the mask
    onto a correlated neighbour of a true signal before the coefficients
    have settled.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_beta = np.outer(mu, mu) + sigma
    s = state.quad.s_x_xi
    resid = dataset.response - state.quad.m_xi
    score = dataset.design.T @ resid
    p_new = state.p_incl.copy()
    p_new[0] = 1.0
    for j in range(1, mu.shape[0]):
        cross = s[j] * d_beta[j]
        arg = (
            score[j] * mu[j]
            - 0.5 * s[j, j] * d_beta[j, j]
            - (p_new @ cross - p_new[j] * cross[j])
            + state.e_log_pi[j]
            - state.e_log_1mpi[j]
        )
        p_new[j] = (1.0 - damping) * p_new[j] + damping * sigmoid(arg)
    return p_new


def _entropy_bernoulli(p: np.ndarray) -> float:
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        t = t + np.where(p < 1.0, (1.0 - p) * np.log(np.where(p < 1.0, 1.0 - p, 1.0)), 0.0)
    return float(np.sum(t))


def elbo_bernoulli(state: BernoulliState, dataset: Dataset, hp: Hyperparameters) -> float:
    """Surrogate evidence lower bound, all non-constant terms included."""
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_beta = np.outer(mu, mu) + sigma
    d_diag = np.diag(d_beta)
    p = dataset.p
    a_vec, b_vec = hp.a_vec(p), hp.b_vec(p)
    a_post = a_vec + 0.5
    b_post = b_vec + 0.5 * d_diag
    e_log_alpha = digamma(a_post) - np.log(b_post)
    e_alpha = a_post / b_post
    resid = dataset.response - state.quad.m_xi
    xi = state.quad.xi
    masked_mean = dataset.design @ (state.p_incl * mu)
    p_slope = state.p_incl[1:]
    pi_p = (state.pi_p if state.pi_p is not None else state.p_incl)[1:]
    pi_alpha = hp.rho1 + pi_p
    pi_beta = hp.rho2 - pi_p + 1.0
    terms = {
        "likelihood": float(resid @ masked_mean)
        - 0.5 * float(np.sum(d_beta * (state.quad.s_x_xi * state.omega)))
        - float(np.sum(np.exp(xi) * (1.0 - xi + 0.5 * xi**2))),
        "beta_prior": 0.5 * float(np.sum(e_log_alpha)) - 0.5 * float(np.sum(d_diag * e_alpha)),
        "gamma_prior": float(
            np.sum(p_slope * state.e_log_pi[1:] + (1.0 - p_slope) * state.e_log_1mpi[1:])
        ),
        "alpha_prior": float(np.sum((a_vec - 1.0) * e_log_alpha - b_vec * e_alpha)),
        "pi_prior": (hp.rho1 - 1.0) * np.sum(state.e_log_pi[1:])
        + (hp.rho2 - 1.0) * np.sum(state.e_log_1mpi[1:]),
        "beta_entropy": 0.5 * state.logdet_sigma,
        "gamma_entropy": -_entropy_bernoulli(p_slope),
        "alpha_entropy": float(
            np.sum(
                -a_post * np.log(b_post)
                + log_gamma(a_post)
                - (a_post - 1.0) * e_log_alpha
                + b_post * e_alpha
            )
        ),
        "pi_entropy": float(
            np.sum(
                log_gamma(pi_alpha)
                + log_gamma(pi_beta)
                - log_gamma(pi_alpha + pi_beta)
                - (pi_alpha - 1.0) * state.e_log_pi[1:]
                - (pi_beta - 1.0) * state.e_log_1mpi[1:]
            )
        ),
    }
    for name, value in terms.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite ELBO term: {name}")
    return float(sum(terms.values()))


@single_blas_thread()
def fit_bernoulli(dataset: Dataset, hp: Hyperparameters | None = None) -> FitResult:
    """Run the Bernoulli-Gaussian coordinate ascent to convergence."""
    hp = hp or Hyperparameters()
    state = init_bernoulli(dataset, hp)
    trace = []
    converged = False
    try:
        for _ in range(hp.max_iter):
            state.omega = omega_from_p(state.p_incl)
            state.posterior = update_beta_bernoulli(state, dataset, refresh_xi=False)
            state.e_alpha = update_alpha_bernoulli(state, hp)
            state.pi_p = state.p_incl.copy()
            state.e_log_pi, state.e_log_1mpi = _pi_expectations(state.p_incl, hp)
            state.p_incl = update_gamma_bernoulli(state, dataset)
            state.omega = omega_from_p(state.p_incl)
            state.quad = refresh(
                dataset.design @ (state.p_incl * state.posterior.mean), dataset
            )
            elbo = elbo_bernoulli(state, dataset, hp)
            if trace and abs(elbo - trace[-1]) / max(abs(trace[-1]), 1e-12) < hp.epsilon:
                trace.append(elbo)
                converged = True
                break
            trace.append(elbo)
    except DivergenceError:
        if not trace:
            raise
    return FitResult(
        method=Method.BERNOULLI,
        posterior=state.posterior,
        inclusion_prob=state.p_incl.copy(),
        hyper_expectations={
            "e_alpha": state.e_alpha.copy(),
            "e_log_pi": state.e_log_pi.copy(),
            "e_log_1mpi": state.e_log_1mpi.copy(),
        },
        elbo_trace=np.array(trace),
        iterations=len(trace),
        converged=converged,
    )
