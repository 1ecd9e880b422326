"""Coordinate-ascent VB for the continuous spike-and-slab prior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method
from .errors import DivergenceError, NumericalError
from .likelihood import QuadApprox, approx_loglik, refresh
from .linalg import pd_inverse, single_blas_thread
from .special_math import digamma, log_gamma, sigmoid


@dataclass
class CsState:
    """Variational state for the spike-and-slab engine."""

    posterior: GaussianPosterior
    p_incl: np.ndarray
    e_tau2_inv: float
    e_a_inv: float
    e_log_pi: np.ndarray
    e_log_1mpi: np.ndarray
    quad: QuadApprox
    alpha_tau2: float
    beta_tau2: float
    logdet_sigma: float = 0.0
    pi_p: np.ndarray | None = None


def init_cs(dataset: Dataset, hp: Hyperparameters, p_start: float = 0.5) -> CsState:
    """Half-open inclusion probabilities and prior-mean scale expectations."""
    if dataset.n < 1 or dataset.p < 1:
        raise ValueError("dataset must be non-empty")
    p = dataset.p
    p_incl = np.full(p, p_start)
    p_incl[0] = 1.0
    # the slab-variance factor has shape (p-1)/2; guard the p = 1 edge where
    # the printed shape degenerates to zero
    alpha = max((p - 1) / 2.0, 0.5)
    state = CsState(
        posterior=GaussianPosterior(np.zeros(p), np.eye(p)),
        p_incl=p_incl,
        e_tau2_inv=1.0,
        e_a_inv=hp.A,
        e_log_pi=np.zeros(p),
        e_log_1mpi=np.zeros(p),
        quad=refresh(np.log1p(dataset.response), dataset),
        alpha_tau2=alpha,
        beta_tau2=alpha,
    )
    state.pi_p = state.p_incl.copy()
    state.e_log_pi, state.e_log_1mpi = pi_expectations(state.p_incl, hp)
    state.posterior = update_beta_cs(state, dataset, hp)
    return state


def update_beta_cs(
    state: CsState, dataset: Dataset, hp: Hyperparameters, refresh_xi: bool = True
) -> GaussianPosterior:
    """Gaussian coefficient update with the mixed spike/slab precision."""
    prior_prec = state.e_tau2_inv * (state.p_incl + (1.0 - state.p_incl) / hp.c)
    precision = state.quad.s_x_xi + np.diag(prior_prec)
    sigma, logdet = pd_inverse(precision)
    mu = sigma @ (dataset.design.T @ (dataset.response - state.quad.m_xi))
    if refresh_xi:
        state.quad = refresh(dataset.design @ mu, dataset)
    state.logdet_sigma = logdet
    return GaussianPosterior(mean=mu, covariance=sigma)


def update_tau2_cs(state: CsState, hp: Hyperparameters) -> tuple[float, float, float]:
    """Inverse-Gamma slab-variance factor from fresh second moments."""
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_diag = mu**2 + np.diag(sigma)
    alpha = max((state.p_incl.shape[0] - 1) / 2.0, 0.5)
    beta = (
        0.5 * np.sum(state.p_incl * d_diag)
        + np.sum((1.0 - state.p_incl) * d_diag) / (2.0 * hp.c)
        + state.e_a_inv
    )
    if not beta > 0.0:
        raise NumericalError("slab-variance rate is not positive")
    return alpha, float(beta), float(alpha / beta)


def pi_expectations(p_incl: np.ndarray, hp: Hyperparameters) -> tuple[np.ndarray, np.ndarray]:
    """Digamma expectations of log pi and log(1-pi) under the Beta factor."""
    norm = digamma(hp.rho1 + hp.rho2 + 1.0)
    return digamma(hp.rho1 + p_incl) - norm, digamma(hp.rho2 - p_incl + 1.0) - norm


def update_z_cs(state: CsState, hp: Hyperparameters, damping: float = 0.5) -> np.ndarray:
    """Inclusion probabilities; index 0 stays pinned at 1.

    The probabilities move only part of the way toward their coordinate
    optimum.  The bound is concave in each probability, so the partial step
    still ascends while avoiding premature spike assignments.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_diag = mu**2 + np.diag(sigma)
    # the log(c)/2 offset is the slab/spike normalization ratio; without it
    # every probability saturates at one and the spike is never used
    arg = (
        state.e_log_pi
        - state.e_log_1mpi
        + 0.5 * np.log(hp.c)
        - 0.5 * state.e_tau2_inv * d_diag * (1.0 - 1.0 / hp.c)
    )
    p_new = (1.0 - damping) * state.p_incl + damping * sigmoid(arg)
    p_new[0] = 1.0
    return p_new


def _entropy_bernoulli(p: np.ndarray) -> float:
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        t = t + np.where(p < 1.0, (1.0 - p) * np.log(np.where(p < 1.0, 1.0 - p, 1.0)), 0.0)
    return float(np.sum(t))


def elbo_cs(state: CsState, dataset: Dataset, hp: Hyperparameters) -> float:
    """Surrogate evidence lower bound, all non-constant terms included."""
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_beta = np.outer(mu, mu) + sigma
    d_diag = np.diag(d_beta)
    p_slope = state.p_incl[1:]
    e_t2i = state.e_tau2_inv
    e_log_tau2 = np.log(state.beta_tau2) - digamma(state.alpha_tau2)
    p = dataset.p
    b_a = e_t2i + 1.0 / hp.A
    e_log_a = np.log(b_a) - digamma(1.0)
    # the Beta factor was last refitted at these inclusion values
    pi_p = (state.pi_p if state.pi_p is not None else state.p_incl)[1:]
    pi_alpha = hp.rho1 + pi_p
    pi_beta = hp.rho2 - pi_p + 1.0
    mix = state.p_incl + (1.0 - state.p_incl) / hp.c
    terms = {
        "likelihood": approx_loglik(state.quad, dataset, mu, d_beta),
        # the log tau^2 weight mirrors the (p-1)/2 shape the variance factor
        # is fitted with, keeping that update the term's exact maximizer
        "beta_prior": -0.5 * (p - 2) * e_log_tau2
        - 0.5 * np.log(hp.c) * float(np.sum(1.0 - p_slope))
        - 0.5 * e_t2i * float(np.sum(mix * d_diag)),
        "z_prior": float(
            np.sum(p_slope * state.e_log_pi[1:] + (1.0 - p_slope) * state.e_log_1mpi[1:])
        ),
        "pi_prior": (hp.rho1 - 1.0) * np.sum(state.e_log_pi[1:])
        + (hp.rho2 - 1.0) * np.sum(state.e_log_1mpi[1:]),
        "tau2_prior": -0.5 * e_log_a - 1.5 * e_log_tau2 - e_t2i * state.e_a_inv,
        "a_prior": -1.5 * e_log_a - state.e_a_inv / hp.A,
        "beta_entropy": 0.5 * state.logdet_sigma,
        "z_entropy": -_entropy_bernoulli(p_slope),
        "pi_entropy": float(
            np.sum(
                log_gamma(pi_alpha)
                + log_gamma(pi_beta)
                - log_gamma(pi_alpha + pi_beta)
                - (pi_alpha - 1.0) * state.e_log_pi[1:]
                - (pi_beta - 1.0) * state.e_log_1mpi[1:]
            )
        ),
        "tau2_entropy": -state.alpha_tau2 * np.log(state.beta_tau2)
        + log_gamma(state.alpha_tau2)
        + (state.alpha_tau2 + 1.0) * e_log_tau2
        + state.beta_tau2 * e_t2i,
        "a_entropy": -np.log(b_a) + 2.0 * e_log_a + b_a * state.e_a_inv,
    }
    for name, value in terms.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite ELBO term: {name}")
    return float(sum(terms.values()))


def _run_cs(dataset: Dataset, hp: Hyperparameters, p_start: float):
    state = init_cs(dataset, hp, p_start)
    trace = []
    converged = False
    try:
        for _ in range(hp.max_iter):
            state.posterior = update_beta_cs(state, dataset, hp)
            state.alpha_tau2, state.beta_tau2, state.e_tau2_inv = update_tau2_cs(state, hp)
            state.e_a_inv = 1.0 / (state.e_tau2_inv + 1.0 / hp.A)
            state.pi_p = state.p_incl.copy()
            state.e_log_pi, state.e_log_1mpi = pi_expectations(state.p_incl, hp)
            state.p_incl = update_z_cs(state, hp)
            elbo = elbo_cs(state, dataset, hp)
            if trace and abs(elbo - trace[-1]) / max(abs(trace[-1]), 1e-12) < hp.epsilon:
                trace.append(elbo)
                converged = True
                break
            trace.append(elbo)
    except DivergenceError:
        if not trace:
            raise
    return state, trace, converged


@single_blas_thread()
def fit_cs(dataset: Dataset, hp: Hyperparameters | None = None) -> FitResult:
    """Run the spike-and-slab coordinate ascent to convergence.

    The bound is multimodal in the inclusion probabilities: a neutral start
    can settle with every coefficient assigned to the spike while a
    slab-leaning start separates signals from noise.  Both starts are run
    and the one reaching the higher bound is kept.
    """
    hp = hp or Hyperparameters()
    best = None
    first_error = None
    for p_start in (0.5, 0.9):
        try:
            state, trace, converged = _run_cs(dataset, hp, p_start)
        except DivergenceError as exc:
            first_error = first_error or exc
            continue
        if best is None or trace[-1] > best[1][-1]:
            best = (state, trace, converged)
    if best is None:
        raise first_error
    state, trace, converged = best
    # coefficient posterior with every coefficient held in the slab, for
    # interval summaries that should not inherit spike commitment
    slab_prec = state.quad.s_x_xi + state.e_tau2_inv * np.eye(dataset.p)
    slab_sigma, _ = pd_inverse(slab_prec)
    slab_mu = slab_sigma @ (dataset.design.T @ (dataset.response - state.quad.m_xi))
    return FitResult(
        interval_posterior=GaussianPosterior(mean=slab_mu, covariance=slab_sigma),
        method=Method.CS,
        posterior=state.posterior,
        inclusion_prob=state.p_incl.copy(),
        hyper_expectations={
            "e_tau2_inv": state.e_tau2_inv,
            "e_a_inv": state.e_a_inv,
            "alpha_tau2": state.alpha_tau2,
            "beta_tau2": state.beta_tau2,
            "e_log_pi": state.e_log_pi.copy(),
            "e_log_1mpi": state.e_log_1mpi.copy(),
        },
        elbo_trace=np.array(trace),
        iterations=len(trace),
        converged=converged,
    )
