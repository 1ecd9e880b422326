"""Coordinate-ascent VB for the Laplace (exponential scale mixture) prior."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cavi
from .core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method
from .errors import NumericalError
from .likelihood import QuadApprox, approx_loglik, refresh
from .linalg import gaussian_factor, single_blas_thread
from .special_math import digamma, gig_moments, log_bessel_k_half
from .special_math import gamma_entropy, inv_gamma_entropy


@dataclass
class LaplaceState:
    """Variational state for the Laplace-prior engine.

    e_tau[0] is a placeholder (the intercept scale enters only through
    e_tau_inv[0]); slope entries hold E(tau_j) from the GIG factor, and
    e_log_tau the slopes' E(log tau_j) from the same factor. The rates are those
    of the Gamma factor of eta and the inverse-Gamma factors of tau_0 and a that
    e_eta, e_tau_inv[0] and e_a_inv were derived from (NaN until the first sweep).
    """

    posterior: GaussianPosterior
    e_tau: np.ndarray
    e_tau_inv: np.ndarray
    e_log_tau: np.ndarray
    e_eta: float
    e_a_inv: float
    quad: QuadApprox
    logdet_sigma: float = 0.0
    rate_eta: float = np.nan
    rate_tau0: float = np.nan
    rate_a: float = np.nan

    @property
    def linear_coef(self) -> np.ndarray:
        return self.posterior.mean


def init_laplace(dataset: Dataset, hp: Hyperparameters) -> LaplaceState:
    """Prior-mean initialization followed by one coefficient update."""
    if dataset.n < 1 or dataset.p < 1:
        raise ValueError("dataset must be non-empty")
    p = dataset.p
    state = LaplaceState(
        posterior=GaussianPosterior(np.zeros(p), np.eye(p)),
        e_tau=np.ones(p),
        e_tau_inv=np.ones(p),
        e_log_tau=np.zeros(p - 1),
        e_eta=hp.nu / hp.delta,
        e_a_inv=hp.A,
        quad=refresh(np.log1p(dataset.response), dataset),
    )
    state.posterior, state.logdet_sigma = update_beta_laplace(state)
    state.quad = refresh(dataset.design @ state.linear_coef, dataset)
    return state


def update_beta_laplace(state: LaplaceState) -> tuple[GaussianPosterior, float]:
    """Gaussian coefficient factor at fixed xi, with its log-determinant."""
    return gaussian_factor(state.quad.s_x_xi + np.diag(state.e_tau_inv), state.quad.score)


def update_hypers_laplace(state: LaplaceState, hp: Hyperparameters) -> LaplaceState:
    """One sweep over the scale hierarchy given fresh second moments."""
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_diag = mu**2 + np.diag(sigma)
    if np.any(d_diag <= 0.0):
        raise NumericalError("second-moment diagonal is not positive")
    rate_eta = hp.delta + 0.5 * np.sum(state.e_tau[1:])
    e_eta = (d_diag.shape[0] + hp.nu - 1.0) / rate_eta
    e_tau = state.e_tau.copy()
    e_tau_inv = state.e_tau_inv.copy()
    e_tau[1:], e_tau_inv[1:], e_log_tau = gig_moments(e_eta, d_diag[1:])
    rate_tau0 = 0.5 * d_diag[0] + state.e_a_inv
    e_tau_inv[0] = 1.0 / rate_tau0
    rate_a = e_tau_inv[0] + 1.0 / hp.A
    return replace(
        state, e_eta=e_eta, e_tau=e_tau, e_tau_inv=e_tau_inv, e_log_tau=e_log_tau,
        e_a_inv=1.0 / rate_a, rate_eta=rate_eta, rate_tau0=rate_tau0, rate_a=rate_a,
    )


def update_laplace(state: LaplaceState, dataset: Dataset, hp: Hyperparameters) -> LaplaceState:
    """One sweep at fixed xi: the coefficients, then the scale hierarchy."""
    state.posterior, state.logdet_sigma = update_beta_laplace(state)
    return update_hypers_laplace(state, hp)


def elbo_laplace(state: LaplaceState, dataset: Dataset, hp: Hyperparameters) -> dict:
    """Terms of the surrogate evidence lower bound, all non-constant ones.

    The bound pairs every prior expectation with the matching variational
    entropy so that each coordinate update is non-decreasing while the
    expansion points stay fixed.
    """
    mu, sigma = state.posterior.mean, state.posterior.covariance
    d_beta = np.outer(mu, mu) + sigma
    d_diag = np.diag(d_beta)
    p = dataset.p
    e_log_tau0 = np.log(state.rate_tau0) - digamma(1.0)
    e_log_a = np.log(state.rate_a) - digamma(1.0)
    alpha_eta = p + hp.nu - 1.0
    e_log_eta = digamma(alpha_eta) - np.log(state.rate_eta)
    root = np.sqrt(state.e_eta * d_diag[1:])

    return {
        "likelihood": approx_loglik(state.quad, mu, state.quad.s_x_xi, d_beta),
        "beta_prior": -0.5 * (e_log_tau0 + np.sum(state.e_log_tau))
        - 0.5 * float(np.sum(state.e_tau_inv * d_diag)),
        "tau_prior": (p - 1) * (e_log_eta - np.log(2.0))
        - 0.5 * state.e_eta * np.sum(state.e_tau[1:]),
        "eta_prior": (hp.nu - 1.0) * e_log_eta - hp.delta * state.e_eta,
        "tau0_prior": -0.5 * e_log_a - 1.5 * e_log_tau0 - state.e_a_inv * state.e_tau_inv[0],
        "a_prior": -1.5 * e_log_a - state.e_a_inv / hp.A,
        "beta_entropy": 0.5 * state.logdet_sigma,
        "tau_entropy": float(
            np.sum(
                -0.25 * np.log(state.e_eta / d_diag[1:])
                + log_bessel_k_half(root)
                + 0.5 * state.e_log_tau
                + 0.5 * (state.e_eta * state.e_tau[1:] + d_diag[1:] * state.e_tau_inv[1:])
            )
        ),
        "tau0_entropy": inv_gamma_entropy(1.0, state.rate_tau0),
        "eta_entropy": gamma_entropy(alpha_eta, state.rate_eta),
        "a_entropy": inv_gamma_entropy(1.0, state.rate_a),
    }


@single_blas_thread()
def fit_laplace(dataset: Dataset, hp: Hyperparameters | None = None) -> FitResult:
    """Run the full coordinate ascent until the ELBO stops moving."""
    hp = hp or Hyperparameters()
    run = cavi.run(init_laplace(dataset, hp), dataset, hp, update_laplace, elbo_laplace)
    state = run.state
    return run.fit_result(
        Method.LAPLACE,
        np.ones(dataset.p),
        {
            "e_eta": state.e_eta,
            "e_tau": state.e_tau.copy(),
            "e_tau_inv": state.e_tau_inv.copy(),
            "e_a_inv": state.e_a_inv,
        },
    )
