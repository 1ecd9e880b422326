"""Coordinate-ascent VB for the Laplace (exponential scale mixture) prior."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cavi
from .core import Dataset, FitResult, Hyperparameters, Method
from .errors import NumericalError
from .likelihood import QuadApprox, refresh
from .linalg import GaussianPosterior, gaussian_factor, single_blas_thread
from .special_math import gamma_entropy, gig_moments


@dataclass
class LaplaceState:
    """Variational state for the Laplace-prior engine.

    e_tau[0] is a placeholder (the intercept scale enters only through
    e_tau_inv[0]); slope entries hold E(tau_j) from the GIG factor. The rates
    are those of the Gamma factor of eta and the inverse-Gamma factors of tau_0
    and a that e_eta, e_tau_inv[0] and e_a_inv were derived from (NaN until the
    first sweep).
    """

    posterior: GaussianPosterior
    e_tau: np.ndarray
    e_tau_inv: np.ndarray
    e_eta: float
    e_a_inv: float
    quad: QuadApprox
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
        posterior=GaussianPosterior(np.zeros(p)),
        e_tau=np.ones(p),
        e_tau_inv=np.ones(p),
        e_eta=hp.nu / hp.delta,
        e_a_inv=hp.A,
        quad=refresh(np.log1p(dataset.response), dataset),
    )
    state.posterior = update_beta_laplace(state)
    state.quad = refresh(dataset.design @ state.linear_coef, dataset)
    return state


def update_beta_laplace(state: LaplaceState) -> GaussianPosterior:
    """Gaussian coefficient factor at fixed xi, with its log-determinant."""
    return gaussian_factor(state.e_tau_inv, state.quad, state.quad.score)


def update_hypers_laplace(state: LaplaceState, hp: Hyperparameters) -> LaplaceState:
    """One sweep over the scale hierarchy given fresh second moments."""
    d_diag = state.posterior.second_moments
    if np.any(d_diag <= 0.0):
        raise NumericalError("second-moment diagonal is not positive")
    rate_eta = hp.delta + 0.5 * np.sum(state.e_tau[1:])
    e_eta = (d_diag.shape[0] + hp.nu - 1.0) / rate_eta
    e_tau = state.e_tau.copy()
    e_tau_inv = state.e_tau_inv.copy()
    e_tau[1:], e_tau_inv[1:] = gig_moments(e_eta, d_diag[1:])
    rate_tau0 = 0.5 * d_diag[0] + state.e_a_inv
    e_tau_inv[0] = 1.0 / rate_tau0
    rate_a = e_tau_inv[0] + 1.0 / hp.A
    return replace(
        state, e_eta=e_eta, e_tau=e_tau, e_tau_inv=e_tau_inv, e_a_inv=1.0 / rate_a,
        rate_eta=rate_eta, rate_tau0=rate_tau0, rate_a=rate_a,
    )


def update_laplace(state: LaplaceState, dataset: Dataset, hp: Hyperparameters) -> LaplaceState:
    """One sweep at fixed xi: the coefficients, then the scale hierarchy."""
    state.posterior = update_beta_laplace(state)
    return update_hypers_laplace(state, hp)


def elbo_laplace(state: LaplaceState, dataset: Dataset, hp: Hyperparameters) -> dict:
    """Terms of the surrogate evidence lower bound, all non-constant ones.

    The bound pairs every prior expectation with the matching variational
    entropy so that each coordinate update is non-decreasing while the
    expansion points stay fixed.
    """
    d_diag = state.posterior.second_moments
    p = dataset.p
    return {
        "likelihood": state.posterior.expected_loglik(state.quad),
        "beta_prior": -0.5 * float(np.sum(state.e_tau_inv * d_diag)),
        "tau_prior": -(p - 1) * np.log(2.0) - 0.5 * state.e_eta * np.sum(state.e_tau[1:]),
        "eta_prior": -hp.delta * state.e_eta,
        "tau0_prior": -state.e_a_inv * state.e_tau_inv[0],
        "a_prior": -state.e_a_inv / hp.A,
        "beta_entropy": 0.5 * state.posterior.logdet,
        # the GIG(1/2, E eta, d_j) entropies less E log tau_j: at r = sqrt(E eta d_j),
        # K_1/2(r) = sqrt(pi/2r)e^-r, E eta E tau_j = 1 + r and d_j E 1/tau_j = r, which
        # hold on each state update_hypers_laplace built, not init_laplace's (never scored)
        "tau_entropy": (p - 1) * (0.5 + 0.5 * np.log(np.pi / 2.0) - 0.5 * np.log(state.e_eta)),
        "tau0_entropy": gamma_entropy(1.0, state.rate_tau0),
        "eta_entropy": gamma_entropy(p + hp.nu - 1.0, state.rate_eta),
        "a_entropy": gamma_entropy(1.0, state.rate_a),
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
