"""Coordinate-ascent VB for the continuous spike-and-slab prior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cavi
from .cavi import damped_step, indicator_terms, pi_expectations, update_pi
from .core import Dataset, FitResult, Hyperparameters, Method
from .errors import DivergenceError, NumericalError
from .likelihood import QuadApprox, refresh
from .linalg import GaussianPosterior, gaussian_factor, single_blas_thread
from .special_math import gamma_entropy


@dataclass
class CsState:
    """Variational state for the spike-and-slab engine; alpha_tau2 and beta_tau2
    are the inverse-Gamma slab variance's shape and rate, and rate_a is a's rate."""

    posterior: GaussianPosterior
    p_incl: np.ndarray
    e_tau2_inv: float
    e_a_inv: float
    pi_p: np.ndarray
    e_log_pi: np.ndarray
    e_log_1mpi: np.ndarray
    quad: QuadApprox
    alpha_tau2: float
    beta_tau2: float
    rate_a: float

    @property
    def linear_coef(self) -> np.ndarray:
        return self.posterior.mean


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
    e_log_pi, e_log_1mpi = pi_expectations(p_incl, hp)
    state = CsState(
        posterior=GaussianPosterior(np.zeros(p)),
        p_incl=p_incl,
        e_tau2_inv=1.0,
        e_a_inv=hp.A,
        pi_p=p_incl,
        e_log_pi=e_log_pi,
        e_log_1mpi=e_log_1mpi,
        quad=refresh(np.log1p(dataset.response), dataset),
        alpha_tau2=alpha,
        beta_tau2=alpha,
        rate_a=1.0 / hp.A,
    )
    state.posterior = update_beta_cs(state, hp)
    state.quad = refresh(dataset.design @ state.linear_coef, dataset)
    return state


def update_beta_cs(state: CsState, hp: Hyperparameters) -> GaussianPosterior:
    """Gaussian coefficient factor under the mixed spike/slab precision."""
    prior_prec = state.e_tau2_inv * (state.p_incl + (1.0 - state.p_incl) / hp.c)
    return gaussian_factor(prior_prec, state.quad, state.quad.score)


def update_tau2_cs(state: CsState, hp: Hyperparameters) -> tuple[float, float]:
    """Rate and inverse mean of the slab-variance factor from fresh second moments."""
    d_diag = state.posterior.second_moments
    beta = (
        0.5 * np.sum(state.p_incl * d_diag)
        + np.sum((1.0 - state.p_incl) * d_diag) / (2.0 * hp.c)
        + state.e_a_inv
    )
    if not beta > 0.0:
        raise NumericalError("slab-variance rate is not positive")
    return float(beta), float(state.alpha_tau2 / beta)


def update_z_cs(state: CsState, hp: Hyperparameters) -> np.ndarray:
    """Damped inclusion-probability step; index 0 stays pinned at 1."""
    d_diag = state.posterior.second_moments
    # the log(c)/2 offset is the slab/spike normalization ratio; without it
    # every probability saturates at one and the spike is never used
    arg = (
        state.e_log_pi
        - state.e_log_1mpi
        + 0.5 * np.log(hp.c)
        - 0.5 * state.e_tau2_inv * d_diag * (1.0 - 1.0 / hp.c)
    )
    p_new = damped_step(state.p_incl, arg)
    p_new[0] = 1.0
    return p_new


def update_cs(state: CsState, dataset: Dataset, hp: Hyperparameters) -> CsState:
    """One sweep at fixed xi: coefficients, slab variance, Beta factors, indicators."""
    state.posterior = update_beta_cs(state, hp)
    state.beta_tau2, state.e_tau2_inv = update_tau2_cs(state, hp)
    state.rate_a = state.e_tau2_inv + 1.0 / hp.A
    state.e_a_inv = 1.0 / state.rate_a
    update_pi(state, hp)
    state.p_incl = update_z_cs(state, hp)
    return state


def elbo_cs(state: CsState, dataset: Dataset, hp: Hyperparameters) -> dict:
    """Terms of the surrogate evidence lower bound, all non-constant ones."""
    d_diag = state.posterior.second_moments
    p_slope = state.p_incl[1:]
    e_t2i = state.e_tau2_inv
    mix = state.p_incl + (1.0 - state.p_incl) / hp.c
    return {
        "likelihood": state.posterior.expected_loglik(state.quad),
        "beta_prior": -0.5 * np.log(hp.c) * float(np.sum(1.0 - p_slope))
        - 0.5 * e_t2i * float(np.sum(mix * d_diag)),
        **indicator_terms(state, hp, "z"),
        "tau2_prior": -e_t2i * state.e_a_inv,
        "a_prior": -state.e_a_inv / hp.A,
        "beta_entropy": 0.5 * state.posterior.logdet,
        "tau2_entropy": gamma_entropy(state.alpha_tau2, state.beta_tau2),
        "a_entropy": gamma_entropy(1.0, state.rate_a),
    }


@single_blas_thread()
def fit_cs(dataset: Dataset, hp: Hyperparameters | None = None) -> FitResult:
    """Run the spike-and-slab coordinate ascent to convergence.

    The bound is multimodal in the inclusion probabilities: a neutral start
    can settle with every coefficient assigned to the spike while a
    slab-leaning start separates signals from noise.  Both starts are run (at
    p = 1, where they coincide, only the first) and the higher bound is kept.
    """
    hp = hp or Hyperparameters()
    runs, errors = [], []
    for p_start in (0.5, 0.9) if dataset.p > 1 else (0.5,):
        try:
            runs.append(cavi.run(init_cs(dataset, hp, p_start), dataset, hp, update_cs, elbo_cs))
        except DivergenceError as exc:
            errors.append(exc)
    if not runs:
        raise errors[0]
    best = max(runs, key=lambda run: run.trace[-1])  # a tie keeps the first start
    state = best.state
    # coefficient posterior with every coefficient held in the slab, for
    # interval summaries that should not inherit spike commitment
    slab = gaussian_factor(np.full(dataset.p, state.e_tau2_inv), state.quad, state.quad.score)
    return best.fit_result(
        Method.CS,
        state.p_incl.copy(),
        {
            "e_tau2_inv": state.e_tau2_inv,
            "e_a_inv": state.e_a_inv,
            "alpha_tau2": state.alpha_tau2,
            "beta_tau2": state.beta_tau2,
            "e_log_pi": state.e_log_pi.copy(),
            "e_log_1mpi": state.e_log_1mpi.copy(),
        },
        interval_posterior=slab,
    )
