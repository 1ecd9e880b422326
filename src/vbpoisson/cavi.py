"""The coordinate-ascent loop all three fit engines run, and the factors the
two engines with inclusion indicators share.

An engine supplies a state whose fields include the bound `quad` and whose
`linear_coef` is the coefficient vector the expansion points xi follow;
`update(state, dataset, hp)`, one sweep over its factors at fixed xi that
rebinds state fields and never writes into their arrays; and
`elbo_terms(state, dataset, hp)`, the bound's terms by name. `run` owns
the stop rule, the move of xi after each sweep and how a divergence ends a run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma, entr, expit

from .core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method
from .errors import DivergenceError, NumericalError
from .likelihood import refresh

# Inclusion probabilities move only half way toward their coordinate optimum.
# The bound is concave in each probability, so the partial step still ascends,
# while full steps commit coefficients to the spike, or lock the mask onto a
# correlated neighbour of a true signal, before the coefficients have settled.
_DAMPING = 0.5


@dataclass(frozen=True)
class CaviRun:
    """The last complete state, the ELBO after each iteration, whether its
    relative change fell below the tolerance, and the message of the
    DivergenceError that ended the run, if one did."""

    state: object
    trace: list
    converged: bool
    divergence: str | None = None

    def fit_result(
        self,
        method: Method,
        inclusion_prob: np.ndarray,
        hyper_expectations: dict,
        interval_posterior: GaussianPosterior | None = None,
    ) -> FitResult:
        return FitResult(
            method=method,
            posterior=self.state.posterior,
            inclusion_prob=inclusion_prob,
            hyper_expectations=hyper_expectations,
            elbo_trace=np.array(self.trace),
            iterations=len(self.trace),
            converged=self.converged,
            interval_posterior=interval_posterior,
            divergence=self.divergence,
        )


def elbo(terms: dict) -> float:
    """Sum of the bound's terms; a non-finite term raises NumericalError."""
    for name, value in terms.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite ELBO term: {name}")
    return float(sum(terms.values()))


def run(state, dataset: Dataset, hp: Hyperparameters, update, elbo_terms) -> CaviRun:
    """Sweep until the ELBO's relative change falls below hp.epsilon.

    After each sweep the expansion points move to the new linear predictor.
    A DivergenceError in the first iteration propagates; a later one ends the
    run, unconverged, at the last complete iteration and with its message.
    """
    trace = []
    for _ in range(hp.max_iter):
        try:
            nxt = update(copy.copy(state), dataset, hp)
            nxt.quad = refresh(dataset.design @ nxt.linear_coef, dataset)
        except DivergenceError as exc:
            if not trace:
                raise
            return CaviRun(state, trace, False, str(exc))
        state = nxt
        value = elbo(elbo_terms(state, dataset, hp))
        done = bool(trace) and abs(value - trace[-1]) / max(abs(trace[-1]), 1e-12) < hp.epsilon
        trace.append(value)
        if done:
            return CaviRun(state, trace, True)
    return CaviRun(state, trace, False)


def pi_expectations(p_incl: np.ndarray, hp: Hyperparameters) -> tuple[np.ndarray, np.ndarray]:
    """Digamma expectations of log pi and log(1-pi) under the Beta factor."""
    norm = digamma(hp.rho1 + hp.rho2 + 1.0)
    return digamma(hp.rho1 + p_incl) - norm, digamma(hp.rho2 - p_incl + 1.0) - norm


def update_pi(state, hp: Hyperparameters) -> None:
    """Refit the Beta factors at the current inclusion probabilities."""
    state.pi_p = state.p_incl
    state.e_log_pi, state.e_log_1mpi = pi_expectations(state.p_incl, hp)


def damped_step(p_incl, arg):
    """Inclusion probabilities moved part of the way toward expit(arg)."""
    return (1.0 - _DAMPING) * p_incl + _DAMPING * expit(arg)


def indicator_terms(state, hp: Hyperparameters, name: str) -> dict:
    """ELBO terms of the slope indicators, which the engine calls `name`, and
    of their Beta factors: both priors and both entropies."""
    p_slope = state.p_incl[1:]
    e_log_pi, e_log_1mpi = state.e_log_pi[1:], state.e_log_1mpi[1:]
    # the Beta factor was last refitted at these inclusion values
    pi_alpha = hp.rho1 + state.pi_p[1:]
    pi_beta = hp.rho2 - state.pi_p[1:] + 1.0
    return {
        f"{name}_prior": float(np.sum(p_slope * e_log_pi + (1.0 - p_slope) * e_log_1mpi)),
        "pi_prior": (hp.rho1 - 1.0) * np.sum(e_log_pi) + (hp.rho2 - 1.0) * np.sum(e_log_1mpi),
        f"{name}_entropy": float(np.sum(entr(p_slope) + entr(1.0 - p_slope))),
        "pi_entropy": float(np.sum(
            betaln(pi_alpha, pi_beta) - (pi_alpha - 1.0) * e_log_pi - (pi_beta - 1.0) * e_log_1mpi
        )),
    }
