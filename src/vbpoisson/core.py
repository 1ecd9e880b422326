"""Shared data model: datasets, hyper-parameters and fit containers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Method(enum.Enum):
    LAPLACE = "laplace"
    CS = "cs"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class Dataset:
    """Design matrix (column 0 all ones) and nonnegative count response."""

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "design", np.asarray(self.design, dtype=float))
        object.__setattr__(self, "response", np.asarray(self.response, dtype=float))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


def validate(dataset: Dataset) -> list[str]:
    """Check the Dataset invariants; returns one diagnostic per violation."""
    diags = []
    x, y = dataset.design, dataset.response
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        diags.append("design must be a non-empty 2-d matrix")
        return diags
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        diags.append("response length does not match design row count")
    if not np.all(np.isfinite(x)):
        diags.append("non-finite design entry")
    elif not np.allclose(x[:, 0], 1.0, rtol=0.0, atol=0.0):
        diags.append("intercept column not constant one")
    finite = y[np.isfinite(y)]
    if np.any(finite < 0):
        diags.append("negative count")
    if np.any(finite != np.round(finite)):
        diags.append("non-integer count")
    if finite.size != y.size:
        diags.append("non-finite response entry")
    if not diags:
        stds = x[:, 1:].std(axis=0) if x.shape[1] > 1 else np.array([])
        for j in np.flatnonzero(stds == 0.0):
            diags.append(f"zero-variance column {j + 1}")
    return diags


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed prior constants plus convergence controls.

    Defaults follow the simulation settings: nu/delta give the global
    shrinkage rate a prior mean of 0.01, rho2 corresponds to a prior
    inclusion fraction of 0.3, and c is the spike-to-slab variance ratio.
    """

    nu: float = 1e-4
    delta: float = 0.01
    A: float = 0.01
    rho1: float = 1.0
    rho2: float = (1.0 - 0.3) / 0.3
    c: float = 0.001
    a_gamma: float = 0.01
    b_gamma: float = 0.01
    epsilon: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        for name in ("nu", "delta", "A", "rho1", "rho2", "c", "a_gamma", "b_gamma", "epsilon"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if not self.epsilon < 1.0:
            raise ValueError("epsilon must be below 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


def rho2_for_inclusion(p0: float) -> float:
    """Slab-odds hyper-parameter giving prior inclusion mean p0."""
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    return (1.0 - p0) / p0


@dataclass(frozen=True)
class GaussianPosterior:
    """Mean vector and covariance of the Gaussian coefficient factor."""

    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """Converged variational fit.

    interval_posterior, when set, is the coefficient posterior with every
    coefficient conditioned on slab membership; interval summaries use it
    because the mixed-precision posterior can be overconfident about
    coefficients it has assigned to the spike. divergence, when set, is the
    reason a diverging iteration ended the fit at the last complete one.
    """

    method: Method
    posterior: GaussianPosterior
    inclusion_prob: np.ndarray
    hyper_expectations: dict = field(default_factory=dict)
    elbo_trace: np.ndarray = field(default_factory=lambda: np.array([]))
    iterations: int = 0
    converged: bool = False
    interval_posterior: GaussianPosterior | None = None
    divergence: str | None = None
