"""Quadratic bound on the exponential and the induced approximate likelihood.

The surrogate g(x, xi) = e^xi [(1-xi)(1+x) + x^2/2 + xi^2/2] agrees with e^x
at x = xi and restores Gaussian conjugacy for the coefficient block in all
three fit engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DivergenceError
from .special_math import log_gamma

if TYPE_CHECKING:
    from .core import Dataset

XI_OVERFLOW = 700.0


def quad_bound(x: float, xi: float) -> float:
    """Quadratic surrogate for e^x expanded at xi; exact when x equals xi."""
    return np.exp(xi) * ((1.0 - xi) * (1.0 + x) + 0.5 * x * x + 0.5 * xi * xi)


@dataclass(frozen=True)
class QuadApprox:
    """Snapshot of the bound at expansion points xi.

    score holds the surrogate's linear term X^T (y - e^xi (1 - xi)), which
    every engine's coefficient update and expected log-likelihood read;
    design is the dataset's, kept for `root` and `s_x_xi`.
    """

    xi: np.ndarray
    score: np.ndarray
    design: np.ndarray

    @cached_property
    def s_x_xi(self) -> np.ndarray:
        """The exp-weighted design cross-product sum(e^xi_i x_i x_i^T) = R^T R,
        formed on the first read and kept. The n >= p solves and bounds read
        it, and so does the Bernoulli engine's mask sweep; nothing else in a
        sweep with n < p does."""
        x = self.design
        s_x_xi = (x * np.exp(self.xi)[:, None]).T @ x
        return 0.5 * (s_x_xi + s_x_xi.T)

    def root(self, col: np.ndarray | None = None) -> np.ndarray:
        """The n x p root R = W^(1/2) X of s_x_xi, W = diag(e^xi), with its
        columns scaled by col if given; formed on each call."""
        r = np.exp(0.5 * self.xi)[:, None] * self.design
        return r if col is None else r * col


def refresh(xi: np.ndarray, dataset: Dataset) -> QuadApprox:
    """Recompute the bound quantities at new expansion points."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[0] != dataset.n:
        raise ValueError("xi length must match the number of observations")
    if np.any(xi > XI_OVERFLOW):
        raise DivergenceError("linear predictor exceeded the overflow guard")
    m_xi = np.exp(xi) * (1.0 - xi)
    x = dataset.design
    return QuadApprox(xi=xi, score=x.T @ (dataset.response - m_xi), design=x)


def poisson_logpmf(y: np.ndarray, log_rate: np.ndarray) -> np.ndarray:
    """Poisson log-pmf of the counts y at rates e^log_rate."""
    return y * log_rate - np.exp(log_rate) - log_gamma(y + 1.0)


def approx_loglik(q: QuadApprox, v: np.ndarray, trace: float) -> float:
    """Expected surrogate log-likelihood at coefficient mean v, given its trace
    term tr(S D), S the design cross-product and D the coefficients' second
    moment; drops the log y! constant."""
    return float(q.score @ v - 0.5 * trace - np.sum(np.exp(q.xi) * (1.0 - q.xi + 0.5 * q.xi**2)))
