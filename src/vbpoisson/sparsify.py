"""Turn variational posterior means into sparse coefficient estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FitResult, Method
from .likelihood import XI_OVERFLOW, poisson_logpmf


@dataclass(frozen=True)
class SparseCoefficients:
    """Thresholded coefficient vector with its selection bookkeeping."""

    beta_hat: np.ndarray
    support: tuple
    kappa: float
    aic: float
    df: int
    p_binary: np.ndarray


def poisson_loglik(beta: np.ndarray, dataset: Dataset) -> float:
    """Exact Poisson log-likelihood at a fixed coefficient vector.

    Overflow of the rate returns -inf so a wild candidate loses any model
    comparison instead of crashing it.
    """
    eta = dataset.design @ np.asarray(beta, dtype=float)
    if np.any(eta > XI_OVERFLOW):
        return -np.inf
    return float(np.sum(poisson_logpmf(dataset.response, eta)))


def _aic(loglik: float, df: int) -> float:
    """The criterion the threshold search minimises: -loglik + 2 df, which
    weighs the log-likelihood half as much as the conventional AIC."""
    return -loglik + 2.0 * df


def _sparse_record(
    mu: np.ndarray, keep: np.ndarray, kappa: float, dataset: Dataset | None
) -> SparseCoefficients:
    """The coefficients `keep` selects, the intercept always among them, with
    the criterion at `dataset` (nan without one)."""
    keep = np.concatenate(([True], keep[1:]))
    beta_hat = np.where(keep, mu, 0.0)
    support = tuple(sorted(set(np.flatnonzero(beta_hat != 0.0).tolist()) | {0}))
    df = len(support)
    aic = np.nan if dataset is None else _aic(poisson_loglik(beta_hat, dataset), df)
    return SparseCoefficients(
        beta_hat=beta_hat,
        support=support,
        kappa=float(kappa),
        aic=float(aic),
        df=df,
        p_binary=keep.astype(float),
    )


def threshold_bernoulli(fit: FitResult, dataset: Dataset | None = None) -> SparseCoefficients:
    """Zero the slopes whose inclusion probability is not above one half."""
    if fit.method is not Method.BERNOULLI:
        raise ValueError("probability thresholding applies to the Bernoulli fit")
    return _sparse_record(fit.posterior.mean, fit.inclusion_prob > 0.5, 0.0, dataset)


def threshold_hard(fit: FitResult, dataset: Dataset) -> SparseCoefficients:
    """Pick the information-criterion-minimizing hard threshold.

    Slope coordinates with magnitude at or below the threshold are zeroed;
    the intercept is exempt. Only 0 and the slope magnitudes give distinct
    supports, so each is tried, from the largest down, and ties go to the
    larger threshold.
    """
    if fit.method not in (Method.LAPLACE, Method.CS):
        raise ValueError("hard thresholding applies to the Laplace and CS fits")
    mu = fit.posterior.mean
    best = None
    for kappa in np.unique(np.append(np.abs(mu[1:]), 0.0))[::-1]:
        record = _sparse_record(mu, np.abs(mu) > kappa, kappa, dataset)
        if best is None or record.aic < best.aic:
            best = record
    return best


def sparsify(fit: FitResult, dataset: Dataset) -> SparseCoefficients:
    """The fit method's own rule: p > 0.5 for Bernoulli, the AIC hard
    threshold for Laplace and CS."""
    if fit.method is Method.BERNOULLI:
        return threshold_bernoulli(fit, dataset)
    return threshold_hard(fit, dataset)
