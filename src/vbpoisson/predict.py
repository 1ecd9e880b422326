"""Posterior predictive mass functions and HPD summaries.

A new count mixes a Poisson pmf over a log-normal rate: with u = log(rate),
p(y0) = (1/y0!) * integral of exp(-e^u) e^(u*y0) N(u; m, s^2) du, where m and
s^2 come from the Gaussian coefficient posterior at the covariate row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import FitResult, GaussianPosterior
from .errors import TruncationError
from .likelihood import poisson_logpmf
from .sparsify import SparseCoefficients
from .special_math import log_gamma

_DEGENERATE_VAR = 1e-12
_WINDOW_SD = 12.0
_MASS_TARGET = 1.0 - 1e-6
_ENUM_CAP = 10**6


def ppmf_gaussian(x0: np.ndarray, posterior: GaussianPosterior, y0: int) -> float:
    """Predictive probability of the count y0 at covariate row x0.

    Under a sparse record's inclusion mask, pass x0 * p_binary.
    """
    y0 = int(y0)
    if y0 < 0:
        raise ValueError("count must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    m = float(x0 @ posterior.mean)
    s2 = float(x0 @ posterior.covariance @ x0)
    return float(_pmf_batch(m, s2, np.array([y0]))[0])


def _pmf_batch(m: float, s2: float, ys: np.ndarray) -> np.ndarray:
    """Vectorized Simpson evaluation of the predictive pmf at many counts."""
    if s2 < _DEGENERATE_VAR:
        return np.exp(poisson_logpmf(ys.astype(float), m))
    s = np.sqrt(s2)
    lo, hi = m - _WINDOW_SD * s, m + _WINDOW_SD * s
    ymax = float(ys.max())
    # the integrand's narrowest scale is the smaller of the mixing sd and the
    # Poisson factor's curvature scale 1/sqrt(y)
    feature = min(s, 1.0 / np.sqrt(max(ymax, 1.0)))
    n = int(np.clip(np.ceil(16.0 * (hi - lo) / feature), 200, 6000))
    n += n % 2
    u = np.linspace(lo, hi, n + 1)
    log_mix = -0.5 * (u - m) ** 2 / s2 - 0.5 * np.log(2.0 * np.pi * s2)
    h = (hi - lo) / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    out = np.empty(ys.shape[0])
    # keep the count-by-node matrix bounded so long supports stay cheap
    block = max(1, int(2**22 // (n + 1)))
    for start in range(0, ys.shape[0], block):
        yb = ys[start : start + block]
        log_int = (
            yb[:, None] * u[None, :]
            - np.exp(u)[None, :]
            - log_gamma(yb + 1.0)[:, None]
            + log_mix[None, :]
        )
        shift = log_int.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        vals = np.exp(log_int - shift)
        out[start : start + yb.shape[0]] = np.exp(shift[:, 0]) * (h / 3.0) * (vals @ w)
    return out


@dataclass(frozen=True)
class PredictiveDistribution:
    """Truncated predictive pmf with its point and interval summaries."""

    support_max: int
    pmf: np.ndarray
    mode: int
    hpd_set: tuple
    tail_mass: float

    @property
    def mean(self) -> float:
        return float(np.arange(self.support_max + 1) @ self.pmf)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")


def _hpd_set(pmf: np.ndarray, level: float) -> tuple:
    """The largest masses, taken in decreasing order until they reach the level."""
    order = np.argsort(-pmf, kind="stable")
    count = int(np.searchsorted(np.cumsum(pmf[order]), level)) + 1
    return tuple(sorted(order[:count].tolist()))


def predictive_distribution(
    x0: np.ndarray,
    fit: FitResult,
    sparse: SparseCoefficients | None = None,
    level: float = 0.95,
) -> PredictiveDistribution:
    """Enumerate the predictive pmf until only negligible mass remains.

    With `sparse` given, the coefficients it zeroes leave the linear predictor.
    """
    _check_level(level)
    x0 = np.asarray(x0, dtype=float)
    xm = x0 if sparse is None else x0 * sparse.p_binary
    m = float(xm @ fit.posterior.mean)
    s2 = float(xm @ fit.posterior.covariance @ xm)
    pmf_parts = []
    total = 0.0
    start = 0
    chunk = 256
    while total < _MASS_TARGET:
        if start >= _ENUM_CAP:
            raise TruncationError(
                "predictive enumeration cap reached", accumulated_mass=total
            )
        ys = np.arange(start, min(start + chunk, _ENUM_CAP))
        part = _pmf_batch(m, s2, ys)
        pmf_parts.append(part)
        total += float(part.sum())
        start += ys.shape[0]
        chunk = min(chunk * 2, 2**16)
    pmf = np.concatenate(pmf_parts)
    # trim trailing all-but-zero entries past the last point carrying mass
    keep = np.flatnonzero(pmf > 0.0)
    support_max = int(keep[-1]) if keep.size else 0
    pmf = pmf[: support_max + 1]
    tail_mass = max(0.0, 1.0 - float(pmf.sum()))
    mode = int(np.argmax(pmf))
    return PredictiveDistribution(
        support_max=support_max,
        pmf=pmf,
        mode=mode,
        hpd_set=_hpd_set(pmf, level),
        tail_mass=tail_mass,
    )


def hpd_coefficients(posterior: GaussianPosterior, level: float = 0.95) -> np.ndarray:
    """Per-coordinate symmetric HPD intervals of the Gaussian marginals."""
    _check_level(level)
    z = ndtri(0.5 * (1.0 + level))
    sd = np.sqrt(np.diag(posterior.covariance))
    return np.column_stack([posterior.mean - z * sd, posterior.mean + z * sd])
