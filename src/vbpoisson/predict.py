"""Posterior predictive mass functions and HPD summaries.

A new count mixes a Poisson pmf over a log-normal rate: with u = log(rate),
p(y0) = (1/y0!) * integral of exp(-e^u) e^(u*y0) N(u; m, s^2) du, where m and
s^2 come from the Gaussian coefficient posterior at the covariate row.
Each count's integral is a Gauss-Legendre rule on a window centred on that
count's own integrand mode, so a count far from e^m is not missed; below
s^2 = 1e-12 the pmf is the plain Poisson one at rate e^m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri, pdtrc, pdtrik, wrightomega

from .core import FitResult, GaussianPosterior
from .errors import NumericalError, TruncationError
from .likelihood import poisson_logpmf
from .sparsify import SparseCoefficients
from .special_math import log_gamma

_DEGENERATE_VAR = 1e-12
# each side of the mode ends where the integrand is e^-45 of its peak
_WINDOW_NATS = 45.0
# a Gauss-Legendre rule moved from [-1, 1] to [0, 1]
_GL_NODES, _GL_WEIGHTS = leggauss(32)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
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
    """The predictive pmf at many counts, each by its own mode-centred rule.

    For a count y the log integrand has its mode at u* = m + gap, with
    gap = s^2 y - W(s^2 e^(m + s^2 y)), and with c = e^u* it lies
    drop(d) = d^2/(2 s^2) + c (e^d - 1 - d) below its peak at u* + d. Each side
    of u* runs out to where drop reaches _WINDOW_NATS and gets a 32-node
    Gauss-Legendre rule. The integrand is summed in this peak-relative form:
    the plain y u - e^u - (u - m)^2/(2 s^2) cancels badly when s^2 is tiny.
    """
    if s2 < _DEGENERATE_VAR:
        return np.exp(poisson_logpmf(ys.astype(float), m))
    out = np.empty(ys.shape[0])
    # keep the count-by-node matrix bounded so long supports stay cheap
    block = 2**22 // (2 * _GL_NODES.size)
    for start in range(0, ys.shape[0], block):
        y = ys[start : start + block].astype(float)
        # wrightomega(z) = W(e^z), which does not overflow
        gap = s2 * y - wrightomega(np.log(s2) + m + s2 * y)
        c = np.exp(m + gap)
        # zero at the exact mode; the linear term absorbs the rounding of u*
        slope = y - c - gap / s2
        peak = (
            y * (m + gap) - c - 0.5 * gap**2 / s2
            - log_gamma(y + 1.0) - 0.5 * np.log(2.0 * np.pi * s2)
        )
        # drop is convex in d, so Newton started beyond the root stays beyond it
        ends = np.column_stack([
            np.full_like(y, -np.sqrt(2.0 * _WINDOW_NATS * s2)),
            np.minimum(np.sqrt(2.0 * _WINDOW_NATS / (1.0 / s2 + c)),
                       np.log1p(2.0 * _WINDOW_NATS / c) + 1.0),
        ])
        c = c[:, None]
        for _ in range(4):
            ends -= (_drop(ends, s2, c) - _WINDOW_NATS) / (ends / s2 + c * np.expm1(ends))
        # rows: counts; columns: the 2 x 32 nodes of [ends[0], 0] and [0, ends[1]]
        d = (ends[:, :, None] * _GL_NODES).reshape(y.shape[0], -1)
        w = (np.abs(ends)[:, :, None] * _GL_WEIGHTS).reshape(y.shape[0], -1)
        vals = np.exp(peak[:, None] + slope[:, None] * d - _drop(d, s2, c))
        out[start : start + y.shape[0]] = np.einsum("ij,ij->i", w, vals)
    return out


def _drop(d: np.ndarray, s2: float, c: np.ndarray) -> np.ndarray:
    """How far the log integrand lies below its peak at offset d from the mode."""
    return 0.5 * d**2 / s2 + c * (np.expm1(d) - d)


@dataclass(frozen=True)
class PredictiveDistribution:
    """Predictive pmf on counts 0..support_max with its point and interval summaries.

    `mean` is the whole mixture's mean e^(m + s^2/2), not a sum over the pmf.
    """

    support_max: int
    pmf: np.ndarray
    mode: int
    hpd_set: tuple
    tail_mass: float
    mean: float


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
    """The predictive pmf on counts 0..K, with K sized from the row's own m and s^2.

    With `sparse` given, the coefficients it zeroes leave the linear predictor.
    A row whose pmf cannot reach _MASS_TARGET within _ENUM_CAP counts raises
    TruncationError, and one whose mean overflows a float NumericalError.
    """
    _check_level(level)
    x0 = np.asarray(x0, dtype=float)
    xm = x0 if sparse is None else x0 * sparse.p_binary
    m = float(xm @ fit.posterior.mean)
    s2 = float(xm @ fit.posterior.covariance @ xm)
    s = np.sqrt(s2) if s2 >= _DEGENERATE_VAR else 0.0
    # P(y >= cap) is at least P(rate >= 2 cap) (1 - e^(-cap/4)), and at least
    # P(rate >= e^m) P(Pois(e^m) >= cap) with P(rate >= e^m) >= 1/2; a row where
    # either bound passes 1 - _MASS_TARGET can never reach the target, so it is
    # refused before any count is evaluated
    log_2cap = np.log(2.0 * _ENUM_CAP)
    past_2cap = ndtr((m - log_2cap) / s) if s > 0.0 else m >= log_2cap
    if (past_2cap > 1.0 - _MASS_TARGET
            or 0.5 * pdtrc(_ENUM_CAP - 1, np.exp(m)) > 1.0 - _MASS_TARGET):
        raise TruncationError("predictive enumeration cap reached", accumulated_mass=0.0)
    if m + 0.5 * s2 > np.log(np.finfo(float).max):
        raise NumericalError("predictive mean e^(m + s^2/2) overflows a float")
    # with T = _MASS_TARGET, K is the Poisson upper quantile at 0.09 (1 - T) of
    # the rate law's upper quantile at 0.81 (1 - T); a Poisson tail grows with
    # its rate, so by the union bound P(y > K) <= 0.9 (1 - T). fmin also caps
    # the nan that pdtrik returns at an overflowed rate
    rate = np.exp(m - s * ndtri(0.81 * (1.0 - _MASS_TARGET)))
    k = np.ceil(pdtrik(1.0 - 0.09 * (1.0 - _MASS_TARGET), rate))
    support_max = int(np.fmin(k, _ENUM_CAP - 1))
    pmf = _pmf_batch(m, s2, np.arange(support_max + 1))
    total = float(pmf.sum())
    if total < _MASS_TARGET:
        raise TruncationError("predictive enumeration cap reached", accumulated_mass=total)
    return PredictiveDistribution(
        support_max=support_max,
        pmf=pmf,
        mode=int(np.argmax(pmf)),
        hpd_set=_hpd_set(pmf, level),
        tail_mass=max(0.0, 1.0 - total),
        mean=float(np.exp(m + 0.5 * s2)),
    )


def hpd_coefficients(posterior: GaussianPosterior, level: float = 0.95) -> np.ndarray:
    """Per-coordinate symmetric HPD intervals of the Gaussian marginals."""
    _check_level(level)
    z = ndtri(0.5 * (1.0 + level))
    sd = np.sqrt(np.diag(posterior.covariance))
    return np.column_stack([posterior.mean - z * sd, posterior.mean + z * sd])
