"""Posterior predictive mass functions, HPD summaries and modes.

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
# counts per pass of the count-by-node matrix and per group of predict rows
_BLOCK = 2048
_ENUM_CAP = 10**6
_OVERFLOW = "predictive mean e^(m + s^2/2) overflows a float"
_NONFINITE = "predictive log-rate mean m or variance s^2 is not finite"


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


def _pmf_batch(m, s2, ys: np.ndarray, log: bool = False) -> np.ndarray:
    """The predictive pmf (its log with `log`) at many counts, each by its own
    mode-centred rule; m and s2 are floats, or arrays with one value per count.

    For a count y the log integrand has its mode at u* = m + gap, with
    gap = s^2 y - W(s^2 e^(m + s^2 y)), and with c = e^u* it lies
    drop(d) = d^2/(2 s^2) + c (e^d - 1 - d) below its peak at u* + d. Each side
    of u* runs out to where drop reaches _WINDOW_NATS and gets a 32-node
    Gauss-Legendre rule. The integrand is summed in this peak-relative form:
    the plain y u - e^u - (u - m)^2/(2 s^2) cancels badly when s^2 is tiny.
    """
    ys = np.asarray(ys, dtype=float)
    per_count = np.ndim(s2) > 0
    flat = s2 < _DEGENERATE_VAR
    if not per_count and flat:
        logpmf = poisson_logpmf(ys, m)
        return logpmf if log else np.exp(logpmf)
    out = np.empty(ys.shape[0])
    if per_count and flat.any():  # those laws take the Poisson pmf, the rest the rule
        out[flat] = _pmf_batch(m[flat], 0.0, ys[flat], log)
        out[~flat] = _pmf_batch(m[~flat], s2[~flat], ys[~flat], log)
        return out
    for start in range(0, ys.shape[0], _BLOCK):
        at = slice(start, start + _BLOCK)
        y = ys[at]
        mb, sb = (m[at], s2[at]) if per_count else (m, s2)
        # wrightomega(z) = W(e^z), which does not overflow
        gap = sb * y - wrightomega(np.log(sb) + mb + sb * y)
        c = np.exp(mb + gap)
        # zero at the exact mode; the linear term absorbs the rounding of u*
        slope = y - c - gap / sb
        peak = (
            y * (mb + gap) - c - 0.5 * gap**2 / sb
            - log_gamma(y + 1.0) - 0.5 * np.log(2.0 * np.pi * sb)
        )
        # drop is convex in d, so Newton started beyond the root stays beyond it
        ends = np.column_stack([
            np.full_like(y, -np.sqrt(2.0 * _WINDOW_NATS * sb)),
            np.minimum(np.sqrt(2.0 * _WINDOW_NATS / (1.0 / sb + c)),
                       np.log1p(2.0 * _WINDOW_NATS / c) + 1.0),
        ])
        c, sb = c[:, None], sb[:, None] if per_count else sb
        for _ in range(4):
            ends -= (_drop(ends, sb, c) - _WINDOW_NATS) / (ends / sb + c * np.expm1(ends))
        # rows: counts; columns: the 2 x 32 nodes of [ends[0], 0] and [0, ends[1]]
        d = (ends[:, :, None] * _GL_NODES).reshape(y.shape[0], -1)
        w = (np.abs(ends)[:, :, None] * _GL_WEIGHTS).reshape(y.shape[0], -1)
        # the log form leaves the peak out of the sum (adding 0.0 is exact)
        lead = np.zeros_like(peak) if log else peak
        vals = np.exp(lead[:, None] + slope[:, None] * d - _drop(d, sb, c))
        total = np.einsum("ij,ij->i", w, vals)
        out[at] = peak + np.log(total) if log else total
    return out


def _drop(d: np.ndarray, s2: np.ndarray, c: np.ndarray) -> np.ndarray:
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
    x0: np.ndarray, fit: FitResult, sparse: SparseCoefficients | None = None, level: float = 0.95
) -> PredictiveDistribution:
    """The predictive pmf of the one covariate row x0; see predictive_distributions."""
    return next(predictive_distributions(np.reshape(x0, (1, -1)), fit, sparse, level))


def predictive_distributions(
    rows: np.ndarray, fit: FitResult, sparse: SparseCoefficients | None = None, level: float = 0.95
):
    """Each row's predictive pmf on counts 0..K, K sized from the row's own m and
    s^2, in row order; the level and the rows' shape are checked on the call.

    With `sparse` given, the coefficients it zeroes leave the linear predictor.
    A row whose pmf cannot reach _MASS_TARGET within _ENUM_CAP counts raises
    TruncationError, and one whose m or s^2 is not finite or whose mean
    overflows a float NumericalError, once the rows before it are yielded. One
    _pmf_batch call enumerates each group of rows with at most _BLOCK counts in
    all, or one longer row.
    """
    _check_level(level)
    rows, post = np.asarray(rows, dtype=float), fit.posterior
    if rows.ndim != 2 or rows.shape[1] != post.mean.shape[0]:
        raise ValueError(f"rows must have shape (n, {post.mean.shape[0]}), not {rows.shape}")
    # row by row, so that each row's m and s^2 round as a lone row's do
    xms = (row if sparse is None else row * sparse.p_binary for row in rows)
    laws = [(float(xm @ post.mean), float(xm @ post.covariance @ xm)) for xm in xms]
    m, s2 = np.array(laws).reshape(-1, 2).T
    finite = np.isfinite(m) & np.isfinite(s2)
    # what overflows, or divides by s = 0, is on refused rows only or not used
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.where(s2 >= _DEGENERATE_VAR, np.sqrt(s2), 0.0)
        # P(y >= cap) is at least P(rate >= 2 cap) (1 - e^(-cap/4)), and at least
        # P(rate >= e^m) P(Pois(e^m) >= cap) with P(rate >= e^m) >= 1/2; a row where
        # either bound passes 1 - _MASS_TARGET can never reach the target, so it is
        # refused before any count is evaluated
        log_2cap = np.log(2.0 * _ENUM_CAP)
        past_2cap = np.where(s > 0.0, ndtr((m - log_2cap) / s), m >= log_2cap)
        refused = ((past_2cap > 1.0 - _MASS_TARGET)
                   | (0.5 * pdtrc(_ENUM_CAP - 1, np.exp(m)) > 1.0 - _MASS_TARGET))
        overflows = ~refused & (m + 0.5 * s2 > np.log(np.finfo(float).max))
        # with T = _MASS_TARGET, K is the Poisson upper quantile at 0.09 (1 - T) of
        # the rate law's upper quantile at 0.81 (1 - T); a Poisson tail grows with
        # its rate, so by the union bound P(y > K) <= 0.9 (1 - T). fmin also caps
        # the nan that pdtrik returns at an overflowed rate
        rate = np.exp(m - s * ndtri(0.81 * (1.0 - _MASS_TARGET)))
    k = np.fmin(np.ceil(pdtrik(1.0 - 0.09 * (1.0 - _MASS_TARGET), rate)), _ENUM_CAP - 1)
    errors = np.where(finite, np.where(overflows, _OVERFLOW, ""), _NONFINITE)
    # a refused row, and every row from the first that fails on, gets no counts
    sizes = np.where(np.cumsum(refused | (errors != "")), 0, k + 1).astype(np.int64)
    return _summarise(m, s2, sizes, errors, level)


def _summarise(m, s2, sizes, errors, level):
    """The rows' PredictiveDistributions, their counts enumerated a group at a time."""
    ends, lo = np.cumsum(sizes), 0
    while lo < sizes.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + _BLOCK, side="right")))
        n = sizes[lo:hi]
        ys = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # each row's 0..K in turn
        pmfs = _pmf_batch(np.repeat(m[lo:hi], n), np.repeat(s2[lo:hi], n), ys)
        for i, pmf in zip(range(lo, hi), np.split(pmfs, np.cumsum(n)[:-1])):
            if errors[i]:
                raise NumericalError(str(errors[i]))
            pmf = pmf.copy()
            total = float(pmf.sum())  # 0.0 for a refused row
            if total < _MASS_TARGET:
                raise TruncationError("predictive enumeration cap reached", accumulated_mass=total)
            yield PredictiveDistribution(
                support_max=pmf.size - 1, pmf=pmf, mode=int(np.argmax(pmf)),
                hpd_set=_hpd_set(pmf, level), tail_mass=max(0.0, 1.0 - total),
                mean=float(np.exp(m[i] + 0.5 * s2[i])))
        lo = hi


def predictive_modes(
    rows: np.ndarray, fit: FitResult, sparse: SparseCoefficients | None = None
) -> np.ndarray:
    """The mode of each row's predictive pmf, found without enumerating its support.

    With u ~ N(m, s^2) the log rate, p(y + 1) / p(y) = E[e^u | y] / (y + 1), and
    E[e^u | y] = y - (E[u | y] - m) / s^2 since the score of u | y has mean 0.
    E[u | y] rises with y, so p(y + 1) <= p(y) fails left of the mode and holds
    from it on (the pmf is unimodal, Holgate 1970). u | y is 1/s^2-strongly
    log-concave, so E[e^u | y] <= e^(E[u | y] + s^2/2) and the test holds at
    every y >= e^(m - s^2/2) - 1: the mode lies in [0, ceil(e^(m - s^2/2))].
    One bisection runs on that bracket for all rows in lock-step, testing the
    pmf's own values, so ties resolve as argmax does; where both underflow to 0
    it compares their logs. A row whose m or s^2 is not finite, whose mean
    overflows a float, or whose bracket reaches 2^53 raises NumericalError.
    """
    xm = rows if sparse is None else rows * sparse.p_binary
    m = xm @ fit.posterior.mean
    s2 = np.einsum("ij,ij->i", xm @ fit.posterior.covariance, xm)
    if not np.all(np.isfinite(m) & np.isfinite(s2)):
        raise NumericalError(_NONFINITE)
    if np.any(m + 0.5 * s2 > np.log(np.finfo(float).max)):
        raise NumericalError(_OVERFLOW)
    top = np.ceil(np.exp(m - 0.5 * s2))
    if not np.all(top < 2.0**53):
        raise NumericalError("predictive mode bracket e^(m - s^2/2) is not a count below 2^53")
    lo, hi = np.zeros(m.shape[0], dtype=np.int64), top.astype(np.int64)
    while (live := np.flatnonzero(lo < hi)).size:
        mid = (lo[live] + hi[live]) // 2
        # the counts mid of every live row, then each row's mid + 1
        ys, ms, vs = np.concatenate([mid, mid + 1]), np.tile(m[live], 2), np.tile(s2[live], 2)
        p = _pmf_batch(ms, vs, ys).reshape(2, -1)
        falls = p[1] <= p[0]
        if (both := np.tile((p[0] == 0.0) & (p[1] == 0.0), 2)).any():
            lp = _pmf_batch(ms[both], vs[both], ys[both], log=True).reshape(2, -1)
            falls[both[: mid.size]] = lp[1] <= lp[0]
        hi[live] = np.where(falls, mid, hi[live])
        lo[live] = np.where(falls, lo[live], mid + 1)
    return lo


def hpd_coefficients(posterior: GaussianPosterior, level: float = 0.95) -> np.ndarray:
    """Per-coordinate symmetric HPD intervals of the Gaussian marginals."""
    _check_level(level)
    z = ndtri(0.5 * (1.0 + level))
    sd = np.sqrt(np.diag(posterior.covariance))
    return np.column_stack([posterior.mean - z * sd, posterior.mean + z * sd])
