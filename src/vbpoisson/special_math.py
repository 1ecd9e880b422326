"""Special functions and 1-D quadrature that scipy lacks as such.

`log_gamma` refuses arguments that are not positive; `gamma_entropy` is the
part of a Gamma or inverse-Gamma factor's entropy that does not cancel in the
bounds; `gig_moments` (the GIG(1/2) mean and inverse mean) is a closed form;
`integrate_1d` is adaptive Simpson quadrature on a finite interval. All are
pure functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import IntegrationError

__all__ = [
    "log_gamma",
    "gamma_entropy",
    "gig_moments",
    "integrate_1d",
]

_MAX_DEPTH = 60


def log_gamma(x):
    """log Gamma(x) for positive x."""
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    return _sp.gammaln(x)


def gamma_entropy(shape, rate):
    """Entropy of Gamma(shape, rate) or inverse-Gamma(shape, rate) factors
    without their E log x term: -shape log(rate) + log Gamma(shape) + shape.

    The full entropy adds -(shape - 1) E log x for a Gamma factor and
    (shape + 1) E log x for an inverse-Gamma one; each bound drops that term
    with the priors' E log x terms it cancels.
    """
    return -shape * np.log(rate) + log_gamma(shape) + shape


def gig_moments(a, b):
    """Mean and inverse mean of GIG(1/2, a, b) variables.

    `a` is the rate-like parameter and `b` the inverse-scale-like one
    (density ~ x^{-1/2} e^{-(ax+b/x)/2}); either may be an array, and the
    moments have their broadcast shape. With r = sqrt(ab), the mean and
    inverse mean follow from the Bessel ratio K_{3/2}(r)/K_{1/2}(r) = 1 + 1/r.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, value in (("a", a), ("b", b)):
        if not np.all((value > 0.0) & np.isfinite(value)):
            raise ValueError(f"gig_moments: {name} must be positive and finite")
    root = np.sqrt(a * b)
    ratio = 1.0 + 1.0 / root
    mean = np.sqrt(b / a) * ratio
    inv_mean = np.sqrt(a / b) * ratio - 1.0 / b
    return mean, inv_mean


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, atol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if abs(err) <= 15.0 * atol:
        return left + right + err / 15.0
    if depth >= _MAX_DEPTH:
        raise IntegrationError(
            "quadrature did not converge within the refinement cap",
            estimate=left + right,
        )
    half = 0.5 * atol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth + 1
    )


def integrate_1d(f, lower, upper, tol):
    """Adaptive Simpson quadrature of a nonnegative function on a finite interval.

    The result carries relative error of order `tol`; failure to converge
    raises IntegrationError with the partial estimate attached.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("bounds must be finite")
    if not lower < upper:
        raise ValueError("lower must be below upper")
    a, b = float(lower), float(upper)
    # Rough composite-Simpson pass fixes the absolute-error scale and seeds
    # the refinement with interior structure the first bisection could miss.
    n = 64
    xs = np.linspace(a, b, n + 1)
    fs = np.array([f(x) for x in xs])
    h = (b - a) / n
    rough = h / 3.0 * (fs[0] + fs[-1] + 4.0 * fs[1:-1:2].sum() + 2.0 * fs[2:-1:2].sum())
    scale = max(abs(rough), 1e-300)
    atol = tol * scale / (n // 2)
    total = 0.0
    for i in range(0, n, 2):
        a_i, m_i, b_i = xs[i], xs[i + 1], xs[i + 2]
        whole = _simpson(fs[i], fs[i + 1], fs[i + 2], b_i - a_i)
        total += _adaptive(f, a_i, b_i, fs[i], fs[i + 1], fs[i + 2], whole, atol, 0)
    return total
