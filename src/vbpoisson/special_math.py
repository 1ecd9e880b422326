"""Special functions and 1-D quadrature that scipy lacks as such.

`digamma` and `log_gamma` refuse arguments that are not positive;
`gamma_entropy` and `inv_gamma_entropy` are the entropies of Gamma and
inverse-Gamma factors; `log_bessel_k_half` and `gig_moments` (the GIG(1/2)
mean, inverse mean and log-moment) are closed forms; `integrate_1d` is
adaptive Simpson quadrature on a finite interval. All are pure functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import IntegrationError

__all__ = [
    "digamma",
    "log_gamma",
    "gamma_entropy",
    "inv_gamma_entropy",
    "log_bessel_k_half",
    "gig_moments",
    "integrate_1d",
]

_MAX_DEPTH = 60
# e^z E1(z) switches from scipy's exp1 to its asymptotic series here, below
# the point where e^z overflows; the series' first omitted term, 9!/z^9,
# is then below 1e-20 relative
_SERIES_FROM = 700.0
_SERIES_TERMS = 8


def digamma(x):
    """Digamma function, restricted to positive arguments."""
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("digamma requires x > 0")
    return _sp.digamma(x)


def log_gamma(x):
    """log Gamma(x) for positive x."""
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    return _sp.gammaln(x)


def gamma_entropy(shape, rate):
    """Entropy -E log q of Gamma(shape, rate) factors, from E log x and E x."""
    e_log = digamma(shape) - np.log(rate)
    return -shape * np.log(rate) + log_gamma(shape) - (shape - 1.0) * e_log + rate * (shape / rate)


def inv_gamma_entropy(shape, rate):
    """Entropy -E log q of inverse-Gamma(shape, rate) factors, from E log x and E 1/x."""
    e_log = np.log(rate) - digamma(shape)
    return -shape * np.log(rate) + log_gamma(shape) + (shape + 1.0) * e_log + rate * (shape / rate)


def log_bessel_k_half(x):
    """log K_{1/2}(x) via the closed form 0.5*log(pi/(2x)) - x."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_bessel_k_half requires x > 0")
    return 0.5 * np.log(np.pi / (2.0 * x)) - x


def _exp_e1(z):
    """e^z E1(z) for z > 0, finite where e^z alone would overflow.

    Uses scipy's exp1 below z = 700 and the asymptotic series
    (1/z) sum_k (-1)^k k!/z^k above it.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    low = z < _SERIES_FROM
    z_low = z[low]
    out[low] = _sp.exp1(z_low) * np.exp(z_low)
    high = z[~low]
    acc = np.ones_like(high)
    for k in range(_SERIES_TERMS, 0, -1):
        acc = 1.0 - k / high * acc
    out[~low] = acc / high
    return out


def gig_moments(a, b):
    """Mean, inverse-moment and log-moment of GIG(1/2, a, b) variables.

    `a` is the rate-like parameter and `b` the inverse-scale-like one
    (density ~ x^{-1/2} e^{-(ax+b/x)/2}); either may be an array, and the
    moments have their broadcast shape. With r = sqrt(ab), the mean and
    inverse mean follow from the Bessel ratio K_{3/2}(r)/K_{1/2}(r) = 1 + 1/r.
    The log-moment is 0.5*log(b/a) plus the order derivative of log K_t(r)
    at t = 1/2, which equals e^{2r} E1(2r) (DLMF 10.38.7).
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
    log_mean = 0.5 * np.log(b / a) + _exp_e1(2.0 * root)
    return mean, inv_mean, log_mean


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
