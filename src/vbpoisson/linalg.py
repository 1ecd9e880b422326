"""Symmetric positive definite solves shared by the fit engines, the
Gaussian coefficient posterior they leave, and the BLAS thread pin every fit
runs under."""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from functools import cached_property

import numpy as np
from scipy.linalg import lapack as _lapack

from .errors import NumericalError
from .likelihood import QuadApprox, approx_loglik

# (get, set) symbol names of the OpenBLAS builds numpy and scipy ship, then
# of a plain system OpenBLAS
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_blas_pools() -> list:
    """One (getter, setter) pair per distinct OpenBLAS mapped into this process.

    numpy and scipy, imported by this module, have loaded theirs; mapped
    libraries are listed from /proc/self/maps. scipy's `_fblas` and
    `cython_blas` modules are listed too and resolve to its library's setter,
    so pairs are kept by setter address. Where that file does not
    exist, nothing is found and the thread pin does nothing.
    """
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if path.startswith("/") and "blas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return []
    pools = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                pools.setdefault(ctypes.cast(setter, ctypes.c_void_p).value, (getter, setter))
                break
    return list(pools.values())


# found on the first pin, not at import, so importing opens no file
_BLAS_POOLS: list | None = None
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


@contextlib.contextmanager
def single_blas_thread():
    """Run the enclosed block with every known OpenBLAS set to one thread.

    The counts found on the outermost entry are restored when the last
    nested or concurrent holder leaves, also when it leaves by an exception.
    The pin is process-wide, as OpenBLAS's own setting is. At the matrix
    sizes the engines use, extra threads cost more in wake-ups than they
    save in arithmetic.
    """
    global _BLAS_POOLS, _pin_depth, _pin_saved
    with _pin_lock:
        if _BLAS_POOLS is None:
            _BLAS_POOLS = _find_blas_pools()
        if _pin_depth == 0:
            _pin_saved = [(setter, getter()) for getter, setter in _BLAS_POOLS]
            for setter, _ in _pin_saved:
                setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for setter, count in _pin_saved:
                    setter(count)


def pd_inverse(precision: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert a symmetric PD matrix via Cholesky; returns (inverse, logdet).

    A single jitter retry (1e-10 * trace/p added to the diagonal) is tried
    before giving up, since near-singular curvature matrices do occur for
    collinear designs. The returned logdet is log|inverse|. dpotrf is called
    as scipy.linalg.cholesky(lower=True) calls it, after the same finite check.
    """
    precision = np.asarray_chkfinite(precision, dtype=float)
    p = precision.shape[0]
    chol, info = _lapack.dpotrf(precision, lower=1, clean=1)
    if info:
        jitter = 1e-10 * np.trace(precision) / p
        jittered = np.asarray_chkfinite(precision + jitter * np.eye(p))
        chol, info = _lapack.dpotrf(jittered, lower=1, clean=1)
        if info:
            cond = float(np.linalg.cond(precision))
            raise NumericalError("precision matrix is not positive definite", condition=cond)
    logdet_precision = 2.0 * np.sum(np.log(np.diag(chol)))
    # potri overwrites the lower triangle with that of the inverse and leaves
    # the upper one as cholesky left it, all zeros; adding the transpose
    # mirrors it exactly and doubles the diagonal, which is then halved
    lower = _lapack.dpotri(chol, lower=1)[0]
    inv = lower + lower.T
    inv.flat[:: p + 1] *= 0.5
    return inv, -logdet_precision


def capacitance_inverse(d: np.ndarray, root: np.ndarray) -> tuple[np.ndarray, float]:
    """The inverse of diag(d) + root^T root, for an n x p root R with n < p, as
    the n x p matrix V with inverse D^-1 - V^T V, and log|inverse|.

    Through the n x n capacitance matrix C = I + R D^-1 R^T = L L^T: V is
    L^-1 R D^-1 (Woodbury) and |D + R^T R| = |D| |C| (the matrix determinant
    lemma). C is at least I, so its Cholesky needs no jitter; d must be
    positive and finite. dpotrf and dtrtrs are called as scipy.linalg's
    cholesky and solve_triangular call them.
    """
    if not np.all((d > 0.0) & (d < np.inf)):
        raise NumericalError("precision diagonal is not positive and finite")
    scaled = root / d
    cap = scaled @ root.T
    cap.flat[:: cap.shape[0] + 1] += 1.0
    chol, info = _lapack.dpotrf(cap, lower=1, clean=1)
    if info or not np.isfinite(cap).all():  # not finite: an entry overflowed
        raise NumericalError("capacitance matrix is not positive definite")
    v = _lapack.dtrtrs(chol, scaled, lower=1)[0]
    return v, -float(np.sum(np.log(d))) - 2.0 * float(np.sum(np.log(np.diag(chol))))


class GaussianPosterior:
    """Gaussian coefficient posterior N(mean, Sigma) as its solve left it.

    It holds a dense Sigma, or, from a capacitance solve, d and V with
    Sigma = D^-1 - V^T V, so its variances and expected surrogate
    log-likelihood cost O(np) and O(n^2 p); its p x p Sigma is then formed on
    the first read of `covariance` and kept. logdet, log|Sigma|, is set by
    `gaussian_factor` and is None otherwise.
    """

    def __init__(
        self,
        mean: np.ndarray,
        covariance: np.ndarray | None = None,
        d: np.ndarray | None = None,
        v: np.ndarray | None = None,
        logdet: float | None = None,
    ):
        self.mean, self.logdet, self._d, self._v = mean, logdet, d, v
        if v is None:  # the instance attribute shadows the property below
            self.covariance = covariance

    @cached_property
    def covariance(self) -> np.ndarray:
        """Sigma as one p x p matrix, formed from d and V."""
        sigma = -(self._v.T @ self._v)
        sigma.flat[:: self._d.shape[0] + 1] += 1.0 / self._d
        return sigma

    @cached_property
    def variances(self) -> np.ndarray:
        """The diagonal of Sigma."""
        if self._v is None:
            return np.diag(self.covariance)
        return 1.0 / self._d - np.einsum("ij,ij->j", self._v, self._v)

    @cached_property
    def second_moments(self) -> np.ndarray:
        """E beta_j^2, the diagonal of mean mean^T + Sigma."""
        return self.mean**2 + self.variances

    def expected_loglik(self, quad: QuadApprox, col: np.ndarray | None = None) -> float:
        """approx_loglik at the bound `quad` for the coefficients col * beta
        (beta itself if col is None), beta drawn from this posterior.

        Its trace term is tr((S o Omega)(mu mu^T + Sigma)) with S o Omega as in
        `gaussian_factor`: that of S o (col col^T), plus, for a mask,
        sum_j col_j (1 - col_j) S_jj E beta_j^2. A dense posterior sums the
        first elementwise. A capacitance one forms neither S nor Sigma: with
        R = quad.root(col), it is |R mu|^2 + sum_ij r_ij^2 / d_j - |V R^T|^2.
        """
        mu, dense = self.mean, self._v is None
        root = None if dense else quad.root()
        trace = 0.0
        if col is not None:
            trace = np.sum(_mask_variance(quad, col, root) * self.second_moments)
        if dense:
            s_x = quad.s_x_xi if col is None else quad.s_x_xi * np.outer(col, col)
            trace += np.vdot(s_x, np.outer(mu, mu) + self.covariance)
        else:
            root = root if col is None else root * col
            fit = root @ mu
            cross = self._v @ root.T
            trace += fit @ fit + np.sum((root * root) @ (1.0 / self._d)) - np.vdot(cross, cross)
        return approx_loglik(quad, mu if col is None else col * mu, trace)


def _mask_variance(quad: QuadApprox, col: np.ndarray, root: np.ndarray | None) -> np.ndarray:
    """col (1 - col) o diag S, what the mask's variance adds to the diagonal of
    S o (col col^T); diag S is read from the unscaled root R if one is given,
    else from s_x_xi."""
    s_diag = np.diag(quad.s_x_xi) if root is None else np.einsum("ij,ij->j", root, root)
    return col * (1.0 - col) * s_diag


def gaussian_factor(
    prior: np.ndarray, quad: QuadApprox, score: np.ndarray, col: np.ndarray | None = None
) -> GaussianPosterior:
    """Gaussian with precision S o Omega + diag(prior) and mean precision^-1 score,
    with the log-determinant of its covariance.

    S is `quad.s_x_xi`. Omega is all ones, or, for a mask with inclusion
    probabilities col, its second moments col col^T + diag(col (1 - col))
    (Carbonetto & Stephens 2012). The precision is then diag(d) + R^T R with
    R = `quad.root(col)` and d = prior + col (1 - col) o diag S. With fewer
    rows than columns the solve runs through the n x n capacitance matrix and
    forms no p x p matrix; otherwise pd_inverse inverts the precision as one
    p x p matrix and R is never formed.
    """
    n, p = quad.design.shape
    if n < p:
        root = quad.root()
        d = prior if col is None else prior + _mask_variance(quad, col, root)
        root = root if col is None else root * col
        v, logdet = capacitance_inverse(d, root)

        def apply_sigma(b):
            return b / d - v.T @ (v @ b)

        # b / d and V^T V b cancel where the data pin a coefficient that its
        # prior leaves loose, so one step of iterative refinement follows
        mean = apply_sigma(score)
        mean += apply_sigma(score - d * mean - root.T @ (root @ mean))
        return GaussianPosterior(mean, d=d, v=v, logdet=logdet)
    s_x, d = quad.s_x_xi, prior
    if col is not None:
        s_x, d = s_x * np.outer(col, col), prior + _mask_variance(quad, col, None)
    sigma, logdet = pd_inverse(s_x + np.diag(d))
    return GaussianPosterior(sigma @ score, sigma, logdet=logdet)
