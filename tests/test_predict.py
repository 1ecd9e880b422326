"""Predictive mass functions checked against independent quadrature."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import vbpoisson
from vbpoisson.core import FitResult, GaussianPosterior, Method
from vbpoisson.predict import (
    _hpd_set,
    hpd_coefficients,
    ppmf_gaussian,
    predictive_distribution,
)
from vbpoisson.sparsify import SparseCoefficients


def _trapezoid_ppmf(m, s2, y0):
    """Reference: mix the Poisson pmf over a log-normal rate on a dense grid."""
    s = np.sqrt(s2)
    u = np.linspace(m - 14.0 * s, m + 14.0 * s, 400001)
    dens = stats.norm.pdf(u, m, s) * stats.poisson.pmf(y0, np.exp(u))
    return np.trapezoid(dens, u)


def _fit(mu, cov, method=Method.LAPLACE):
    p = len(mu)
    return FitResult(
        method=method,
        posterior=GaussianPosterior(np.asarray(mu, float), np.asarray(cov, float)),
        inclusion_prob=np.ones(p),
        hyper_expectations={},
        elbo_trace=np.array([-1.0]),
        iterations=1,
        converged=True,
    )


def test_scalar_ppmf_matches_quadrature():
    assert ppmf_gaussian(np.array([1.0]), GaussianPosterior(np.zeros(1), np.eye(1)), 0) == (
        pytest.approx(_trapezoid_ppmf(0.0, 1.0, 0), rel=1e-6)
    )
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = float(rng.uniform(-1.0, 2.0))
        s2 = float(rng.uniform(0.05, 1.5))
        y0 = int(rng.integers(0, 6))
        post = GaussianPosterior(np.array([m]), np.array([[s2]]))
        val = ppmf_gaussian(np.array([1.0]), post, y0)
        assert val == pytest.approx(_trapezoid_ppmf(m, s2, y0), rel=1e-6)


def test_degenerate_variance_reduces_to_poisson():
    post = GaussianPosterior(np.array([0.7]), np.zeros((1, 1)))
    for y0 in range(8):
        val = ppmf_gaussian(np.array([1.0]), post, y0)
        assert val == pytest.approx(stats.poisson.pmf(y0, np.exp(0.7)), abs=1e-10)


def test_ppmf_rejects_negative_count():
    post = GaussianPosterior(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        ppmf_gaussian(np.array([1.0]), post, -1)


def test_predictive_distribution_normalizes():
    fit = _fit([0.5, 0.3], [[0.2, 0.05], [0.05, 0.1]])
    dist = predictive_distribution(np.array([1.0, 1.0]), fit)
    assert abs(float(dist.pmf.sum()) + dist.tail_mass - 1.0) < 1e-6
    assert dist.tail_mass < 1e-6
    assert dist.mode == int(np.argmax(dist.pmf))


def test_hpd_set_reaches_its_level():
    fit = _fit([1.0], [[0.3]])
    dist = predictive_distribution(np.array([1.0]), fit, level=0.9)
    assert float(dist.pmf[list(dist.hpd_set)].sum()) >= 0.9
    # the greedy set collects the largest masses first
    inside = dist.pmf[list(dist.hpd_set)].min()
    outside = np.delete(dist.pmf, list(dist.hpd_set))
    if outside.size:
        assert inside >= outside.max()


def _greedy_hpd_set(pmf, level):
    """Reference: add the largest remaining mass until the running total reaches the level."""
    total = 0.0
    chosen = []
    for idx in np.argsort(-pmf, kind="stable"):
        chosen.append(int(idx))
        total += pmf[idx]
        if total >= level:
            break
    return tuple(sorted(chosen))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 60),
    distinct=st.integers(1, 8),
    total=st.sampled_from([1.0, 0.999, 0.9, 0.5]),
    level=st.floats(0.01, 0.999),
    level_on_a_partial_sum=st.booleans(),
)
def test_hpd_set_equals_the_greedy_accumulation(
    seed, size, distinct, total, level, level_on_a_partial_sum
):
    rng = np.random.default_rng(seed)
    # few distinct values give ties; totals below one leave some levels out of reach
    pmf = rng.choice(rng.uniform(0.0, 1.0, distinct), size=size)
    pmf = total * pmf / pmf.sum()
    if level_on_a_partial_sum:
        # a running total that lands exactly on the level ends the set there
        level = float(np.cumsum(np.sort(pmf)[::-1])[rng.integers(size)])
    assert _hpd_set(pmf, level) == _greedy_hpd_set(pmf, level)


def test_mean_property_matches_manual_sum():
    fit = _fit([0.2], [[0.1]])
    dist = predictive_distribution(np.array([1.0]), fit)
    manual = float(np.arange(dist.support_max + 1) @ dist.pmf)
    assert dist.mean == pytest.approx(manual, rel=1e-12)


def test_restricted_prediction_uses_the_sparse_mask():
    fit = _fit([0.5, 2.0], [[0.1, 0.0], [0.0, 0.1]])
    sparse = SparseCoefficients(
        beta_hat=np.array([0.5, 0.0]),
        support=(0,),
        kappa=2.5,
        aic=0.0,
        df=1,
        p_binary=np.array([1.0, 0.0]),
    )
    x0 = np.array([1.0, 1.0])
    restricted = predictive_distribution(x0, fit, sparse)
    full = predictive_distribution(x0, fit)
    assert restricted.mean < full.mean
    masked_fit = _fit([0.5, 2.0], [[0.1, 0.0], [0.0, 0.1]])
    direct = predictive_distribution(np.array([1.0, 0.0]), masked_fit)
    np.testing.assert_allclose(restricted.pmf, direct.pmf, rtol=1e-12)


def test_coefficient_hpd_uses_the_gaussian_quantile():
    post = GaussianPosterior(np.array([1.0, -2.0]), np.diag([4.0, 0.25]))
    lo_hi = hpd_coefficients(post, 0.95)
    z = stats.norm.ppf(0.975)
    np.testing.assert_allclose(lo_hi[0], [1.0 - 2.0 * z, 1.0 + 2.0 * z], rtol=1e-12)
    np.testing.assert_allclose(lo_hi[1], [-2.0 - 0.5 * z, -2.0 + 0.5 * z], rtol=1e-12)
    with pytest.raises(ValueError):
        hpd_coefficients(post, 1.0)


def test_coefficient_hpd_quantile_is_the_normal_quantile_bit_for_bit():
    post = GaussianPosterior(np.zeros(1), np.ones((1, 1)))
    levels = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), [0.5, 0.9, 0.95, 0.99, 0.999]])
    for level in levels:
        assert hpd_coefficients(post, level)[0, 1] == stats.norm.ppf(0.5 * (1.0 + level))


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter, since this one has loaded scipy.stats for the references
    src = os.path.dirname(os.path.dirname(vbpoisson.__file__))
    code = "import sys, vbpoisson; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
def test_predictive_level_outside_the_unit_interval_is_rejected(level):
    post = GaussianPosterior(np.array([1.0]), np.array([[0.3]]))
    with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
        predictive_distribution(np.array([1.0]), _fit([1.0], [[0.3]]), level=level)
    with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
        hpd_coefficients(post, level)
