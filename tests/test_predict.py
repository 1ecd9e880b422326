"""Predictive mass functions checked against independent quadrature."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.special import gammaln, wrightomega

import vbpoisson
from vbpoisson.core import FitResult, GaussianPosterior, Method
from vbpoisson.errors import NumericalError, TruncationError
from vbpoisson.predict import (
    _ENUM_CAP,
    _MASS_TARGET,
    _hpd_set,
    _pmf_batch,
    hpd_coefficients,
    ppmf_gaussian,
    predictive_distribution,
    predictive_modes,
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


def _quad_ppmf(m, s2, y):
    """Reference: adaptive quadrature of the integrand scaled by its peak, split at its mode.

    The mode u* = m + gap solves y - e^u - (u - m)/s2 = 0; each side of it runs
    out to where the log integrand lies 100 nats below the peak.
    """
    gap = s2 * y - wrightomega(np.log(s2) + m + s2 * y)
    c = np.exp(m + gap)
    log_peak = (y * (m + gap) - c - gap**2 / (2 * s2)
                - gammaln(y + 1) - 0.5 * np.log(2 * np.pi * s2))

    def drop(d):
        # log peak minus log integrand at u* + d; exact whatever u* is
        return (d * d + 2 * gap * d) / (2 * s2) - y * d + c * np.expm1(d)

    def below(d):
        return d * d / (2 * s2) + c * (np.expm1(d) - d) - 100.0

    lo = optimize.brentq(below, -np.sqrt(200 * s2), 0.0)
    hi = optimize.brentq(below, 0.0, np.log1p(200 / c) + 1.0)
    mass = sum(
        integrate.quad(lambda d: np.exp(-drop(d)), a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        for a, b in ((lo, 0.0), (0.0, hi))
    )
    return np.exp(log_peak) * mass


def _oracle_cases():
    rng = np.random.default_rng(12)
    # the integrand peaks at u* = 6.42, far outside m +- 12 sd = [7.25, 8.87]
    yield 8.06, 0.00456, np.array([255])
    for _ in range(120):
        m = rng.uniform(-8.0, 10.0)
        s2 = 10.0 ** rng.uniform(-8.0, np.log10(30.0))
        ys = np.unique(np.concatenate([
            rng.integers(0, 20, 3), np.floor(10.0 ** rng.uniform(0.0, np.log10(5000.0), 3))
        ]))
        yield m, s2, ys


def test_pmf_matches_adaptive_quadrature_centred_on_the_mode():
    for m, s2, ys in _oracle_cases():
        ref = np.array([_quad_ppmf(m, s2, float(y)) for y in ys])
        got = _pmf_batch(m, s2, ys)
        err = np.abs(got - ref)
        case = f"m={m}, s2={s2}, ys={ys}"
        assert err.max() <= 1e-11, case
        big = ref >= 1e-290
        assert np.all(err[big] <= 1e-9 * ref[big]), case


def test_pmf_at_tiny_variance_matches_the_second_order_expansion():
    # below s2 = 1e-8 plain double quadrature is itself off by ~1e-10, so the
    # reference is E[Poisson(y; e^u)] to second order: p (1 + s2/2 ((y - lam)^2 - lam))
    rng = np.random.default_rng(13)
    for _ in range(60):
        m = rng.uniform(-4.0, 8.0)
        s2 = 10.0 ** rng.uniform(-12.0, -8.0)
        lam = np.exp(m)
        ys = np.arange(int(lam + 12.0 * np.sqrt(lam) + 30.0))
        p = np.exp(ys * m - lam - gammaln(ys + 1.0))
        ref = p * (1.0 + 0.5 * s2 * ((ys - lam) ** 2 - lam))
        err = np.abs(_pmf_batch(m, s2, ys) - ref)
        assert err.max() <= 1e-11, (m, s2)
        # where the expansion's next term is below 1e-10 relative
        near = (ref >= 1e-290) & (s2 * ((ys - lam) ** 2 + lam) <= 1e-5)
        assert np.all(err[near] <= 1e-9 * ref[near]), (m, s2)


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    m=st.floats(-4.0, 6.0),
    s2=st.one_of(st.just(0.0), st.floats(1e-12, 30.0)),
    masked=st.booleans(),
    level=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
)
def test_predictive_distribution_invariants(m, s2, masked, level):
    # a rate law with more than about 1e-7 of its mass past the enumeration
    # cap may end in TruncationError, which these invariants are not about
    assume(m + 5.2 * np.sqrt(s2) < np.log(_ENUM_CAP))
    # the mask drops a second coefficient that would otherwise move m and s2
    fit = _fit([m, 3.0], [[s2, 0.0], [0.0, 5.0]])
    sparse = SparseCoefficients(
        beta_hat=np.array([m, 0.0]), support=(0,), kappa=1.0, aic=0.0, df=1,
        p_binary=np.array([1.0, 0.0]),
    )
    x0 = np.array([1.0, 1.0]) if masked else np.array([1.0, 0.0])
    dist = predictive_distribution(x0, fit, sparse if masked else None, level=level)
    pmf = dist.pmf
    assert abs(float(pmf.sum()) + dist.tail_mass - 1.0) <= 1e-6
    assert dist.tail_mass <= 9e-7
    assert dist.mode in dist.hpd_set
    # a Poisson mixture over a unimodal rate law is unimodal (Holgate 1970)
    rise, fall = pmf[: dist.mode + 1], pmf[dist.mode :]
    assert np.all(rise[1:] >= rise[:-1] * (1.0 - 1e-12))
    assert np.all(fall[1:] <= fall[:-1] * (1.0 + 1e-12))


def test_mean_is_the_closed_form_mixture_mean():
    fit = _fit([0.2], [[0.1]])
    dist = predictive_distribution(np.array([1.0]), fit)
    assert dist.mean == pytest.approx(np.exp(0.2 + 0.5 * 0.1), rel=1e-12)
    # the sum over a support ten times longer carries all but ~1e-200 of the mass
    ys = np.arange(10 * (dist.support_max + 1))
    assert dist.mean == pytest.approx(float(ys @ _pmf_batch(0.2, 0.1, ys)), rel=1e-12)


@pytest.mark.parametrize("m, s2", [(-4.0, 8.0), (-4.0, 11.0)])
def test_a_heavy_row_mean_is_exact_where_its_tail_holds_mean(m, s2):
    # under 1e-6 of the mass lies past the support, but 2-8% of the mean does
    dist = predictive_distribution(np.array([1.0]), _fit([m], [[s2]]))
    assert dist.mean == pytest.approx(np.exp(m + 0.5 * s2), rel=1e-12)
    assert dist.tail_mass <= 9e-7


@pytest.mark.parametrize(
    "m, s2",
    # the last rate law sits between the cap and twice the cap
    [(-4.0, 30.0), (2.0, 8.0), (np.log(3e6), 0.0), (np.log(1.5e6), 1e-6)],
)
def test_a_row_past_the_cap_is_refused_before_any_count(m, s2):
    start = time.perf_counter()
    with pytest.raises(TruncationError) as info:
        predictive_distribution(np.array([1.0]), _fit([m], [[s2]]))
    assert time.perf_counter() - start < 0.1
    assert info.value.accumulated_mass == 0.0


def test_a_row_whose_mean_overflows_raises_a_numerical_error():
    # the mass check passes (tail 9.4e-7), but e^(m + s^2/2) = e^733 is past the largest float
    with pytest.raises(NumericalError, match="overflows"):
        predictive_distribution(np.array([1.0]), _fit([-191.25], [[1849.0]]))


@pytest.mark.parametrize(
    "m, s2",
    # at m = 8 the counts left of the mode underflow to exact zeros; at m = 5 they do not
    [(0.2, 0.1), (-4.0, 8.0), (2.0, 0.5), (-30.0, 4.0), (5.0, 0.01), (8.0, 0.0), (8.0, 1e-6)],
)
def test_support_max_is_the_union_bound_quantile(m, s2):
    tail = 1.0 - _MASS_TARGET
    rate = np.exp(m + np.sqrt(s2) * stats.norm.isf(0.81 * tail))
    k = int(stats.poisson.isf(0.09 * tail, rate))
    dist = predictive_distribution(np.array([1.0]), _fit([m], [[s2]]))
    assert dist.support_max == k and dist.pmf.shape == (k + 1,)
    assert (dist.pmf[0] == 0.0) == (m == 8.0)
    assert dist.tail_mass <= 9e-7


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


def _mode_rows(laws, masked):
    """Unit rows reading one (m, s^2) each from a diagonal fit; with `masked`,
    rows may also read a last coefficient that the sparse mask drops."""
    k = len(laws)
    fit = _fit([m for m, _ in laws] + [3.0], np.diag([s2 for _, s2 in laws] + [5.0]))
    rows = np.hstack([np.eye(k), np.arange(k)[:, None] % 2.0 if masked else np.zeros((k, 1))])
    keep = np.append(np.ones(k), 0.0)
    sparse = SparseCoefficients(beta_hat=keep, support=tuple(range(k)), kappa=1.0, aic=0.0,
                                df=k, p_binary=keep) if masked else None
    return rows, fit, sparse


def _argmax_modes(rows, fit, sparse):
    """Reference: each row's argmax over its own enumerated pmf; None where refused."""
    out = []
    for row in rows:
        try:
            out.append(int(np.argmax(predictive_distribution(row, fit, sparse).pmf)))
        except TruncationError:
            out.append(None)
    return out


def _law_under(log_k, s2_lo, s2_hi):
    """(m, s^2) draws whose enumeration runs to about e^log_k counts at most."""
    return st.floats(s2_lo, s2_hi).flatmap(
        lambda s2: st.tuples(st.floats(-30.0, log_k - 5.2 * np.sqrt(s2)), st.just(s2)))


_RATE_LAWS = st.one_of(
    # e^m an integer at s^2 below the degenerate limit: a Poisson tie at e^m - 1, e^m
    st.tuples(st.integers(1, 60).map(lambda k: float(np.log(k))),
              st.one_of(st.just(0.0), st.floats(1e-16, 9.9e-13))),
    _law_under(np.log(5000.0), 1.0, 15.0),
    _law_under(np.log(5000.0), 1e-12, 1.0),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws=st.lists(_RATE_LAWS, min_size=1, max_size=4), masked=st.booleans())
def test_batched_modes_are_the_argmax_of_each_rows_own_pmf(laws, masked):
    rows, fit, sparse = _mode_rows(laws, masked)
    got = predictive_modes(rows, fit, sparse).tolist()
    ref = _argmax_modes(rows, fit, sparse)
    assert [g for g, r in zip(got, ref) if r is not None] == [r for r in ref if r is not None]


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(laws=st.lists(
    st.tuples(st.floats(np.log(1e3), np.log(5e5)), st.one_of(st.just(0.0), st.floats(1e-9, 1e-3))),
    min_size=1, max_size=2,
))
def test_batched_modes_match_argmax_where_the_pmf_underflows_left_of_the_mode(laws):
    # from e^m of about 750 on, p(0) underflows to 0, and so do many counts after it
    rows, fit, sparse = _mode_rows(laws, False)
    assert predictive_modes(rows, fit, sparse).tolist() == _argmax_modes(rows, fit, sparse)


def test_a_mode_past_a_run_of_underflowed_counts_is_found_through_their_logs():
    # every count below about 6.6e4 has p(y) exactly 0, so a plain 0 <= 0 test at
    # the first midpoint, 5e4, would send the search to the left of the mode
    m, s2 = np.log(1e5), 1e-4
    assert _pmf_batch(m, s2, np.array([50000, 50001])).tolist() == [0.0, 0.0]
    mode = int(predictive_modes(np.ones((1, 1)), _fit([m], [[s2]]))[0])
    ys = np.arange(mode - 2000, mode + 2001)
    assert ys[np.argmax(_pmf_batch(m, s2, ys))] == mode


def test_batched_modes_refuse_an_overflowing_mean_and_a_bracket_past_2_to_the_53():
    with pytest.raises(NumericalError, match="overflows"):
        predictive_modes(np.ones((2, 1)), _fit([-191.25], [[1849.0]]))
    with pytest.raises(NumericalError, match="2\\^53"):
        predictive_modes(np.ones((1, 1)), _fit([40.0], [[0.01]]))
    # a count past the enumeration cap is no reason to refuse a mode
    mode = int(predictive_modes(np.ones((1, 1)), _fit([np.log(3e6)], [[0.0]]))[0])
    ys = np.arange(mode - 2000, mode + 2001)
    assert ys[np.argmax(_pmf_batch(np.log(3e6), 0.0, ys))] == mode


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
