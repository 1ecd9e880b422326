"""Scenario generation, evaluation metrics and the replication runner."""

import numpy as np
import pytest

from vbpoisson import harness
from vbpoisson.core import Method
from vbpoisson.errors import NumericalError
from vbpoisson.harness import (
    HIGH_DIM,
    LOW_DIM,
    ScenarioConfig,
    generate,
    metric_cre,
    metric_relative_error,
    metric_selection,
    run_study,
)


def test_builtin_scenarios_are_consistent():
    assert LOW_DIM.n == 100 and LOW_DIM.p == 10
    assert LOW_DIM.z_mask[0] == 1.0
    assert HIGH_DIM.n == 30 and HIGH_DIM.p == 200
    assert HIGH_DIM.random_k == 60


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, p=3, mu0=0.0, sigma0=1.0, mu_x=0.0, sigma2_x=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(
            n=10, p=3, mu0=0.0, sigma0=1.0, mu_x=0.0, sigma2_x=1.0,
            z_mask=np.array([0.0, 1.0, 1.0]),
        )
    with pytest.raises(ValueError):
        ScenarioConfig(
            n=10, p=3, mu0=0.0, sigma0=1.0, mu_x=0.0, sigma2_x=1.0,
            random_k=5,
        )
    with pytest.raises(ValueError):
        ScenarioConfig(
            n=10, p=3, mu0=0.0, sigma0=1.0, mu_x=0.0, sigma2_x=1.0,
            random_k=2, train_fraction=1.0,
        )
    # every coefficient would be zero, leaving the study no prior inclusion fraction
    with pytest.raises(ValueError, match="mu0 and sigma0 cannot both be 0"):
        ScenarioConfig(n=10, p=3, mu0=0.0, sigma0=0.0, mu_x=0.0, sigma2_x=1.0, random_k=1)


def test_generate_is_deterministic_and_well_formed():
    a = generate(LOW_DIM, np.random.default_rng([5, 0]))
    b = generate(LOW_DIM, np.random.default_rng([5, 0]))
    np.testing.assert_array_equal(a[0].design, b[0].design)
    np.testing.assert_array_equal(a[1].response, b[1].response)
    np.testing.assert_array_equal(a[2], b[2])
    train, test, beta = a
    assert train.n == 80 and test.n == 20
    assert train.p == LOW_DIM.p
    np.testing.assert_array_equal(train.design[:, 0], np.ones(train.n))
    np.testing.assert_array_equal(beta[LOW_DIM.z_mask == 0.0], 0.0)
    assert np.all(train.response >= 0.0)


def test_generate_respects_random_support_size():
    small = ScenarioConfig(
        n=20, p=15, mu0=0.1, sigma0=0.3, mu_x=0.0, sigma2_x=0.2, random_k=4
    )
    _, _, beta = generate(small, np.random.default_rng(2))
    assert int(np.count_nonzero(beta)) <= 4
    assert beta[0] != 0.0


def test_pooled_coefficient_error_hand_value():
    # hats (2,0), (0,2) against truths (1,0), (0,1): pooled squared error
    # 1 + 1 over pooled squared truth 1 + 1 gives exactly 1
    hats = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    trues = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert metric_cre(hats, trues) == pytest.approx(1.0)
    assert metric_cre([np.array([3.0])], [np.array([1.0])]) == pytest.approx(4.0)
    with pytest.raises(ZeroDivisionError):
        metric_cre([np.array([1.0])], [np.array([0.0])])


def test_pooled_relative_error_hand_value():
    preds = [np.array([1.0, 3.0])]
    actual = [np.array([0.0, 2.0])]
    # numerator 1+1 = 2, denominator variance about the mean 1: ratio 2/2 = 1
    assert metric_relative_error(preds, actual) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        metric_relative_error([np.array([1.0, 1.0])], [np.array([2.0, 2.0])])


def test_selection_rates_and_empty_classes():
    bt = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    bh = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    fnr, fpr = metric_selection(bh, bt)
    assert fnr == pytest.approx(0.5)
    assert fpr == pytest.approx(0.5)
    fnr, fpr = metric_selection(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.isnan(fnr) and fpr == 0.0
    fnr, fpr = metric_selection(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert fnr == 0.0 and np.isnan(fpr)


def _tiny_config(reps=3, seed=17):
    return ScenarioConfig(
        n=60,
        p=6,
        mu0=0.6,
        sigma0=0.4,
        mu_x=0.1,
        sigma2_x=1.0,
        z_mask=np.array([1.0, 0, 1, 0, 1, 0]),
        replications=reps,
        seed=seed,
    )


def test_run_study_produces_complete_records():
    res = run_study(_tiny_config(), methods=(Method.LAPLACE, Method.BERNOULLI))
    assert set(res.reports) == {"laplace", "bernoulli"}
    assert len(res.raw) == 6
    for row in res.raw:
        assert not row["failed"]
        assert np.isfinite(row["tsre"])
        assert row["df"] >= 1
    rep = res.reports["laplace"]
    assert rep.failures == 0
    assert rep.coverage.shape == (6,)
    assert np.all((0.0 <= rep.coverage) & (rep.coverage <= 1.0))
    assert rep.wall_time_s > 0.0


def test_a_method_whose_every_fit_fails_reports_nan_coverage(monkeypatch):
    def failing(dataset, hp):
        raise NumericalError("precision matrix is not positive definite")

    monkeypatch.setitem(harness.FITTERS, Method.CS, failing)
    res = run_study(_tiny_config(reps=2), methods=(Method.LAPLACE, Method.CS))
    failed = res.reports["cs"]
    assert failed.failures == 2 and np.isnan(failed.tsre)
    assert failed.coverage.shape == (6,) and np.all(np.isnan(failed.coverage))
    assert np.all(np.isfinite(res.reports["laplace"].coverage))


def test_run_study_is_deterministic():
    a = run_study(_tiny_config(), methods=(Method.LAPLACE,))
    b = run_study(_tiny_config(), methods=(Method.LAPLACE,))
    for ra, rb in zip(a.raw, b.raw):
        assert ra["cre"] == rb["cre"]
        assert ra["tsre"] == rb["tsre"]
    np.testing.assert_array_equal(
        a.reports["laplace"].coverage, b.reports["laplace"].coverage
    )
