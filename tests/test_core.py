"""Data-model invariants: datasets, validation and hyperparameters."""

import numpy as np
import pytest

from vbpoisson.core import (
    Dataset,
    Hyperparameters,
    rho2_for_inclusion,
    validate,
)


def _clean_dataset(n=6, p=3, seed=0):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = rng.poisson(2.0, size=n).astype(float)
    return Dataset(x, y)


def test_dataset_shape_properties():
    ds = _clean_dataset(n=7, p=4)
    assert ds.n == 7
    assert ds.p == 4
    assert ds.design.dtype == float


def test_validate_accepts_clean_data():
    assert validate(_clean_dataset()) == []


def test_validate_flags_broken_intercept():
    ds = _clean_dataset()
    x = ds.design.copy()
    x[0, 0] = 2.0
    diags = validate(Dataset(x, ds.response))
    assert any("intercept" in d for d in diags)


def test_validate_flags_bad_counts():
    ds = _clean_dataset()
    y = ds.response.copy()
    y[0] = -1.0
    assert any("negative" in d for d in validate(Dataset(ds.design, y)))
    y = ds.response.copy()
    y[1] = 2.5
    assert any("non-integer" in d for d in validate(Dataset(ds.design, y)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_gives_a_non_finite_count_one_diagnostic(value):
    ds = _clean_dataset()
    y = ds.response.copy()
    y[2] = value
    assert validate(Dataset(ds.design, y)) == ["non-finite response entry"]


def test_validate_flags_constant_column():
    ds = _clean_dataset(p=3)
    x = ds.design.copy()
    x[:, 2] = 4.0
    diags = validate(Dataset(x, ds.response))
    assert any("zero-variance column 2" in d for d in diags)


def test_validate_flags_length_mismatch():
    ds = _clean_dataset()
    diags = validate(Dataset(ds.design, ds.response[:-1]))
    assert any("length" in d for d in diags)


def test_hyperparameter_defaults_are_consistent():
    hp = Hyperparameters()
    assert hp.nu / hp.delta == pytest.approx(0.01)
    assert hp.rho2 == pytest.approx((1.0 - 0.3) / 0.3)
    assert 0.0 < hp.c < 1.0


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        Hyperparameters(nu=-1.0)
    with pytest.raises(ValueError):
        Hyperparameters(c=1.5)
    with pytest.raises(ValueError):
        Hyperparameters(max_iter=0)
    with pytest.raises(ValueError):
        Hyperparameters(a_gamma=0.0)


def test_inclusion_odds_helper():
    assert rho2_for_inclusion(0.5) == pytest.approx(1.0)
    assert rho2_for_inclusion(0.3) == pytest.approx(7.0 / 3.0)
    with pytest.raises(ValueError):
        rho2_for_inclusion(0.0)
    with pytest.raises(ValueError):
        rho2_for_inclusion(1.0)
