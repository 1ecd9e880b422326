"""File formats: CSV ingestion, config files and result bundles."""

import numpy as np
import pytest

from vbpoisson.core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method
from vbpoisson.io import (
    FORMAT_VERSION,
    FormatVersionError,
    ParseError,
    hyperparameters_from_config,
    load_bundle,
    load_config,
    load_csv,
    result_bundle,
    save_bundle,
    write_raw_table,
)
from vbpoisson.sparsify import SparseCoefficients


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_with_response(tmp_path):
    path = _write(tmp_path, "d.csv", "x1,y,x2\n1.0,3,0.5\n2.0,1,0.25\n")
    ds, names = load_csv(path, "y")
    assert isinstance(ds, Dataset)
    assert names == ["(intercept)", "x1", "x2"]
    np.testing.assert_array_equal(ds.response, [3.0, 1.0])
    np.testing.assert_array_equal(ds.design[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(ds.design[:, 1], [1.0, 2.0])


def test_load_csv_without_response(tmp_path):
    path = _write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
    covs, names = load_csv(path, None)
    assert names == ["(intercept)", "a", "b"]
    assert covs.shape == (2, 3)


def test_load_csv_errors_name_row_and_column(tmp_path):
    path = _write(tmp_path, "bad.csv", "a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match=r"row 2.*'b'"):
        load_csv(path, None)
    path = _write(tmp_path, "ragged.csv", "a,b\n1,2,3\n")
    with pytest.raises(ParseError, match="row 1 has 3 cells"):
        load_csv(path, None)
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(ParseError, match="empty"):
        load_csv(path, None)
    path = _write(tmp_path, "norows.csv", "a,b\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(path, None)
    path = _write(tmp_path, "noresp.csv", "a,b\n1,2\n")
    with pytest.raises(ParseError, match="response column"):
        load_csv(path, "y")


def test_load_config_and_hyperparameters(tmp_path):
    path = _write(
        tmp_path, "cfg.txt", "# comment\nnu = 0.5\nmax_iter = 20\n\nc=0.01 # inline\n"
    )
    cfg = load_config(path)
    assert cfg == {"nu": "0.5", "max_iter": "20", "c": "0.01"}
    hp = hyperparameters_from_config(cfg)
    assert hp.nu == 0.5
    assert hp.max_iter == 20
    assert hp.c == 0.01
    with pytest.raises(ParseError, match="unknown hyperparameter"):
        hyperparameters_from_config({"bogus": "1"})
    bad = _write(tmp_path, "bad.txt", "just a line\n")
    with pytest.raises(ParseError, match="key=value"):
        load_config(bad)


def _sample_fit(with_interval=False):
    interval = (
        GaussianPosterior(np.array([0.1, 0.2]), np.eye(2) * 0.5) if with_interval else None
    )
    return FitResult(
        method=Method.CS if with_interval else Method.LAPLACE,
        posterior=GaussianPosterior(np.array([0.3, -0.4]), np.eye(2)),
        inclusion_prob=np.array([1.0, 0.7]),
        hyper_expectations={"e_tau2_inv": 2.5, "e_tau": np.array([1.0, 0.5])},
        elbo_trace=np.array([-10.0, -9.5]),
        iterations=2,
        converged=True,
        interval_posterior=interval,
    )


def _sample_sparse():
    return SparseCoefficients(
        beta_hat=np.array([0.3, 0.0]),
        support=(0,),
        kappa=0.5,
        aic=12.0,
        df=1,
        p_binary=np.array([1.0, 0.0]),
    )


@pytest.mark.parametrize("with_interval", [False, True])
def test_bundle_round_trip(tmp_path, with_interval):
    fit = _sample_fit(with_interval)
    sparse = _sample_sparse()
    hpd = np.array([[0.0, 0.6], [-1.0, 0.2]])
    bundle = result_bundle(fit, sparse, hpd, Hyperparameters(), 7, ["(intercept)", "x1"])
    path = str(tmp_path / "fit.json")
    save_bundle(bundle, path)
    fit2, sparse2, bundle2 = load_bundle(path)
    assert fit2.method is fit.method
    np.testing.assert_array_equal(fit2.posterior.mean, fit.posterior.mean)
    np.testing.assert_array_equal(fit2.posterior.covariance, fit.posterior.covariance)
    np.testing.assert_array_equal(fit2.inclusion_prob, fit.inclusion_prob)
    np.testing.assert_array_equal(fit2.elbo_trace, fit.elbo_trace)
    assert fit2.converged and fit2.iterations == 2
    if with_interval:
        np.testing.assert_array_equal(
            fit2.interval_posterior.mean, fit.interval_posterior.mean
        )
    else:
        assert fit2.interval_posterior is None
    np.testing.assert_array_equal(sparse2.beta_hat, sparse.beta_hat)
    assert sparse2.support == (0,)
    assert bundle2["metadata"]["seed"] == 7


@pytest.mark.parametrize("version", ["0", None])
def test_load_bundle_rejects_other_format_versions(tmp_path, version):
    bundle = result_bundle(
        _sample_fit(), _sample_sparse(), np.zeros((2, 2)), Hyperparameters(), 0, ["a", "b"]
    )
    if version is None:
        del bundle["metadata"]["format_version"]
    else:
        bundle["metadata"]["format_version"] = version
    path = str(tmp_path / "old.json")
    save_bundle(bundle, path)
    found = "no format_version" if version is None else f"format_version '{version}'"
    with pytest.raises(FormatVersionError, match=f"{found}.*'{FORMAT_VERSION}'") as info:
        load_bundle(path)
    assert isinstance(info.value, ParseError)


def test_bundle_excludes_wall_time_by_default(tmp_path):
    bundle = result_bundle(
        _sample_fit(), _sample_sparse(), np.zeros((2, 2)), Hyperparameters(), 0, ["a", "b"]
    )
    assert "wall_time_s" not in bundle["metadata"]


def test_save_bundle_is_byte_stable(tmp_path):
    bundle = result_bundle(
        _sample_fit(True), _sample_sparse(), np.zeros((2, 2)), Hyperparameters(), 3, ["a", "b"]
    )
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_bundle(bundle, p1)
    save_bundle(bundle, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_raw_table_round_trips_floats(tmp_path):
    rows = [
        {"rep": 0, "method": "laplace", "failed": False, "cre": 0.1, "tsre": 1 / 3,
         "fnr": 0.0, "fpr": 0.5, "df": 3, "converged": True, "iterations": 12},
        {"rep": 1, "method": "laplace", "failed": True, "error": "boom"},
    ]
    path = str(tmp_path / "raw.csv")
    write_raw_table(rows, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("rep,method,failed")
    assert repr(1 / 3) in lines[1]
    assert "boom" in lines[2]
