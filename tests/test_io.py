"""File formats: CSV ingestion, config files and result bundles."""

import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("load", [lambda path: load_csv(path, None), load_config],
                         ids=["csv", "config"])
def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, load):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    with pytest.raises(ParseError, match=f"{path}: not UTF-8 text"):
        load(str(path))


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
# cells that float() and np.loadtxt may read differently, or that neither reads
_ODD_CELLS = st.sampled_from([
    "inf", "-Infinity", "+nan", "-nan", "NaN", "1e500", "-0", ".5", "5.", "1_0", "١٢", "０",
    "0x1p3", "#1", "1#", "1 #2", '"1"', '"1,2"', "'1'", "", " ", "\t", "\x0c", "\u3000", "oops",
])
_PADS = st.sampled_from(["", " ", "\t", "  ", "\u3000", "\x85", "\u2028", "\x1e"])


@st.composite
def _csv_texts(draw):
    """Headered CSV texts, mostly well formed, with the cells and rows that
    float() and np.loadtxt may read differently."""
    k = draw(st.integers(0, 4))
    lines = [",".join(f"c{j}" for j in range(k))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["numbers"] * 3 + ["mixed"] * 2 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",".join([""] * k), " ," * (k - 1)])))
            continue
        width = draw(st.integers(0, k + 2)) if kind == "ragged" else k
        cells = (st.floats(-1e6, 1e6).map(repr) if kind == "numbers"
                 else st.one_of(_NUMBERS, _NUMBERS, _ODD_CELLS))
        lines.append(",".join(draw(_PADS) + draw(cells) + draw(_PADS) for _ in range(width)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=_csv_texts())
def test_load_csv_reads_what_the_cell_by_cell_pass_reads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))

    def load():
        try:
            return load_csv(str(path), None)[0]
        except ParseError as exc:
            return str(exc)

    with mock.patch("vbpoisson.io.np.loadtxt", side_effect=ValueError):
        expected = load()  # the float()-per-cell pass alone
    with warnings.catch_warnings():  # nor may it warn, of an empty body say
        warnings.simplefilter("error")
        got = load()
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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


def test_save_bundle_writes_numpy_values_as_plain_json(tmp_path):
    path = tmp_path / "out.json"
    save_bundle({"b": np.bool_(True), "a": np.int64(3), "f": np.float32(0.5),
                 "m": np.arange(4.0).reshape(2, 2), "x": np.float64(0.1)}, str(path))
    assert path.read_text(encoding="utf-8") == (
        '{\n "a": 3,\n "b": true,\n "f": 0.5,\n "m": [\n  [\n   0.0,\n   1.0\n  ],\n'
        '  [\n   2.0,\n   3.0\n  ]\n ],\n "x": 0.1\n}\n'
    )
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        save_bundle({"s": {1, 2}}, str(path))


def test_raw_table_round_trips_floats(tmp_path):
    rows = [
        {"rep": 0, "method": "laplace", "failed": False, "cre": 0.1, "tsre": 1 / 3,
         "fnr": 0.0, "fpr": 0.5, "df": 3, "converged": True, "iterations": 12},
        {"rep": 1, "method": "laplace", "failed": True, "cre": None, "error": "boom"},
        # a numpy scalar is written as its number, not as its repr
        {"rep": 2, "method": "cs", "failed": False, "cre": np.float64(0.1),
         "tsre": np.float64(1 / 3), "df": np.int64(3)},
    ]
    path = str(tmp_path / "raw.csv")
    write_raw_table(rows, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("rep,method,failed")
    ok, failed, scalars = csv.DictReader(lines)
    for row in (ok, scalars):
        assert (row["cre"], row["tsre"], row["df"]) == ("0.1", repr(1 / 3), "3")
    assert failed["error"] == "boom"
    metrics = ("cre", "trre", "tsre", "fnr", "fpr", "df", "converged", "iterations")
    assert all(failed[c] == "" for c in metrics)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e300, -1e300]),
)


def _array(draw, shape):
    return np.array(draw(st.lists(_FLOATS, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), p=st.integers(1, 6), with_interval=st.booleans())
def test_bundle_round_trip_is_bit_exact(tmp_path_factory, data, p, with_interval):
    draw = data.draw

    def posterior():
        cov = _array(draw, (p, p))
        np.fill_diagonal(cov, np.abs(np.diag(cov)))  # a negative variance is refused
        return GaussianPosterior(_array(draw, (p,)), cov)

    hyper = {"e_tau2_inv": np.float64(draw(_FLOATS)), "e_a": _array(draw, (p,))}
    fit = FitResult(
        method=draw(st.sampled_from(list(Method))),
        posterior=posterior(),
        inclusion_prob=_array(draw, (p,)),
        hyper_expectations=hyper,
        elbo_trace=_array(draw, (draw(st.integers(0, 5)),)),
        iterations=draw(st.integers(0, 10_000)),
        converged=draw(st.booleans()),
        interval_posterior=posterior() if with_interval else None,
    )
    support = tuple(sorted(draw(st.sets(st.integers(0, p - 1)))))
    sparse = SparseCoefficients(beta_hat=_array(draw, (p,)), support=support,
                                kappa=draw(_FLOATS), aic=draw(_FLOATS), df=len(support),
                                p_binary=_array(draw, (p,)))
    path = str(tmp_path_factory.mktemp("bundle") / "fit.json")
    columns = [f"x{j}" for j in range(p)]
    save_bundle(result_bundle(fit, sparse, _array(draw, (p, 2)), Hyperparameters(), 1, columns),
                path)
    fit2, sparse2, _ = load_bundle(path)
    pairs = [(fit.posterior, fit2.posterior)]
    if with_interval:
        pairs.append((fit.interval_posterior, fit2.interval_posterior))
    else:
        assert fit2.interval_posterior is None
    for a, b in pairs:
        assert _bits(a.mean) == _bits(b.mean) and _bits(a.covariance) == _bits(b.covariance)
    for a, b in ((fit.inclusion_prob, fit2.inclusion_prob), (fit.elbo_trace, fit2.elbo_trace),
                 (sparse.beta_hat, sparse2.beta_hat), (sparse.p_binary, sparse2.p_binary),
                 (hyper["e_a"], fit2.hyper_expectations["e_a"]),
                 (hyper["e_tau2_inv"], fit2.hyper_expectations["e_tau2_inv"]),
                 (sparse.kappa, sparse2.kappa), (sparse.aic, sparse2.aic)):
        assert _bits(a) == _bits(b)
    assert fit2.method is fit.method
    assert (sparse2.support, sparse2.df) == (support, len(support))
    assert (fit2.iterations, fit2.converged) == (fit.iterations, fit.converged)
