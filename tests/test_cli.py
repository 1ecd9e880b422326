"""End-to-end command-line workflows and exit codes."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbpoisson import harness
from vbpoisson.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, _destandardize, _standardize, cli
from vbpoisson.core import Dataset, FitResult, GaussianPosterior, Method
from vbpoisson.io import load_csv
from vbpoisson.sparsify import SparseCoefficients, poisson_loglik


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(4)
    n = 60
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = rng.poisson(np.exp(0.5 + 0.8 * x1)).astype(int)
    lines = ["x1,x2,y"] + [
        f"{float(a)!r},{float(b)!r},{int(c)}" for a, b, c in zip(x1, x2, y)
    ]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_fit_then_predict(tmp_path, data_csv, capsys):
    out = str(tmp_path / "fit.json")
    code = cli(["fit", "--method", "laplace", "--data", data_csv,
                "--response", "y", "--out", out])
    assert code == EXIT_OK
    assert "converged=True" in capsys.readouterr().out
    bundle = json.load(open(out, encoding="utf-8"))
    assert bundle["metadata"]["method"] == "laplace"
    assert len(bundle["fit"]["mean"]) == 3

    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n1.0,-1.0\n", encoding="utf-8")
    pred_out = str(tmp_path / "pred.json")
    code = cli(["predict", "--model", out, "--data", str(new), "--out", pred_out])
    assert code == EXIT_OK
    preds = json.load(open(pred_out, encoding="utf-8"))
    assert len(preds["predictions"]) == 2
    assert all(p["mode"] >= 0 for p in preds["predictions"])


@pytest.mark.parametrize("method", ["cs", "bernoulli"])
def test_fit_all_methods(tmp_path, data_csv, method):
    out = str(tmp_path / f"{method}.json")
    code = cli(["fit", "--method", method, "--data", data_csv,
                "--response", "y", "--out", out])
    assert code == EXIT_OK
    bundle = json.load(open(out, encoding="utf-8"))
    assert bundle["metadata"]["method"] == method


def test_fit_output_is_byte_identical_across_thread_settings(tmp_path, data_csv):
    outs = []
    for threads, name in [(1, "a.json"), (4, "b.json"), (1, "c.json")]:
        out = str(tmp_path / name)
        code = cli(["fit", "--method", "cs", "--data", data_csv, "--response", "y",
                    "--seed", "3", "--threads", str(threads), "--out", out])
        assert code == EXIT_OK
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1] == outs[2]


def test_fit_with_config_and_no_standardize(tmp_path, data_csv):
    cfg = tmp_path / "hp.cfg"
    cfg.write_text("max_iter = 300\nepsilon = 1e-7\n", encoding="utf-8")
    out = str(tmp_path / "fit.json")
    code = cli(["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                "--config", str(cfg), "--no-standardize", "--out", out])
    assert code == EXIT_OK
    bundle = json.load(open(out, encoding="utf-8"))
    assert bundle["metadata"]["hyperparameters"]["max_iter"] == 300


def test_usage_errors_exit_one(tmp_path, data_csv, capsys):
    assert cli(["fit", "--method", "laplace"]) == EXIT_USAGE
    assert cli(["fit", "--method", "nope", "--data", data_csv,
                "--response", "y", "--out", str(tmp_path / "o.json")]) == EXIT_USAGE
    assert cli([]) == EXIT_USAGE
    capsys.readouterr()


def test_file_errors_exit_two(tmp_path, capsys):
    code = cli(["fit", "--method", "laplace", "--data", str(tmp_path / "missing.csv"),
                "--response", "y", "--out", str(tmp_path / "o.json")])
    assert code == EXIT_NUMERICAL
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,oops\n", encoding="utf-8")
    code = cli(["fit", "--method", "laplace", "--data", str(bad),
                "--response", "y", "--out", str(tmp_path / "o.json")])
    assert code == EXIT_NUMERICAL
    assert "error:" in capsys.readouterr().err


# output paths are checked by test_an_unwritable_output_path_exits_two_before_any_fit
@pytest.mark.parametrize("command, flag", [("fit", "--data"), ("fit", "--config"),
                                           ("predict", "--model")])
def test_a_directory_in_place_of_a_file_exits_two(tmp_path, data_csv, capsys, command, flag):
    model = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                "--out", str(model)]) == EXIT_OK
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
    args = {
        "fit": {"--method": "laplace", "--data": data_csv, "--response": "y",
                "--out": str(tmp_path / "o.json")},
        "predict": {"--model": str(model), "--data": str(new), "--out": str(tmp_path / "p.json")},
    }[command]
    args[flag] = str(tmp_path)
    capsys.readouterr()
    assert cli([command, *(x for kv in args.items() for x in kv)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("target", ["directory", "missing parent", "empty"])
@pytest.mark.parametrize("command, flag", [("fit", "--out"), ("simulate", "--out"),
                                           ("simulate", "--summary-out"), ("predict", "--out")])
def test_an_unwritable_output_path_exits_two_before_any_fit(
    tmp_path, data_csv, capsys, monkeypatch, command, flag, target
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a fit ran before the output paths were checked")

    model, new = tmp_path / "fit.json", tmp_path / "new.csv"
    if command == "predict":
        assert cli(["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                    "--out", str(model)]) == EXIT_OK
        new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
        capsys.readouterr()
    for method in Method:
        monkeypatch.setitem(harness.FITTERS, method, refuse)
    monkeypatch.setattr("vbpoisson.cli.predictive_distributions", refuse)
    args = {
        "fit": {"--method": "laplace", "--data": data_csv, "--response": "y",
                "--out": str(tmp_path / "o.json")},
        "simulate": {"--scenario": "low", "--replications": "1", "--out": str(tmp_path / "o.csv"),
                     "--summary-out": str(tmp_path / "o.summary")},
        "predict": {"--model": str(model), "--data": str(new), "--out": str(tmp_path / "p.json")},
    }[command]
    bad = {"directory": tmp_path, "missing parent": tmp_path / "missing" / "o.out",
           "empty": ""}[target]
    args[flag] = str(bad)
    with pytest.raises(OSError) as opened:  # what writing the file would raise
        open(bad, "w", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    assert cli([command, *(x for kv in args.items() for x in kv)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {opened.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("method", ["laplace", "cs", "bernoulli"])
def test_a_response_only_csv_fits_the_same_bundle_with_or_without_standardizing(
    tmp_path, method
):
    y = np.random.default_rng(12).poisson(2.5, size=30)
    data = tmp_path / "y.csv"
    data.write_text("y\n" + "".join(f"{v}\n" for v in y), encoding="utf-8")
    bundles = []
    for flags in ([], ["--no-standardize"]):
        out = tmp_path / f"{method}{len(flags)}.json"
        assert cli(["fit", "--method", method, "--data", str(data), "--response", "y",
                    *flags, "--out", str(out)]) == EXIT_OK
        bundles.append(out.read_bytes())
    assert bundles[0] == bundles[1]


@pytest.mark.parametrize("flag", ["--data", "--config"])
def test_a_file_that_is_not_utf8_exits_two(tmp_path, data_csv, capsys, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"x1,x2,y\n0.5,\xff\xfe,1\n")
    if flag == "--data":
        argv = ["validate", "--data", str(bad), "--response", "y"]
    else:
        argv = ["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                "--config", str(bad), "--out", str(tmp_path / "o.json")]
    assert cli(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
    assert not (tmp_path / "o.json").exists()


def _with_bom(tmp_path, source, name):
    """A copy of the file at `source` behind the UTF-8 byte-order mark that
    spreadsheet programs write."""
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + Path(source).read_bytes())
    return str(path)


def test_fit_reads_a_csv_that_starts_with_a_byte_order_mark(tmp_path, data_csv):
    bom = _with_bom(tmp_path, data_csv, "b.csv")
    for data, out in ((data_csv, "plain.json"), (bom, "bom.json")):
        assert cli(["fit", "--method", "laplace", "--data", data, "--response", "y",
                    "--out", str(tmp_path / out)]) == EXIT_OK
    assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_predict_reads_a_csv_that_starts_with_a_byte_order_mark(tmp_path, data_csv):
    model = str(tmp_path / "fit.json")
    assert cli(["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                "--out", model]) == EXIT_OK
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\r\n0.0,0.0\r\n1.0,-1.0\r\n", encoding="utf-8")
    bom = _with_bom(tmp_path, new, "b.csv")
    for data, out in ((str(new), "plain.pred"), (bom, "bom.pred")):
        assert cli(["predict", "--model", model, "--data", data,
                    "--out", str(tmp_path / out)]) == EXIT_OK
    assert (tmp_path / "bom.pred").read_bytes() == (tmp_path / "plain.pred").read_bytes()


def test_predict_rejects_a_bundle_of_another_format_version(tmp_path, data_csv, capsys):
    out = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv,
                "--response", "y", "--out", str(out)]) == EXIT_OK
    bundle = json.loads(out.read_text(encoding="utf-8"))
    bundle["metadata"]["format_version"] = "99"
    out.write_text(json.dumps(bundle), encoding="utf-8")
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(out), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'99'" in err and "'1'" in err
    assert not pred_out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json {", "not a JSON model bundle"),
        (json.dumps({"metadata": {"format_version": "1", "method": "cs"}}), "no 'fit' entry"),
        ("[1, 2]", "model bundle is not a mapping"),
        ('"a bundle"', "model bundle is not a mapping"),
        (json.dumps({"metadata": ["format_version", "1"]}), "'metadata' entry is not a mapping"),
        (json.dumps({"metadata": "1"}), "'metadata' entry is not a mapping"),
    ],
)
def test_predict_rejects_a_malformed_bundle(tmp_path, capsys, text, message):
    model = tmp_path / "bad.bundle"
    model.write_text(text, encoding="utf-8")
    new = tmp_path / "new.csv"
    new.write_text("x1\n0.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    code = cli(["predict", "--model", str(model), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err and message in err
    assert not pred_out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta.pop("columns"), "no 'columns' entry"),
        (lambda meta: meta.update(method="lasso"), "'method' entry 'lasso' is not a method name"),
        (lambda meta: meta.update(columns=meta["columns"][:-1] + [7]),
         "'columns' entry is not a list of names"),
    ],
)
def test_predict_rejects_a_bundle_with_a_bad_metadata_entry(
    tmp_path, data_csv, capsys, edit, message
):
    model = tmp_path / "fit.json"
    assert cli(["fit", "--method", "cs", "--data", data_csv,
                "--response", "y", "--out", str(model)]) == EXIT_OK
    bundle = json.loads(model.read_text(encoding="utf-8"))
    edit(bundle["metadata"])
    model.write_text(json.dumps(bundle), encoding="utf-8")
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(model), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err and message in err
    assert not pred_out.exists()


def _set_first_variance(value):
    def edit(bundle):
        bundle["fit"]["covariance"][0][0] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b["fit"]["mean"].pop(), "'mean' entry is not 3 finite numbers"),
        (lambda b: b["sparse"]["p_binary"].pop(), "'p_binary' entry is not 3 finite numbers"),
        (_set_first_variance(float("nan")), "'covariance' entry is not 3x3 finite numbers"),
        (_set_first_variance(-0.5), "'covariance' entry has a negative variance"),
        (lambda b: b["sparse"].pop("kappa"), "no 'kappa' entry"),
        (lambda b: b["sparse"].pop("aic"), "no 'aic' entry"),
        (lambda b: b["sparse"].pop("df"), "no 'df' entry"),
        (lambda b: b["sparse"].update(extra=1), "'sparse' block has an unknown 'extra' entry"),
        (lambda b: b["fit"].update(hyper_expectations=[1.0]),
         "'hyper_expectations' entry is not a mapping"),
        (lambda b: b.update(fit=[b["fit"]]), "'fit' entry is not a mapping"),
        (lambda b: b.update(sparse="beta_hat"), "'sparse' entry is not a mapping"),
        (lambda b: b["sparse"].update(support=1), "'support' entry is not a list of indices"),
        (lambda b: b["sparse"].update(support=[0, "1"]),
         "'support' entry is not a list of indices"),
        (lambda b: b["sparse"].update(df=1.5), "'df' entry is not an integer"),
        (lambda b: b["sparse"].update(kappa="0.1"), "'kappa' entry is not a number"),
        (lambda b: b["fit"].update(iterations="12"), "'iterations' entry is not an integer"),
        (lambda b: b["fit"].update(converged="yes"), "'converged' entry is not true or false"),
        (lambda b: b["fit"].update(elbo_trace="-1.0"),
         "'elbo_trace' entry is not a list of numbers"),
        (lambda b: b["metadata"].update(method=["cs"]), "'method' entry is not a string"),
    ],
    ids=["short-mean", "short-p_binary", "nan-covariance", "negative-variance",
         "no-kappa", "no-aic", "no-df", "extra-sparse-key", "hyper-expectations-list",
         "fit-list", "sparse-string", "support-int", "support-string-index", "df-float",
         "kappa-string", "iterations-string", "converged-string", "elbo-trace-string",
         "method-list"],
)
def test_predict_rejects_a_bundle_with_a_bad_fit_entry(tmp_path, data_csv, capsys, edit, message):
    model = tmp_path / "fit.json"
    assert cli(["fit", "--method", "cs", "--data", data_csv,
                "--response", "y", "--out", str(model)]) == EXIT_OK
    bundle = json.loads(model.read_text(encoding="utf-8"))
    edit(bundle)
    model.write_text(json.dumps(bundle), encoding="utf-8")
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(model), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err and message in err
    assert not pred_out.exists()


def test_predict_refuses_a_row_whose_mean_overflows(tmp_path, data_csv, capsys):
    model = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv,
                "--response", "y", "--out", str(model)]) == EXIT_OK
    bundle = json.loads(model.read_text(encoding="utf-8"))
    # the row (0, 0) reads the intercept alone: e^(m + s^2/2) = e^733 overflows
    bundle["fit"]["mean"][0] = -191.25
    bundle["fit"]["covariance"][0][0] = 1849.0
    model.write_text(json.dumps(bundle), encoding="utf-8")
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(model), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: predictive mean")
    assert not pred_out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_predict_rejects_a_non_finite_covariate(tmp_path, data_csv, capsys, cell):
    out = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv,
                "--response", "y", "--out", str(out)]) == EXIT_OK
    new = tmp_path / "new.csv"
    new.write_text(f"x1,x2\n0.0,0.0\n0.5,{cell}\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(out), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_NUMERICAL
    assert "error: non-finite covariate at data row 2" in capsys.readouterr().err
    assert not pred_out.exists()


@pytest.mark.parametrize("header", ["x2,x1", "a,b"], ids=["reordered", "renamed"])
def test_predict_rejects_columns_other_than_the_training_ones(tmp_path, data_csv, capsys, header):
    out = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv,
                "--response", "y", "--out", str(out)]) == EXIT_OK
    new = tmp_path / "new.csv"
    new.write_text(f"{header}\n0.0,1.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(out), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x1,x2" in err and header in err
    assert not pred_out.exists()


def test_fit_rejects_a_repeated_column_name(tmp_path, capsys):
    # the second y would otherwise join the covariates beside the response
    data = tmp_path / "dup.csv"
    data.write_text("y,x,y\n1,0.5,2\n0,-0.5,1\n3,1.5,0\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    code = cli(["fit", "--method", "laplace", "--data", str(data),
                "--response", "y", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {data}: repeated column 'y'\n"
    assert not out.exists()


def test_predict_rejects_a_repeated_column_name(tmp_path, data_csv, capsys):
    # a bundle whose training columns repeat a name, as earlier versions wrote
    out = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv,
                "--response", "y", "--out", str(out)]) == EXIT_OK
    bundle = json.loads(out.read_text(encoding="utf-8"))
    bundle["metadata"]["columns"] = ["(intercept)", "x1", "x1"]
    out.write_text(json.dumps(bundle), encoding="utf-8")
    new = tmp_path / "new.csv"
    new.write_text("x1,x1\n0.0,1.0\n", encoding="utf-8")
    pred_out = tmp_path / "pred.json"
    capsys.readouterr()
    code = cli(["predict", "--model", str(out), "--data", str(new), "--out", str(pred_out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {new}: repeated column 'x1'\n"
    assert not pred_out.exists()


def test_validate_clean_and_dirty(tmp_path, data_csv, capsys):
    assert cli(["validate", "--data", data_csv, "--response", "y"]) == EXIT_OK
    assert "valid" in capsys.readouterr().out
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("x1,y\n0.5,-3\n0.2,1\n", encoding="utf-8")
    assert cli(["validate", "--data", str(dirty), "--response", "y"]) == EXIT_NUMERICAL
    assert "diagnostic:" in capsys.readouterr().out


def test_simulate_writes_raw_and_summary(tmp_path, capsys):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(
        "n = 50\np = 5\nmu0 = 0.6\nsigma0 = 0.4\nmu_x = 0.1\nsigma2_x = 1.0\n"
        "z_mask = 1,0,1,0,0\n",
        encoding="utf-8",
    )
    raw_out = str(tmp_path / "raw.csv")
    sum_out = str(tmp_path / "summary.json")
    code = cli(["simulate", "--scenario", "custom", "--config", str(cfg),
                "--replications", "2", "--seed", "5", "--methods", "laplace",
                "--summary-out", sum_out, "--out", raw_out])
    assert code == EXIT_OK
    assert "laplace:" in capsys.readouterr().out
    lines = open(raw_out, encoding="utf-8").read().splitlines()
    assert len(lines) == 3
    summary = json.load(open(sum_out, encoding="utf-8"))
    assert "laplace" in summary and len(summary["laplace"]["coverage"]) == 5
    # the MetricsReport fields, without the run-dependent wall time
    assert all(
        sorted(row) == ["coverage", "cre", "failures", "fnr", "fpr", "trre", "tsre"]
        for row in summary.values()
    )


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def test_simulate_writes_a_nan_metric_as_null(tmp_path, capsys):
    # with one active coefficient, the intercept, no slope can be missed: FNR is NaN
    cfg = tmp_path / "scen.cfg"
    cfg.write_text("n = 40\np = 5\nmu0 = 0.5\nsigma0 = 0.3\nmu_x = 0.1\nsigma2_x = 1.0\n"
                   "random_k = 1\n", encoding="utf-8")
    raw_out, sum_out = str(tmp_path / "raw.csv"), str(tmp_path / "summary.json")
    code = cli(["simulate", "--scenario", "custom", "--config", str(cfg), "--replications", "2",
                "--methods", "laplace", "--summary-out", sum_out, "--out", raw_out])
    assert code == EXIT_OK
    summary = json.loads(open(sum_out, encoding="utf-8").read(), parse_constant=_refuse)
    assert summary["laplace"]["fnr"] is None
    assert all(isinstance(v, float) for v in summary["laplace"]["coverage"])
    # the raw table and the printed summary still show the NaN as such
    assert "fnr=nan" in capsys.readouterr().out
    assert all(r["fnr"] == "nan" for r in csv.DictReader(open(raw_out, encoding="utf-8")))


def test_simulate_is_deterministic(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = str(tmp_path / name)
        code = cli(["simulate", "--scenario", "low", "--replications", "2",
                    "--seed", "9", "--methods", "laplace,bernoulli", "--out", out])
        assert code == EXIT_OK
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_a_replication_with_a_count_past_the_enumeration_cap_does_not_fail(tmp_path):
    # training row 29 of this replication has y = 656,033, near the 10^6-count
    # cap that per-row enumeration of the predictive pmf stops at
    out = str(tmp_path / "raw.csv")
    code = cli(["simulate", "--scenario", "low", "--replications", "1",
                "--seed", "107502001", "--out", out])
    assert code == EXIT_OK
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    assert sorted(r["method"] for r in rows) == ["bernoulli", "cs", "laplace"]
    assert all(r["failed"] == "False" and r["error"] == "" for r in rows)


def test_simulate_custom_requires_config(tmp_path, capsys):
    code = cli(["simulate", "--scenario", "custom", "--replications", "1",
                "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_NUMERICAL
    capsys.readouterr()


_CUSTOM = {
    "n": "50", "p": "5", "mu0": "0.6", "sigma0": "0.4", "mu_x": "0.1", "sigma2_x": "1.0",
    "z_mask": "1,0,1,0,0",
}


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("fit", {"epsilon": "abc"}, "'epsilon'"),
        ("fit", {"c": "2"}, "c must lie in (0, 1)"),
        ("simulate", _without(_CUSTOM, "sigma0"), "'sigma0'"),
        ("simulate", {**_without(_CUSTOM, "z_mask"), "random_k": "9"}, "random_k must lie"),
        ("simulate", {**_CUSTOM, "n": "abc"}, "'n'"),
        ("simulate", {**_CUSTOM, "n": "1", "p": "3", "z_mask": "1,0,1"}, "n must be at least 2"),
        ("simulate", "foo", "'foo'"),
        ("fit", {"nu": "inf"}, "nu must be positive and finite"),
        ("fit", {"delta": "inf"}, "delta must be positive and finite"),
        ("fit", {"A": "inf"}, "A must be positive and finite"),
        ("fit", {"rho2": "inf"}, "rho2 must be positive and finite"),
        ("simulate", {**_CUSTOM, "sigma0": "-1"}, "sigma0 must be non-negative"),
        ("simulate", {**_CUSTOM, "sigma0": "inf"}, "sigma0 must be finite"),
        ("simulate", {**_CUSTOM, "sigma2_x": "-1"}, "sigma2_x must be non-negative"),
        ("simulate", {**_CUSTOM, "mu0": "nan"}, "mu0 must be finite"),
        ("simulate", {**_CUSTOM, "mu_x": "inf"}, "mu_x must be finite"),
        ("simulate", {**_CUSTOM, "mu0": "0", "sigma0": "0"},
         "invalid scenario config: mu0 and sigma0 cannot both be 0"),
        ("simulate", {**_CUSTOM, "z_mask": "1,1,1,1,1"}, "at least one slope at 0"),
        ("simulate", {**_CUSTOM, "z_mask": "1,0,2,0,0"}, "z_mask entries must be 0 or 1"),
        ("simulate", {**_without(_CUSTOM, "z_mask"), "random_k": "5"}, "random_k must lie"),
        ("simulate", "", "--methods"),
        ("simulate", "laplace,laplace", "--methods"),
    ],
    ids=["epsilon-abc", "c-2", "no-sigma0", "random_k-9", "n-abc", "n-1", "methods-foo",
         "nu-inf", "delta-inf", "A-inf", "rho2-inf", "sigma0-neg", "sigma0-inf", "sigma2_x-neg",
         "mu0-nan", "mu_x-inf", "zero-coefficients", "z_mask-full", "z_mask-2", "random_k-p",
         "methods-empty", "methods-repeated"],
)
def test_invalid_config_values_exit_two(tmp_path, data_csv, capsys, command, config, message):
    argv = ["--out", str(tmp_path / "o.out")]
    if isinstance(config, dict):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        argv += ["--config", str(cfg)]
    if command == "fit":
        argv = ["fit", "--method", "laplace", "--data", data_csv, "--response", "y"] + argv
    elif isinstance(config, str):
        argv = ["simulate", "--scenario", "low", "--methods", config] + argv
    else:
        argv = ["simulate", "--scenario", "custom", "--replications", "1"] + argv
    assert cli(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "o.out").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--replications", "0", "replications"), ("--replications", "-2", "replications"),
     ("--seed", "-1", "seed")],
)
def test_simulate_rejects_a_study_that_cannot_run(tmp_path, capsys, flag, value, field):
    code = cli(["simulate", "--scenario", "low", "--replications", "1",
                "--out", str(tmp_path / "o.csv"), flag, value])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario config:") and field in err
    assert not (tmp_path / "o.csv").exists()


def test_fit_warns_when_a_divergence_ends_it(tmp_path, capsys):
    rng = np.random.default_rng(268)
    n, p = 20, 8
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * rng.uniform(0.5, 3)])
    y = rng.poisson(np.exp(np.minimum(x @ rng.normal(0.0, 1.5, p), 12.0)))
    data = tmp_path / "diverging.csv"
    data.write_text(
        ",".join(f"x{j}" for j in range(1, p)) + ",y\n"
        + "".join(",".join(repr(float(v)) for v in row[1:]) + f",{c}\n" for row, c in zip(x, y)),
        encoding="utf-8",
    )
    for method, warned in (("laplace", True), ("cs", False)):
        code = cli(["fit", "--method", method, "--data", str(data), "--response", "y",
                    "--no-standardize", "--out", str(tmp_path / f"{method}.json")])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert ("overflow guard" in captured.err) is warned
        assert ("converged=False" in captured.out) is warned


@pytest.mark.parametrize("level", ["1.5", "0", "nan"])
def test_level_outside_the_unit_interval_exits_one(tmp_path, data_csv, capsys, level):
    fit_out = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                "--out", str(fit_out)]) == EXIT_OK
    new = tmp_path / "new.csv"
    new.write_text("x1,x2\n0.0,0.0\n", encoding="utf-8")
    capsys.readouterr()
    argvs = [
        ["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
         "--level", level, "--out", str(tmp_path / "bad_fit.json")],
        ["predict", "--model", str(fit_out), "--data", str(new),
         "--level", level, "--out", str(tmp_path / "bad_pred.json")],
    ]
    for argv in argvs:
        assert cli(argv) == EXIT_USAGE
        assert "--level" in capsys.readouterr().err
    assert not (tmp_path / "bad_fit.json").exists() and not (tmp_path / "bad_pred.json").exists()


def test_fit_warns_about_the_diagnostics_it_tolerates(tmp_path, data_csv, capsys):
    out = tmp_path / "fit.json"
    assert cli(["fit", "--method", "laplace", "--data", data_csv, "--response", "y",
                "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    lines = open(data_csv, encoding="utf-8").read().splitlines()
    constant = tmp_path / "constant.csv"
    constant.write_text(
        "\n".join([lines[0] + ",x3"] + [row + ",2.5" for row in lines[1:]]) + "\n",
        encoding="utf-8",
    )
    code = cli(["fit", "--method", "laplace", "--data", str(constant), "--response", "y",
                "--out", str(tmp_path / "constant.json")])
    assert code == EXIT_OK
    assert capsys.readouterr().err == "warning: zero-variance column 3\n"


def _count_csvs(tmp_path, stem, mu_x, shift=0.0, seed=3):
    """Training (2000 rows) and held-out (200 rows) CSVs over 30 covariates of mean
    mu_x, 6 slopes at +-0.3 and rate e^1 at the means, written with `shift` added
    to every covariate and 17 significant digits; returns their paths."""
    rng = np.random.default_rng(seed)
    x = mu_x + rng.standard_normal((2200, 30))
    beta = np.zeros(31)
    active = 1 + rng.choice(30, size=6, replace=False)
    beta[active] = 0.3 * rng.choice((-1.0, 1.0), size=6)
    beta[0] = 1.0 - mu_x * beta[1:].sum()
    y = rng.poisson(np.exp(beta[0] + x @ beta[1:]))
    x = x + shift
    header = ",".join(f"x{j + 1}" for j in range(30))
    paths = tmp_path / f"{stem}-train.csv", tmp_path / f"{stem}-hold.csv"
    np.savetxt(paths[0], np.column_stack([y[:2000], x[:2000]]), fmt=["%d"] + ["%.17g"] * 30,
               delimiter=",", header="y," + header, comments="")
    np.savetxt(paths[1], x[2000:], fmt="%.17g", delimiter=",", header=header, comments="")
    return tuple(map(str, paths))


def _fit_and_predict(tmp_path, stem, method, train, hold):
    """The bundle and prediction rows of `fit` then `predict`, each of which must exit 0."""
    bundle, preds = str(tmp_path / f"{stem}.json"), str(tmp_path / f"{stem}-pred.json")
    assert cli(["fit", "--method", method, "--data", train, "--response", "y",
                "--out", bundle]) == EXIT_OK
    assert cli(["predict", "--model", bundle, "--data", hold, "--out", preds]) == EXIT_OK
    return (json.load(open(bundle, encoding="utf-8")),
            json.load(open(preds, encoding="utf-8"))["predictions"])


@pytest.mark.parametrize("method", ["laplace", "cs", "bernoulli"])
def test_uncentred_covariates_fit_and_predict(tmp_path, method):
    # the excluded slopes' variance must not reach the intercept when the fit
    # is mapped back from covariates centred at 2
    train, hold = _count_csvs(tmp_path, "d", mu_x=2.0)
    bundle, rows = _fit_and_predict(tmp_path, "d", method, train, hold)
    assert len(rows) == 200
    assert bundle["fit"]["covariance"][0][0] < 0.1
    # sparsify saw the design the engine fitted; its criterion is the mapped beta_hat's here
    loglik = poisson_loglik(np.array(bundle["sparse"]["beta_hat"]), load_csv(train, "y")[0])
    assert bundle["sparse"]["aic"] == pytest.approx(-loglik + 2 * bundle["sparse"]["df"], rel=1e-9)


@pytest.mark.parametrize("method", ["laplace", "cs", "bernoulli"])
def test_shifting_every_covariate_moves_neither_the_support_nor_the_predictions(tmp_path, method):
    fits = [_fit_and_predict(tmp_path, f"s{shift}", method,
                             *_count_csvs(tmp_path, f"s{shift}", mu_x=0.1, shift=shift))
            for shift in (0.0, 3.0)]
    (base, base_rows), (shifted, shifted_rows) = fits
    assert shifted["sparse"]["support"] == base["sparse"]["support"]
    assert [r["mode"] for r in shifted_rows] == [r["mode"] for r in base_rows]
    assert [r["hpd_set"] for r in shifted_rows] == [r["hpd_set"] for r in base_rows]
    np.testing.assert_allclose([r["mean"] for r in shifted_rows],
                               [r["mean"] for r in base_rows], rtol=1e-6)


def _linear_predictor(post, x):
    """Mean and variance of x @ beta for each row under a Gaussian posterior."""
    return x @ post.mean, np.einsum("ij,jk,ik->i", x, post.covariance, x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    p=st.integers(1, 8),
    interval=st.booleans(),
    kept=st.lists(st.booleans(), min_size=7, max_size=7),
)
@example(seed=1, n=20, p=8, interval=True, kept=[True] * 7)
@example(seed=2, n=20, p=8, interval=False, kept=[True] * 7)
def test_destandardized_posterior_keeps_the_linear_predictor(seed, n, p, interval, kept):
    rng = np.random.default_rng(seed)
    # covariates with offsets and spreads far from zero mean and unit scale
    cols = rng.standard_normal((n, p - 1)) * rng.uniform(0.1, 10.0, p - 1)
    x = np.column_stack([np.ones(n), cols + rng.uniform(-10.0, 10.0, p - 1)])
    work, center, scale = _standardize(Dataset(x, np.zeros(n)), True)

    def spd_posterior():
        a = rng.standard_normal((p, p))
        return GaussianPosterior(rng.standard_normal(p), a @ a.T + 0.1 * np.eye(p))

    fit = FitResult(
        method=Method.CS,
        posterior=spd_posterior(),
        inclusion_prob=rng.uniform(size=p),
        hyper_expectations={"e_tau2_inv": 1.0},
        elbo_trace=np.array([-3.0, -2.0]),
        iterations=2,
        converged=True,
        interval_posterior=spd_posterior() if interval else None,
    )
    # the sparse record that keeps the intercept and the slopes `kept` marks
    keep = np.array([True] + kept[: p - 1])
    support = tuple(np.flatnonzero(keep).tolist())
    sparse = SparseCoefficients(
        beta_hat=np.where(keep, fit.posterior.mean, 0.0), support=support, kappa=0.5,
        aic=1.0, df=len(support), p_binary=keep.astype(float),
    )
    out, out_sparse = _destandardize(fit, sparse, center, scale)
    pairs = [(fit.posterior, out.posterior)]
    if interval:
        pairs.append((fit.interval_posterior, out.interval_posterior))
    else:
        assert out.interval_posterior is None
    # the masked rows, as `predict` forms them, see the standardised fit's predictor
    for std_post, orig_post in pairs:
        for want, got in zip(_linear_predictor(std_post, work.design * keep),
                             _linear_predictor(orig_post, x * keep)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))
    want = work.design @ sparse.beta_hat
    np.testing.assert_allclose(x @ out_sparse.beta_hat, want, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(want)))
    # every field other than the two mapped posteriors and beta_hat is carried over as is
    for f in dataclasses.fields(FitResult):
        if f.name not in ("posterior", "interval_posterior"):
            assert getattr(out, f.name) is getattr(fit, f.name)
    for f in dataclasses.fields(SparseCoefficients):
        if f.name != "beta_hat":
            assert getattr(out_sparse, f.name) is getattr(sparse, f.name)
    # without standardising, the design and the map are the identity, to the bit
    raw, center, scale = _standardize(Dataset(x, np.zeros(n)), False)
    assert np.array_equal(raw.design, x)
    same, same_sparse = _destandardize(fit, sparse, center, scale)
    assert np.array_equal(same_sparse.beta_hat, sparse.beta_hat)
    for before, after in [(fit.posterior, same.posterior)] + (
        [(fit.interval_posterior, same.interval_posterior)] if interval else []
    ):
        assert np.array_equal(after.mean, before.mean)
        assert np.array_equal(after.covariance, 0.5 * (before.covariance + before.covariance.T))
