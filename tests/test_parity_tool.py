"""`tools/parity.py --compare`: which moves `--allow` permits, and the exit code."""

import copy
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py"
)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

_FIT = "fit --method laplace --data d0.csv --response y --out d0-laplace.bundle"
_BASE = {
    "fields": {
        "result.elbo_trace": {"low0.laplace": [-10.0, -9.0], "low0.cs": [-11.0, -10.5]},
        "result.hyper_expectations.e_tau_inv": {"low0.laplace": [1.0, 2.0]},
        "simulate.tsre": {"low.laplace.0": [0.1], "high.laplace.0": [0.2]},
        "result.method": {"low0.laplace": "<Method.LAPLACE: 'laplace'>"},
    },
    "files": {"d0-laplace.pred": "aa", "d0-cs.pred": "bb", _FIT: "cc", "low.summary": "dd"},
}


def _moved(*fields, files=()):
    """A copy of the base manifest with the named (field, case) values and files changed."""
    out = copy.deepcopy(_BASE)
    for name, case in fields:
        value = out["fields"][name][case]
        out["fields"][name][case] = [v + 1e-9 for v in value] if isinstance(value, list) else "x"
    for key in files:
        out["files"][key] += "!"
    return out


def _exit(tmp_path, a, b, *allow):
    paths = []
    for tag, manifest in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{tag}.json")
        paths[-1].write_text(json.dumps(manifest), encoding="utf-8")
    argv = ["--compare", *map(str, paths)]
    for rule in allow:
        argv += ["--allow", rule]
    return parity.main(argv)


def test_identical_manifests_exit_zero(tmp_path, capsys):
    assert _exit(tmp_path, _BASE, copy.deepcopy(_BASE)) == 0
    assert "MOVED" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "allow, code",
    [
        ((), 1),
        (("elbo_trace",), 0),
        (("result.elbo_trace",), 0),
        (("trace",), 1),  # a dotted suffix, not any tail of the name
        (("e_tau_inv",), 1),
    ],
)
def test_a_plain_allow_matches_a_field_or_its_dotted_suffix(tmp_path, allow, code):
    b = _moved(("result.elbo_trace", "low0.laplace"), ("result.elbo_trace", "low0.cs"))
    assert _exit(tmp_path, _BASE, b, *allow) == code


@pytest.mark.parametrize(
    "moved, allow, code",
    [
        ([("result.elbo_trace", "low0.laplace")], "elbo_trace@laplace", 0),
        ([("result.elbo_trace", "low0.cs")], "elbo_trace@laplace", 1),
        ([("result.elbo_trace", "low0.laplace"), ("result.elbo_trace", "low0.cs")],
         "elbo_trace@laplace", 1),
        ([("simulate.tsre", "low.laplace.0")], "tsre@low.laplace", 0),
        ([("simulate.tsre", "high.laplace.0")], "tsre@low.laplace", 1),
        ([("result.method", "low0.laplace")], "method@laplace", 0),
    ],
)
def test_a_scoped_allow_covers_only_the_cases_that_contain_its_text(tmp_path, moved, allow, code):
    assert _exit(tmp_path, _BASE, _moved(*moved), allow) == code


def test_a_move_outside_the_scope_is_named(tmp_path, capsys):
    b = _moved(("result.elbo_trace", "low0.laplace"), ("result.elbo_trace", "low0.cs"))
    assert _exit(tmp_path, _BASE, b, "elbo_trace@laplace") == 1
    line = next(x for x in capsys.readouterr().out.splitlines() if "elbo_trace" in x)
    assert line.startswith("MOVED") and line.endswith("NOT ALLOWED in low0.cs")


def test_a_moved_field_names_the_case_of_its_largest_relative_move(tmp_path, capsys):
    # the same absolute move is larger, relative to its value, on low0.laplace
    b = _moved(("result.elbo_trace", "low0.laplace"), ("result.elbo_trace", "low0.cs"),
               ("result.method", "low0.laplace"))
    assert _exit(tmp_path, _BASE, b, "elbo_trace", "method") == 0
    lines = capsys.readouterr().out.splitlines()
    trace = next(x for x in lines if "result.elbo_trace" in x)
    assert trace.startswith("MOVED") and trace.endswith(f"rel {1e-9 / 9.0:.3g} (at low0.laplace)")
    assert next(x for x in lines if "result.method" in x).endswith("rel inf (at low0.laplace)")
    assert next(x for x in lines if "e_tau_inv" in x).endswith("rel 0")


def test_a_moved_field_counts_the_cases_that_moved(tmp_path, capsys):
    b = _moved(("result.elbo_trace", "low0.cs"), ("simulate.tsre", "high.laplace.0"))
    b["fields"]["simulate.tsre"]["mid.laplace.0"] = [0.3]  # a case only one side has
    assert _exit(tmp_path, _BASE, b, "elbo_trace", "tsre") == 0
    lines = capsys.readouterr().out.splitlines()
    assert next(x for x in lines if "elbo_trace" in x).startswith(
        "MOVED result.elbo_trace in 1 of 2 cases: abs")
    assert next(x for x in lines if "tsre" in x).startswith(
        "MOVED simulate.tsre in 2 of 3 cases: abs")
    assert next(x for x in lines if "e_tau_inv" in x).startswith(
        "same  result.hyper_expectations.e_tau_inv: abs")


def test_a_moved_field_reports_its_move_relative_to_the_largest_magnitude(tmp_path, capsys):
    # an off-diagonal near zero inflates the elementwise move, not the norm-wise one
    base = copy.deepcopy(_BASE)
    base["fields"]["result.posterior.covariance"] = {
        "high0.cs": [4.0, 1e-6, 1e-6, 2.0], "high1.cs": [8.0, 0.0, 0.0, 8.0]}
    moved = copy.deepcopy(base)
    moved["fields"]["result.posterior.covariance"]["high0.cs"] = [4.0, 1e-6 + 4e-12, 1e-6, 2.0]
    moved["fields"]["result.posterior.covariance"]["high1.cs"] = [8.0, 0.0, 0.0, 8.0 + 4e-12]
    assert _exit(tmp_path, base, moved, "covariance@high") == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if "covariance" in x)
    assert line.startswith("MOVED")
    # high0's 4e-12 over 4.0 beats high1's 4e-12 over 8.0, and its 1e-6 entry holds the
    # largest elementwise move
    assert f" norm {1e-12:.3g} rel {4e-12 / 1e-6:.3g} (at high0.cs)" in line


@pytest.mark.parametrize(
    "files, allow, code",
    [
        (["d0-laplace.pred"], (), 1),
        (["d0-laplace.pred"], ("pred",), 0),
        (["d0-laplace.pred"], ("d0-laplace.pred",), 0),
        (["d0-laplace.pred", "d0-cs.pred"], ("pred@laplace",), 1),
        (["d0-laplace.pred", "d0-cs.pred"], ("pred@laplace", "pred@cs"), 0),
        ([_FIT], ("fit@laplace",), 0),
        ([_FIT], ("fit@bernoulli",), 1),
        ([_FIT], ("fit@cs",), 0),  # TEXT is a plain substring, and d0.csv holds "cs"
        ([_FIT], ("bundle",), 1),  # the streams match by command, not by their --out
        (["low.summary"], ("summary@low",), 0),
        (["low.summary"], ("elbo_trace",), 1),
    ],
)
def test_an_allow_matches_a_file_by_key_extension_or_command(tmp_path, files, allow, code):
    assert _exit(tmp_path, _BASE, _moved(files=files), *allow) == code


def test_a_command_without_output_files_records_its_exit_code_and_streams(tmp_path,
                                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dirty.csv").write_text("x1,y\n0.5,-3\n", encoding="utf-8")
    argv = ["validate", "--data", "dirty.csv", "--response", "y"]
    fields, files = {}, {}
    parity._cli(argv, fields, files)
    assert fields == {}
    streams = b"2\ndiagnostic: negative count\n\n"  # exit code, stdout, stderr
    assert files == {" ".join(argv): hashlib.sha256(streams).hexdigest()}


def test_a_pred_file_is_recorded_row_by_row(tmp_path):
    pred = tmp_path / "d0-cs.pred"
    rows = [{"hpd_set": [1, 2], "mean": 1.5, "mode": 1, "tail_mass": 0.0},
            {"hpd_set": [3], "mean": 3.25, "mode": 3, "tail_mass": 1e-7}]
    pred.write_text(json.dumps({"level": 0.9, "predictions": rows}), encoding="utf-8")
    fields, files = {}, {}
    parity._record_output(fields, files, str(pred))
    stem = str(tmp_path / "d0-cs")
    assert files == {}
    assert fields == {
        "predict.hpd_set": {f"{stem}.0": [1.0, 2.0], f"{stem}.1": [3.0]},
        "predict.mean": {f"{stem}.0": [1.5], f"{stem}.1": [3.25]},
        "predict.mode": {f"{stem}.0": [1.0], f"{stem}.1": [3.0]},
        "predict.tail_mass": {f"{stem}.0": [0.0], f"{stem}.1": [1e-7]},
        "predict.level": {stem: [0.9]},
    }


@pytest.mark.parametrize(
    "name, code",
    [("predict.mean", 0), ("predict.tail_mass", 0), ("predict.mode", 1), ("predict.hpd_set", 1)],
)
def test_the_predictive_contract_allows_mean_and_tail_mass_only(tmp_path, name, code):
    base = copy.deepcopy(_BASE)
    for field, value in (("mean", [1.5]), ("tail_mass", [0.0]), ("mode", [1.0]),
                         ("hpd_set", [1.0, 2.0])):
        base["fields"][f"predict.{field}"] = {"d0-cs.0": value, "d0-laplace.0": value}
    moved = copy.deepcopy(base)
    moved["fields"][name]["d0-cs.0"] = [v + 1e-12 for v in moved["fields"][name]["d0-cs.0"]]
    assert _exit(tmp_path, base, moved, "predict.mean", "predict.tail_mass") == code


def test_the_predictive_grid_records_fields_or_the_error_class(monkeypatch):
    # a light row, an s^2 = 0 row and a row refused past the enumeration cap
    monkeypatch.setattr(parity, "_PREDICT_GRID", ((0.2, 0.1, 0.95), (1.0, 0.0, 0.5),
                                                  (2.0, 8.0, 0.95)))
    fields = {}
    parity._predict_grid(fields)
    assert sorted(fields) == ["predict.error", "predict.hpd_set", "predict.mean",
                              "predict.mode", "predict.tail_mass"]
    assert fields["predict.error"] == {"grid.2": "'TruncationError'"}
    assert sorted(fields["predict.mode"]) == ["grid.0", "grid.1"]
    assert fields["predict.mean"]["grid.1"] == [np.exp(1.0)]
    assert fields["predict.mode"]["grid.1"] == [2.0]  # Poisson(e) peaks at 2


def test_a_chain_case_records_its_chain_beside_the_fit():
    from vbpoisson import harness
    from vbpoisson.core import Hyperparameters, Method, rho2_for_inclusion
    train, _, beta = harness.generate(harness.LOW_DIM, np.random.default_rng([2024, 0]))
    hp = Hyperparameters(rho2=rho2_for_inclusion(np.count_nonzero(beta) / harness.LOW_DIM.p))
    fields, again = {}, {}
    for case in ("low0", "low9"):
        parity._record_fit(fields, case, Method.CS, train, hp)
    parity._record_fit(again, "low0", Method.CS, train, hp)
    assert set(fields["result.posterior.mean"]) == {"low0.cs", "low9.cs"}
    chain_fields = {"chain.draws", "chain.param_names", "chain.acceptance_rate"}
    assert {name for name in fields if name.startswith("chain.")} == chain_fields
    # low0 is the first chain case, so it also runs a default-length chain
    assert all(set(fields[name]) == {"low0.cs", "low0.cs.full"} for name in chain_fields)
    # 100 kept rows (500 at the default length) of p slopes, p - 1 indicators, tau2 and a
    p = train.p
    assert len(fields["chain.draws"]["low0.cs"]) == 100 * (2 * p + 1)
    assert len(fields["chain.draws"]["low0.cs.full"]) == 500 * (2 * p + 1)
    for case in ("low0.cs", "low0.cs.full"):
        assert 0.01 <= fields["chain.acceptance_rate"][case][0] <= 1.0
        # a rerun is identical, so only a changed sampler can move a chain
        assert {name: fields[name][case] for name in chain_fields} == {
            name: again[name][case] for name in chain_fields}


def test_a_posterior_is_recorded_as_its_mean_and_covariance():
    # the posterior is no dataclass, and a low-rank one forms its covariance
    # only when read; the manifest keys stay those of a (mean, covariance) pair
    from vbpoisson import FitResult, GaussianPosterior, Method
    from vbpoisson.linalg import capacitance_inverse
    rng = np.random.default_rng(5)
    d = rng.uniform(1.0, 2.0, 4)
    v, logdet = capacitance_inverse(d, rng.standard_normal((2, 4)))
    post = GaussianPosterior(rng.standard_normal(4), d=d, v=v, logdet=logdet)
    fit = FitResult(method=Method.LAPLACE, posterior=post, inclusion_prob=np.ones(4))
    fields = {}
    parity._record(fields, "case", "result", fit)
    assert {name for name in fields if name.startswith("result.posterior")} == {
        "result.posterior.mean", "result.posterior.covariance"}
    assert fields["result.posterior.mean"]["case"] == post.mean.tolist()
    sigma = np.diag(1.0 / d) - v.T @ v
    assert fields["result.posterior.covariance"]["case"] == sigma.ravel().tolist()
    assert fields["result.interval_posterior"]["case"] == "None"
