"""CSV ingestion, config parsing and result serialization."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import warnings
from collections import Counter

import numpy as np

from .core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method
from .sparsify import SparseCoefficients

FORMAT_VERSION = "1"


class ParseError(ValueError):
    """A cell or header in an input file could not be interpreted."""


class FormatVersionError(ParseError):
    """A result bundle was written in a format version this code does not read."""


def load_csv(path: str, response_column: str | None):
    """Read a headered numeric CSV into a design matrix and optional response.

    An intercept column of ones comes first in the design. Returns
    (Dataset, column_names) when a response column is named, else
    (matrix, column_names) of the covariates alone.
    """
    text = _read_text(path)
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = [h for h, count in Counter(header).items() if count > 1]
        if repeated:
            raise ParseError(f"{path}: repeated column {', '.join(map(repr, repeated))}")
        body = fh.tell()  # where np.loadtxt refuses the body, float() reads it cell by cell
        try:
            with warnings.catch_warnings():  # an empty body is refused below, not warned of
                warnings.simplefilter("ignore")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        # np.loadtxt strips the separators \x1c-\x1f around a number; float() refuses them
        separators = any(c in text for c in "\x1c\x1d\x1e\x1f")
        if data is None or data.shape[1] != len(header) or separators:
            fh.seek(body)
            rows = []
            for r, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
                    )
                vals = []
                for name, cell in zip(header, row):
                    try:
                        vals.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path}: could not parse {cell!r} at row {r}, column {name!r}"
                        ) from None
                rows.append(vals)
            data = np.array(rows)
    if not data.size:
        raise ParseError(f"{path}: no data rows")
    if response_column is None:
        return np.column_stack([np.ones(data.shape[0]), data]), ["(intercept)"] + header
    if response_column not in header:
        raise ParseError(f"{path}: response column {response_column!r} not found")
    ridx = header.index(response_column)
    covs = np.delete(data, ridx, axis=1)
    names = [h for i, h in enumerate(header) if i != ridx]
    return (
        Dataset(np.column_stack([np.ones(covs.shape[0]), covs]), data[:, ridx]),
        ["(intercept)"] + names,
    )


def load_config(path: str) -> dict:
    """Flat key=value config; blank lines and # comments are skipped."""
    out = {}
    with io.StringIO(_read_text(path), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno} is not key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def _read_text(path: str) -> str:
    """The file's text less a leading BOM; bytes that are not UTF-8 raise ParseError naming it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def hyperparameters_from_config(cfg: dict) -> Hyperparameters:
    fields = {f.name for f in dataclasses.fields(Hyperparameters)}
    kwargs = {}
    for key, value in cfg.items():
        if key not in fields:
            raise ParseError(f"unknown hyperparameter {key!r}")
        try:
            kwargs[key] = int(value) if key == "max_iter" else float(value)
        except ValueError:
            raise ParseError(f"hyperparameter {key!r}: could not parse {value!r}") from None
    try:
        return Hyperparameters(**kwargs)
    except ValueError as exc:
        raise ParseError(f"invalid hyperparameter: {exc}") from None


def result_bundle(
    fit: FitResult,
    sparse: SparseCoefficients,
    hpd: np.ndarray,
    hp: Hyperparameters,
    seed: int | None,
    column_names: list,
) -> dict:
    """Assemble the record of one fitted model, numpy arrays as they are, for save_bundle.

    It holds no wall time, so identical seeds give byte-identical files.
    """
    meta = {
        "format_version": FORMAT_VERSION,
        "method": fit.method.value,
        "hyperparameters": dataclasses.asdict(hp),
        "seed": seed,
        "columns": list(column_names),
    }
    fit_block = {
        "mean": fit.posterior.mean,
        "covariance": fit.posterior.covariance,
        "inclusion_prob": fit.inclusion_prob,
        "hyper_expectations": fit.hyper_expectations,
        "elbo_trace": fit.elbo_trace,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    if fit.interval_posterior is not None:
        fit_block["interval_mean"] = fit.interval_posterior.mean
        fit_block["interval_covariance"] = fit.interval_posterior.covariance
    return {"metadata": meta, "fit": fit_block, "sparse": dataclasses.asdict(sparse), "hpd": hpd}


def save_bundle(obj, path: str):
    """Write obj as sorted, indent-1 JSON and a final newline. A numpy array or scalar is
    written as its `.tolist()`, lists or a Python number; any other type raises TypeError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, default=_tolist)
        fh.write("\n")


def _tolist(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_bundle(path: str) -> tuple[FitResult, SparseCoefficients, dict]:
    """Read a saved model; a non-JSON file or a missing or mistyped entry raises ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            bundle = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a JSON model bundle: {exc}") from None
    if type(bundle) is not dict:
        raise ParseError(f"{path}: model bundle is not a mapping")
    meta = _entry(path, {"metadata": {}, **bundle}, "metadata", "a mapping")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        found = "no format_version" if version is None else f"format_version {version!r}"
        raise FormatVersionError(
            f"{path}: bundle has {found}; this version reads format_version {FORMAT_VERSION!r}"
        )
    fit_d = _entry(path, bundle, "fit", "a mapping")
    sp = _entry(path, bundle, "sparse", "a mapping")
    method = _entry(path, meta, "method", "a string")
    if method not in {m.value for m in Method}:
        raise ParseError(f"{path}: model bundle's 'method' entry {method!r} is not a method name")
    p = len(_entry(path, meta, "columns", "a list of names"))

    def posterior(mean_key, cov_key):
        cov = _entry(path, fit_d, cov_key, (p, p))
        if np.any(np.diag(cov) < 0.0):
            raise ParseError(f"{path}: model bundle's {cov_key!r} entry has a negative variance")
        return GaussianPosterior(_entry(path, fit_d, mean_key, (p,)), cov)

    interval = None
    if "interval_mean" in fit_d:
        interval = posterior("interval_mean", "interval_covariance")
    hyper = _entry(path, fit_d, "hyper_expectations", "a mapping")
    fit = FitResult(
        method=Method(method),
        posterior=posterior("mean", "covariance"),
        inclusion_prob=_entry(path, fit_d, "inclusion_prob", (p,)),
        hyper_expectations={k: np.array(v) if isinstance(v, list) else v for k, v in hyper.items()},
        elbo_trace=np.array(_entry(path, fit_d, "elbo_trace", "a list of numbers")),
        iterations=_entry(path, fit_d, "iterations", "an integer"),
        converged=_entry(path, fit_d, "converged", "true or false"),
        interval_posterior=interval,
    )
    kinds = {"beta_hat": (p,), "support": "a list of indices", "kappa": "a number",
             "aic": "a number", "df": "an integer", "p_binary": (p,)}
    if unknown := sorted(set(sp) - set(kinds)):
        raise ParseError(f"{path}: model bundle's 'sparse' block has an unknown "
                         f"{unknown[0]!r} entry")
    fields = {k: _entry(path, sp, k, kind) for k, kind in kinds.items()}
    return fit, SparseCoefficients(**{**fields, "support": tuple(fields["support"])}), bundle


_KINDS = {
    "a mapping": lambda v: type(v) is dict,
    "a string": lambda v: type(v) is str,
    "a list of names": lambda v: type(v) is list and all(type(c) is str for c in v),
    "a list of indices": lambda v: type(v) is list and all(type(c) is int for c in v),
    "a list of numbers": lambda v: type(v) is list and all(type(c) in (int, float) for c in v),
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "true or false": lambda v: type(v) is bool,
}


def _entry(path: str, block: dict, key: str, kind):
    """block[key] if it is `kind` (a _KINDS name; a shape: finite floats), else ParseError."""
    if key not in block:
        raise ParseError(f"{path}: model bundle has no {key!r} entry")
    value = block[key]
    if isinstance(kind, str) and _KINDS[kind](value):
        return value
    if isinstance(kind, tuple):
        with contextlib.suppress(TypeError, ValueError):
            arr = np.array(value, dtype=float)
            if arr.shape == kind and np.all(np.isfinite(arr)):
                return arr
        kind = f"{'x'.join(map(str, kind))} finite numbers"
    raise ParseError(f"{path}: model bundle's {key!r} entry is not {kind}")


def write_raw_table(rows: list, path: str):
    """Raw per-replication metric table as CSV: csv writes floats by repr, None as empty."""
    cols = ["rep", "method", "failed", "cre", "trre", "tsre", "fnr", "fpr", "df",
            "converged", "iterations", "error"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
