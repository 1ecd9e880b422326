"""CSV ingestion, config parsing and result serialization."""

from __future__ import annotations

import csv
import dataclasses
import json
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = [h for h, count in Counter(header).items() if count > 1]
        if repeated:
            raise ParseError(f"{path}: repeated column {', '.join(map(repr, repeated))}")
        rows = []
        for r, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            vals = []
            for name, cell in zip(header, row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: could not parse {cell!r} at row {r}, column {name!r}"
                    ) from None
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.array(rows)
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno} is not key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


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


def jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def result_bundle(
    fit: FitResult,
    sparse: SparseCoefficients,
    hpd: np.ndarray,
    hp: Hyperparameters,
    seed: int | None,
    column_names: list,
) -> dict:
    """Assemble the serializable record of one fitted model.

    It holds no wall time, so identical seeds give byte-identical files.
    """
    meta = {
        "format_version": FORMAT_VERSION,
        "method": fit.method.value,
        "hyperparameters": jsonable(dataclasses.asdict(hp)),
        "seed": seed,
        "columns": list(column_names),
    }
    fit_block = {
        "mean": jsonable(fit.posterior.mean),
        "covariance": jsonable(fit.posterior.covariance),
        "inclusion_prob": jsonable(fit.inclusion_prob),
        "hyper_expectations": jsonable(fit.hyper_expectations),
        "elbo_trace": jsonable(fit.elbo_trace),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    if fit.interval_posterior is not None:
        fit_block["interval_mean"] = jsonable(fit.interval_posterior.mean)
        fit_block["interval_covariance"] = jsonable(fit.interval_posterior.covariance)
    return {
        "metadata": meta,
        "fit": fit_block,
        "sparse": jsonable(dataclasses.asdict(sparse)),
        "hpd": jsonable(hpd),
    }


def save_bundle(bundle: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_bundle(path: str) -> tuple[FitResult, SparseCoefficients, dict]:
    """Read a saved model; a file that is not a JSON bundle raises ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            bundle = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a JSON model bundle: {exc}") from None
    version = bundle.get("metadata", {}).get("format_version")
    if version != FORMAT_VERSION:
        found = "no format_version" if version is None else f"format_version {version!r}"
        raise FormatVersionError(
            f"{path}: bundle has {found}; this version reads format_version {FORMAT_VERSION!r}"
        )
    try:
        meta, fit_d, sp = bundle["metadata"], bundle["fit"], bundle["sparse"]
        if meta["method"] not in {m.value for m in Method}:
            raise ParseError(f"{path}: model bundle's 'method' entry {meta['method']!r} "
                             "is not a method name")
        if not isinstance(meta["columns"], list):
            raise ParseError(f"{path}: model bundle's 'columns' entry is not a list")
        p = len(meta["columns"])

        def posterior(mean_key, cov_key):
            cov = _entry(path, fit_d, cov_key, (p, p))
            if np.any(np.diag(cov) < 0.0):
                raise ParseError(
                    f"{path}: model bundle's {cov_key!r} entry has a negative variance"
                )
            return GaussianPosterior(_entry(path, fit_d, mean_key, (p,)), cov)

        interval = None
        if "interval_mean" in fit_d:
            interval = posterior("interval_mean", "interval_covariance")
        fit = FitResult(
            method=Method(meta["method"]),
            posterior=posterior("mean", "covariance"),
            inclusion_prob=_entry(path, fit_d, "inclusion_prob", (p,)),
            hyper_expectations={
                k: np.array(v) if isinstance(v, list) else v
                for k, v in fit_d["hyper_expectations"].items()
            },
            elbo_trace=np.array(fit_d["elbo_trace"]),
            iterations=fit_d["iterations"],
            converged=fit_d["converged"],
            interval_posterior=interval,
        )
        arrays = {k: _entry(path, sp, k, (p,)) for k in ("beta_hat", "p_binary")}
        sparse = SparseCoefficients(**{**sp, **arrays, "support": tuple(sp["support"])})
    except KeyError as exc:
        raise ParseError(f"{path}: model bundle has no {exc.args[0]!r} entry") from None
    return fit, sparse, bundle


def _entry(path: str, block: dict, key: str, shape: tuple) -> np.ndarray:
    """A bundle block's entry as a finite float array of the given shape, else ParseError."""
    try:
        arr = np.array(block[key], dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: model bundle's {key!r} entry is not "
                         f"{'x'.join(map(str, shape))} finite numbers")
    return arr


def write_raw_table(rows: list, path: str):
    """Raw per-replication metric table as CSV."""
    cols = ["rep", "method", "failed", "cre", "trre", "tsre", "fnr", "fpr", "df",
            "converged", "iterations", "error"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: _format_cell(row.get(c)) for c in cols})


def _format_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v
