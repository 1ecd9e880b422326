"""Parity probe: run a fixed set of fits and commands, then compare two runs.

    python tools/parity.py --src ../parent/src --out old.json
    python tools/parity.py --src src --out new.json
    python tools/parity.py --compare old.json new.json --allow elbo_trace@laplace

The set: 3 engines on `low`/`high` replications t < 8, 30 ascent datasets and
4 response-only datasets (intercept-only fits, keyed `const0.p1` to
`const3.p1`, so `@p1.cs` scopes an allow to CS at p = 1), with a
1,500-iteration chain per engine on `low` t < 3 and a 10,000-iteration one
(`McmcConfig()`) per engine on `low` t = 0; a fixed grid of 24
library predictive rows; `fit` (3 methods, standardised or not) on two
2000x30 and two 150x4 CSVs, with `predict` on each bundle; `simulate` `low`
(3 reps) and `high` (1 rep); `validate` on one clean and one dirty CSV. The
manifest holds every leaf of every FitResult, sparse record, chain and
bundle, every cell of the `simulate` raw tables and every field of each
`predict` row (a grid row that raises records its error class instead), each
keyed by its case (`low0.cs`, `grid.7`, `d1-laplace.bundle`, `low.laplace.2`,
`d1-laplace.17`); and a sha256 of every other output file and of each
command's exit code and streams, keyed by the path or command line.

`--compare` prints the largest move per field: absolute, norm-wise (a case's
largest absolute move over that case's largest magnitude, which entries near
zero do not inflate) and relative, with the case of its largest relative
move, and on a moved field's line how many of its cases moved (`in 8 of 100
cases`). It prints whether each file moved, and exits 1 if any moved outside
`--allow`. `--allow NAME` matches a field named NAME or ending in
`.NAME`, and a file whose key is NAME, ends in `.NAME` (`summary`) or is
the streams of a NAME command (`fit`, `predict`, `simulate`, `validate`).
`--allow NAME@TEXT` allows those moves only in the cases and file keys that
contain TEXT.
"""

import argparse
import contextlib
import csv
import dataclasses
import enum
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np


def _record(fields, case, prefix, obj):
    """Store each leaf of nested dicts and dataclasses as fields[dotted path][case];
    a Gaussian posterior as its mean and covariance, whether or not it is a
    dataclass, so manifests of either kind of tree compare."""
    from vbpoisson import GaussianPosterior
    if isinstance(obj, GaussianPosterior):
        obj = {"mean": obj.mean, "covariance": obj.covariance}
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for k, v in obj.items():
            _record(fields, case, f"{prefix}.{k}", v)
        return
    value = repr(obj)  # compared for equality only
    if not (obj is None or isinstance(obj, (str, enum.Enum))):
        with contextlib.suppress(ValueError):  # a list of names stays a repr
            value = np.asarray(obj, dtype=float).ravel().tolist()
    fields.setdefault(prefix, {})[case] = value


def _library_cases():
    from vbpoisson import harness
    from vbpoisson.core import Dataset, Hyperparameters, rho2_for_inclusion
    for name, config in (("low", harness.LOW_DIM), ("high", harness.HIGH_DIM)):
        for t in range(8):
            train, _, beta = harness.generate(config, np.random.default_rng([2024, t]))
            rho2 = rho2_for_inclusion(np.count_nonzero(beta) / config.p)
            yield f"{name}{t}", train, Hyperparameters(rho2=rho2)
    for s in range(30):  # the acceptance tests' ascent datasets
        rng = np.random.default_rng([901, s])
        x = np.column_stack([np.ones(60), rng.standard_normal((60, 7))])
        beta = np.zeros(8)
        beta[0] = 0.5
        beta[[2, 5]] = rng.normal(0.7, 0.3, size=2)
        y = rng.poisson(np.exp(np.clip(x @ beta, None, 6.0))).astype(float)
        yield f"ascent{s}", Dataset(x, y), Hyperparameters()
    for s, n in enumerate((5, 12, 30, 60)):  # intercept-only fits, where p = 1
        rng = np.random.default_rng([902, s])
        y = rng.poisson(np.exp(rng.uniform(-0.5, 1.5)), size=n).astype(float)
        yield f"const{s}.p1", Dataset(np.ones((n, 1)), y), Hyperparameters()


_CHAIN_CASES = ("low0", "low1", "low2")


def _record_fit(fields, case, method, data, hp):
    """Record one engine's fit and sparse record and, on a chain case, a short
    chain proposing with the fit's covariance; on the first chain case also a
    chain of the default length, keyed `low0.cs.full`."""
    from vbpoisson import harness, mcmc, sparsify
    fit = harness.FITTERS[method](data, hp)
    key = f"{case}.{method.value}"
    _record(fields, key, "result", fit)
    _record(fields, key, "sparse", sparsify.sparsify(fit, data))
    chains = {key: mcmc.McmcConfig(iterations=1500, burn_in=500)} if case in _CHAIN_CASES else {}
    if case == _CHAIN_CASES[0]:
        chains[f"{key}.full"] = mcmc.McmcConfig()
    for name, config in chains.items():
        chain = mcmc.sample(method, data, hp, config, proposal_cov=fit.posterior.covariance)
        _record(fields, name, "chain", chain)


# (m, s^2, level) of one-coefficient predictive rows: light rate laws, heavy
# ones (s^2 of 3.5 to 15), s^2 = 0 and below the degenerate threshold, and two
# rows whose rate law puts too much mass past the enumeration cap
_PREDICT_GRID = (
    (0.2, 0.1, 0.95), (-2.0, 0.5, 0.5), (1.0, 1.0, 0.99), (3.0, 0.2, 0.95),
    (5.0, 0.01, 0.5), (2.0, 2.0, 0.99), (3.0, 1.5, 0.95), (-30.0, 4.0, 0.95),
    (-4.0, 8.0, 0.95), (-4.0, 11.0, 0.99), (-6.0, 12.0, 0.5), (-2.0, 6.0, 0.95),
    (0.0, 4.0, 0.99), (1.0, 3.5, 0.5), (-8.0, 15.0, 0.95), (0.5, 0.0, 0.95),
    (4.0, 0.0, 0.99), (8.0, 0.0, 0.5), (12.0, 0.0, 0.95), (3.0, 1e-13, 0.95),
    (3.0, 1e-10, 0.99), (8.0, 1e-6, 0.5), (-4.0, 30.0, 0.95), (2.0, 8.0, 0.95),
)


def _predict_grid(fields):
    """Record each grid row's `predict` fields, or the class of the error it raises."""
    from vbpoisson import FitResult, GaussianPosterior, Method
    from vbpoisson.errors import VbPoissonError
    from vbpoisson.predict import predictive_distribution
    for i, (m, s2, level) in enumerate(_PREDICT_GRID):
        fit = FitResult(method=Method.LAPLACE,
                        posterior=GaussianPosterior(np.array([m]), np.array([[s2]])),
                        inclusion_prob=np.ones(1), hyper_expectations={},
                        elbo_trace=np.zeros(1), iterations=1, converged=True)
        try:
            dist = predictive_distribution(np.ones(1), fit, level=level)
            row = {"mode": dist.mode, "mean": dist.mean, "tail_mass": dist.tail_mass,
                   "hpd_set": list(dist.hpd_set)}
        except VbPoissonError as exc:
            row = {"error": type(exc).__name__}
        _record(fields, f"grid.{i}", "predict", row)


def _write_csv(path, rng, n, p, response=True):
    x = 0.1 + rng.standard_normal((n, p))
    y = rng.poisson(np.exp(1.0 + x @ np.where(np.arange(p) < max(1, p // 5), 0.3, 0.0)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow((["y"] if response else []) + [f"x{j + 1}" for j in range(p)])
        for yi, row in zip(y, x):
            w.writerow(([int(yi)] if response else []) + [f"{v:.6g}" for v in row])


def _cli(argv, fields, files):
    """Run one command; record its exit code and streams, then its outputs."""
    from vbpoisson.cli import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    streams = f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()
    files[" ".join(argv)] = hashlib.sha256(streams).hexdigest()
    for path in (v for flag, v in zip(argv, argv[1:]) if flag in ("--out", "--summary-out")):
        if os.path.exists(path):
            _record_output(fields, files, path)


def _record_output(fields, files, path):
    """Record a bundle leaf by leaf, a raw table or `.pred` file row by row, else a sha256."""
    if path.endswith(".bundle"):
        with open(path, encoding="utf-8") as fh:
            _record(fields, path, "bundle", json.load(fh))
    elif path.endswith(".raw"):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                case = f"{path[:-4]}.{row.pop('method')}.{row.pop('rep')}"
                for col, cell in row.items():
                    with contextlib.suppress(ValueError):
                        cell = float(cell)
                    _record(fields, case, f"simulate.{col}", cell)
    elif path.endswith(".pred"):
        with open(path, encoding="utf-8") as fh:
            pred = json.load(fh)
        for i, row in enumerate(pred.pop("predictions")):
            _record(fields, f"{path[:-5]}.{i}", "predict", row)
        _record(fields, path[:-5], "predict", pred)
    else:
        with open(path, "rb") as fh:
            files[path] = hashlib.sha256(fh.read()).hexdigest()


def _cli_cases(fields, files):
    for k, (n, p) in enumerate(((2000, 30), (2000, 30), (150, 4), (150, 4))):
        _write_csv(f"d{k}.csv", np.random.default_rng([7, k]), n, p)
        _write_csv(f"h{k}.csv", np.random.default_rng([8, k]), 40, p, response=False)
        for m in ("laplace", "cs", "bernoulli"):
            for flags in ([], ["--no-standardize"]):
                stem = f"d{k}-{m}{''.join(flags)}"
                _cli(["fit", "--method", m, "--data", f"d{k}.csv", "--response", "y", *flags,
                      "--out", f"{stem}.bundle"], fields, files)
                _cli(["predict", "--model", f"{stem}.bundle", "--data", f"h{k}.csv",
                      "--out", f"{stem}.pred"], fields, files)
    for scen, reps in (("low", "3"), ("high", "1")):
        _cli(["simulate", "--scenario", scen, "--replications", reps, "--seed", "0",
              "--out", f"{scen}.raw", "--summary-out", f"{scen}.summary"], fields, files)
    with open("dirty.csv", "w", encoding="utf-8") as fh:  # a negative, a fractional count
        fh.write("x1,x2,y\n0.5,1.0,-3\n0.2,0.4,1.5\n-0.1,0.3,2\n")
    for data in ("d0.csv", "dirty.csv"):
        _cli(["validate", "--data", data, "--response", "y"], fields, files)


def run(src):
    sys.path.insert(0, os.path.abspath(src))
    from vbpoisson import harness
    if not harness.__file__.startswith(os.path.abspath(src)):
        raise SystemExit(f"imported vbpoisson from {harness.__file__}, not from {src}")
    fields, files = {}, {}
    for case, data, hp in _library_cases():
        for method in harness.FITTERS:
            _record_fit(fields, case, method, data, hp)
    _predict_grid(fields)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the commands' output identical across runs
        try:
            _cli_cases(fields, files)
        finally:
            os.chdir(cwd)
    return {"fields": fields, "files": files}


def _allowed(allow, key, where):
    """Whether `--allow` permits a move of field or file `key` in case `where`."""
    head, _, args = key.partition(" ")  # a command's streams: its command line
    for rule in allow:
        name, _, scope = rule.partition("@")
        hit = head == name if args else key == name or key.endswith("." + name)
        if hit and scope in where:
            return True
    return False


def compare(a, b, allow):
    bad = 0
    for name in sorted(set(a["fields"]) | set(b["fields"])):
        fa, fb = a["fields"].get(name, {}), b["fields"].get(name, {})
        d_abs = d_rel = d_norm = 0.0
        worst, refused, moved = None, [], 0
        cases = sorted(set(fa) | set(fb))
        for case in cases:
            va, vb = fa.get(case), fb.get(case)
            c_abs = c_rel = c_norm = 0.0
            if isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb):
                x, y = np.array(va, dtype=float), np.array(vb, dtype=float)
                same = (x == y) | (np.isnan(x) & np.isnan(y))
                diff = np.where(same, 0.0, np.nan_to_num(np.abs(x - y), nan=np.inf))
                rel = diff / np.maximum(np.abs(x), np.finfo(float).tiny)
                c_abs, c_rel = float(diff.max(initial=0.0)), float(rel.max(initial=0.0))
                scale = np.nan_to_num(np.abs(x), nan=0.0).max(initial=0.0)
                c_norm = c_abs / max(scale, np.finfo(float).tiny)
            elif va != vb:
                c_abs = c_rel = c_norm = np.inf
            if c_rel > d_rel:
                worst = case
            d_abs, d_rel, d_norm = max(d_abs, c_abs), max(d_rel, c_rel), max(d_norm, c_norm)
            moved += c_abs > 0
            if c_abs > 0 and not _allowed(allow, name, case):
                refused.append(case)
        bad += bool(refused)
        print(f"{'MOVED' if d_abs > 0 else 'same '} {name}"
              + (f" in {moved} of {len(cases)} cases" if moved else "")
              + f": abs {d_abs:.3g}"
              + (f" norm {d_norm:.3g}" if d_abs > 0 else "") + f" rel {d_rel:.3g}"
              + (f" (at {worst})" if d_abs > 0 else "")
              + (f" NOT ALLOWED in {', '.join(refused[:5])}" if refused else ""))
    for key in sorted(set(a["files"]) | set(b["files"])):
        moved = a["files"].get(key) != b["files"].get(key)
        refused = moved and not _allowed(allow, key, key)
        bad += refused
        print(f"{'MOVED' if moved else 'same '} file {key}{' NOT ALLOWED' if refused else ''}")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--src", help="source tree holding the vbpoisson package")
    ap.add_argument("--out", help="manifest to write")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--allow", action="append", default=[], help="NAME or NAME@TEXT: a field or file allowed to move")
    args = ap.parse_args(argv)
    if args.compare:
        manifests = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                manifests.append(json.load(fh))
        return compare(*manifests, args.allow)
    if not (args.src and args.out):
        ap.error("--src and --out are required unless --compare is given")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(run(args.src), fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
