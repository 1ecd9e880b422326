"""The four workloads: what one unit of work is, its inputs and its checks.

Each workload is driven by one caller in a closed loop: the next unit starts
when the previous one returns. Inputs come only from the benchmark seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

import benchstats
from vbpoisson import bernoulli, laplace, spike_slab
from vbpoisson import cli as vb_cli
from vbpoisson import core as vb_core
from vbpoisson import harness as vb_harness
from vbpoisson import io as vb_io
from vbpoisson import mcmc as vb_mcmc
from vbpoisson.errors import VbPoissonError

METHODS = ("laplace", "cs", "bernoulli")


@dataclass
class Unit:
    """Outcome of one unit: (name, ok) checks and side figures."""

    checks: list
    info: dict = field(default_factory=dict)
    seconds: float = 0.0


def _derive_seed(seed: int, tag: str, index: int) -> int:
    """Seed of input `index` of one stream (`tag`) of the benchmark seed."""
    stream = zlib.crc32(tag.encode())
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def run_cli(argv) -> int:
    """Run the vbpoisson CLI in-process, quietly unless it fails; returns its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vb_cli.cli(argv)
    if code != 0:
        print(f"vbpoisson {' '.join(argv)} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code


def _set_group(tracer, label):
    if tracer is not None:
        tracer.group = label


def _warm_blas():
    """Start both BLAS thread pools on a matrix the size of a `high` solve."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    spd = a @ a.T + 200.0 * np.eye(200)
    for _ in range(3):
        scipy.linalg.cho_solve((scipy.linalg.cholesky(spd, lower=True), True), np.eye(200))
        np.linalg.solve(spd, np.ones(200))


class Workload:
    name = ""
    item = ""

    def __init__(self, workdir: str, seed: int, nproc: int):
        self.workdir = workdir
        self.seed = seed
        self.nproc = nproc

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self):
        """Generate and write this run's inputs. Repeating it rewrites the same files."""

    def warmup(self):
        raise NotImplementedError

    def run_unit(self, index: int, tracer=None) -> Unit:
        raise NotImplementedError

    def summarize(self, units) -> tuple[list, dict]:
        """Run-level checks and the figures derived from all units."""
        raise NotImplementedError


class LowStudy(Workload):
    """`vbpoisson simulate --scenario low` with all three methods, one
    replication per unit."""

    name = "low_study"
    item = "replication"

    def setup(self):
        # a small custom scenario: warms the same code paths in a fraction of a replication
        with open(self.path("warm.cfg"), "w", encoding="utf-8") as fh:
            fh.write("n=40\np=5\nmu0=0.5\nsigma0=0.3\nmu_x=0.1\nsigma2_x=1.0\nrandom_k=3\n")

    def warmup(self):
        run_cli(["simulate", "--scenario", "custom", "--config", self.path("warm.cfg"),
                 "--replications", "1", "--seed", "0", "--out", self.path("warm.csv")])

    def _simulate(self, sim_seed):
        raw, summary = self.path("unit.csv"), self.path("unit.json")
        code = run_cli([
            "simulate", "--scenario", "low", "--methods", ",".join(METHODS),
            "--threads", str(self.nproc), "--replications", "1",
            "--seed", str(sim_seed), "--out", raw, "--summary-out", summary,
        ])
        if code != 0:
            return code, [], {}
        with open(raw, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(summary, encoding="utf-8") as fh:
            return code, rows, json.load(fh)

    def run_unit(self, index, tracer=None):
        _set_group(tracer, f"{self.name}:{index}")
        code, rows, summary = self._simulate(_derive_seed(self.seed, self.name, index))
        checks = [("simulate.exit", code == 0)]
        info = {"tsre": {}, "fnr": {}, "coverage": {}}
        for m in METHODS:
            row = next((r for r in rows if r["method"] == m), None)
            ok = row is not None and row["failed"] == "False"
            checks.append((f"fit.{m}", ok))
            if ok:
                info["tsre"][m] = float(row["tsre"])
                info["fnr"][m] = float(row["fnr"])
                info["coverage"][m] = summary[m]["coverage"]
        return Unit(checks=checks, info=info)

    def summarize(self, units):
        checks = []
        tsre, coverage = _per_method(units, "tsre"), _per_method(units, "coverage")
        for m in METHODS:
            if not (tsre[m] and coverage[m]):
                checks.append((f"results.{m}", False))
                continue
            checks.append((f"coverage_band.{m}",
                           0.85 <= sum(coverage[m]) / len(coverage[m]) <= 0.99))
            in_band = not (benchstats.median_beyond(tsre[m], 0.15, above=True)
                           or benchstats.median_beyond(tsre[m], 0.02, above=False))
            checks.append((f"tsre_band.{m}", in_band))
        figures = _quality(units)
        figures["replications_per_s"] = len(units) / sum(u.seconds for u in units)
        return checks, figures


def _per_method(units, key: str) -> dict:
    """Each method's values of one unit figure, pooled over units, NaN dropped."""
    out = {}
    for m in METHODS:
        values = []
        for u in units:
            v = u.info[key].get(m)
            if isinstance(v, list):
                values.extend(v)
            elif v is not None:
                values.append(v)
        out[m] = [v for v in values if not math.isnan(v)]
    return out


def _quality(units) -> dict:
    """Worst method's median test RE and FNR, and |mean coverage - 0.95|."""
    tsre, fnr, coverage = (_per_method(units, k) for k in ("tsre", "fnr", "coverage"))
    return {
        "tsre_median_worst": max((benchstats.median(v) for v in tsre.values() if v),
                                 default=None),
        "coverage_error_worst": max((abs(sum(v) / len(v) - 0.95) for v in coverage.values()
                                     if v), default=None),
        "fnr_median_worst": max((benchstats.median(v) for v in fnr.values() if v),
                                default=None),
    }


def _fitter(method: str):
    """The engine's fit function, looked up per call so installed hooks are seen."""
    module, fn = {"laplace": (laplace, "fit_laplace"), "cs": (spike_slab, "fit_cs"),
                  "bernoulli": (bernoulli, "fit_bernoulli")}[method]
    return getattr(module, fn)


def _replications(config, seed: int, tag: str, count: int) -> list:
    """(train, hyper-parameters) per replication, as the study harness sets them."""
    reps = []
    for k in range(count):
        rng = np.random.default_rng(_derive_seed(seed, tag, k))
        train, _test, beta = vb_harness.generate(config, rng)
        p0 = float(np.count_nonzero(beta)) / config.p
        reps.append((train, vb_core.Hyperparameters(rho2=vb_core.rho2_for_inclusion(p0))))
    return reps


class HighStudy(Workload):
    """Replications of the paper's `high` scenario (n=30, p=200), each fit by
    the three engines with every start running exactly BUDGET iterations.

    The `high` study itself cannot be timed steadily in one run: left to
    converge, fits take 16-429 iterations between replications, and with the
    predictive step some replications take 9-13 s against 3-4 s for most
    (2 vCPUs, OpenBLAS with its default threads).
    Fixed-budget fits keep the work per replication equal and keep what the
    study spends its time on: 200x200 solves and per-slope GIG moments.
    """

    name = "high_study"
    item = "replication fit by three engines"
    BUDGET = 40
    POOL = 8

    def setup(self):
        self.reps = _replications(vb_harness.HIGH_DIM, self.seed, self.name, self.POOL + 1)

    def _fit_all(self, train, hp, tracer=None, label=""):
        checks, iterations = [], 0
        for m in METHODS:
            _set_group(tracer, f"{label}:{m}")
            try:
                fit = _fitter(m)(train, hp)
            except VbPoissonError:
                checks.append((f"fit.{m}", False))
                continue
            post = fit.posterior
            finite = bool(np.all(np.isfinite(post.mean)) and np.all(np.isfinite(post.covariance)))
            checks.append((f"fit.{m}", finite))
            iterations += fit.iterations
        return checks, iterations

    def warmup(self):
        _warm_blas()
        train, hp = self.reps[self.POOL]
        self._fit_all(train, dataclasses.replace(hp, epsilon=1e-300, max_iter=3))

    def run_unit(self, index, tracer=None):
        train, hp = self.reps[index % self.POOL]
        # the smallest positive tolerance: only an exactly repeated bound stops a fit
        hp = dataclasses.replace(hp, epsilon=1e-300, max_iter=self.BUDGET)
        checks, iterations = self._fit_all(train, hp, tracer, f"{self.name}:{index}")
        return Unit(checks=checks, info={"iterations": iterations})

    def summarize(self, units):
        return [], {"replications_per_s": len(units) / sum(u.seconds for u in units)}


class CliFitPredict(Workload):
    """`vbpoisson fit` for each engine on a training CSV, then `predict` on
    held-out rows; one unit is that round trip on one generated dataset."""

    name = "cli_fit_predict"
    item = "round trip"
    N_TRAIN = 2000
    N_HOLD = 200
    P = 30
    N_ACTIVE = 6
    EFFECT = 0.3
    # covariate mean and variance of the paper's `low` scenario
    MU_X = 0.1
    POOL = 4

    def _dataset(self, k: int, n_train: int, n_hold: int):
        """Sparse truth with fixed effect sizes, so datasets cost alike."""
        rng = np.random.default_rng(_derive_seed(self.seed, self.name, k))
        n = n_train + n_hold
        x = self.MU_X + rng.standard_normal((n, self.P))
        beta = np.zeros(self.P + 1)
        active = 1 + rng.choice(self.P, size=self.N_ACTIVE, replace=False)
        beta[active] = self.EFFECT * rng.choice((-1.0, 1.0), size=self.N_ACTIVE)
        beta[0] = 1.0 - self.MU_X * beta[1:].sum()
        y = rng.poisson(np.exp(beta[0] + x @ beta[1:]))
        return x, y, beta

    def _write(self, stem, x, y, n_train):
        names = [f"x{j + 1}" for j in range(x.shape[1])]
        with open(self.path(f"{stem}-train.csv"), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["y"] + names)
            for yi, row in zip(y[:n_train], x[:n_train]):
                w.writerow([int(yi)] + [f"{v:.6g}" for v in row])
        with open(self.path(f"{stem}-hold.csv"), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for row in x[n_train:]:
                w.writerow([f"{v:.6g}" for v in row])

    def setup(self):
        self.truth = {}
        for k in range(self.POOL):
            x, y, beta = self._dataset(k, self.N_TRAIN, self.N_HOLD)
            self._write(f"d{k}", x, y, self.N_TRAIN)
            self.truth[k] = (beta, y[self.N_TRAIN:])
        x, y, _ = self._dataset(self.POOL, 200, 20)
        self._write("warm", x, y, 200)

    def warmup(self):
        run_cli(["fit", "--method", "laplace", "--data", self.path("warm-train.csv"),
                 "--response", "y", "--out", self.path("warm.json")])
        run_cli(["predict", "--model", self.path("warm.json"),
                 "--data", self.path("warm-hold.csv"), "--out", self.path("warm-pred.json")])

    def run_unit(self, index, tracer=None):
        k = index % self.POOL
        beta, y_hold = self.truth[k]
        checks, info = [], {"fit_s": 0.0, "predict_s": 0.0, "rows": 0,
                            "tsre": {}, "fnr": {}, "coverage": {}}
        for m in METHODS:
            bundle = self.path(f"{m}.json")
            _set_group(tracer, f"{self.name}:{index}:fit:{m}")
            t0 = time.perf_counter()
            code = run_cli([
                "fit", "--method", m, "--data", self.path(f"d{k}-train.csv"),
                "--response", "y", "--seed", str(k), "--threads", str(self.nproc),
                "--out", bundle,
            ])
            info["fit_s"] += time.perf_counter() - t0
            checks.append((f"fit.{m}.exit", code == 0))
            if code != 0:
                continue
            _set_group(tracer, f"{self.name}:{index}:load:{m}")
            fit, sparse, saved = vb_io.load_bundle(bundle)
            loaded = fit.method.value == m and fit.posterior.mean.shape == beta.shape
            checks.append((f"bundle_load.{m}", loaded))
            preds = self.path(f"{m}-pred.json")
            _set_group(tracer, f"{self.name}:{index}:predict:{m}")
            t0 = time.perf_counter()
            code = run_cli(["predict", "--model", bundle,
                            "--data", self.path(f"d{k}-hold.csv"), "--out", preds])
            info["predict_s"] += time.perf_counter() - t0
            checks.append((f"predict.{m}.exit", code == 0))
            if code != 0:
                continue
            with open(preds, encoding="utf-8") as fh:
                rows = json.load(fh)["predictions"]
            info["rows"] += len(rows)
            rows_ok = len(rows) == y_hold.shape[0] and all(
                r["tail_mass"] <= 1e-6 and r["mode"] in r["hpd_set"] for r in rows
            )
            checks.append((f"predict_rows.{m}", rows_ok))
            modes = np.array([r["mode"] for r in rows], dtype=float)
            if modes.shape == y_hold.shape:
                info["tsre"][m] = float(np.sum((modes - y_hold) ** 2)
                                        / np.sum((y_hold - y_hold.mean()) ** 2))
            hpd = np.array(saved["hpd"])
            info["coverage"][m] = ((hpd[:, 0] <= beta) & (beta <= hpd[:, 1])).tolist()
            info["fnr"][m] = vb_harness.metric_selection(sparse.beta_hat, beta)[0]
        return Unit(checks=checks, info=info)

    def summarize(self, units):
        figures = _quality(units)
        figures["fit_cmd_s"] = benchstats.median([u.info["fit_s"] for u in units])
        figures["predict_rows_per_s"] = (sum(u.info["rows"] for u in units)
                                         / sum(u.info["predict_s"] for u in units))
        return [], figures


def _normal_pdf(mean: float, sd: float):
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))
    return lambda v: norm * math.exp(-0.5 * ((v - mean) / sd) ** 2)


class Sampler(Workload):
    """`mcmc.sample` for each model on one `low` replication, started from
    the VB fit, then `mcmc.accuracy` of the Laplace and CS marginals."""

    name = "sampler"
    item = "round of three chains and their scoring"
    POOL = 8

    def setup(self):
        self.reps = _replications(vb_harness.LOW_DIM, self.seed, self.name, self.POOL + 1)

    def warmup(self):
        train, hp = self.reps[self.POOL]
        fit = _fitter("laplace")(train, hp)
        short = vb_mcmc.McmcConfig(iterations=400, burn_in=200, thin=1)
        for method in vb_core.Method:
            vb_mcmc.sample(method, train, hp, short, proposal_cov=fit.posterior.covariance)

    def run_unit(self, index, tracer=None):
        train, hp = self.reps[index % self.POOL]
        config = vb_mcmc.McmcConfig(seed=_derive_seed(self.seed, "chain", index))
        checks, info = [], {"accuracy": {}, "chain_iterations": 0}
        for m in METHODS:
            _set_group(tracer, f"{self.name}:{index}:{m}")
            method = vb_core.Method(m)
            try:
                fit = _fitter(m)(train, hp)
                chain = vb_mcmc.sample(method, train, hp, config,
                                       proposal_cov=fit.posterior.covariance)
            except VbPoissonError as exc:
                checks.append((f"chain.{m}", False))
                info.setdefault("errors", []).append(f"{m}: {exc}")
                continue
            checks.append((f"chain.{m}", True))
            info["chain_iterations"] += config.iterations
            if method is vb_core.Method.BERNOULLI:
                continue
            mean, cov = fit.posterior.mean, fit.posterior.covariance
            scores = [
                vb_mcmc.accuracy(_normal_pdf(float(mean[j]), math.sqrt(cov[j, j])),
                                 chain.column(f"beta{j}"))
                for j in range(train.p)
            ]
            info["accuracy"][m] = sum(scores) / len(scores)
        return Unit(checks=checks, info=info)

    def summarize(self, units):
        scores = {m: [u.info["accuracy"][m] for u in units if m in u.info["accuracy"]]
                  for m in ("laplace", "cs")}
        means = {m: sum(v) / len(v) if v else float("nan") for m, v in scores.items()}
        # CS accuracy ranges 45-96 between replications, so a mean over the few
        # replications a run holds can fall below 75 for a sound fit; its floor
        # fails only on a sign test.
        checks = [("accuracy.laplace", means["laplace"] >= 80.0),
                  ("accuracy.cs", bool(scores["cs"]) and not benchstats.median_beyond(
                      scores["cs"], 75.0, above=False))]
        figures = {
            "chain_iters_per_s": (sum(u.info["chain_iterations"] for u in units)
                                  / sum(u.seconds for u in units)),
            "sampler_accuracy_min": min(means.values()),
        }
        return checks, figures


WORKLOADS = {w.name: w for w in (LowStudy, HighStudy, CliFitPredict, Sampler)}
