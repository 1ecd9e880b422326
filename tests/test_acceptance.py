"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its requirement.  The low
dimensional replication study is shared across the coverage, error-band and
selection checks through a module-scoped fixture.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from vbpoisson import cavi
from vbpoisson.bernoulli import elbo_bernoulli, fit_bernoulli, init_bernoulli, update_bernoulli
from vbpoisson.cli import EXIT_OK, cli
from vbpoisson.core import (
    Dataset,
    FitResult,
    GaussianPosterior,
    Hyperparameters,
    Method,
    rho2_for_inclusion,
)
from vbpoisson.harness import HIGH_DIM, LOW_DIM, generate, run_study
from vbpoisson.laplace import elbo_laplace, fit_laplace, init_laplace, update_laplace
from vbpoisson.likelihood import quad_bound
from vbpoisson.mcmc import McmcConfig, accuracy, sample
from vbpoisson.predict import predictive_distribution
from vbpoisson.sparsify import (
    default_grid,
    poisson_loglik,
    threshold_bernoulli,
    threshold_hard,
)
from vbpoisson.special_math import gig_moments
from vbpoisson.spike_slab import elbo_cs, fit_cs, init_cs, update_cs

STUDY_SEED = 2024
ASCENT_TOL = 1e-8


def _verdict(label: str, ok: bool):
    print(f"[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, label


@pytest.fixture(scope="module")
def study():
    config = dataclasses.replace(LOW_DIM, replications=100, seed=STUDY_SEED)
    t0 = time.perf_counter()
    result = run_study(config)
    return result, time.perf_counter() - t0


def _ascent_dataset(seed: int) -> Dataset:
    rng = np.random.default_rng([901, seed])
    n, p = 60, 8
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = np.zeros(p)
    beta[0] = 0.5
    beta[[2, 5]] = rng.normal(0.7, 0.3, size=2)
    y = rng.poisson(np.exp(np.clip(x @ beta, None, 6.0))).astype(float)
    return Dataset(x, y)


# each engine's (init, one sweep at fixed expansion points, ELBO terms, fit)
_ENGINES = {
    "laplace": (init_laplace, update_laplace, elbo_laplace, fit_laplace),
    "cs": (init_cs, update_cs, elbo_cs, fit_cs),
    "bernoulli": (init_bernoulli, update_bernoulli, elbo_bernoulli, fit_bernoulli),
}


def _frozen_sweep(init, update, elbo_terms, ds, hp, iters=12):
    state = init(ds, hp)
    vals = []
    for _ in range(iters):
        state = update(state, ds, hp)
        vals.append(cavi.elbo(elbo_terms(state, ds, hp)))
    return vals


def test_elbo_ascent_and_convergence():
    """With frozen expansion points every sweep must be non-decreasing, and
    full runs must stop before the iteration cap nearly always."""
    t0 = time.perf_counter()
    hp = Hyperparameters()
    violations = 0
    stopped_early = 0
    total_fits = 0
    for seed in range(50):
        ds = _ascent_dataset(seed)
        for init, update, elbo_terms, fitter in _ENGINES.values():
            vals = _frozen_sweep(init, update, elbo_terms, ds, hp)
            for prev, cur in zip(vals, vals[1:]):
                if cur - prev < -ASCENT_TOL * abs(prev):
                    violations += 1
            fit = fitter(ds, hp)
            total_fits += 1
            if fit.converged and fit.iterations < hp.max_iter:
                stopped_early += 1
    wall = time.perf_counter() - t0
    frac = stopped_early / total_fits
    _verdict(
        f"elbo ascent (violations={violations}, early-stop fraction={frac:.3f}, "
        f"wall={wall:.1f}s)",
        violations == 0 and frac >= 0.95 and wall < 120.0,
    )


def _gig_oracle(a: float, b: float) -> tuple:
    def dens(t):
        return t**-0.5 * np.exp(-0.5 * (a * t + b / t) + np.sqrt(a * b))

    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    norm, _ = integrate.quad(dens, 0.0, np.inf, **opts)
    mean, _ = integrate.quad(lambda t: t * dens(t), 0.0, np.inf, **opts)
    inv, _ = integrate.quad(lambda t: dens(t) / t, 0.0, np.inf, **opts)
    return mean / norm, inv / norm


def test_scale_mixture_moments_against_quadrature():
    """Closed-form GIG moments agree with adaptive quadrature at 1e-8 over a
    100-point parameter grid."""
    grid = np.logspace(-1, 1, 10)
    worst = 0.0
    for a in grid:
        for b in grid:
            mean, inv_mean, _ = gig_moments(float(a), float(b))
            om, oi = _gig_oracle(float(a), float(b))
            worst = max(worst, abs(mean - om) / om, abs(inv_mean - oi) / oi)
    _verdict(f"scale-mixture moments (worst rel err={worst:.2e})", worst <= 1e-8)


def test_predictive_normalization_and_degenerate_limit():
    """Enumerated predictive pmfs carry unit mass to 1e-6; a zero-variance
    posterior reproduces the Poisson pmf to 1e-10."""
    ds, _, _ = generate(LOW_DIM, np.random.default_rng([STUDY_SEED, 0]))
    worst_mass = 0.0
    for fitter in (fit_laplace, fit_cs, fit_bernoulli):
        fit = fitter(ds)
        for row in ds.design[:5]:
            dist = predictive_distribution(row, fit)
            worst_mass = max(worst_mass, abs(float(dist.pmf.sum()) + dist.tail_mass - 1.0))
            worst_mass = max(worst_mass, max(0.0, float(dist.pmf.sum()) - 1.0))
    degenerate = FitResult(
        method=Method.LAPLACE,
        posterior=GaussianPosterior(np.array([0.8]), np.zeros((1, 1))),
        inclusion_prob=np.ones(1),
        hyper_expectations={},
        elbo_trace=np.array([-1.0]),
        iterations=1,
        converged=True,
    )
    dist = predictive_distribution(np.array([1.0]), degenerate)
    ref = stats.poisson.pmf(np.arange(dist.support_max + 1), np.exp(0.8))
    worst_deg = float(np.max(np.abs(dist.pmf - ref)))
    _verdict(
        f"predictive normalization (mass err={worst_mass:.2e}, "
        f"degenerate err={worst_deg:.2e})",
        worst_mass <= 1e-6 and worst_deg <= 1e-10,
    )


def test_interval_coverage(study):
    """Per-coefficient 95 percent interval coverage stays inside
    [0.85, 0.99] for every method over 100 replications."""
    result, wall = study
    ok = wall < 600.0
    details = []
    for name, rep in result.reports.items():
        lo, hi = float(rep.coverage.min()), float(rep.coverage.max())
        details.append(f"{name}=[{lo:.2f},{hi:.2f}]")
        ok = ok and rep.failures == 0 and lo >= 0.85 and hi <= 0.99
    _verdict(
        f"interval coverage ({', '.join(details)}, wall={wall:.0f}s)", ok
    )


def _normal_pdf(mean, sd):
    """The N(mean, sd^2) density of one float; the scorer calls it per point."""
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))
    return lambda v: norm * math.exp(-0.5 * ((v - mean) / sd) ** 2)


def test_sampler_agreement():
    """Variational marginals score at least 80 (Laplace) and 75 (CS) mean
    accuracy against Metropolis-within-Gibbs chains over 20 replications."""
    t0 = time.perf_counter()
    scores = {Method.LAPLACE: [], Method.CS: []}
    for t in range(20):
        rng = np.random.default_rng([STUDY_SEED, t])
        train, _test, beta_true = generate(LOW_DIM, rng)
        p0 = float(np.count_nonzero(beta_true)) / LOW_DIM.p
        hp = Hyperparameters(rho2=rho2_for_inclusion(p0))
        for method, fitter in ((Method.LAPLACE, fit_laplace), (Method.CS, fit_cs)):
            fit = fitter(train, hp)
            chain = sample(
                method,
                train,
                hp,
                McmcConfig(seed=1000 + t),
                proposal_cov=fit.posterior.covariance,
            )
            per_coord = []
            for j in range(train.p):
                m = float(fit.posterior.mean[j])
                sd = float(np.sqrt(fit.posterior.covariance[j, j]))
                per_coord.append(accuracy(_normal_pdf(m, sd), chain.column(f"beta{j}")))
            scores[method].append(float(np.mean(per_coord)))
    wall = time.perf_counter() - t0
    lap = float(np.mean(scores[Method.LAPLACE]))
    cs = float(np.mean(scores[Method.CS]))
    _verdict(
        f"sampler agreement (laplace={lap:.1f}, cs={cs:.1f}, wall={wall:.0f}s)",
        lap >= 80.0 and cs >= 75.0 and wall < 1800.0,
    )


def _medians(result, key):
    out = {}
    for name in result.reports:
        vals = [r[key] for r in result.raw if r["method"] == name and not r["failed"]]
        out[name] = float(np.median(vals))
    return out


def test_test_error_band(study):
    """Median held-out relative squared error lies in [0.02, 0.15] for all
    three methods."""
    result, _ = study
    meds = _medians(result, "tsre")
    ok = all(0.02 <= v <= 0.15 for v in meds.values())
    pretty = ", ".join(f"{k}={v:.4f}" for k, v in meds.items())
    _verdict(f"test error band ({pretty})", ok)


def test_false_negative_rate(study):
    """Median false negative rate is exactly zero for all three methods."""
    result, _ = study
    meds = _medians(result, "fnr")
    pretty = ", ".join(f"{k}={v:.3f}" for k, v in meds.items())
    _verdict(f"false negatives ({pretty})", all(v == 0.0 for v in meds.values()))


def test_sparsification_rules():
    """The zero threshold is the identity, the grid search matches brute
    force over 20 fits, and the probability rule matches its definition over
    1000 random cases."""
    ok = True
    ds = _ascent_dataset(3)
    fit = fit_laplace(ds)
    ident = threshold_hard(fit, ds, grid=np.array([0.0]))
    ok = ok and np.array_equal(ident.beta_hat, fit.posterior.mean)

    checked = 0
    for seed in range(10):
        ds = _ascent_dataset(10 + seed)
        for fitter in (fit_laplace, fit_cs):
            fit = fitter(ds)
            mu = fit.posterior.mean
            grid = default_grid(mu)
            sparse = threshold_hard(fit, ds, grid=grid)
            best_aic, best_kappa = np.inf, None
            for kappa in np.sort(grid):
                bh = mu.copy()
                bh[1:] = np.where(np.abs(mu[1:]) <= kappa, 0.0, mu[1:])
                df = 1 + int(np.count_nonzero(bh[1:]))
                aic = -poisson_loglik(bh, ds) + 2.0 * df
                if aic <= best_aic:
                    best_aic, best_kappa = aic, kappa
            ok = ok and sparse.kappa == best_kappa and abs(sparse.aic - best_aic) < 1e-9
            checked += 1
    ok = ok and checked == 20

    rng = np.random.default_rng(77)
    for _ in range(1000):
        p_incl = np.concatenate([[1.0], rng.uniform(0.0, 1.0, size=5)])
        mu = rng.normal(0.0, 1.0, size=6)
        fake = FitResult(
            method=Method.BERNOULLI,
            posterior=GaussianPosterior(mu, np.eye(6)),
            inclusion_prob=p_incl,
            hyper_expectations={},
            elbo_trace=np.array([-1.0]),
            iterations=1,
            converged=True,
        )
        sparse = threshold_bernoulli(fake)
        expect = np.where(p_incl > 0.5, mu, 0.0)
        expect[0] = mu[0]
        ok = ok and np.array_equal(sparse.beta_hat, expect)
    _verdict("sparsification rules", ok)


def test_bound_geometry():
    """Over a 100 x 100 grid the bound sits on the correct side of the
    exponential, touching it only at the expansion point."""
    xs = np.linspace(-5.0, 5.0, 100)
    ok = True
    for xi in xs:
        g = quad_bound(xs, xi)
        diff = g - np.exp(xs)
        side = np.sign(xi - xs)
        for d, s, x in zip(diff, side, xs):
            if abs(x - xi) < 1e-15:
                ok = ok and abs(d) <= 1e-12
            else:
                ok = ok and np.sign(d) == s and abs(d) > 0.0
    _verdict("bound geometry", ok)


def test_cli_determinism(tmp_path):
    """Identical seeds give byte-identical output files for any thread
    setting."""
    rng = np.random.default_rng(23)
    n = 50
    x1 = rng.standard_normal(n)
    y = rng.poisson(np.exp(0.4 + 0.7 * x1)).astype(int)
    data = tmp_path / "d.csv"
    data.write_text(
        "x1,y\n" + "\n".join(f"{float(a)!r},{int(b)}" for a, b in zip(x1, y)) + "\n",
        encoding="utf-8",
    )
    fit_bytes = []
    for threads, name in ((1, "f1.json"), (4, "f2.json"), (8, "f3.json")):
        out = str(tmp_path / name)
        code = cli(["fit", "--method", "cs", "--data", str(data), "--response", "y",
                    "--seed", "11", "--threads", str(threads), "--out", out])
        assert code == EXIT_OK
        fit_bytes.append(open(out, "rb").read())
    sim_bytes = []
    for threads, name in ((1, "s1.csv"), (4, "s2.csv")):
        out = str(tmp_path / name)
        code = cli(["simulate", "--scenario", "low", "--replications", "2",
                    "--seed", "6", "--threads", str(threads),
                    "--methods", "laplace,bernoulli", "--out", out])
        assert code == EXIT_OK
        sim_bytes.append(open(out, "rb").read())
    _verdict(
        "cli determinism",
        fit_bytes[0] == fit_bytes[1] == fit_bytes[2] and sim_bytes[0] == sim_bytes[1],
    )


def test_high_dimensional_smoke():
    """Thirty observations against two hundred covariates: every replication
    either converges or fails with a recorded diagnostic."""
    t0 = time.perf_counter()
    config = dataclasses.replace(HIGH_DIM, replications=5, seed=7)
    result = run_study(config)
    ok = True
    for row in result.raw:
        if row["failed"]:
            ok = ok and bool(row.get("error"))
        else:
            ok = ok and row["converged"] and np.isfinite(row["tsre"])
    wall = time.perf_counter() - t0
    n_failed = sum(r["failed"] for r in result.raw)
    _verdict(
        f"high dimensional smoke (failures={n_failed}, wall={wall:.0f}s)",
        ok and wall < 600.0,
    )
