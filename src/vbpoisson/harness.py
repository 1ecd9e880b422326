"""Synthetic-data scenarios, evaluation metrics and the replication runner."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bernoulli import fit_bernoulli
from .core import Dataset, Hyperparameters, Method, rho2_for_inclusion
from .errors import GenerationError, VbPoissonError
from .laplace import fit_laplace
from .likelihood import XI_OVERFLOW
from .predict import hpd_coefficients, predictive_modes
from .sparsify import sparsify
from .spike_slab import fit_cs

_AR_RHO = 0.3
_RATE_CAP = np.exp(20.0)
_REGEN_CAP = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """Generator settings for one simulation scenario."""

    n: int
    p: int
    mu0: float
    sigma0: float
    mu_x: float
    sigma2_x: float
    z_mask: np.ndarray | None = None
    random_k: int | None = None
    train_fraction: float = 0.8
    replications: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("mu0", "mu_x", "sigma0", "sigma2_x"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite; got {getattr(self, name)}")
        for name in ("sigma0", "sigma2_x"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative; got {getattr(self, name)}")
        if self.mu0 == 0.0 and self.sigma0 == 0.0:
            raise ValueError("mu0 and sigma0 cannot both be 0: every coefficient would be 0")
        # the study's prior inclusion fraction needs at least one inactive slope
        if self.z_mask is not None:
            mask = np.asarray(self.z_mask, dtype=float)
            if mask.shape[0] != self.p or mask[0] != 1.0:
                raise ValueError("z_mask must have length p with entry 0 equal to 1")
            if not np.all((mask == 0.0) | (mask == 1.0)) or not np.any(mask[1:] == 0.0):
                raise ValueError("z_mask entries must be 0 or 1, with at least one slope at 0")
            object.__setattr__(self, "z_mask", mask)
        elif self.random_k is None:
            raise ValueError("either z_mask or random_k is required")
        elif not 1 <= self.random_k <= self.p - 1:
            raise ValueError(f"random_k must lie in 1..p-1 = 1..{self.p - 1}; got {self.random_k}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.n < 2:
            raise ValueError(f"n must be at least 2 for a train/test split; got n = {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1; got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative; got {self.seed}")


LOW_DIM = ScenarioConfig(
    n=100,
    p=10,
    mu0=0.7,
    sigma0=0.5,
    mu_x=0.1,
    sigma2_x=1.0,
    z_mask=np.array([1.0, 0, 1, 0, 0, 0, 1, 0, 1, 0]),
)

HIGH_DIM = ScenarioConfig(
    n=30,
    p=200,
    mu0=0.1,
    sigma0=0.6,
    mu_x=0.1,
    sigma2_x=0.05,
    random_k=60,
)


def _draw_mask(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    if config.z_mask is not None:
        return config.z_mask.copy()
    mask = np.zeros(config.p)
    mask[0] = 1.0
    extra = rng.choice(np.arange(1, config.p), size=config.random_k - 1, replace=False)
    mask[extra] = 1.0
    return mask


def _draw_design(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Intercept plus AR(1)-correlated Gaussian covariates (lag weight 0.3)."""
    n, k = config.n, config.p - 1
    x = np.ones((n, config.p))
    sd = np.sqrt(config.sigma2_x)
    eps = rng.standard_normal((n, k))
    cols = np.empty((n, k))
    cols[:, 0] = sd * eps[:, 0]
    innov_sd = np.sqrt(1.0 - _AR_RHO**2)
    for j in range(1, k):
        cols[:, j] = _AR_RHO * cols[:, j - 1] + sd * innov_sd * eps[:, j]
    x[:, 1:] = config.mu_x + cols
    return x


def generate(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[Dataset, Dataset, np.ndarray]:
    """One replication's train/test datasets plus the generating coefficients."""
    for _ in range(_REGEN_CAP):
        mask = _draw_mask(config, rng)
        beta = rng.normal(config.mu0, config.sigma0, size=config.p) * mask
        x = _draw_design(config, rng)
        rates = np.exp(np.clip(x @ beta, None, XI_OVERFLOW))
        if np.max(rates) > _RATE_CAP:
            continue
        y = rng.poisson(rates).astype(float)
        n_train = int(round(config.train_fraction * config.n))
        n_train = min(max(n_train, 1), config.n - 1)
        perm = rng.permutation(config.n)
        tr, te = perm[:n_train], perm[n_train:]
        return Dataset(x[tr], y[tr]), Dataset(x[te], y[te]), beta
    raise GenerationError("scenario kept producing degenerate Poisson rates")


def metric_cre(beta_hats: list, beta_trues: list) -> float:
    """Pooled squared coefficient error relative to pooled squared truth."""
    num = sum(float(np.sum((np.asarray(h) - np.asarray(t)) ** 2)) for h, t in zip(beta_hats, beta_trues))
    den = sum(float(np.sum(np.asarray(t) ** 2)) for t in beta_trues)
    if den == 0.0:
        raise ZeroDivisionError("all true coefficient vectors are zero")
    return num / den


def metric_relative_error(preds: list, actuals: list) -> float:
    """Pooled squared prediction error relative to pooled variance about the mean."""
    num = 0.0
    den = 0.0
    for yhat, y in zip(preds, actuals):
        yhat, y = np.asarray(yhat, dtype=float), np.asarray(y, dtype=float)
        num += float(np.sum((yhat - y) ** 2))
        den += float(np.sum((y - y.mean()) ** 2))
    if den == 0.0:
        raise ZeroDivisionError("actuals have zero variance in every replication")
    return num / den


def metric_selection(beta_hat: np.ndarray, beta_true: np.ndarray) -> tuple[float, float]:
    """(FNR, FPR) over the slope coordinates; nan when a class is empty."""
    est = np.asarray(beta_hat)[1:] != 0.0
    tru = np.asarray(beta_true)[1:] != 0.0
    n_pos = int(tru.sum())
    n_neg = int((~tru).sum())
    fnr = float(np.sum(tru & ~est)) / n_pos if n_pos else float("nan")
    fpr = float(np.sum(~tru & est)) / n_neg if n_neg else float("nan")
    return fnr, fpr


@dataclass
class MetricsReport:
    """Aggregate study metrics for one method."""

    cre: float = float("nan")
    trre: float = float("nan")
    tsre: float = float("nan")
    fnr: float = float("nan")
    fpr: float = float("nan")
    coverage: np.ndarray = field(default_factory=lambda: np.array([]))
    wall_time_s: float = 0.0
    failures: int = 0


@dataclass
class StudyResult:
    reports: dict
    raw: list


FITTERS = {
    Method.LAPLACE: fit_laplace,
    Method.CS: fit_cs,
    Method.BERNOULLI: fit_bernoulli,
}


def run_study(
    config: ScenarioConfig, methods: tuple = (Method.LAPLACE, Method.CS, Method.BERNOULLI)
) -> StudyResult:
    """Seeded replication loop; every replication is independently reseeded."""
    reports = {m: MetricsReport(coverage=np.full(config.p, np.nan)) for m in methods}
    # one (beta_hat, beta_true, train predictions, train counts, test
    # predictions, test counts, covered, fnr, fpr) record per completed fit
    records = {m: [] for m in methods}
    raw = []
    for t in range(config.replications):
        rng = np.random.default_rng([config.seed, t])
        train, test, beta_true = generate(config, rng)
        p0 = float(np.count_nonzero(beta_true)) / config.p
        hp = Hyperparameters(rho2=rho2_for_inclusion(p0))
        for m in methods:
            t0 = time.perf_counter()
            try:
                fit = FITTERS[m](train, hp)
                sparse = sparsify(fit, train)
                yhat_tr = predictive_modes(train.design, fit, sparse)
                yhat_ts = predictive_modes(test.design, fit, sparse)
                lo_hi = hpd_coefficients(fit.interval_posterior or fit.posterior, 0.95)
                covered = (lo_hi[:, 0] <= beta_true) & (beta_true <= lo_hi[:, 1])
            except VbPoissonError as exc:
                reports[m].failures += 1
                raw.append(
                    {"rep": t, "method": m.value, "failed": True, "error": str(exc)}
                )
                continue
            finally:
                reports[m].wall_time_s += time.perf_counter() - t0
            fnr, fpr = metric_selection(sparse.beta_hat, beta_true)
            records[m].append(
                (sparse.beta_hat, beta_true, yhat_tr, train.response, yhat_ts, test.response,
                 covered.astype(float), fnr, fpr)
            )
            raw.append(
                {
                    "rep": t,
                    "method": m.value,
                    "failed": False,
                    "cre": metric_cre([sparse.beta_hat], [beta_true]),
                    "trre": _safe_re([yhat_tr], [train.response]),
                    "tsre": _safe_re([yhat_ts], [test.response]),
                    "fnr": fnr,
                    "fpr": fpr,
                    "df": sparse.df,
                    "converged": fit.converged,
                    "iterations": fit.iterations,
                }
            )
    for m in methods:
        if not records[m]:
            continue
        bh, bt, tr_p, tr_a, ts_p, ts_a, cov, fnrs, fprs = zip(*records[m])
        rep = reports[m]
        rep.cre = metric_cre(bh, bt)
        rep.trre = _safe_re(tr_p, tr_a)
        rep.tsre = _safe_re(ts_p, ts_a)
        rep.fnr = _nanmean(fnrs)
        rep.fpr = _nanmean(fprs)
        rep.coverage = np.mean(np.array(cov), axis=0)
    return StudyResult(reports={m.value: reports[m] for m in methods}, raw=raw)


def _nanmean(values) -> float:
    kept = [v for v in values if not np.isnan(v)]
    return float(np.mean(kept)) if kept else float("nan")


def _safe_re(preds, actuals) -> float:
    try:
        return metric_relative_error(preds, actuals)
    except ZeroDivisionError:
        return float("nan")
