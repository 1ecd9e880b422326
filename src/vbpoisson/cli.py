"""Command-line entry points: fit, predict, simulate, validate."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import io as _io
from .core import Dataset, FitResult, GaussianPosterior, Hyperparameters, Method, validate
from .errors import VbPoissonError
from .harness import FITTERS, HIGH_DIM, LOW_DIM, ScenarioConfig, run_study
from .predict import hpd_coefficients, predictive_distributions
from .sparsify import SparseCoefficients, sparsify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _level(text: str) -> float:
    """An HPD level strictly between 0 and 1."""
    level = float(text)
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return level


def _build_parser() -> _Parser:
    parser = _Parser(prog="vbpoisson", description="Variational Bayes for sparse Poisson regression")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit one model to a CSV dataset")
    p_fit.add_argument("--method", required=True, choices=sorted(m.value for m in Method))
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--response", required=True)
    p_fit.add_argument("--config")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--threads", type=int, default=1,
                       help="accepted for interface compatibility; execution is serial")
    p_fit.add_argument("--level", type=_level, default=0.95)
    p_fit.add_argument("--no-standardize", dest="standardize", action="store_false")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(run=_cmd_fit)

    p_pred = sub.add_parser("predict", help="predict counts from a saved fit")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--level", type=_level, default=0.95)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(run=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a seeded replication study")
    p_sim.add_argument("--scenario", required=True, choices=["low", "high", "custom"])
    p_sim.add_argument("--config")
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=int, default=1,
                       help="accepted for interface compatibility; execution is serial")
    p_sim.add_argument("--methods", default="laplace,cs,bernoulli")
    p_sim.add_argument("--summary-out")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(run=_cmd_simulate)

    p_val = sub.add_parser("validate", help="check a CSV dataset's invariants")
    p_val.add_argument("--data", required=True)
    p_val.add_argument("--response", required=True)
    p_val.set_defaults(run=_cmd_validate)
    return parser


def _standardize(dataset: Dataset, on: bool) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """The dataset with centred, scaled covariates, and the centres and scales: 0, 1 unless `on`."""
    x = dataset.design.copy()
    center, scale = np.zeros(dataset.p), np.ones(dataset.p)
    if on:
        center[1:] = x[:, 1:].mean(axis=0)
        sd = x[:, 1:].std(axis=0)
        scale[1:] = np.where(sd > 0.0, sd, 1.0)
    x[:, 1:] = (x[:, 1:] - center[1:]) / scale[1:]
    return Dataset(x, dataset.response), center, scale


def _destandardize(fit: FitResult, sparse: SparseCoefficients, center: np.ndarray,
                   scale: np.ndarray) -> tuple[FitResult, SparseCoefficients]:
    """Map a fit and its sparse record back to the original covariate scale. The
    intercept carries only the kept slopes' centring, so no zeroed slope's
    variance reaches it and the masked linear predictor stays the fitted one."""
    t = np.diag(1.0 / scale)
    t[0, 1:] = -sparse.p_binary[1:] * center[1:] / scale[1:]

    def _map(post: GaussianPosterior) -> GaussianPosterior:
        cov = t @ post.covariance @ t.T
        return GaussianPosterior(mean=t @ post.mean, covariance=0.5 * (cov + cov.T))

    interval = fit.interval_posterior and _map(fit.interval_posterior)
    return (replace(fit, posterior=_map(fit.posterior), interval_posterior=interval),
            replace(sparse, beta_hat=t @ sparse.beta_hat))


def _check_out(*paths) -> None:
    """Raise the OSError that writing each given path would, before any work runs."""
    for path in (p for p in paths if p is not None):
        try:  # the parent resolved as open resolves it: ENOENT if missing, ENOTDIR under a file
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
            code = errno.ENOENT if not path else errno.EISDIR if os.path.isdir(path) else 0
        except OSError as exc:
            code = exc.errno
        if code:
            raise OSError(code, os.strerror(code), path)


def _cmd_fit(args) -> int:
    _check_out(args.out)
    dataset, names = _io.load_csv(args.data, args.response)
    diags = validate(dataset)
    fatal = [d for d in diags if "zero-variance" not in d and "non-integer" not in d]
    if fatal:
        for d in fatal:
            print(f"invalid dataset: {d}", file=sys.stderr)
        return EXIT_NUMERICAL
    for d in diags:
        print(f"warning: {d}", file=sys.stderr)
    hp = Hyperparameters()
    if args.config:
        hp = _io.hyperparameters_from_config(_io.load_config(args.config))
    work, center, scale = _standardize(dataset, args.standardize)
    fit = FITTERS[Method(args.method)](work, hp)
    fit, sparse = _destandardize(fit, sparsify(fit, work), center, scale)
    hpd = hpd_coefficients(fit.interval_posterior or fit.posterior, args.level)
    bundle = _io.result_bundle(fit, sparse, hpd, hp, args.seed, names)
    _io.save_bundle(bundle, args.out)
    if fit.divergence is not None:
        print(f"warning: fit stopped early: {fit.divergence}", file=sys.stderr)
    print(f"fit written to {args.out} (converged={fit.converged}, iterations={fit.iterations})")
    return EXIT_OK


def _cmd_predict(args) -> int:
    _check_out(args.out)
    fit, sparse, bundle = _io.load_bundle(args.model)
    covs, names = _io.load_csv(args.data, response_column=None)
    expected = bundle["metadata"]["columns"]
    if names != expected:
        print(f"error: model expects columns {','.join(expected)}, data has {','.join(names)}",
              file=sys.stderr)
        return EXIT_USAGE
    bad = np.flatnonzero(~np.isfinite(covs).all(axis=1))
    if bad.size:
        print(f"error: non-finite covariate at data row {bad[0] + 1}", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = [{"mode": d.mode, "mean": d.mean, "tail_mass": d.tail_mass, "hpd_set": d.hpd_set}
            for d in predictive_distributions(covs, fit, sparse, level=args.level)]
    _io.save_bundle({"level": args.level, "predictions": rows}, args.out)
    print(f"predictions for {len(rows)} rows written to {args.out}")
    return EXIT_OK


_SCENARIO_KEYS = {
    "n": int, "p": int, "mu0": float, "sigma0": float, "mu_x": float, "sigma2_x": float,
    "random_k": int, "train_fraction": float,
    "z_mask": lambda value: np.array([float(v) for v in value.split(",")]),
}


def _scenario_from_args(args) -> ScenarioConfig:
    """The named scenario with the config's keys replaced, or, for `custom`,
    the config's keys alone."""
    if args.scenario == "custom" and not args.config:
        raise _io.ParseError("--scenario custom requires --config")
    fields = {}
    for key, value in (_io.load_config(args.config) if args.config else {}).items():
        if key not in _SCENARIO_KEYS:
            raise _io.ParseError(f"unknown scenario key {key!r}")
        try:
            fields[key] = _SCENARIO_KEYS[key](value)
        except ValueError:
            raise _io.ParseError(f"scenario key {key!r}: could not parse {value!r}") from None
    if "random_k" in fields and "z_mask" not in fields:
        # a random support size replaces the named scenario's fixed mask
        fields["z_mask"] = None
    fields.update(replications=args.replications, seed=args.seed)
    try:
        if args.scenario == "custom":
            return ScenarioConfig(**fields)
        return replace({"low": LOW_DIM, "high": HIGH_DIM}[args.scenario], **fields)
    except (TypeError, ValueError) as exc:
        raise _io.ParseError(f"invalid scenario config: {exc}") from None


def _cmd_simulate(args) -> int:
    _check_out(args.out, args.summary_out)
    config = _scenario_from_args(args)
    try:
        methods = tuple(Method(m.strip()) for m in args.methods.split(",") if m.strip())
    except ValueError as exc:
        raise _io.ParseError(f"--methods: {exc}") from None
    if not methods or len(set(methods)) < len(methods):
        raise _io.ParseError(
            f"--methods must list one or more methods, none twice; got {args.methods!r}"
        )
    result = run_study(config, methods=methods)
    _io.write_raw_table(result.raw, args.out)
    summary = {name: asdict(rep) for name, rep in result.reports.items()}
    for row in summary.values():
        del row["wall_time_s"]
    if args.summary_out:  # strict JSON: each NaN, also within coverage, is written as null
        _io.save_bundle({name: {k: np.where(np.isnan(v), None, v) for k, v in row.items()}
                         for name, row in summary.items()}, args.summary_out)
    for name, row in summary.items():
        print(
            f"{name}: cre={row['cre']:.4f} trre={row['trre']:.4f} "
            f"tsre={row['tsre']:.4f} fnr={row['fnr']:.4f} fpr={row['fpr']:.4f} "
            f"failures={row['failures']}"
        )
    print(f"raw table written to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    dataset, _names = _io.load_csv(args.data, args.response)
    diags = validate(dataset)
    if not diags:
        print("dataset is valid")
        return EXIT_OK
    for d in diags:
        print(f"diagnostic: {d}")
    return EXIT_NUMERICAL


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (_io.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _io.FormatVersionError) else EXIT_NUMERICAL
    except VbPoissonError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    raise SystemExit(cli())
