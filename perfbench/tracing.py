"""Spans around calls into vbpoisson's public functions, hooked from outside.

Every target `<module>.<fn>` is wrapped wherever a loaded vbpoisson module
holds that function, as a module attribute or as a value of a module-level
dict, so calls through `from .x import fn` and through dispatch tables are
seen too. The package is not edited. A target that no longer exists (a later
refactor may remove it) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import benchstats

PACKAGE = "vbpoisson"

TARGETS = (
    "linalg.pd_inverse",
    "likelihood.refresh",
    "likelihood.approx_loglik",
    "special_math.gig_moments",
    "special_math.integrate_1d",
    "laplace.fit_laplace",
    "laplace.update_beta_laplace",
    "laplace.update_hypers_laplace",
    "laplace.elbo_laplace",
    "spike_slab.fit_cs",
    "spike_slab.init_cs",
    "spike_slab.update_beta_cs",
    "spike_slab.update_tau2_cs",
    "spike_slab.update_z_cs",
    "spike_slab.elbo_cs",
    "bernoulli.fit_bernoulli",
    "bernoulli.update_beta_bernoulli",
    "bernoulli.update_alpha_bernoulli",
    "bernoulli.update_gamma_bernoulli",
    "bernoulli.elbo_bernoulli",
    "sparsify.threshold_hard",
    "sparsify.threshold_bernoulli",
    "sparsify.poisson_loglik",
    "predict.predictive_distribution",
    "harness.generate",
    "harness.run_study",
    "mcmc.sample",
    "mcmc.accuracy",
    "io.load_csv",
    "io.save_bundle",
    "io.load_bundle",
    "io.write_raw_table",
    "cli.cli",
    "core.validate",
)

FITS = ("laplace.fit_laplace", "spike_slab.fit_cs", "bernoulli.fit_bernoulli")
PREDICT = "predict.predictive_distribution"


def layer_metric_units() -> dict:
    """Every per-layer metric the trace reports, with its unit.

    Self time is given as a share of the traced units' wall time, and the
    predictive rows as a rate, so that a layer a workload never calls reads
    0 without that 0 being a time.
    """
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_pct"] = "%"
        units[f"{target}.errors"] = "count"
    units["special_math.gig_moments.calls_per_fit"] = "count"
    units["spike_slab.init_cs.calls_per_fit"] = "count"
    for fit in FITS:
        units[f"{fit}.iterations_per_fit"] = "count"
        units[f"{fit}.converged_ratio"] = "ratio"
    units[f"{PREDICT}.rows_per_s"] = "rows/s"
    units[f"{PREDICT}.support_per_row_p50"] = "count"
    units["mcmc.acceptance_rate"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.absent"] = "count"
    return units


class Tracer:
    """Records one span per hooked call; spans stay in memory until written."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start, end, group)
        self.errors = defaultdict(int)
        self.observed = defaultdict(list)
        self.absent = []
        self.group = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def install(self):
        self.absent = []
        for target in TARGETS:
            mod_name, fn_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for holder in list(sys.modules.values()):
                name = getattr(holder, "__name__", "")
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((vars(holder), attr, original))
                    elif isinstance(value, dict):
                        # dispatch tables such as a method -> fit function map
                        for key, entry in list(value.items()):
                            if entry is original:
                                value[key] = wrapper
                                self._patched.append((value, key, original))

    def uninstall(self):
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def _wrap(self, target, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[target] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, target, start, end, tracer.group))
            tracer._observe(target, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, target, result, seconds):
        if target in FITS:
            self.observed[target].append((result.iterations, result.converged))
        elif target == PREDICT:
            self.observed[target].append((seconds * 1e3, result.pmf.shape[0]))
        elif target == "mcmc.sample":
            self.observed[target].append(result.acceptance_rate)
        elif target == "cli.cli" and result != 0:
            self.errors[target] += 1

    def metrics(self, traced_seconds: float) -> dict:
        """Per-layer values; absent targets and unused derived figures read 0."""
        spans = [s[:5] for s in self.spans]
        own = benchstats.self_time_by_name(spans)
        calls = defaultdict(int)
        for s in spans:
            calls[s[2]] += 1
        out = {name: 0.0 for name in layer_metric_units()}
        for target in TARGETS:
            out[f"{target}.calls"] = calls[target]
            out[f"{target}.self_pct"] = 100.0 * own.get(target, 0.0) / traced_seconds
            out[f"{target}.errors"] = self.errors[target]
        if calls["laplace.fit_laplace"]:
            out["special_math.gig_moments.calls_per_fit"] = benchstats.calls_under(
                spans, "special_math.gig_moments", "laplace.fit_laplace"
            ) / calls["laplace.fit_laplace"]
        if calls["spike_slab.fit_cs"]:
            out["spike_slab.init_cs.calls_per_fit"] = benchstats.calls_under(
                spans, "spike_slab.init_cs", "spike_slab.fit_cs"
            ) / calls["spike_slab.fit_cs"]
        for fit in FITS:
            seen = self.observed[fit]
            if seen:
                out[f"{fit}.iterations_per_fit"] = sum(i for i, _ in seen) / len(seen)
                out[f"{fit}.converged_ratio"] = sum(bool(c) for _, c in seen) / len(seen)
        rows = self.observed[PREDICT]
        if rows:
            out[f"{PREDICT}.rows_per_s"] = len(rows) / (sum(r[0] for r in rows) / 1e3)
            out[f"{PREDICT}.support_per_row_p50"] = benchstats.median([r[1] for r in rows])
        rates = self.observed["mcmc.sample"]
        if rates:
            out["mcmc.acceptance_rate"] = sum(rates) / len(rates)
        out["trace.absent"] = len(self.absent)
        return out

    def predict_row_ms(self):
        """(p50, tail, tail percentile, rows) of per-row predictive time, or None.

        The tail is the highest percentile with at least ten rows beyond it.
        """
        ms = [r[0] for r in self.observed[PREDICT]]
        q = benchstats.tail_percentile(len(ms))
        if q is None:
            return None
        return benchstats.median(ms), benchstats.percentile(ms, q), q, len(ms)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, group in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "group": group}))
                fh.write("\n")
