"""Benchmark for vbpoisson: four workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src as is:

    python3 perfbench/run.py --workload low_study --seed 1 --seconds 20 --trace 0

Workloads: low_study, high_study, cli_fit_predict, sampler, or all of them
in one process with `--workload all`. One caller drives each workload in a
closed loop for `--seconds`; inputs are made from `--seed` only.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs every unit
twice in a row, plain and then with spans around every call into the
package's public functions, and reports per-layer metrics plus the tracing
overhead (median over units of traced minus plain wall time). On `high_study` it also runs unit 0
in a child process with every BLAS thread variable set to 1, as an ungated
single-thread reference. The benchmark never sets BLAS threads for the
measured runs; it records the setting it found.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Each run's
result, with the environment block, and the last traced run's spans per
workload are written under ./.perfbench/; `perfbench/baseline.py` summarises
the results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

PACKAGE = "vbpoisson"
WORKLOAD_NAMES = ("low_study", "high_study", "cli_fit_predict", "sampler")
SETUP_REPEATS = 3
OUT_DIR = ".perfbench"

E2E_UNITS = {"setup_s": "s", "wall_s": "s"}

# figures a workload derives from all its units; reported per layer because
# each applies to some workloads only (0 where it does not apply), or, as
# peak RSS, is set by the heaviest replication the seed drew
FIGURE_UNITS = {
    "peak_rss_mb": "MB",
    "replications_per_s": "1/s",
    "predict_rows_per_s": "rows/s",
    "chain_iters_per_s": "it/s",
    "failure_rate": "ratio",
    "tsre_median_worst": "ratio",
    "coverage_error_worst": "ratio",
    "fnr_median_worst": "ratio",
    "sampler_accuracy_min": "%",
}
# times that apply to one workload only: printed and kept in the result file,
# but not in the final JSON, where they would read a constant 0 elsewhere
INFO_UNITS = {"fit_cmd_s": "s"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    f"import {PACKAGE}; print(time.perf_counter() - t)"
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference-unit", type=int, help=argparse.SUPPRESS)
    return p


def _import_seconds(root: str) -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_unit(workload, index, tracer=None):
    t0 = time.perf_counter()
    unit = workload.run_unit(index, tracer)
    unit.seconds = time.perf_counter() - t0
    return unit


def closed_loop(workload, seconds):
    """Run units back to back until `seconds` have passed; at least one unit."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(_timed_unit(workload, len(units)))
    return units


def _traced_unit(workload, index, tracer):
    tracer.install()
    try:
        return _timed_unit(workload, index, tracer)
    finally:
        tracer.uninstall()


def traced_loop(workload, seconds, tracer):
    """Run each unit twice, plain and with hooks installed, until `seconds` pass.

    Pairing the two runs of a unit keeps slow and fast phases of the machine
    out of the tracing overhead; alternating which goes first cancels any
    advantage the second run of the same inputs has.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        index = len(plain)
        if index % 2:
            traced.append(_traced_unit(workload, index, tracer))
            plain.append(_timed_unit(workload, index))
        else:
            plain.append(_timed_unit(workload, index))
            traced.append(_traced_unit(workload, index, tracer))
    return plain, traced


def _blas1_reference(seed: int, root: str):
    """Wall time of `high_study` unit 0 with BLAS pinned to one thread."""
    import envinfo

    env = dict(os.environ, **{v: "1" for v in envinfo.BLAS_THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", "high_study",
           "--seed", str(seed), "--seconds", "1", "--reference-unit", "0"]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=100)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.splitlines()[-1])["wall_s"]


def _json_value(value) -> float:
    """A figure that does not apply to the workload, or an absent target, reads 0."""
    if value is None or math.isnan(value):
        return 0.0
    return float(value)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _measure(wl, args, root):
    """Set up, warm up and run the closed loop; a traced run times each unit twice."""
    import tracing

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        generate_s = time.perf_counter() - t0
        setups.append(_import_seconds(root) + generate_s)
    wl.warmup()
    if not args.trace:
        return setups, closed_loop(wl, args.seconds), [], None
    tracer = tracing.Tracer()
    plain, traced = traced_loop(wl, args.seconds, tracer)
    return setups, plain, traced, tracer


def run_workload(name: str, args, root: str, out_dir: str):
    """Run one workload and print its report; returns (attempted, failed, metrics)."""
    import benchstats
    import envinfo
    import tracing
    import workloads

    nproc = len(os.sched_getaffinity(0))
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](workdir, args.seed, nproc)
    try:
        if args.reference_unit is not None:
            wl.setup()
            wl.warmup()
            unit = _timed_unit(wl, args.reference_unit)
            print(json.dumps({"wall_s": unit.seconds}))
            return None
        setups, plain, traced, tracer = _measure(wl, args, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_checks, figures = wl.summarize(plain)
    checks = [c for u in plain + traced for c in u.checks] + run_checks
    attempted, failed, rate = benchstats.failure_rate(checks)
    wall_s = benchstats.median([u.seconds for u in plain])
    figures["failure_rate"] = rate
    figures["peak_rss_mb"] = _peak_rss_mb()
    env = envinfo.environment(root)

    print(f"workload {name}: seed {args.seed}; closed loop, 1 caller; {len(plain)} units "
          f"in {sum(u.seconds for u in plain):.1f} s; one unit is one {wl.item}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        if name == "high_study":
            figures["blas1.wall_s"] = _blas1_reference(args.seed, root)
            print(f"  BLAS=1 reference, unit 0: {_fmt(figures['blas1.wall_s'])} s against "
                  f"{plain[0].seconds:.6g} s with the threads found (not gated)")
        metrics = tracer.metrics(sum(u.seconds for u in traced))
        row_ms = tracer.predict_row_ms()
        if row_ms is not None:
            print("  predict.predictive_distribution per row: p50 %.4g ms, p%g %.4g ms "
                  "over %d rows" % (row_ms[0], row_ms[2], row_ms[1], row_ms[3]))
            figures["predict_row_ms"] = row_ms[:3]
        metrics["trace.overhead_s"] = benchstats.median(
            [t.seconds - p.seconds for p, t in zip(plain, traced)])
        metrics.update({k: figures.get(k) for k in FIGURE_UNITS})
        units_of = {**tracing.layer_metric_units(), **FIGURE_UNITS}
        # one file per workload, replaced by the next traced run, to bound disk use
        tracer.write_spans(os.path.join(out_dir, f"spans-{name}.jsonl"))
    else:
        metrics = {
            "setup_s": benchstats.median(setups),
            "wall_s": wall_s,
        }
        units_of = E2E_UNITS
        for key, unit in FIGURE_UNITS.items():
            print(f"  {key} = {_fmt(figures.get(key))} {unit}")
    for key, unit in INFO_UNITS.items():
        if figures.get(key) is not None:
            print(f"  {key} = {_fmt(figures[key])} {unit} (not in the JSON result)")
    absent = tracer.absent if tracer else []
    for key, value in metrics.items():
        if any(key.startswith(t + ".") for t in absent):
            print(f"  {key} = absent")
        else:
            print(f"  {key} = {_fmt(value)} {units_of[key]}")
    print(f"  checks: {attempted} attempted, {failed} failed")
    for check, ok in checks:
        if not ok:
            print(f"  FAILED {check}")
    result = {k: {"value": _json_value(v), "unit": units_of[k]} for k, v in metrics.items()}
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "units": len(plain), "env": env,
              "attempted": attempted, "failed": failed, "setup_runs_s": setups,
              "failed_checks": [c for c, ok in checks if not ok], "metrics": result,
              "info": {k: figures[k] for k in ("fit_cmd_s", "blas1.wall_s", "predict_row_ms")
                       if k in figures},
              "unit_detail": [{"seconds": u.seconds, **u.info}
                              for u in plain]}
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    path = os.path.join(out_dir, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return attempted, failed, result


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import vbpoisson

    if not os.path.abspath(vbpoisson.__file__).startswith(src + os.sep):
        print(f"error: {PACKAGE} was imported from {vbpoisson.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    metrics = {}
    for name in names:
        outcome = run_workload(name, args, root, out_dir)
        if outcome is None:
            return 0
        attempted, failed, result = outcome
        total_attempted += attempted
        total_failed += failed
        if args.workload == "all":
            result = {f"{name}.{k}": v for k, v in result.items()}
        metrics.update(result)
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
