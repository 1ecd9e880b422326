"""Checks of the benchmark's own arithmetic and of its declared metrics."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import benchstats  # noqa: E402
import tracing  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 5.0, 9.0),
        (3, 2, "a", 6.0, 7.0),
    ]
    own = benchstats.self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert benchstats.self_time_by_name(spans) == {"root": 3.0, "a": 4.0, "b": 3.0}
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10.0)


def test_calls_under_follows_the_whole_ancestor_chain():
    spans = [
        (0, None, "fit", 0.0, 5.0),
        (1, 0, "update", 0.0, 2.0),
        (2, 1, "gig", 0.0, 1.0),
        (3, None, "gig", 6.0, 7.0),
    ]
    assert benchstats.calls_under(spans, "gig", "fit") == 1
    assert benchstats.calls_under(spans, "gig", "update") == 1
    assert benchstats.calls_under(spans, "update", "gig") == 0


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert benchstats.tail_percentile(n) == expected


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert benchstats.percentile(values, 50.0) == 3.0
    assert benchstats.percentile(values, 90.0) == pytest.approx(4.6)
    assert benchstats.percentile(values, 100.0) == 5.0


def test_failure_rate_counts_every_outcome_in_its_base():
    checks = [("fit.laplace", True), ("fit.cs", False), ("coverage_band.cs", True),
              ("fit.cs", False)]
    assert benchstats.failure_rate(checks) == (4, 2, 0.5)
    with pytest.raises(ValueError):
        benchstats.failure_rate([])


def test_sign_test_fails_a_band_only_on_strong_evidence():
    inside = [0.05] * 18 + [0.3] * 12
    assert not benchstats.median_beyond(inside, 0.15, above=True)
    above = [0.3] * 28 + [0.05] * 2
    assert benchstats.median_beyond(above, 0.15, above=True)
    below = [0.001] * 30
    assert benchstats.median_beyond(below, 0.02, above=False)
    assert not benchstats.median_beyond(below, 0.02, above=True)


def test_quartile_spread_is_relative_to_the_median():
    assert benchstats.quartile_spread([10.0] * 5) == 0.0
    assert benchstats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_benchmark_json_declares_what_the_benchmark_reports():
    run = _load_run()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = {**tracing.layer_metric_units(), **run.FIGURE_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_hooks_patch_importing_modules_and_report_missing_targets(monkeypatch):
    pytest.importorskip("vbpoisson")
    import numpy as np

    from vbpoisson import core, laplace, likelihood

    original = likelihood.refresh
    monkeypatch.setattr(tracing, "TARGETS", ("likelihood.refresh", "linalg.no_such_fn"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert laplace.refresh is likelihood.refresh is not original
        ds = core.Dataset(np.ones((3, 1)), np.array([1.0, 2.0, 0.0]))
        laplace.refresh(np.zeros(3), ds)
        with pytest.raises(ValueError):
            likelihood.refresh(np.zeros(2), ds)
    finally:
        tracer.uninstall()
    assert laplace.refresh is original and likelihood.refresh is original
    assert tracer.absent == ["linalg.no_such_fn"]
    assert [s[2] for s in tracer.spans] == ["likelihood.refresh"] * 2
    assert tracer.errors["likelihood.refresh"] == 1
