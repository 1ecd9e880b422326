"""Arithmetic the benchmark reports: medians, tail percentiles, self time
from nested spans and the failure rate."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# percentiles tried for a tail figure, lowest first
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
SIGN_TEST_ALPHA = 1e-3


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    best = None
    for q in TAIL_LADDER:
        # rounded so that 10000 samples count 10 beyond the 99.9th percentile
        if round(n * (100.0 - q) / 100.0, 6) >= TAIL_MIN_BEYOND:
            best = q
    return best


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the time its children cover.

    Each span is (span_id, parent_id, name, start, end); parent_id is None
    for a root. Children of one parent never overlap, because the benchmark
    calls the program from one thread.
    """
    child_time = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _p, _n, start, end in spans}


def self_time_by_name(spans) -> dict:
    own = self_times(spans)
    out = defaultdict(float)
    for sid, _parent, name, _start, _end in spans:
        out[name] += own[sid]
    return dict(out)


def calls_under(spans, name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {s[0]: s for s in spans}
    count = 0
    for _sid, parent, span_name, _start, _end in spans:
        if span_name != name:
            continue
        while parent is not None:
            up = by_id[parent]
            if up[2] == ancestor:
                count += 1
                break
            parent = up[1]
    return count


def median_beyond(values, bound: float, above: bool, alpha: float = SIGN_TEST_ALPHA) -> bool:
    """One-sided sign test: True when the values put their median beyond `bound`.

    A run holds a few dozen replications, too few for a band on the sample
    median to hold for every seed, so the band is failed only when the count
    of values beyond the bound is improbable (below `alpha`) for a median
    inside it.
    """
    n = len(values)
    k = sum(1 for v in values if (v > bound if above else v < bound))
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2.0**n
    return tail < alpha


def failure_rate(checks) -> tuple[int, int, float]:
    """(attempted, failed, failed/attempted) over (name, ok) outcomes.

    The base is every outcome the workload recorded: one per operation it
    ran (a fit, a CLI command, a chain) and one per run-level output check.
    """
    attempted = len(checks)
    if attempted == 0:
        raise ValueError("no operation was attempted")
    failed = sum(1 for _name, ok in checks if not ok)
    return attempted, failed, failed / attempted
