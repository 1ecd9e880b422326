"""Summarise untraced results under ./.perfbench/results as a baseline.

    python3 perfbench/baseline.py > perfbench/baseline.json

For each workload and end-to-end metric: the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, their distance as a share
of the median, and the seeds the runs used. The environment block of the
first run of each workload is kept.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import benchstats


def summarize(results_dir: str) -> dict:
    runs = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        runs.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(runs.items()):
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            entry = {"unit": records[0]["metrics"][name]["unit"],
                     "median": statistics.median(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=benchstats.quartile_spread(values))
            metrics[name] = entry
        out[workload] = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "seconds": records[0]["seconds"],
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "metrics": metrics,
            "env": records[0]["env"],
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(os.path.join(os.getcwd(), ".perfbench", "results")), sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
