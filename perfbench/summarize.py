"""Median, quartiles and spread of each metric over a set of runs.

    python3 perfbench/summarize.py .perfbench-out/*-trace0.json

Reads the run records that run.py writes and prints, per workload and
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
"""

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths):
    values = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        for name, value in record["metrics"].items():
            values[record["workload"]][name].append(value)
    out = {}
    for workload, metrics in sorted(values.items()):
        rows = out[workload] = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            rows[name] = {
                "runs": len(vals),
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=2))
