#!/usr/bin/env python3
"""Compare two sets of ftla-bench results against the bounds in BENCHMARK.json.

    python3 ftlabench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the JSON files ftla-bench writes with --out, one per
run; runs with the same workload, mode and seed pair up across the sets.
For every end-to-end metric and workload the script prints each set's
median and quartiles over its runs and a verdict:

  regressed   the new median is worse than the base median by more than
              the metric's bound (exit status 1);
  improved    the new run wins at least 9 of every 10 seed pairs (ties
              count for neither) and the medians differ by more than the
              base set's interquartile range;
  unresolved  the base set's own spread exceeds the bound and not every
              new run beats every base run;
  same        otherwise.

Traced runs (--trace 1) are listed metric by metric without a verdict,
followed by the tracing overhead per decomposition: the traced
trace.verified_s.<d> median over the end-to-end <d>_s median of the same
set. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): {seed: result}} for every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], statistics.median(values), values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def worse(new, base, better):
    return new > base if better == "lower" else new < base


def verdict(base, new, pairs, bound, better):
    q1, med, q3 = quartiles(base)
    _, new_med, _ = quartiles(new)
    if worse(new_med, med, better) and abs(new_med - med) > bound * med:
        return "regressed"
    wins = sum(1 for b, n in pairs if n != b and not worse(n, b, better))
    if pairs and wins * 10 >= 9 * len(pairs) and abs(new_med - med) > q3 - q1:
        return "improved"
    separated = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if (q3 - q1) > bound * med and not separated:
        return "unresolved"
    return "same"


def values(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()
            if metric in r["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    a = ap.parse_args()
    with open(a.benchmark) as f:
        spec = json.load(f)
    base, new = load(a.base), load(a.new)
    regressions = 0

    row = "%-14s %-26s %-8s %5s %12s %12s %12s   %5s %12s %12s %12s  %s"
    print(row % ("workload", "metric", "unit", "n", "base q1", "median", "q3",
                 "n", "new q1", "median", "q3", "verdict"))
    for w in spec["workloads"]:
        b_runs, n_runs = base.get((w["name"], 0), {}), new.get((w["name"], 0), {})
        for m in spec["end_to_end"]:
            bv, nv = values(b_runs, m["name"]), values(n_runs, m["name"])
            if not bv or not nv:
                continue
            pairs = [(bv[s], nv[s]) for s in bv if s in nv]
            v = verdict(list(bv.values()), list(nv.values()), pairs, m["bound"], m["better"])
            regressions += v == "regressed"
            bq, nq = quartiles(list(bv.values())), quartiles(list(nv.values()))
            print(row % (w["name"], m["name"], m["unit"], len(bv), *["%.6g" % x for x in bq],
                         len(nv), *["%.6g" % x for x in nq], v))

    for w in spec["workloads"]:
        b_runs, n_runs = base.get((w["name"], 1), {}), new.get((w["name"], 1), {})
        if not b_runs and not n_runs:
            continue
        print("\n%s traced (per layer)" % w["name"])
        for m in spec["per_layer"]:
            cells = []
            for runs in (b_runs, n_runs):
                v = list(values(runs, m["name"]).values())
                cells.append("%12s" % "-" if not v else
                             "%12.6g %12.6g %12.6g" % quartiles(v))
            print("  %-40s %-8s %s | %s" % (m["name"], m["unit"], cells[0], cells[1]))
        for label, sets in (("base", base), ("new", new)):
            traced, e2e = sets.get((w["name"], 1), {}), sets.get((w["name"], 0), {})
            parts = []
            for d in ("chol", "lu", "qr"):
                t = list(values(traced, "trace.verified_s." + d).values())
                e = list(values(e2e, d + "_s").values())
                if t and e:
                    parts.append("%s %+.1f%%" % (d, 100 * (statistics.median(t) /
                                                         statistics.median(e) - 1)))
            if parts:
                print("  tracing overhead (%s): %s" % (label, ", ".join(parts)))

    print("\n%d regression(s)" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
