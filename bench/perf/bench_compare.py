#!/usr/bin/env python3
"""Compares two sets of ssdtrain_perf results: a parent commit and a change.

    python3 bench/perf/bench_compare.py PARENT_DIR CHANGE_DIR
    python3 bench/perf/bench_compare.py --summarize DIR > results/BENCH_<n>.json

A results directory holds one file per run, named <workload>.<tag>.json and
holding the JSON line ssdtrain_perf prints (run.py --json writes it). Runs
pair up by file name, so give a parent run and its change run the same name
(same workload, seed and run index), and alternate which side runs first.

For each (metric, workload) it prints both sides' median and quartiles, the
change's win fraction over the pairs (ties count for neither side) and a
verdict, by the rules of the choosing-metrics method:

  gain        at least 10 pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's quartile
              spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (metrics without a bound:
              the parent wins as a gain would);
  unresolved  the run-to-run spread is wider than the bound, unless every
              change run reads better than every parent run (metrics
              without a bound: anything not a gain or a regression);
  unchanged   otherwise.

Deterministic counters (units count, hash, bytes, sim-ratio) must repeat
exactly: any pair whose values differ is flagged as "differs".
"""

import argparse
import glob
import json
import os
import statistics
import sys

DETERMINISTIC_UNITS = {"count", "hash", "bytes", "sim-ratio"}
MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_FRACTION = 0.9
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))), "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for paired runs of one timed metric.

    parent, change: equal-length lists, pair i being parent[i], change[i].
    better: "lower" or "higher". bound: allowed worsening as a share of the
    parent median, or None for a metric without one.
    Returns (verdict, win_fraction).
    """
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    win_fraction = wins / pairs if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    improvement = sign * (c_med - p_med)
    parent_spread = p_q3 - p_q1

    if (pairs >= MIN_PAIRS_FOR_GAIN and win_fraction >= GAIN_WIN_FRACTION
            and improvement > parent_spread):
        return "gain", win_fraction
    if bound is None:
        if (pairs >= MIN_PAIRS_FOR_GAIN and
                losses / pairs >= GAIN_WIN_FRACTION and
                -improvement > parent_spread):
            return "regression", win_fraction
        return "unresolved", win_fraction
    if -improvement > bound * abs(p_med):
        return "regression", win_fraction
    relative_spread = max(parent_spread / abs(p_med) if p_med else 0.0,
                          (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    every_change_better = (
        min(sign * c for c in change) > max(sign * p for p in parent))
    if relative_spread > bound and not every_change_better:
        return "unresolved", win_fraction
    return "unchanged", win_fraction


def counter_verdict(parent, change):
    """Deterministic counters: identical in every pair, or flagged."""
    return "identical" if parent == change else "differs"


def load_runs(directory):
    """{file name: result object} for every <workload>.<tag>.json."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs[os.path.basename(path)] = json.load(f)
    return runs


def workload_of(name):
    return name.split(".", 1)[0]


def load_metric_specs(path):
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for metric in spec["end_to_end"]:
        out[metric["name"]] = (metric["better"], metric["bound"])
    for metric in spec["per_layer"]:
        out[metric["name"]] = (metric["better"], None)
    return out


def compare(parent_runs, change_runs, specs, out=sys.stdout):
    """Prints the comparison; returns the number of flagged rows."""
    names = sorted(set(parent_runs) & set(change_runs))
    unpaired = sorted(set(parent_runs) ^ set(change_runs))
    if unpaired:
        print("unpaired runs ignored: " + " ".join(unpaired), file=out)
    flagged = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for name in names:
            if not runs[name]["correct"] or runs[name]["failed"]:
                print("%s run %s failed %d of %d checked operations" %
                      (side, name, runs[name]["failed"],
                       runs[name]["attempted"]), file=out)
                flagged += 1

    rows = {}
    for name in names:
        p_metrics = parent_runs[name]["metrics"]
        c_metrics = change_runs[name]["metrics"]
        for metric in sorted(set(p_metrics) & set(c_metrics)):
            key = (workload_of(name), metric)
            row = rows.setdefault(key, {"unit": p_metrics[metric]["unit"],
                                        "parent": [], "change": []})
            row["parent"].append(p_metrics[metric]["value"])
            row["change"].append(c_metrics[metric]["value"])

    header = "%-14s %-34s %-9s %5s %28s %28s %8s %6s  %s" % (
        "workload", "metric", "unit", "pairs", "parent med [q1, q3]",
        "change med [q1, q3]", "ratio", "wins", "verdict")
    print(header, file=out)
    print("(deterministic counters show [min, max]: their seeds differ)",
          file=out)
    short = False
    for (workload, metric), row in sorted(rows.items()):
        parent, change = row["parent"], row["change"]
        better, bound = specs.get(metric, ("lower", None))
        if row["unit"] in DETERMINISTIC_UNITS:
            result, wins = counter_verdict(parent, change), None
            p_q1, p_med, p_q3 = min(parent), statistics.median(parent), \
                max(parent)
            c_q1, c_med, c_q3 = min(change), statistics.median(change), \
                max(change)
        else:
            result, wins = verdict(parent, change, better, bound)
            short = short or len(parent) < MIN_PAIRS_FOR_GAIN
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
        if result in ("regression", "differs"):
            flagged += 1
        print("%-14s %-34s %-9s %5d %28s %28s %8s %6s  %s" % (
            workload, metric, row["unit"], len(parent),
            "%.4g [%.4g, %.4g]" % (p_med, p_q1, p_q3),
            "%.4g [%.4g, %.4g]" % (c_med, c_q1, c_q3),
            "%.4f" % (c_med / p_med) if p_med else "-",
            "-" if wins is None else "%.2f" % wins, result), file=out)
    if short:
        print("note: rows with fewer than %d pairs can never show a gain" %
              MIN_PAIRS_FOR_GAIN, file=out)
    return flagged


def summarize(runs, label):
    """Median and quartiles of every (workload, metric) in one result set."""
    values = {}
    for name, result in runs.items():
        for metric, entry in result["metrics"].items():
            slot = values.setdefault(workload_of(name), {}).setdefault(
                metric, {"unit": entry["unit"], "values": []})
            slot["values"].append(entry["value"])
    workloads = {}
    for workload, metrics in sorted(values.items()):
        workloads[workload] = {}
        for metric, slot in sorted(metrics.items()):
            q1, med, q3 = quartiles(slot["values"])
            workloads[workload][metric] = {
                "unit": slot["unit"], "runs": len(slot["values"]),
                "median": med, "q1": q1, "q3": q3}
    failed = sum(r["failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    return {"label": label, "runs": len(runs), "attempted": attempted,
            "failed": failed, "workloads": workloads}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--summarize", action="store_true",
                        help="print one directory's medians as JSON")
    parser.add_argument("--label", default="",
                        help="free text stored in the summary")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the bounds and directions")
    args = parser.parse_args()
    if args.summarize:
        if len(args.dirs) != 1:
            parser.error("--summarize takes one directory")
        json.dump(summarize(load_runs(args.dirs[0]), args.label), sys.stdout,
                  indent=1, sort_keys=True)
        print()
        return 0
    if len(args.dirs) != 2:
        parser.error("give a parent and a change directory")
    parent, change = (load_runs(d) for d in args.dirs)
    return 1 if compare(parent, change, load_metric_specs(args.benchmark)) \
        else 0


if __name__ == "__main__":
    sys.exit(main())
