#!/usr/bin/env python3
"""Collects sets of zoombench runs and compares two of them.

    # Run every workload once per seed; print each result, save the set.
    python3 zoombench/bench_diff.py collect --out parent.jsonl \
        [--seeds 1,2,...] [--workloads a,b] [--seconds N] [--trace 0|1]

    # Compare two sets run with identical benchmark code and settings.
    python3 zoombench/bench_diff.py diff parent.jsonl change.jsonl

A set is a JSON-lines file, one line per run:
{"workload": ..., "seed": ..., "result": <the run's result JSON>}.

For each workload x metric, `diff` prints each side's median and
quartiles, the median gap, how many seed-paired runs the change won, and
a verdict, by the rules in NOTES.md ("Comparing two commits"):

- improved:   the change wins >= 9/10 of the pairs (ties count for
              neither side) and its median beats the parent's by more
              than the parent's interquartile range;
- regressed:  the change's median is worse than the parent's by more
              than the metric's bound from BENCHMARK.json;
- unresolved: either side's interquartile range, as a share of its
              median, is wider than the bound, and neither every change
              run beats every parent run nor the reverse;
- unchanged:  everything else.

Metrics without a bound (the per-layer ones) get the improved/regressed
test by pair wins alone and are reported as counts, never as speed-ups.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            metrics[metric["name"]] = metric
    return spec, metrics


def collect(args):
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit("run failed: %s seed %d" % (workload, seed))
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                shown = "  ".join(
                    "%s=%.4f %s" % (k, v["value"], v["unit"])
                    for k, v in result["metrics"].items())
                print("%-14s seed %-4d correct=%s failed=%d/%d  %s" % (
                    workload, seed, result["correct"], result["failed"],
                    result["attempted"], shown), flush=True)


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            runs.setdefault(record["workload"], {})[record["seed"]] = \
                record["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound):
    """Returns (verdict, wins, losses) for one workload x metric."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)  # > 0: change is better
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    improved = (pairs and wins >= 0.9 * len(pairs) and gap > (p3 - p1))
    if bound is None:
        worse = (pairs and losses >= 0.9 * len(pairs) and -gap > (p3 - p1))
        return ("improved" if improved else "changed-worse" if worse
                else "unchanged"), wins, losses
    if pm and -gap > bound * abs(pm):
        return "regressed", wins, losses
    spread_p = (p3 - p1) / abs(pm) if pm else 0.0
    spread_c = (c3 - c1) / abs(cm) if cm else 0.0
    if (spread_p > bound or spread_c > bound) and not (all_better or all_worse):
        return "unresolved", wins, losses
    return ("improved" if improved else "unchanged"), wins, losses


def diff(args):
    _, specs = load_spec()
    parent, change = read_set(args.parent), read_set(args.change)
    print("%-14s %-28s %-30s %-30s %8s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "gap", "wins", "verdict"))
    worst = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        names = []
        for run in list(p_runs.values()) + list(c_runs.values()):
            for name in run["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            p_vals = [r["metrics"][name]["value"] for r in p_runs.values()
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values()
                      if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            pairs = [(p_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s]["metrics"]
                     and name in c_runs[s]["metrics"]]
            spec = specs.get(name, {})
            result, wins, _ = verdict(p_vals, c_vals, pairs,
                                      spec.get("better", "lower"),
                                      spec.get("bound"))
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            gap = (cm - pm) / pm * 100 if pm else 0.0
            print("%-14s %-28s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%+7.1f%% %3d/%-3d  %s" % (
                      workload, name, pm, p1, p3, cm, c1, c3, gap, wins,
                      len(pairs), result))
            if result == "regressed":
                worst = 1
    failed = [(w, s) for runs in (parent, change) for w in runs
              for s, r in runs[w].items() if not r["correct"] or r["failed"]]
    for workload, seed in failed:
        print("incorrect run: %s seed %s" % (workload, seed))
    sys.exit(1 if worst or failed else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run workloads over seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff", help="compare two sets of runs")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    collect(args) if args.command == "collect" else diff(args)


if __name__ == "__main__":
    main()
