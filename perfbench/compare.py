#!/usr/bin/env python3
"""Compare two sets of perfbench run records, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the *.json run records perfbench/run.py writes (its
--out directory). One row per workload x metric: both sides' median and
quartiles, the change/parent ratio of medians (base: the parent median),
the share of seed-paired runs the change wins (ties count for neither),
and a verdict for end-to-end metrics, using the bounds in BENCHMARK.json:

  improved   the change wins >= 9/10 of the pairs and the medians differ,
             in its favour, by more than the parent's own quartile spread
  unresolved the parent's spread is wider than the bound, unless every
             change run beats every parent run
  regressed  the change's median is worse than the parent's by more than
             the bound
  no worse   otherwise
  invalid    the change's runs fail a larger share of their operations
             than the parent's, or one of them is not correct: no gain
             counts (every row of that workload)

End-to-end values come from untraced records (trace 0) and per-layer
values from traced ones (trace 1) only. Per-layer metrics have no bound;
their rows carry the numbers and the direction of the change only. Exits
1 when any row regressed or is invalid.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """({(workload, metric): {seed: [value]}}, {workload: outcome}) from
    every run record; an outcome sums attempted and failed operations and
    counts the runs that were not correct."""
    values, outcomes = {}, {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        rec = json.loads(path.read_text())
        # A traced record repeats end-to-end figures from a different
        # sample design; only untraced runs speak for them.
        kind = "per_layer" if rec["trace"] else "end_to_end"
        for metric, value in (rec.get(kind) or {}).items():
            values.setdefault((rec["workload"], metric), {}).setdefault(
                rec["seed"], []).append(value)
        o = outcomes.setdefault(rec["workload"], {"attempted": 0, "failed": 0,
                                                  "incorrect": 0})
        o["attempted"] += rec["attempted"]
        o["failed"] += rec["failed"]
        o["incorrect"] += not rec["correct"]
    return values, outcomes


def failed_share(outcome):
    return outcome["failed"] / outcome["attempted"] if outcome["attempted"] else 0.0


def invalid(parent, change):
    """True when a workload's change runs may not claim anything."""
    return change["incorrect"] > 0 or failed_share(change) > failed_share(parent)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def side(by_seed):
    return {"by_seed": by_seed,
            "all": [v for values in by_seed.values() for v in values]}


def cell(median, q1, q3):
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent, change, better, bound):
    """Apply the rules above to two lists of values."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent["all"])
    _, cm, _ = quartiles(change["all"])
    wins = pairs = 0
    for seed in sorted(set(parent["by_seed"]) & set(change["by_seed"])):
        for p, c in zip(parent["by_seed"][seed], change["by_seed"][seed]):
            pairs += 1
            wins += sign * (p - c) > 0  # a tie counts for neither side
    win_share = wins / pairs if pairs else float("nan")
    if bound is None:
        return win_share, "-"
    gain = sign * (pm - cm)  # > 0: change is better
    if pairs and win_share >= 0.9 and gain > (p3 - p1):
        return win_share, "improved"
    spread = (p3 - p1) / pm if pm else float("inf")
    all_better = all(sign * (p - c) > 0 for p in parent["all"]
                     for c in change["all"])
    if spread > bound and not all_better:
        return win_share, "unresolved"
    if -gain > bound * abs(pm):
        return win_share, "regressed"
    return win_share, "no worse"


def main(argv):
    ap = argparse.ArgumentParser(description="compare two perfbench result sets")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)

    bench = json.loads(Path(args.benchmark).read_text())
    spec = {m["name"]: (m["unit"], m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}
    parent, parent_outcomes = load(args.parent)
    change, change_outcomes = load(args.change)
    none = {"attempted": 0, "failed": 0, "incorrect": 0}
    bad = set()
    for workload in sorted(set(parent_outcomes) | set(change_outcomes)):
        p = parent_outcomes.get(workload, none)
        c = change_outcomes.get(workload, none)
        print(f"{workload}: failed/attempted parent {p['failed']}/"
              f"{p['attempted']} ({p['incorrect']} runs not correct), change "
              f"{c['failed']}/{c['attempted']} ({c['incorrect']} runs not "
              "correct)")
        if invalid(p, c):
            bad.add(workload)

    header = (f"{'workload':15s} {'metric':34s} {'unit':6s} "
              f"{'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
              f"{'ratio':>7s} {'wins':>5s}  verdict")
    print(header)
    failing = bool(bad)
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in spec:
            continue
        unit, better, bound = spec[metric]
        p = side(parent[key])
        c = side(change[key])
        p1, pm, p3 = quartiles(p["all"])
        c1, cm, c3 = quartiles(c["all"])
        win_share, v = verdict(p, c, better, bound)
        if workload in bad:
            v = "invalid"
        failing |= v == "regressed"
        ratio = f"{cm / pm:7.3f}" if pm else "    n/a"
        wins = f"{win_share:5.2f}" if win_share == win_share else "  n/a"
        print(f"{workload:15s} {metric:34s} {unit:6s} "
              f"{cell(pm, p1, p3):>32s} {cell(cm, c1, c3):>32s} "
              f"{ratio} {wins}  {v}")
    print("ratio = change median / parent median; wins = share of seed-paired "
          "runs the change wins")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
