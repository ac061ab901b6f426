"""Spreads of one result set, or verdicts between two (base, then change).

A result set is a JSONL file of run records written by ``run.py --out``.
Quartiles come from ``statistics.quantiles(values, n=4)``; a spread is the
distance between the first and third quartile as a share of the median.

Verdicts follow the pair rule: runs are paired by seed (by order when the
seeds differ).  ``better`` needs the change to win at least nine tenths of
the pairs, ties counting for neither, and the medians to differ by more
than the base's quartile distance.  For an end-to-end metric, ``worse``
means the change's median is worse than the base's by more than the bound
in BENCHMARK.json, and ``no-regression`` means it is not, with both spreads
within the bound (or every change run better than every base run).  A
per-layer metric has no bound, so ``worse`` mirrors the pair rule.
Anything else is ``unresolved``.
"""

import json
import statistics
from collections import defaultdict


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs(spec):
    return {m["name"]: m for m in spec["per_layer"] + spec["end_to_end"]}


def group(records):
    """(workload, metric) -> {seed: value}, in run order."""
    out = defaultdict(dict)
    for record in records:
        for name, metric in record["metrics"].items():
            out[record["workload"], name][record["seed"]] = metric["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs(base, change):
    common = [seed for seed in base if seed in change]
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip(base.values(), change.values()))


def verdict(base, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b, c = list(base.values()), list(change.values())
    q1, med_b, q3 = quartiles(b)
    gain = sign * (statistics.median(c) - med_b)
    paired = pairs(base, change)
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    losses = sum(1 for x, y in paired if sign * (y - x) < 0)
    if paired and wins >= 0.9 * len(paired) and gain > q3 - q1:
        return "better"
    if bound is None:
        if paired and losses >= 0.9 * len(paired) and -gain > q3 - q1:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(med_b):
        return "worse"
    all_better = min(sign * y for y in c) > max(sign * x for x in b)
    if max(spread(b), spread(c)) <= bound or all_better:
        return "no-regression"
    return "unresolved"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def report_spreads(records, specs):
    """Print spreads; returns 1 if an end-to-end spread other than
    ``setup_s`` exceeds its bound."""
    status = 0
    for (workload, name), by_seed in sorted(group(records).items()):
        values = list(by_seed.values())
        bound = specs.get(name, {}).get("bound")
        s = spread(values)
        note = ""
        if bound is not None:
            note = ("steady" if s < bound / 3 else
                    "within bound" if s <= bound else "TOO WIDE")
            if s > bound and name != "setup_s":
                status = 1
            note = f"bound {bound} -> {note}"
        print(f"{workload:18s} {name:38s} n={len(values):<3d} "
              f"{fmt(values):42s} spread {s:.4f} {note}")
    return status


def report_verdicts(base_records, change_records, specs):
    base, change = group(base_records), group(change_records)
    status = 0
    for key in sorted(base):
        if key not in change:
            continue
        workload, name = key
        spec = specs.get(name, {"better": "lower", "bound": None})
        v = verdict(base[key], change[key], spec["better"], spec.get("bound"))
        if v == "worse" and spec.get("bound") is not None:
            status = 1
        print(f"{workload:18s} {name:38s} base {fmt(list(base[key].values())):42s}"
              f" change {fmt(list(change[key].values())):42s} {v}")
    return status


def main(paths, spec):
    specs = metric_specs(spec)
    if len(paths) == 1:
        return report_spreads(load_records(paths[0]), specs)
    if len(paths) == 2:
        return report_verdicts(load_records(paths[0]), load_records(paths[1]),
                               specs)
    raise SystemExit("--compare takes one or two result files")
