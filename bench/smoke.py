"""Smoke check of the benchmark harness at tiny sizes (k=1, n=2).

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs the worker at tiny sizes,
untraced and traced, and asserts that every named metric is emitted, with
its unit and a finite value, and that every check passed.  Then it passes a
deliberately wrong reference (every expected output offset by 1) and
asserts that the gate fails: failed checks are counted, the record says
``correct: false`` and the exit code is nonzero.  Takes about a minute.
"""

import math
import sys

from run import load_spec, run_worker

SECONDS = 0.5


def metric_problems(record, wanted):
    problems = []
    got = record["metrics"]
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name]["unit"] != unit:
            problems.append(f"{name}: unit {got[name]['unit']!r} != {unit!r}")
        elif not math.isfinite(got[name]["value"]):
            problems.append(f"{name}: value {got[name]['value']} not finite")
    problems += [f"unexpected metric {name}" for name in got
                 if name not in wanted]
    return problems


def check_workload(spec, workload):
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, record = run_worker(workload, 1, SECONDS, trace, ("--tiny",))
        if record is None:
            problems.append(f"trace={trace}: no record (exit code {code})")
            continue
        if code != 0 or not record["correct"] or record["failed"]:
            problems.append(f"trace={trace}: checks failed at tiny size")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        problems += [f"trace={trace}: {p}"
                     for p in metric_problems(record, wanted)]
    code, record = run_worker(workload, 1, SECONDS, 0,
                              ("--tiny", "--wrong-reference"))
    if code == 0:
        problems.append("wrong reference: exit code 0")
    if record is None or record["correct"] or record["failed"] == 0:
        problems.append("wrong reference: the gate reported no failure")
    return [f"{workload}: {p}" for p in problems]


def main():
    spec = load_spec()
    problems = []
    for workload in spec["workloads"]:
        found = check_workload(spec, workload["name"])
        print(f"{workload['name']}: {'ok' if not found else 'FAILED'}",
              flush=True)
        problems += found
    for problem in problems:
        print(problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
