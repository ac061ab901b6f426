"""Benchmark for building, evaluating and persisting strassennet networks.

Usage, from the root of the repository::

    python3 bench/run.py --workload mul-relu-k4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --runs 10 --out bench/results/base.jsonl
    python3 bench/run.py --compare bench/results/base.jsonl bench/results/new.jsonl

Each run is a fresh single-threaded worker process (``worker.py``) with the
BLAS/OpenMP thread variables pinned to 1, so peak RSS and the lazy CSR
caches never carry over between runs.  ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is nonzero when any check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKER_TIMEOUT_S = 175
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")
# glibc raises its mmap and trim thresholds as large blocks are freed, up to
# these values; fixing them from the start keeps heap reuse, and so eval
# speed and peak RSS, independent of each run's allocation history.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432",
              "MALLOC_TRIM_THRESHOLD_": "67108864"}


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_worker(workload, seed, seconds, trace, extra=()):
    """Run one workload in a fresh process; returns (exit code, record)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED_THREADS}, **MALLOC_ENV)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return proc.returncode, record


def describe(record):
    """Human-readable lines for one run record."""
    head = (f"== {record['workload']} seed={record['seed']} "
            f"trace={record['trace']}: {record['attempted']} checks, "
            f"{record['failed']} failed "
            f"(failed_frac {record['failed_frac']:.3g})")
    lines = [head]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:<22.10g} {metric['unit']}")
    for name, value in record["notes"].items():
        lines.append(f"  note {name} = {value}")
    env = record["env"]
    lines.append(f"  env python {env['python']}, numpy {env['numpy']}, "
                 f"scipy {env['scipy']}, nproc {env['nproc']}, "
                 f"cpu {env['cpu_model']!r}, seed {env['seed']}")
    lines.append(f"  env note: {env['note']}")
    return lines


def result_line(record):
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description="Run the strassennet benchmark or compare two result sets.")
    ap.add_argument("--workload", default="all",
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--out", help="append every run record to this JSONL file")
    ap.add_argument("--compare", nargs="+", metavar="RESULTS",
                    help="one JSONL result set: spreads; two: verdicts")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "strassennet").is_dir():
        print(f"no strassennet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        from compare import main as compare_main
        return compare_main(args.compare, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    records = []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            extra = ()
            if args.trace:
                spans = BENCH_DIR / "results" / f"spans-{workload}-seed{seed}.jsonl"
                spans.parent.mkdir(exist_ok=True)
                extra = ("--trace-out", str(spans))
            code, record = run_worker(workload, seed, seconds, args.trace, extra)
            if record is None:
                print(f"{workload} seed={seed}: worker failed with exit code "
                      f"{code} and no record", file=sys.stderr)
                return 1
            print("\n".join(describe(record)), flush=True)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
            records.append((code, record))
    ok = all(code == 0 and record["correct"] for code, record in records)
    if len(records) == 1:
        print(result_line(records[0][1]))
    else:
        print(json.dumps({"correct": ok, "runs": len(records),
                          "attempted": sum(r["attempted"] for _, r in records),
                          "failed": sum(r["failed"] for _, r in records)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
