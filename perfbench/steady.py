#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--save FILE] [--compare FILE]

Runs perfbench/run.py --trace 0 once per seed (seeds 1 .. runs) on each
workload for BENCHMARK.json's run_seconds, then prints, for every end-to-end
metric, the median, the first and third quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median. A metric
whose spread exceeds its bound is flagged OVER; one above a third of its
bound is flagged WARN. --save writes the per-run values; --compare FILE
flags every metric whose median is worse than FILE's by more than its bound.
Exit status 1 when anything is flagged OVER or WORSE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    defs = {m["name"]: m for m in bench["end_to_end"]}
    baseline = json.loads(Path(args.compare).read_text()) if args.compare else {}
    runs = {}
    flagged = False
    for workload in workloads:
        per_metric = {}
        for seed in range(1, args.runs + 1):
            for name, value in run_once(workload, seed,
                                        bench["run_seconds"]).items():
                per_metric.setdefault(name, []).append(value)
        runs[workload] = per_metric
        print("%s (%d runs)" % (workload, args.runs))
        print("  %-36s %12s %12s %12s %7s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, values in per_metric.items():
            median, q1, q3, spread = summarize(values)
            bound = defs[name]["bound"]
            flags = []
            if spread > bound:
                flags.append("OVER")
            elif spread > bound / 3:
                flags.append("WARN")
            old = baseline.get(workload, {}).get(name)
            if old:
                old_median = statistics.median(old)
                lower = defs[name]["better"] == "lower"
                worse = (median - old_median if lower else old_median - median)
                if worse > bound * old_median:
                    flags.append("WORSE(%.3g)" % old_median)
            flagged |= any(f != "WARN" for f in flags)
            print("  %-36s %12.6g %12.6g %12.6g %7.3f %6.3g %s" %
                  (name, median, q1, q3, spread, bound, " ".join(flags)))
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
