#!/usr/bin/env python3
"""End-to-end benchmark of the real FlexIO runtime.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the e2e program under .bench_build/perfbench (CMake, the
repository's default RelWithDebInfo flags); later runs rebuild only what
changed. The e2e program generates every input from --seed, drives the
workload's writer and reader ranks through Runtime -> StreamWriter ->
{inproc, shm, rdma} -> StreamReader in one process, and checks every
delivered byte against the seed's reference.

--trace 0 prints the end-to-end metrics, measured with metrics and tracing
off. --trace 1 prints the per-layer metrics of a traced run (metrics
registry and span tracing on) and leaves its Chrome traces, checked with
`flexio_trace merge`, under .bench_build/perfbench/trace/<workload>/. It
then runs the untraced measurement for half of --seconds under glibc's
default malloc thresholds, for alloc.default_steps_ratio.

The last stdout line is the JSON result; the line before it is an info
object (nproc, cache sizes, per-step bytes, thread count, resident set
before the first session, sample counts, failed_step_ratio). Exit status is
non-zero when the build fails, a step fails or delivers wrong bytes, or the
run uses more threads than CPUs.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the source tree as checked out
import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170  # for all e2e processes of one run, after the build

# A measurement choice: the e2e program runs with glibc's heap trimming and
# mmap allocation off, as MPI stacks with RDMA registration caches set them.
# Under the default dynamic thresholds a session keeps the runtime's multi-MB
# per-step buffers mapped or unmaps and faults them back in every step, at
# random, so gts_staging's step rate swings up to 2x between sessions and the
# bounds cannot hold. The traced run reports the default allocator's step
# rate beside the tuned one (alloc.default_steps_ratio), so that cost stays
# visible.
TUNED_MALLOC = "glibc.malloc.trim_threshold=4294967295:glibc.malloc.mmap_max=0"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the e2e program and the trace tool."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "e2e", "flexio_trace"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_e2e(args, seconds, trace, tuned, trace_dir, deadline):
    cmd = [str(BUILD / "e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(trace_dir)]
    env = dict(os.environ)
    env.pop("GLIBC_TUNABLES", None)
    if tuned:
        env["GLIBC_TUNABLES"] = TUNED_MALLOC
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=env,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        log("e2e exited with %d" % proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_traces(raw, trace_dir):
    """The traced run's exports must stitch with the stock merge tool."""
    files = raw["trace_files"]
    cmd = [str(BUILD / "flexio_trace"), "merge", files["writer"],
           files["reader"], str(trace_dir / "merged.json")]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 3
    trace_dir = BUILD / "trace" / args.workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    raw = run_e2e(args, args.seconds, args.trace, True, trace_dir, deadline)
    if raw is None:
        return 4
    if args.trace:
        # The default-allocator companion: untraced, for half the seconds.
        default = run_e2e(args, args.seconds / 2, 0, False, trace_dir,
                          deadline)
        if default is None:
            return 4
        for key in ("attempted", "failed", "errors"):
            raw[key] += default[key]
        raw["max_threads"] = max(raw["max_threads"], default["max_threads"])
        raw["default_alloc"] = default

    correct = raw["failed"] == 0 and not raw["errors"]
    if raw["max_threads"] > raw["nproc"]:
        raw["errors"].append("footprint: %d threads on %d CPUs" %
                             (raw["max_threads"], raw["nproc"]))
        correct = False
    if args.trace:
        values = metrics.per_layer(raw) if correct else {}
        if correct and not merge_traces(raw, trace_dir):
            raw["errors"].append("flexio_trace merge rejected the trace")
            correct = False
        defs = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(raw) if correct else {}
        defs = metrics.END_TO_END
    for err in raw["errors"]:
        log("error: " + err)

    info = {k: raw[k] for k in ("workload", "seed", "nproc", "l2_bytes",
                                "l3_bytes", "step_bytes", "streams",
                                "max_threads", "baseline_rss_kib",
                                "attempted", "failed")}
    info["failed_step_ratio"] = metrics.ratio(raw["failed"], raw["attempted"])
    if args.trace:
        info["window_steps"] = raw["traced"]["window_steps"]
    else:
        sessions = raw.get("sessions", [])
        info["sessions"] = len(sessions)
        info["window_steps"] = sum(s["window_steps"] for s in sessions)
        info["samples"] = {k: sum(len(s[k]) for s in sessions) for k in
                           ("sim_io_ns", "step_latency_ns", "mouse_latency_ns")}
        info["samples"]["setup_ns"] = len(raw["setup_ns"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics.report(values, defs) if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
