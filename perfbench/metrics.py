"""Metric definitions and arithmetic of the FlexIO end-to-end benchmark.

The e2e program (perfbench/e2e) prints raw samples: per-step timings in
nanoseconds, registry counter deltas, histogram (count, sum) deltas, and the
self times of the spans it records around each public FlexIO call. This
module turns them into the named metrics BENCHMARK.json lists.

A step is one output step of every writer rank on every stream (for
mixed_streams: one round over all its streams). sim_io is a writer rank's
time in begin_step + write + end_step per step, summed over its streams;
step latency runs from the step's first end_step entry to its last
perform_reads return; mouse latency is the same per small stream.
Percentiles are nearest-rank. Every "_per_step" metric divides by the steps
of the measurement window. Ratios divide useful outcomes by attempts and
read 0 when nothing was attempted.

PER_LAYER records, for each layer metric, the end-to-end metric it should
move and the workloads on which it should move it.
"""

import math
import re
from collections import namedtuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = ("gts_staging", "s3d_helper", "mixed_streams")
GTS, S3D, MIX = ALL = WORKLOADS

Metric = namedtuple("Metric", "name unit better moves on")

END_TO_END = [
    Metric("setup_s", "s", "lower", None, ALL),
    Metric("steps_per_s", "1/s", "higher", None, ALL),
    Metric("sim_io_ms.p50", "ms", "lower", None, ALL),
    Metric("sim_io_ms.p90", "ms", "lower", None, ALL),
    Metric("step_latency_ms.p50", "ms", "lower", None, ALL),
    Metric("step_latency_ms.p90", "ms", "lower", None, ALL),
    # Step latency of the workload's small streams; single-stream
    # workloads mark their one stream small, so there it equals
    # step_latency_ms.
    Metric("mouse_latency_ms.p50", "ms", "lower", None, ALL),
    Metric("mouse_latency_ms.p90", "ms", "lower", None, ALL),
    Metric("peak_rss_mb", "MB", "lower", None, ALL),
]

SPAN_CALLS = (
    "writer.open_writer", "writer.begin_step", "writer.write",
    "writer.end_step", "writer.close", "reader.open_reader",
    "reader.begin_step", "reader.perform_reads", "reader.end_step",
    "reader.close",
)

PER_LAYER = [
    # core: the stream protocol around each step.
    Metric("core.writer.write_ms.p50", "ms", "lower", "sim_io_ms", (S3D, GTS)),
    Metric("core.writer.end_step_ms.p50", "ms", "lower", "sim_io_ms", ALL),
    Metric("core.reader.begin_step_wait_ms.p50", "ms", "lower",
           "step_latency_ms", ALL),
    Metric("core.reader.perform_reads_ms.p50", "ms", "lower",
           "step_latency_ms", (S3D, GTS)),
    Metric("core.handshake.performed_per_step", "count", "lower",
           "steps_per_s", (GTS, MIX)),
    Metric("core.plan.cache_hit_ratio", "ratio", "higher", "steps_per_s",
           (S3D,)),
    Metric("core.step.total_ms.mean", "ms", "lower", "step_latency_ms", ALL),
    Metric("core.unpack_ms_per_step", "ms", "lower", "step_latency_ms",
           (S3D,)),
    # adios: the strided pack kernel.
    Metric("adios.pack_ms_per_step", "ms", "lower", "sim_io_ms", (S3D,)),
    Metric("adios.pack.bytes_per_memcpy_run", "B", "higher", "steps_per_s",
           (S3D,)),
    # wire: scatter-gather framing.
    Metric("wire.copies_avoided_ratio", "ratio", "higher", "sim_io_ms",
           (GTS,)),
    # evpath: links and sends.
    Metric("evpath.send.msgs_per_step", "count", "lower", "steps_per_s",
           (MIX,)),
    Metric("evpath.send.bytes_per_step", "B", "lower", "steps_per_s", (MIX,)),
    Metric("evpath.send.retries", "count", "lower", "failed_step_ratio", ALL),
    Metric("evpath.enqueue_ms_per_step", "ms", "lower", "sim_io_ms", ALL),
    Metric("evpath.transfer_ms_per_step", "ms", "lower", "step_latency_ms",
           ALL),
    # shm: queue and buffer pool.
    Metric("shm.queue.full_spins_per_step", "count", "lower", "sim_io_ms.p90",
           (S3D,)),
    Metric("shm.queue.empty_spins_per_step", "count", "lower",
           "step_latency_ms", (S3D,)),
    Metric("shm.pool.reuse_ratio", "ratio", "higher", "steps_per_s", (S3D,)),
    # nnti: registration cache and rendezvous Get.
    Metric("nnti.regcache.hit_ratio", "ratio", "higher", "steps_per_s",
           (GTS,)),
    Metric("nnti.registrations_per_step", "count", "lower", "sim_io_ms",
           (GTS,)),
    Metric("nnti.get.bytes_per_step", "B", "lower", "step_latency_ms",
           (GTS,)),
    # stream_registry: shared-link multiplexing.
    Metric("stream_registry.stalls_per_step", "count", "lower",
           "mouse_latency_ms", (MIX,)),
    Metric("stream_registry.orphan_frames", "count", "lower",
           "failed_step_ratio", (MIX,)),
    # util: the registry's drain pool. flexio.pool.queue_ns is recorded for
    # batch tasks only, so on the drainers' submitted tasks queue time reads
    # 0 until the pool records it; exec time is recorded for both.
    Metric("util.pool.queue_us.mean", "us", "lower", "mouse_latency_ms.p90",
           (MIX,)),
    Metric("util.pool.exec_us.mean", "us", "lower", "mouse_latency_ms.p90",
           (MIX,)),
    # alloc: steps_per_s under glibc's default malloc thresholds over the
    # untraced rate with trimming and mmap off, the end-to-end setting.
    # Per-step buffer churn that the heap unmaps and faults back in lowers it.
    Metric("alloc.default_steps_ratio", "ratio", "higher", "steps_per_s",
           ALL),
    # Tracing cost: traced / untraced steps_per_s of the same run.
    Metric("trace.overhead_ratio", "ratio", "higher", "steps_per_s", ALL),
] + [
    Metric("span.%s.self_ms" % call, "ms", "lower",
           "sim_io_ms" if call.startswith("writer.") else "step_latency_ms",
           ALL)
    for call in SPAN_CALLS
]


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def ratio(useful, attempts):
    """useful / attempts, 0 when nothing was attempted."""
    return useful / attempts if attempts > 0 else 0.0


def per_step(total, steps):
    """A window total spread over the window's steps."""
    if steps <= 0:
        raise ValueError("per-step metric over an empty window")
    return total / steps


def hist_mean(hists, name):
    count, total = hists.get(name, (0, 0))
    return ratio(total, count)


def session_metrics(session):
    """Rate and latency percentiles of one measured session."""
    out = {"steps_per_s": session["steps_per_s"]}
    for key in ("sim_io", "step_latency", "mouse_latency"):
        samples = session[key + "_ns"]
        out[key + "_ms.p50"] = percentile(samples, 50) / 1e6
        out[key + "_ms.p90"] = percentile(samples, 90) / 1e6
    return out


def end_to_end(raw):
    """The end-to-end metrics of an untraced run: each rate and latency is
    the median over the run's measured sessions, set-up time the median
    over every session's set-up."""
    sessions = [session_metrics(s) for s in raw["sessions"]]
    out = {name: percentile([s[name] for s in sessions], 50)
           for name in sessions[0]}
    out["setup_s"] = percentile(raw["setup_ns"], 50) / 1e9
    # The runtime's peak memory in the process's first session, on top of
    # the generated inputs and references, which are resident before it.
    out["peak_rss_mb"] = raw["peak_rss_growth_kib"] / 1024.0
    return out


def per_layer(raw):
    """The per-layer metrics of a traced run."""
    t = raw["traced"]
    steps = t["window_steps"]
    c = t["counters"]
    h = {name: tuple(v) for name, v in t["hists"].items()}
    timers = t["timers"]

    def cnt(name):
        return c.get(name, 0)

    def step_ms(hist):
        return per_step(h.get(hist, (0, 0))[1], steps) / 1e6

    def p50_ms(samples):
        return percentile(samples, 50) / 1e6 if samples else 0.0

    out = {
        "core.writer.write_ms.p50": p50_ms(timers["writer.write_ns"]),
        "core.writer.end_step_ms.p50": p50_ms(timers["writer.end_step_ns"]),
        "core.reader.begin_step_wait_ms.p50":
            p50_ms(timers["reader.begin_step_wait_ns"]),
        "core.reader.perform_reads_ms.p50":
            p50_ms(timers["reader.perform_reads_ns"]),
        "core.handshake.performed_per_step":
            per_step(cnt("flexio.handshake.performed"), steps),
        "core.plan.cache_hit_ratio":
            ratio(cnt("flexio.plan.cache_hits"),
                  cnt("flexio.plan.cache_hits") +
                  cnt("flexio.plan.cache_misses")),
        "core.step.total_ms.mean": hist_mean(h, "flexio.step.total.ns") / 1e6,
        "core.unpack_ms_per_step": step_ms("flexio.step.unpack.ns"),
        "adios.pack_ms_per_step": step_ms("flexio.step.pack.ns"),
        "adios.pack.bytes_per_memcpy_run":
            ratio(cnt("flexio.pack.bytes"), cnt("flexio.pack.memcpy_runs")),
        "wire.copies_avoided_ratio":
            ratio(cnt("flexio.wire.copies_avoided"), cnt("evpath.send.msgs")),
        "evpath.send.msgs_per_step": per_step(cnt("evpath.send.msgs"), steps),
        "evpath.send.bytes_per_step":
            per_step(cnt("evpath.send.bytes"), steps),
        "evpath.send.retries": cnt("evpath.send.retries"),
        "evpath.enqueue_ms_per_step": step_ms("flexio.step.enqueue.ns"),
        "evpath.transfer_ms_per_step": step_ms("flexio.step.transfer.ns"),
        "shm.queue.full_spins_per_step":
            per_step(cnt("shm.queue.full_spins"), steps),
        "shm.queue.empty_spins_per_step":
            per_step(cnt("shm.queue.empty_spins"), steps),
        "shm.pool.reuse_ratio":
            ratio(cnt("shm.pool.reuses"), cnt("shm.pool.acquisitions")),
        "nnti.regcache.hit_ratio":
            ratio(cnt("nnti.regcache.hits"),
                  cnt("nnti.regcache.hits") + cnt("nnti.regcache.misses")),
        "nnti.registrations_per_step":
            per_step(cnt("nnti.registrations"), steps),
        "nnti.get.bytes_per_step": per_step(cnt("nnti.get.bytes"), steps),
        "stream_registry.stalls_per_step": per_step(
            sum(v for k, v in c.items()
                if k.startswith("flexio.stream.stalls.")), steps),
        "stream_registry.orphan_frames": cnt("flexio.stream.orphan_frames"),
        "util.pool.queue_us.mean": hist_mean(h, "flexio.pool.queue_ns") / 1e3,
        "util.pool.exec_us.mean": hist_mean(h, "flexio.pool.exec_ns") / 1e3,
        "alloc.default_steps_ratio":
            ratio(percentile([s["steps_per_s"] for s in
                              raw["default_alloc"]["sessions"]], 50),
                  raw["untraced_steps_per_s"]),
        "trace.overhead_ratio":
            ratio(t["steps_per_s"], raw["untraced_steps_per_s"]),
    }
    for call in SPAN_CALLS:
        out["span.%s.self_ms" % call] = p50_ms(t["spans"].get(call, []))
    return out


def report(values, defs):
    """{name: {"value", "unit"}} in the order of `defs`; every defined metric
    must be present."""
    missing = [m.name for m in defs if m.name not in values]
    if missing:
        raise KeyError("metrics not computed: " + ", ".join(missing))
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in defs}


if __name__ == "__main__":
    # The per-layer ledger: which end-to-end metric each layer metric should
    # move, and on which workloads.
    for m in PER_LAYER:
        print("%-38s %-6s -> %-22s on %s" %
              (m.name, m.unit, m.moves, ", ".join(m.on)))
