"""Unit tests for the benchmark's metric code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))
import metrics  # noqa: E402


def traced_raw(steps=4, counters=None, hists=None, spans=None,
               traced_rate=80.0, untraced_rate=100.0):
    timers = {k: [1_000_000, 2_000_000, 3_000_000] for k in
              ("writer.write_ns", "writer.end_step_ns",
               "reader.begin_step_wait_ns", "reader.perform_reads_ns")}
    return {
        "untraced_steps_per_s": untraced_rate,
        "default_alloc": {"sessions": [{"steps_per_s": r} for r in
                                       (30.0, 90.0, 50.0)]},
        "traced": {
            "steps_per_s": traced_rate,
            "window_steps": steps,
            "timers": timers,
            "counters": counters or {},
            "hists": hists or {},
            "spans": spans or {},
        },
    }


def base_name(name):
    """Drop a percentile suffix: sim_io_ms.p90 -> sim_io_ms."""
    return name.rsplit(".p", 1)[0]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(metrics.percentile(values, 5), 15)
        self.assertEqual(metrics.percentile(values, 30), 20)
        self.assertEqual(metrics.percentile(values, 40), 20)
        self.assertEqual(metrics.percentile(values, 50), 35)
        self.assertEqual(metrics.percentile(values, 100), 50)

    def test_is_a_sample_and_ignores_order(self):
        values = [9, 1, 7, 3]
        self.assertEqual(metrics.percentile(values, 50), 3)
        self.assertEqual(metrics.percentile(values, 90), 9)

    def test_single_sample(self):
        self.assertEqual(metrics.percentile([4], 1), 4)
        self.assertEqual(metrics.percentile([4], 90), 4)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1, 2], 0)
        with self.assertRaises(ValueError):
            metrics.percentile([1, 2], 101)


class RatioTest(unittest.TestCase):
    def test_ratio_and_empty_base(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(0, 0), 0.0)

    def test_per_step(self):
        self.assertEqual(metrics.per_step(10, 4), 2.5)
        with self.assertRaises(ValueError):
            metrics.per_step(10, 0)


class PerLayerTest(unittest.TestCase):
    def test_per_step_bases_are_window_steps(self):
        raw = traced_raw(steps=4, counters={
            "evpath.send.msgs": 40, "evpath.send.bytes": 4096,
            "flexio.handshake.performed": 12, "shm.queue.full_spins": 8,
            "shm.queue.empty_spins": 2, "nnti.registrations": 1,
            "nnti.get.bytes": 400,
        })
        out = metrics.per_layer(raw)
        self.assertEqual(out["evpath.send.msgs_per_step"], 10)
        self.assertEqual(out["evpath.send.bytes_per_step"], 1024)
        self.assertEqual(out["core.handshake.performed_per_step"], 3)
        self.assertEqual(out["shm.queue.full_spins_per_step"], 2)
        self.assertEqual(out["shm.queue.empty_spins_per_step"], 0.5)
        self.assertEqual(out["nnti.registrations_per_step"], 0.25)
        self.assertEqual(out["nnti.get.bytes_per_step"], 100)

    def test_ratios_use_their_own_bases(self):
        raw = traced_raw(counters={
            "flexio.plan.cache_hits": 3, "flexio.plan.cache_misses": 1,
            "nnti.regcache.hits": 9, "nnti.regcache.misses": 1,
            "shm.pool.reuses": 5, "shm.pool.acquisitions": 10,
            "flexio.wire.copies_avoided": 6, "evpath.send.msgs": 8,
            "flexio.pack.bytes": 1000, "flexio.pack.memcpy_runs": 10,
        })
        out = metrics.per_layer(raw)
        self.assertEqual(out["core.plan.cache_hit_ratio"], 0.75)
        self.assertEqual(out["nnti.regcache.hit_ratio"], 0.9)
        self.assertEqual(out["shm.pool.reuse_ratio"], 0.5)
        self.assertEqual(out["wire.copies_avoided_ratio"], 0.75)
        self.assertEqual(out["adios.pack.bytes_per_memcpy_run"], 100)
        self.assertEqual(out["trace.overhead_ratio"], 0.8)
        # Median default-allocator session rate over the untraced rate.
        self.assertEqual(out["alloc.default_steps_ratio"], 0.5)

    def test_inactive_layers_read_zero(self):
        out = metrics.per_layer(traced_raw())
        for name in ("core.plan.cache_hit_ratio", "nnti.regcache.hit_ratio",
                     "shm.pool.reuse_ratio", "adios.pack_ms_per_step",
                     "util.pool.queue_us.mean", "span.writer.close.self_ms"):
            self.assertEqual(out[name], 0.0, name)

    def test_histograms_and_stall_family(self):
        raw = traced_raw(steps=2, counters={
            "flexio.stream.stalls.mouse0": 3,
            "flexio.stream.stalls.other": 1,
            "flexio.stream.orphan_frames": 2,
        }, hists={
            "flexio.step.pack.ns": [4, 6_000_000],
            "flexio.step.total.ns": [4, 8_000_000],
            "flexio.pool.queue_ns": [2, 5_000],
        }, spans={"writer.write": [3_000_000, 1_000_000, 2_000_000]})
        out = metrics.per_layer(raw)
        self.assertEqual(out["stream_registry.stalls_per_step"], 2)
        self.assertEqual(out["stream_registry.orphan_frames"], 2)
        self.assertEqual(out["adios.pack_ms_per_step"], 3.0)
        self.assertEqual(out["core.step.total_ms.mean"], 2.0)
        self.assertEqual(out["util.pool.queue_us.mean"], 2.5)
        self.assertEqual(out["span.writer.write.self_ms"], 2.0)
        self.assertEqual(out["core.writer.write_ms.p50"], 2.0)

    def test_reports_every_defined_metric(self):
        out = metrics.per_layer(traced_raw())
        self.assertEqual(set(out), {m.name for m in metrics.PER_LAYER})
        report = metrics.report(out, metrics.PER_LAYER)
        self.assertEqual(report["shm.pool.reuse_ratio"]["unit"], "ratio")


class EndToEndTest(unittest.TestCase):
    @staticmethod
    def session(rate, ms):
        return {"steps_per_s": rate, "window_steps": 10,
                "sim_io_ns": [ms * 1e6] * 10,
                "step_latency_ns": [2 * ms * 1e6] * 10,
                "mouse_latency_ns": [3 * ms * 1e6] * 10}

    def test_median_over_sessions(self):
        raw = {"sessions": [self.session(r, ms) for r, ms in
                            ((100, 1), (300, 3), (200, 2))],
               "setup_ns": [5e6, 1e6, 3e6], "peak_rss_growth_kib": 2048}
        out = metrics.end_to_end(raw)
        self.assertEqual(out["steps_per_s"], 200)
        self.assertEqual(out["sim_io_ms.p90"], 2.0)
        self.assertEqual(out["step_latency_ms.p50"], 4.0)
        self.assertEqual(out["mouse_latency_ms.p90"], 6.0)
        self.assertEqual(out["setup_s"], 0.003)
        self.assertEqual(out["peak_rss_mb"], 2.0)
        self.assertEqual(set(out), {m.name for m in metrics.END_TO_END})

    def test_report_requires_every_metric(self):
        with self.assertRaises(KeyError):
            metrics.report({"setup_s": 1.0}, metrics.END_TO_END)


class NamingTest(unittest.TestCase):
    def test_names_and_units(self):
        defs = metrics.END_TO_END + metrics.PER_LAYER
        names = [m.name for m in defs]
        self.assertEqual(len(names), len(set(names)))
        for m in defs:
            self.assertRegex(m.name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(m.name, metrics.NAME_RE)
            self.assertRegex(m.unit, metrics.UNIT_RE)
            self.assertIn(m.better, ("lower", "higher"))

    def test_layer_metrics_name_what_they_move_and_where(self):
        e2e = {base_name(m.name) for m in metrics.END_TO_END}
        e2e.add("failed_step_ratio")
        for m in metrics.PER_LAYER:
            self.assertIn(base_name(m.moves), e2e, m.name)
            self.assertTrue(m.on and set(m.on) <= set(metrics.WORKLOADS),
                            m.name)

    def test_benchmark_json_matches(self):
        bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(metrics.WORKLOADS))
        for key, defs in (("end_to_end", metrics.END_TO_END),
                          ("per_layer", metrics.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in bench[key]],
                [(m.name, m.unit, m.better) for m in defs])
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
