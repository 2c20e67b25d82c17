// End-to-end telemetry pipeline test: a 2-program (writer + reader)
// coupled run over the shm transport, each side tagged as its own virtual
// process, exported to per-process Chrome traces, merged, and validated --
// every reader step span must carry the writer's step id and hang under
// the matching writer end_step span, on a monotonic offset-corrected
// timeline. Also pins the per-phase latency attribution: the
// flexio.step.*.ns histograms move once per step and the shipped
// MonitorReport carries writer-side phase sums the advisor consumes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "adios/array.h"
#include "core/advisor.h"
#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/flight_recorder.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "util/trace_merge.h"

namespace flexio {
namespace {

using adios::Box;

constexpr int kSteps = 4;
constexpr std::uint64_t kN = 1024;
constexpr std::uint32_t kWriterPid = 1;
constexpr std::uint32_t kReaderPid = 2;

std::uint64_t hist_count(
    const std::map<std::string, metrics::MetricSnapshot>& snaps,
    const std::string& name) {
  const auto it = snaps.find(name);
  return it == snaps.end() ? 0 : it->second.hist.count;
}

std::uint64_t hist_sum(
    const std::map<std::string, metrics::MetricSnapshot>& snaps,
    const std::string& name) {
  const auto it = snaps.find(name);
  return it == snaps.end() ? 0 : it->second.hist.sum;
}

TEST(TracePipelineTest, MergedTimelineStitchesReaderStepsUnderWriter) {
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  trace::set_enabled(true);
  trace::reset();

  const std::string flight_path =
      (std::filesystem::temp_directory_path() /
       ("flexio_pipeline_flight." + std::to_string(::getpid()) + ".jsonl"))
          .string();
  flight::Options fopt;
  fopt.path = flight_path;
  fopt.background = false;
  ASSERT_TRUE(flight::start(fopt).is_ok());

  const auto before = metrics::snapshot_all();

  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  xml::MethodConfig method;
  method.method = "FLEXIO";
  method.timeout_ms = 20000;

  std::optional<wire::MonitorReport> writer_report;
  std::thread reader_thread([&] {
    trace::set_thread_pid(kReaderPid);
    StreamSpec spec;
    spec.stream = "pipeline_trace";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = method;
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    std::vector<double> dst(kN);
    for (;;) {
      auto step = r.value()->begin_step();
      if (!step.is_ok()) break;
      ASSERT_TRUE(r.value()
                      ->schedule_read("field", Box{{0}, {kN}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(dst))))
                      .is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_TRUE(r.value()->end_step().is_ok());
    }
    writer_report = r.value()->writer_report();
    (void)r.value()->close();
    trace::set_thread_pid(0);
  });

  {
    trace::set_thread_pid(kWriterPid);
    StreamSpec spec;
    spec.stream = "pipeline_trace";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = method;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> data(kN, 1.0);
    const auto meta = adios::global_array_var(
        "field", serial::DataType::kDouble, {kN}, Box{{0}, {kN}});
    for (int s = 0; s < kSteps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(
          w.value()
              ->write(meta, as_bytes_view(std::span<const double>(data)))
              .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
      flight::request_sample();
      flight::maybe_sample();
    }
    ASSERT_TRUE(w.value()->close().is_ok());
    trace::set_thread_pid(0);
  }
  reader_thread.join();
  flight::stop();

  // --- per-phase attribution: each histogram moved once per step.
  const auto after = metrics::snapshot_all();
  const auto phase_delta = [&](const std::string& name) {
    return hist_count(after, name) - hist_count(before, name);
  };
  const auto steps_u = static_cast<std::uint64_t>(kSteps);
  EXPECT_EQ(phase_delta("flexio.step.pack.ns"), steps_u);
  EXPECT_EQ(phase_delta("flexio.step.enqueue.ns"), steps_u);
  EXPECT_EQ(phase_delta("flexio.step.transfer.ns"), steps_u);
  EXPECT_EQ(phase_delta("flexio.step.unpack.ns"), steps_u);
  EXPECT_EQ(phase_delta("flexio.step.total.ns"), steps_u);
  // The reader spent measurable time moving and placing the steps.
  const auto ns_delta = [&](const std::string& name) {
    return hist_sum(after, name) - hist_sum(before, name);
  };
  EXPECT_GT(ns_delta("flexio.step.transfer.ns") +
                ns_delta("flexio.step.unpack.ns"),
            0u);

  // --- the shipped MonitorReport carries writer-side phase sums, and the
  // advisor derives the writer's headroom from them.
  ASSERT_TRUE(writer_report.has_value());
  EXPECT_EQ(writer_report->phase_steps, steps_u);
  EXPECT_GT(writer_report->enqueue_ns, 0u);
  const PluginPlacementInputs in =
      inputs_from_reports(*writer_report, 1.0, 1.0, 0.0, 1e9);
  const double expected =
      static_cast<double>(writer_report->pack_ns + writer_report->enqueue_ns) *
      1e-9 / static_cast<double>(writer_report->phase_steps);
  EXPECT_DOUBLE_EQ(in.writer_headroom_seconds, expected);

  // --- the flight recorder saw the run and its lines parse.
  {
    std::ifstream in_file(flight_path);
    ASSERT_TRUE(in_file.good());
    std::string line;
    std::size_t lines = 0;
    bool saw_bytes = false;
    while (std::getline(in_file, line)) {
      auto doc = json::parse(line);
      ASSERT_TRUE(doc.is_ok()) << line;
      if (const json::Value* counters = doc.value().find("counters")) {
        if (counters->find("flexio.bytes.sent")) saw_bytes = true;
      }
      ++lines;
    }
    EXPECT_GE(lines, 2u);  // start marker + at least one delta sample
    EXPECT_TRUE(saw_bytes);
    std::remove(flight_path.c_str());
  }

  // --- merge the per-process exports and validate the stitched timeline.
  auto merged = trace::merge_traces(trace::chrome_json_for(kWriterPid),
                                    trace::chrome_json_for(kReaderPid));
  trace::set_enabled(false);
  metrics::set_enabled(metrics_was);
  ASSERT_TRUE(merged.is_ok());
  // Same OS clock on both sides: the estimated offset is bounded by the
  // one-way frame latency. The slack absorbs that estimation bias on slow
  // (sanitizer) builds; monotonicity is checked exactly regardless.
  ASSERT_TRUE(merged.value().validate(/*slack_us=*/1e5).is_ok());
  EXPECT_GT(merged.value().clock_pairs_a, 0u);
  EXPECT_GT(merged.value().clock_pairs_b, 0u);

  std::map<std::uint64_t, const trace::MergedEvent*> by_id;
  for (const trace::MergedEvent& e : merged.value().events) {
    if (e.id != 0) by_id[e.id] = &e;
  }
  std::map<std::int64_t, int> reader_steps_seen;
  int writer_steps = 0;
  for (const trace::MergedEvent& e : merged.value().events) {
    if (e.name == "writer.end_step") {
      EXPECT_EQ(e.pid, kWriterPid);
      EXPECT_GE(e.step, 0);
      ++writer_steps;
    }
    if (e.name != "reader.perform_reads" && e.name != "reader.end_step") {
      continue;
    }
    // Every reader step span carries the writer's step id and is parented
    // under the matching writer end_step span.
    EXPECT_EQ(e.pid, kReaderPid);
    ASSERT_GE(e.step, 0) << e.name;
    ASSERT_NE(e.peer, 0u) << e.name << " step " << e.step;
    const auto it = by_id.find(e.peer);
    ASSERT_NE(it, by_id.end());
    EXPECT_STREQ(it->second->name.c_str(), "writer.end_step");
    EXPECT_EQ(it->second->step, e.step);
    EXPECT_EQ(it->second->pid, kWriterPid);
    EXPECT_EQ(e.parent, e.peer);  // stitched as the cross-process parent
    if (e.name == "reader.perform_reads") ++reader_steps_seen[e.step];
  }
  EXPECT_EQ(writer_steps, kSteps);
  EXPECT_EQ(reader_steps_seen.size(), static_cast<std::size_t>(kSteps));
}

TEST(TracePipelineTest, MergedTimelineNestsPoolSpansUnderSendPieces) {
  // Parallel pack: 1 writer -> 2 readers with pack_threads=4, so every
  // step dispatches one pool task per reader. The tasks run on pool
  // threads, but TaskScope re-homes their spans: in the merged timeline
  // every writer.pack_task must carry the writer pid and hang under the
  // step's writer.send_pieces span.
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  trace::set_enabled(true);
  trace::reset();

  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 2);
  xml::MethodConfig method;
  method.method = "FLEXIO";
  method.timeout_ms = 20000;
  method.pack_threads = 4;

  constexpr std::uint64_t kHalf = kN / 2;
  std::vector<std::thread> reader_threads;
  for (int rank = 0; rank < 2; ++rank) {
    reader_threads.emplace_back([&, rank] {
      trace::set_thread_pid(kReaderPid);
      StreamSpec spec;
      spec.stream = "pipeline_pool_trace";
      spec.endpoint = EndpointSpec{&viz, rank, evpath::Location{0, 1}};
      spec.method = method;
      auto r = rt.open_reader(spec);
      ASSERT_TRUE(r.is_ok());
      std::vector<double> dst(kHalf);
      for (;;) {
        auto step = r.value()->begin_step();
        if (!step.is_ok()) break;
        ASSERT_TRUE(r.value()
                        ->schedule_read("field", Box{{rank * kHalf}, {kHalf}},
                                        MutableByteView(std::as_writable_bytes(
                                            std::span<double>(dst))))
                        .is_ok());
        ASSERT_TRUE(r.value()->perform_reads().is_ok());
        ASSERT_TRUE(r.value()->end_step().is_ok());
      }
      (void)r.value()->close();
      trace::set_thread_pid(0);
    });
  }

  {
    trace::set_thread_pid(kWriterPid);
    StreamSpec spec;
    spec.stream = "pipeline_pool_trace";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = method;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value()->pack_threads(), 4);
    std::vector<double> data(kN, 2.0);
    const auto meta = adios::global_array_var(
        "field", serial::DataType::kDouble, {kN}, Box{{0}, {kN}});
    for (int s = 0; s < kSteps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(
          w.value()
              ->write(meta, as_bytes_view(std::span<const double>(data)))
              .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
    trace::set_thread_pid(0);
  }
  for (std::thread& t : reader_threads) t.join();

  auto merged = trace::merge_traces(trace::chrome_json_for(kWriterPid),
                                    trace::chrome_json_for(kReaderPid));
  trace::set_enabled(false);
  metrics::set_enabled(metrics_was);
  ASSERT_TRUE(merged.is_ok());
  ASSERT_TRUE(merged.value().validate(/*slack_us=*/1e5).is_ok());

  std::map<std::uint64_t, const trace::MergedEvent*> by_id;
  for (const trace::MergedEvent& e : merged.value().events) {
    if (e.id != 0) by_id[e.id] = &e;
  }
  int pool_spans = 0;
  for (const trace::MergedEvent& e : merged.value().events) {
    if (e.name != "writer.pack_task") continue;
    ++pool_spans;
    // Pool-thread span, re-homed into the writer's timeline: writer pid,
    // the step annotation inherited from the submitting thread, and the
    // dispatching send_pieces span (same step) as the parent.
    EXPECT_EQ(e.pid, kWriterPid);
    EXPECT_GE(e.step, 0);
    ASSERT_NE(e.parent, 0u);
    const auto it = by_id.find(e.parent);
    ASSERT_NE(it, by_id.end());
    EXPECT_STREQ(it->second->name.c_str(), "writer.send_pieces");
    EXPECT_EQ(it->second->pid, kWriterPid);
    EXPECT_EQ(it->second->step, e.step);
  }
  // One pool task per reader per step.
  EXPECT_EQ(pool_spans, kSteps * 2);
}

}  // namespace
}  // namespace flexio
