// flexio_trace: dump and convert FlexIO span traces.
//
// The runtime exports Chrome trace_event JSON (trace::write_chrome_json,
// enabled with FLEXIO_TRACE=1). This tool works on those files:
//
//   flexio_trace dump  <trace.json>            readable table, children
//                                              indented under parents
//   flexio_trace convert <in.json> <out.json>  parse, validate, re-emit
//                                              normalized (sorted by ts)
//   flexio_trace demo  <out.json>              record a small nested demo
//                                              trace (for docs and smoke
//                                              tests; no input needed)
//   flexio_trace merge <a.json> <b.json> <out.json>
//                                              stitch two per-process
//                                              exports into one timeline
//                                              (clock-offset corrected,
//                                              reader steps parented under
//                                              writer steps)
//   flexio_trace pipeline <outdir>             create <outdir> if needed,
//                                              run a 1x1 shm writer/reader
//                                              pipeline with the live
//                                              telemetry plane up (stats
//                                              server, heartbeat stats
//                                              aggregation, cooperative
//                                              watchdog canary), export
//                                              per-side traces + flight-
//                                              recorder stats + scraped
//                                              cluster view, and merge
//                                              (writer.json, reader.json,
//                                              merged.json, flight.jsonl,
//                                              cluster.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adios/array.h"
#include "adios/var.h"
#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/flight_recorder.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/stats_server.h"
#include "util/trace.h"
#include "util/trace_merge.h"
#include "util/watchdog.h"

namespace {

using namespace flexio;

struct Event {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

int fail(const std::string& msg) {
  std::fprintf(stderr, "flexio_trace: %s\n", msg.c_str());
  return 1;
}

StatusOr<std::vector<Event>> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = json::parse(buf.str());
  if (!doc.is_ok()) return doc.status();
  const json::Value* events = doc.value().find("traceEvents");
  if (!events || events->kind() != json::Value::Kind::kArray) {
    return make_error(ErrorCode::kInvalidArgument,
                      path + ": no traceEvents array");
  }
  std::vector<Event> out;
  for (const json::Value& ev : events->as_array()) {
    const json::Value* ph = ev.find("ph");
    if (!ph || ph->as_string() != "X") continue;  // only complete events
    Event e;
    if (const json::Value* v = ev.find("name")) e.name = v->as_string();
    if (const json::Value* v = ev.find("ts")) e.ts_us = v->as_number();
    if (const json::Value* v = ev.find("dur")) e.dur_us = v->as_number();
    if (const json::Value* v = ev.find("tid")) {
      e.tid = static_cast<std::uint32_t>(v->as_number());
    }
    if (const json::Value* args = ev.find("args")) {
      if (const json::Value* v = args->find("depth")) {
        e.depth = static_cast<std::uint32_t>(v->as_number());
      }
      if (const json::Value* v = args->find("id")) {
        e.id = static_cast<std::uint64_t>(v->as_number());
      }
      if (const json::Value* v = args->find("parent")) {
        e.parent = static_cast<std::uint64_t>(v->as_number());
      }
    }
    out.push_back(std::move(e));
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_us < b.ts_us;
  });
  return out;
}

int dump(const std::string& path) {
  auto events = load(path);
  if (!events.is_ok()) return fail(events.status().to_string());
  std::printf("%-14s %-12s %5s %4s  %s\n", "ts (us)", "dur (us)", "tid",
              "dep", "span");
  for (const Event& e : events.value()) {
    std::printf("%-14.3f %-12.3f %5u %4u  %*s%s\n", e.ts_us, e.dur_us, e.tid,
                e.depth, static_cast<int>(e.depth * 2), "", e.name.c_str());
  }
  std::printf("%zu spans\n", events.value().size());
  return 0;
}

int convert(const std::string& in_path, const std::string& out_path) {
  auto events = load(in_path);
  if (!events.is_ok()) return fail(events.status().to_string());
  std::ofstream out(out_path);
  if (!out) return fail("cannot open " + out_path);
  out << "{\"traceEvents\": [\n";
  const auto& evs = events.value();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Event& e = evs[i];
    std::string name;
    for (char c : e.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      name.push_back(c);
    }
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"flexio\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu, \"depth\": "
                  "%u}}%s\n",
                  name.c_str(), e.ts_us, e.dur_us, e.tid,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent), e.depth,
                  i + 1 < evs.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  std::printf("wrote %zu spans to %s\n", evs.size(), out_path.c_str());
  return 0;
}

int merge(const std::string& a_path, const std::string& b_path,
          const std::string& out_path) {
  auto merged = trace::merge_trace_files(a_path, b_path);
  if (!merged.is_ok()) return fail(merged.status().to_string());
  // Generous slack: the offset estimate is biased by up to one one-way
  // delay when samples exist in only one direction.
  const Status valid = merged.value().validate(1000.0);
  if (!valid.is_ok()) return fail(valid.to_string());
  const Status st = trace::write_merged(merged.value(), out_path);
  if (!st.is_ok()) return fail(st.to_string());
  std::printf("merged %zu events (clock offset %+.3f us from %zu+%zu "
              "samples) -> %s\n",
              merged.value().events.size(), merged.value().offset_us,
              merged.value().clock_pairs_a, merged.value().clock_pairs_b,
              out_path.c_str());
  return 0;
}

int pipeline(const std::string& outdir) {
  // A complete 1x1 coupled run over the shm transport, writer and reader
  // as virtual processes (pids 1 and 2), with the flight recorder sampling
  // in the background and the full live telemetry plane up: membership
  // heartbeats piggybacking stats deltas into the directory's cluster
  // view, a stats server scraped into cluster.json, and a cooperative
  // watchdog that must stay silent -- a happy-path run emitting health
  // events means a detector is trigger-happy, so any event fails the run.
  // Produces the telemetry artifact set CI uploads.
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    return fail("cannot create output directory " + outdir + ": " +
                ec.message());
  }
  trace::set_enabled(true);
  trace::reset();
  metrics::set_enabled(true);
  flight::Options fopt;
  fopt.path = outdir + "/flight.jsonl";
  fopt.interval_ms = 2;
  if (const Status st = flight::start(fopt); !st.is_ok()) {
    return fail(st.to_string());
  }

  constexpr int kSteps = 4;
  constexpr std::uint64_t kN = 2048;
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  xml::MethodConfig method;
  method.method = "FLEXIO";
  method.timeout_ms = 20000;
  method.telemetry = true;  // piggyback stats deltas on heartbeats

  // Membership drives the heartbeat (and thus aggregation) path. The TTL
  // is generous: this is a short cooperative run and a TTL-expiry death
  // here would be a false positive by construction.
  evpath::MembershipOptions mopt;
  mopt.enabled = true;
  mopt.ttl = std::chrono::seconds(5);
  rt.directory().set_membership_options(mopt);

  telemetry::StatsServer& stats = telemetry::configure("127.0.0.1:0", true);
  stats.add_source("/cluster",
                   [&rt] { return rt.directory().cluster_json(); });

  telemetry::Watchdog watchdog;
  telemetry::WatchdogOptions wopt;
  wopt.interval_ns = 1'000'000;  // evaluate on every cooperative poll
  wopt.membership_probe = [&rt] { return rt.directory().dead_members(); };
  if (const Status st = watchdog.start(wopt); !st.is_ok()) {
    flight::stop();
    return fail(st.to_string());
  }
  stats.set_watchdog(&watchdog);

  std::thread reader_thread([&] {
    trace::set_thread_pid(2);
    StreamSpec spec;
    spec.stream = "trace_pipeline";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = method;
    auto r = rt.open_reader(spec);
    if (!r.is_ok()) return;
    std::vector<double> dst(kN);
    for (;;) {
      auto step = r.value()->begin_step();
      if (!step.is_ok()) break;
      (void)r.value()->schedule_read(
          "field", adios::Box{{0}, {kN}},
          MutableByteView(std::as_writable_bytes(std::span<double>(dst))));
      if (!r.value()->perform_reads().is_ok()) break;
      if (!r.value()->end_step().is_ok()) break;
    }
    (void)r.value()->close();
  });

  bool write_failed = false;
  {
    trace::set_thread_pid(1);
    StreamSpec spec;
    spec.stream = "trace_pipeline";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = method;
    auto w = rt.open_writer(spec);
    if (!w.is_ok()) {
      reader_thread.join();
      flight::stop();
      return fail(w.status().to_string());
    }
    std::vector<double> data(kN);
    const auto meta = adios::global_array_var(
        "field", serial::DataType::kDouble, {kN}, adios::Box{{0}, {kN}});
    for (int s = 0; s < kSteps && !write_failed; ++s) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = s + static_cast<double>(i) * 1e-3;
      }
      Status st = w.value()->begin_step(s);
      if (st.is_ok()) {
        st = w.value()->write(meta,
                              as_bytes_view(std::span<const double>(data)));
      }
      if (st.is_ok()) st = w.value()->end_step();
      if (!st.is_ok()) {
        std::fprintf(stderr, "flexio_trace: step %d: %s\n", s,
                     st.to_string().c_str());
        write_failed = true;
      }
      // Stretch the run past a few heartbeat intervals so the beats carry
      // real per-step deltas into the cluster view, and give the
      // cooperative watchdog its evaluation points.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      watchdog.poll();
    }
    (void)w.value()->close();
  }
  reader_thread.join();
  watchdog.poll();  // final evaluation with the run quiesced
  flight::stop();

  // Export the aggregated cluster view through a real scrape (the same
  // path flexio_top uses), then enforce the zero-health-events canary.
  std::string cluster;
  if (const Status st =
          telemetry::scrape(stats.address(), "/cluster", &cluster);
      !st.is_ok()) {
    stats.set_watchdog(nullptr);
    watchdog.stop();
    return fail("cluster scrape: " + st.to_string());
  }
  {
    std::ofstream out(outdir + "/cluster.json");
    out << cluster;
    if (!out) {
      stats.set_watchdog(nullptr);
      watchdog.stop();
      return fail("cannot write " + outdir + "/cluster.json");
    }
  }
  stats.set_watchdog(nullptr);
  watchdog.stop();
  const auto events = watchdog.events();
  if (!events.empty()) {
    for (const auto& ev : events) {
      std::fprintf(stderr, "flexio_trace: unexpected health event: %s\n",
                   ev.to_json().c_str());
    }
    return fail("happy-path pipeline emitted health events");
  }
  std::printf("cluster view scraped from %s -> %s/cluster.json\n",
              stats.address().c_str(), outdir.c_str());
  if (write_failed) return 1;

  const std::string a_path = outdir + "/writer.json";
  const std::string b_path = outdir + "/reader.json";
  Status st = trace::write_chrome_json_for(a_path, 1);
  if (!st.is_ok()) return fail(st.to_string());
  st = trace::write_chrome_json_for(b_path, 2);
  if (!st.is_ok()) return fail(st.to_string());
  std::printf("ran %d steps; wrote %s, %s, %s\n", kSteps, a_path.c_str(),
              b_path.c_str(), fopt.path.c_str());
  return merge(a_path, b_path, outdir + "/merged.json");
}

int demo(const std::string& out_path) {
  trace::set_enabled(true);
  {
    trace::Span step("demo.step");
    for (int i = 0; i < 3; ++i) {
      trace::Span handshake("demo.handshake");
      trace::Span exchange("demo.exchange");
    }
    trace::Span send("demo.send");
  }
  const Status st = trace::write_chrome_json(out_path);
  if (!st.is_ok()) return fail(st.to_string());
  std::printf("wrote demo trace to %s (open in chrome://tracing)\n",
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "dump" && argc == 3) return dump(argv[2]);
  if (cmd == "convert" && argc == 4) return convert(argv[2], argv[3]);
  if (cmd == "demo" && argc == 3) return demo(argv[2]);
  if (cmd == "merge" && argc == 5) return merge(argv[2], argv[3], argv[4]);
  if (cmd == "pipeline" && argc == 3) return pipeline(argv[2]);
  std::fprintf(stderr,
               "usage:\n"
               "  flexio_trace dump <trace.json>\n"
               "  flexio_trace convert <in.json> <out.json>\n"
               "  flexio_trace demo <out.json>\n"
               "  flexio_trace merge <a.json> <b.json> <out.json>\n"
               "  flexio_trace pipeline <outdir>\n");
  return 2;
}
