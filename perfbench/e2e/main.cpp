// e2e: drives one workload through the real FlexIO runtime and prints the
// raw measurements as one JSON object on stdout (progress goes to stderr).
// run.py turns them into the benchmark's metrics.
//
//   e2e --workload <gts_staging|s3d_helper|mixed_streams> --seed <n>
//       --seconds <s> --trace <0|1> --out <dir>
//
// --trace 0: measured sessions sharing --seconds, each followed by
//   set-up-only sessions (open, step 0, close), with metrics and tracing
//   off (the shipped default).
// --trace 1: an untraced session and a traced one (metrics registry and span tracing on), each for half of
//   --seconds. The traced one reports bench-side timers, registry deltas
//   over its window, span self times, and writes writer.json / reader.json
//   Chrome traces into --out.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace flexio;

// A run's regime (core placement, neighbours on the host) shifts between
// sessions; end-to-end metrics are medians over several measured sessions.
constexpr int kMeasuredSessions = 9;
// Set-up-only sessions after each measured one. The first sessions of a
// process are slower while the heap grows to its working size; spread over
// the run, most set-up samples come from a warm process. Measured sessions
// add their own set-up samples.
constexpr int kSetupPerSession = 2;
constexpr double kWarmupSeconds = 0.25;  // caches fill, plans settle
constexpr std::size_t kTraceRing = 1 << 18;  // spans kept by a traced run
// Share of the ring a traced session may fill; the rest absorbs close-time
// spans, so the export never wraps and every cross-side peer resolves.
constexpr double kTraceRingBudget = 0.75;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o->trace = val == "1";
    } else if (key == "--out") {
      o->out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty();
}

/// Minimal JSON object writer (keys are fixed identifiers, strings are
/// escaped for quotes and backslashes only; error texts are ASCII).
class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ += "\"" + k + "\": ";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    fresh_ = false;
    return *this;
  }
  Json& str(const std::string& s) {
    out_ += "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (c == '\n' ? ' ' : c);
    }
    out_ += "\"";
    fresh_ = false;
    return *this;
  }
  Json& strs(const std::vector<std::string>& v) {
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out_ += ", ";
      str(v[i]);
    }
    out_ += "]";
    fresh_ = false;
    return *this;
  }
  Json& nums(const std::vector<std::uint64_t>& v) {
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out_ += ",";
      out_ += std::to_string(v[i]);
    }
    out_ += "]";
    fresh_ = false;
    return *this;
  }
  Json& open() {
    sep();
    out_ += "{";
    fresh_ = true;
    return *this;
  }
  Json& close() {
    out_ += "}";
    fresh_ = false;
    return *this;
  }
  Json& arr_open() {
    out_ += "[";
    fresh_ = true;
    return *this;
  }
  Json& arr_close() {
    out_ += "]";
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty() && out_.back() != '{') out_ += ", ";
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// Per-step samples of one session's measurement window.
struct WindowStats {
  std::int64_t steps = 0;
  double steps_per_s = 0;
  std::vector<std::uint64_t> sim_io, step_latency, mouse_latency;
  // Bench-side timers of the public calls.
  std::vector<std::uint64_t> write, end_step, begin_step_wait, perform_reads;
};

bool window_stats(const SessionResult& r, const std::vector<bool>& small,
                  WindowStats* out, std::string* why) {
  const std::int64_t first = r.first_window_step;
  const std::int64_t n = r.end_step - first;
  if (first < 1 || n < 2) {
    *why = "measurement window held fewer than two steps";
    return false;
  }
  // A step spans every stream: sim_io is a writer rank's I/O time summed
  // over its streams, step latency runs from the step's first end_step
  // entry to its last perform_reads return. Mouse latency stays per stream.
  const std::size_t streams = small.size();
  const auto steps = static_cast<std::size_t>(n);
  auto slot = [&](int stream, std::int64_t step) {
    return static_cast<std::size_t>(step - first) * streams +
           static_cast<std::size_t>(stream);
  };
  int writers = 0;
  for (const WriterStep& w : r.writer) writers = std::max(writers, w.rank + 1);
  std::vector<std::uint64_t> first_end_entry(steps * streams, UINT64_MAX);
  std::vector<std::uint64_t> last_reads(steps * streams, 0);
  std::vector<std::uint64_t> io(steps * static_cast<std::size_t>(writers), 0);
  std::vector<std::uint64_t> done(steps, 0);
  for (const WriterStep& w : r.writer) {
    if (w.step < first) continue;
    std::uint64_t& e = first_end_entry[slot(w.stream, w.step)];
    e = std::min(e, w.end_entry_ns);
    io[static_cast<std::size_t>(w.step - first) * static_cast<std::size_t>(writers) +
       static_cast<std::size_t>(w.rank)] += w.end_ns - w.begin_ns;
    out->write.push_back(w.end_entry_ns - w.write_ns);
    out->end_step.push_back(w.end_ns - w.end_entry_ns);
  }
  out->sim_io = std::move(io);
  for (const ReaderStep& rd : r.reader) {
    if (rd.step < first) continue;
    std::uint64_t& l = last_reads[slot(rd.stream, rd.step)];
    l = std::max(l, rd.reads_ns);
    std::uint64_t& d = done[static_cast<std::size_t>(rd.step - first)];
    d = std::max(d, rd.end_ns);
    out->begin_step_wait.push_back(rd.begin_ns - rd.begin_entry_ns);
    out->perform_reads.push_back(rd.reads_ns - rd.reads_entry_ns);
  }
  for (std::int64_t k = first; k < r.end_step; ++k) {
    std::uint64_t step_entry = UINT64_MAX, step_reads = 0;
    for (std::size_t s = 0; s < streams; ++s) {
      const std::size_t i = slot(static_cast<int>(s), k);
      if (last_reads[i] == 0 || first_end_entry[i] == UINT64_MAX) {
        *why = "step " + std::to_string(k) + " was not delivered";
        return false;
      }
      if (small[s]) out->mouse_latency.push_back(last_reads[i] - first_end_entry[i]);
      step_entry = std::min(step_entry, first_end_entry[i]);
      step_reads = std::max(step_reads, last_reads[i]);
    }
    out->step_latency.push_back(step_reads - step_entry);
  }
  // Closed-loop rate between the first and last completion in the window.
  out->steps = n;
  out->steps_per_s = static_cast<double>(n - 1) * 1e9 /
                     static_cast<double>(done.back() - done.front());
  return true;
}

/// Counter and histogram (count, sum) growth between two registry snapshots.
void registry_delta(const std::map<std::string, metrics::MetricSnapshot>& a,
                    const std::map<std::string, metrics::MetricSnapshot>& b,
                    Json* j) {
  j->key("counters").open();
  for (const auto& [name, m] : b) {
    if (m.kind != metrics::MetricSnapshot::Kind::kCounter) continue;
    const auto it = a.find(name);
    const std::uint64_t before = it == a.end() ? 0 : it->second.counter;
    if (m.counter > before) j->key(name).num(static_cast<double>(m.counter - before));
  }
  j->close();
  j->key("hists").open();
  for (const auto& [name, m] : b) {
    if (m.kind != metrics::MetricSnapshot::Kind::kHistogram) continue;
    const auto it = a.find(name);
    const std::uint64_t c0 = it == a.end() ? 0 : it->second.hist.count;
    const std::uint64_t s0 = it == a.end() ? 0 : it->second.hist.sum;
    if (m.hist.count <= c0) continue;
    j->key(name).nums({m.hist.count - c0, m.hist.sum - s0});
  }
  j->close();
}

/// Self time (duration minus the part its child spans cover) of every span
/// the benchmark recorded around a public call, grouped by call.
std::map<std::string, std::vector<std::uint64_t>> bench_span_self_ns(
    const std::vector<trace::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const trace::SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  const std::string prefix = "bench.";
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (const trace::SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name.rfind(prefix, 0) != 0) continue;
    auto kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0, reach = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out[name.substr(prefix.size())].push_back(s.end_ns - s.start_ns - covered);
  }
  return out;
}

void add_errors(const SessionResult& r, std::uint64_t* attempted,
                std::uint64_t* failed, std::vector<std::string>* errors) {
  // A step is attempted once writer rank 0 began it; it failed if a reader
  // saw wrong bytes, or a status error cut the session short.
  std::set<std::int64_t> bad;
  for (const ReaderStep& rd : r.reader) {
    if (!rd.verified) bad.insert(rd.step);
  }
  *attempted += static_cast<std::uint64_t>(r.end_step);
  *failed += bad.size() + (r.aborted ? 1 : 0);
  errors->insert(errors->end(), r.errors.begin(), r.errors.end());
}

int run(const Options& opt) {
  auto wl = make_workload(opt.workload, opt.seed);
  if (!wl) {
    std::fprintf(stderr, "e2e: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // The inputs and references are resident now. The memory figure is the
  // runtime's peak on top of them.
  std::vector<std::string> errors;
  if (!reset_peak_rss()) errors.push_back("cannot reset the peak resident set");
  const long baseline_rss = rss_kib();
  metrics::set_enabled(false);
  trace::set_enabled(false);
  const std::vector<bool> small = wl->small_streams();

  Json j;
  j.open();
  j.key("workload").str(opt.workload);
  j.key("seed").num(static_cast<double>(opt.seed));
  j.key("nproc").num(online_cpus());
  j.key("l2_bytes").num(static_cast<double>(cache_bytes(2)));
  j.key("l3_bytes").num(static_cast<double>(cache_bytes(3)));
  j.key("step_bytes").num(static_cast<double>(wl->step_bytes()));
  j.key("streams").num(static_cast<double>(small.size()));

  std::uint64_t attempted = 0, failed = 0;
  int max_threads = 0;
  long peak_rss_growth = -1;
  std::string why;

  auto measured = [&](const SessionPlan& plan, WindowStats* stats) {
    const SessionResult r = wl->run(plan);
    // The memory figure covers the process's first session only. Its rank
    // threads each start a fresh malloc arena; later sessions inherit
    // arenas that earlier threads grew, in an order that differs from run
    // to run, and with trimming off the peak would follow that order.
    if (peak_rss_growth < 0) peak_rss_growth = peak_rss_kib() - baseline_rss;
    add_errors(r, &attempted, &failed, &errors);
    max_threads = std::max(max_threads, r.max_threads);
    if (r.errors.empty() && !window_stats(r, small, stats, &why)) {
      errors.push_back(why);
      ++failed;
    }
    return r;
  };

  auto setup_only = [&](std::vector<std::uint64_t>* setup) {
    for (int i = 0; i < kSetupPerSession; ++i) {
      const SessionResult r = wl->run(SessionPlan{});
      add_errors(r, &attempted, &failed, &errors);
      setup->push_back(r.setup_ns);
    }
  };

  if (!opt.trace) {
    std::vector<std::uint64_t> setup;
    SessionPlan plan;
    plan.warmup_s = kWarmupSeconds;
    plan.window_s = opt.seconds / kMeasuredSessions;
    j.key("sessions").arr_open();
    for (int i = 0; i < kMeasuredSessions; ++i) {
      WindowStats w;
      const SessionResult r = measured(plan, &w);
      setup.push_back(r.setup_ns);
      setup_only(&setup);
      j.open();
      j.key("window_steps").num(static_cast<double>(w.steps));
      j.key("steps_per_s").num(w.steps_per_s);
      j.key("sim_io_ns").nums(w.sim_io);
      j.key("step_latency_ns").nums(w.step_latency);
      j.key("mouse_latency_ns").nums(w.mouse_latency);
      j.close();
    }
    j.arr_close();
    j.key("setup_ns").nums(setup);
  } else {
    SessionPlan plain;
    plain.warmup_s = kWarmupSeconds;
    plain.window_s = opt.seconds / 2;
    WindowStats untraced;
    measured(plain, &untraced);
    j.key("untraced_steps_per_s").num(untraced.steps_per_s);

    metrics::set_enabled(true);
    trace::set_ring_capacity(kTraceRing);
    trace::reset();
    trace::set_enabled(true);
    std::map<std::string, metrics::MetricSnapshot> before, after;
    SessionPlan traced = plain;
    traced.on_window_open = [&before](std::int64_t steps_so_far) {
      before = metrics::snapshot_all();
      const double used = static_cast<double>(trace::snapshot().size());
      const double per_step = used / static_cast<double>(steps_so_far);
      const double room =
          kTraceRingBudget * static_cast<double>(kTraceRing) - used;
      return static_cast<std::int64_t>(std::max(2.0, room / per_step));
    };
    traced.on_window_close = [&after] { after = metrics::snapshot_all(); };
    WindowStats w;
    const SessionResult r = measured(traced, &w);
    trace::set_enabled(false);
    metrics::set_enabled(false);

    j.key("traced").open();
    j.key("steps_per_s").num(w.steps_per_s);
    j.key("window_steps").num(static_cast<double>(w.steps));
    j.key("window_s").num(static_cast<double>(r.window_close_ns - r.window_open_ns) / 1e9);
    j.key("timers").open();
    j.key("writer.write_ns").nums(w.write);
    j.key("writer.end_step_ns").nums(w.end_step);
    j.key("reader.begin_step_wait_ns").nums(w.begin_step_wait);
    j.key("reader.perform_reads_ns").nums(w.perform_reads);
    j.close();
    registry_delta(before, after, &j);
    j.key("spans").open();
    const std::vector<trace::SpanRecord> spans = trace::snapshot();
    for (const auto& [call, self] : bench_span_self_ns(spans)) {
      j.key(call).nums(self);
    }
    j.close();
    j.key("ring_records").num(static_cast<double>(spans.size()));
    j.close();

    const std::string wpath = opt.out + "/writer.json";
    const std::string rpath = opt.out + "/reader.json";
    const Status ws = trace::write_chrome_json_for(wpath, 1);
    const Status rs = trace::write_chrome_json_for(rpath, 2);
    if (!ws.is_ok() || !rs.is_ok()) {
      errors.push_back("trace export: " + (ws.is_ok() ? rs : ws).to_string());
    }
    j.key("trace_files").open();
    j.key("writer").str(wpath);
    j.key("reader").str(rpath);
    j.close();
  }

  j.key("max_threads").num(max_threads);
  j.key("baseline_rss_kib").num(static_cast<double>(baseline_rss));
  j.key("peak_rss_growth_kib").num(static_cast<double>(peak_rss_growth));
  j.key("attempted").num(static_cast<double>(attempted));
  j.key("failed").num(static_cast<double>(failed));
  if (errors.size() > 20) errors.resize(20);
  j.key("errors").strs(errors);
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return perfbench::run(opt);
}
