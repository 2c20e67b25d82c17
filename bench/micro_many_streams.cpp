// Many-stream multiplexing fairness bench (DESIGN.md "Stream
// multiplexing").
//
// 1000 mouse streams (mixed small frames) and a handful of elephant
// streams (64 KiB frames, sent continuously) multiplex over ONE shared
// endpoint. Producers send through StreamRegistry channels -- the mux
// prefix + per-stream credit + DRR drain path under test -- while a raw
// peer endpoint timestamps per-stream delivery latency by demuxing the
// wire prefix, exactly the way SharedEndpoint routes inbound frames.
//
// Two scenarios run back to back: mice alone (the isolated baseline) and
// mice with elephants. BENCH_micro_many_streams.json carries the pooled
// and per-stream-p99 mouse latency summaries for both plus the O(links)
// counters; tools/check_bench_overhead.py gates mouse p99 under elephants
// against the mice-only baseline (skipped below 4 cores) and the shared
// endpoint count against the stream count (always).
// BENCH_micro_many_streams_table.json is the per-stream latency table CI
// uploads as an artifact.
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "core/stream_registry.h"
#include "core/wire.h"
#include "evpath/bus.h"
#include "util/status.h"

namespace {

using namespace flexio;

constexpr int kMice = 1000;
constexpr int kElephants = 4;
constexpr int kFrames = 40;         // sync frames per mouse stream
constexpr int kProducers = 8;       // threads sharing the mouse streams
constexpr std::size_t kElephantBytes = 64u << 10;  // one DRR quantum

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScenarioOut {
  std::vector<std::vector<double>> mouse_ns;  // per-stream delivery latency
  std::uint64_t elephant_frames = 0;
  std::size_t shared_endpoints = 0;
  std::size_t attached_streams = 0;
};

ScenarioOut run_scenario(bool with_elephants) {
  evpath::MessageBus bus;
  StreamRegistry registry(&bus);
  const evpath::Location loc{0, 0};
  const evpath::LinkOptions lopts;
  MuxOptions mux;
  mux.shared_links = true;
  // A quarter of an elephant frame: each elephant accumulates deficit over
  // four rotations per 64 KiB frame, so every rotation carries on average
  // one elephant frame against a full pass of the active mice.
  mux.drr_quantum_bytes = 16u << 10;

  // The consumer plays the reader-side peer as a raw endpoint: one inbound
  // link regardless of stream count, demuxed by wire prefix.
  auto consumer_or = bus.create_endpoint(
      StreamRegistry::shared_endpoint_name("viz", 0), loc, lopts);
  FLEXIO_CHECK(consumer_or.is_ok());
  auto consumer = std::move(consumer_or).value();
  const std::string dest = consumer->name();

  std::vector<std::shared_ptr<StreamChannel>> mice;
  std::map<std::uint64_t, std::size_t> mouse_index;
  mice.reserve(kMice);
  for (int s = 0; s < kMice; ++s) {
    auto ch = registry.attach("m" + std::to_string(s), "sim", 0, loc, lopts,
                              mux);
    FLEXIO_CHECK(ch.is_ok());
    mouse_index[ch.value()->stream_id()] = mice.size();
    mice.push_back(std::move(ch).value());
  }
  std::vector<std::shared_ptr<StreamChannel>> elephants;
  if (with_elephants) {
    for (int e = 0; e < kElephants; ++e) {
      auto ch = registry.attach("elephant" + std::to_string(e), "sim", 0, loc,
                                lopts, mux);
      FLEXIO_CHECK(ch.is_ok());
      elephants.push_back(std::move(ch).value());
    }
  }

  ScenarioOut out;
  out.mouse_ns.resize(kMice);
  for (auto& v : out.mouse_ns) v.reserve(kFrames);

  std::atomic<bool> consumer_stop{false};
  std::atomic<std::uint64_t> elephant_frames{0};
  std::thread drain([&] {
    evpath::Message msg;
    while (!consumer_stop.load(std::memory_order_relaxed)) {
      if (!consumer->recv(&msg, std::chrono::milliseconds(10)).is_ok()) {
        continue;
      }
      const std::int64_t now = now_ns();
      if (msg.eos) continue;
      const auto frame = wire::decode_mux(ByteView(msg.payload));
      if (!frame.is_ok()) continue;
      const ByteView inner = frame.value().inner;
      if (inner.size() < sizeof(std::int64_t)) continue;
      const auto it = mouse_index.find(frame.value().stream_id);
      if (it == mouse_index.end()) {
        elephant_frames.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::int64_t stamp = 0;
      std::memcpy(&stamp, inner.data(), sizeof stamp);
      out.mouse_ns[it->second].push_back(static_cast<double>(now - stamp));
    }
  });

  // Elephants blast max-credit async traffic for the whole mouse run; the
  // DRR drainer is what keeps them from starving the sync mouse frames.
  std::atomic<bool> mice_done{false};
  std::vector<std::thread> fat;
  for (auto& ch : elephants) {
    fat.emplace_back([&, ch] {
      std::vector<std::byte> frame(kElephantBytes, std::byte{0xEE});
      const std::int64_t stamp = now_ns();
      std::memcpy(frame.data(), &stamp, sizeof stamp);
      while (!mice_done.load(std::memory_order_relaxed)) {
        if (!ch->send(dest, ByteView(frame), evpath::SendMode::kAsync)
                 .is_ok()) {
          break;
        }
      }
      (void)ch->flush(std::chrono::seconds(30));
    });
  }

  // Mouse producers: each thread owns a stride of the streams and sends
  // one sync frame per stream per round. Mixed sizes, 256 B to ~1.8 KiB.
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      std::vector<std::byte> frame;
      for (int f = 0; f < kFrames; ++f) {
        for (int s = t; s < kMice; s += kProducers) {
          frame.assign(256 + 512 * static_cast<std::size_t>(s % 4),
                       std::byte{0x5A});
          const std::int64_t stamp = now_ns();
          std::memcpy(frame.data(), &stamp, sizeof stamp);
          if (!mice[static_cast<std::size_t>(s)]
                   ->send(dest, ByteView(frame), evpath::SendMode::kSync)
                   .is_ok()) {
            return;
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  mice_done.store(true);
  for (auto& t : fat) t.join();

  out.shared_endpoints = registry.shared_endpoint_count();
  out.attached_streams = registry.attached_stream_count();
  out.elephant_frames = elephant_frames.load();

  // Let the consumer drain anything still in flight before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  consumer_stop.store(true);
  drain.join();
  mice.clear();
  elephants.clear();
  return out;
}

void summarize(bench::Report* report, bench::Report* table,
               const std::string& tag, const ScenarioOut& s) {
  std::vector<double> pooled;
  std::vector<double> per_stream_p99;
  pooled.reserve(static_cast<std::size_t>(kMice) * kFrames);
  per_stream_p99.reserve(kMice);
  for (std::size_t i = 0; i < s.mouse_ns.size(); ++i) {
    const std::vector<double>& lat = s.mouse_ns[i];
    if (lat.empty()) continue;
    pooled.insert(pooled.end(), lat.begin(), lat.end());
    per_stream_p99.push_back(bench::Report::quantile(lat, 0.99));
    table->add_samples(tag + "/mouse/" + std::to_string(i), "ns", 0,
                       static_cast<int>(lat.size()), lat);
  }
  const int pooled_reps = static_cast<int>(pooled.size());
  const int p99_reps = static_cast<int>(per_stream_p99.size());
  report->add_samples("many_streams.mouse_ns." + tag, "ns", 0, pooled_reps,
                      std::move(pooled));
  report->add_samples("many_streams.mouse_p99_ns." + tag, "ns", 0, p99_reps,
                      std::move(per_stream_p99));
}

}  // namespace

int main() {
  flexio::bench::Report report("micro_many_streams");
  flexio::bench::Report table("micro_many_streams_table");

  const ScenarioOut baseline = run_scenario(/*with_elephants=*/false);
  const ScenarioOut mixed = run_scenario(/*with_elephants=*/true);

  summarize(&report, &table, "mice_only", baseline);
  summarize(&report, &table, "with_elephants", mixed);

  report.add_counter("bench.hw_concurrency",
                     std::thread::hardware_concurrency());
  report.add_counter("bench.many_streams.streams", mixed.attached_streams);
  report.add_counter("bench.many_streams.shared_endpoints",
                     mixed.shared_endpoints);
  report.add_counter("bench.many_streams.elephant_frames",
                     mixed.elephant_frames);

  const flexio::Status st = report.write();
  const flexio::Status st2 = table.write();
  if (!st.is_ok() || !st2.is_ok()) {
    std::fprintf(stderr, "%s\n",
                 (!st.is_ok() ? st : st2).to_string().c_str());
    return 1;
  }
  return 0;
}
