// Many-stream multiplexing (DESIGN.md "Stream multiplexing"): the wire
// prefix, registry endpoint sharing (O(links) not O(streams)),
// per-stream demux routing, credit backpressure isolation, DRR fairness of
// the shared drain path, mode-mismatch rejection at open, and plan-cache
// keying when two streams with identical variable names share one link.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>

#include "core/program.h"
#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/metrics.h"

namespace flexio {
namespace {

using namespace std::chrono_literals;
using adios::Box;
using adios::Dims;
using serial::DataType;

/// Seed for the randomized payload tests; override with FLEXIO_TEST_SEED to
/// replay a failure.
std::uint32_t test_seed() {
  if (const char* env = std::getenv("FLEXIO_TEST_SEED")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 0xF1E10;
}

// ------------------------------------------------------------ wire prefix --

TEST(WireMuxTest, PrefixRoundTrips) {
  const std::uint64_t sid = wire::stream_id_hash("temps");
  ASSERT_NE(sid, 0u);
  wire::OpenRequest req{"viz", 4};
  const auto inner = wire::encode(req);

  auto framed = wire::encode_mux_prefix(sid);
  framed.insert(framed.end(), inner.begin(), inner.end());

  auto mux = wire::decode_mux(ByteView(framed));
  ASSERT_TRUE(mux.is_ok()) << mux.status().to_string();
  EXPECT_EQ(mux.value().stream_id, sid);
  ASSERT_EQ(mux.value().inner.size(), inner.size());

  auto decoded = wire::decode_open_request(mux.value().inner);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().reader_program, "viz");
}

TEST(WireMuxTest, LegacyUnprefixedFramesStillParse) {
  // Every shared-link sender prefixes its frames, so decode_mux rejects a
  // frame without the prefix, and a prefix naming stream id 0.
  wire::StepAnnounce ann;
  ann.step = 3;
  const auto raw = wire::encode(ann);
  auto mux = wire::decode_mux(ByteView(raw));
  EXPECT_FALSE(mux.is_ok());
  EXPECT_EQ(mux.status().code(), ErrorCode::kInvalidArgument);

  serial::BufWriter zero_id;
  zero_id.put_u8(wire::kMuxPrefixTag);
  zero_id.put_varint(0);
  zero_id.put_raw(raw.data(), raw.size());
  EXPECT_FALSE(wire::decode_mux(zero_id.view()).is_ok());
}

TEST(WireMuxTest, PrefixedFrameFailsLoudlyInLegacyPeek) {
  // The prefix tag sits outside the MsgType range, so a dedicated-mode
  // decoder fed a multiplexed frame errors instead of misparsing it as a
  // protocol frame.
  auto framed = wire::encode_mux_prefix(wire::stream_id_hash("s"));
  const auto inner = wire::encode_close(5);
  framed.insert(framed.end(), inner.begin(), inner.end());
  EXPECT_FALSE(wire::peek_type(ByteView(framed)).is_ok());
}

TEST(WireMuxTest, NamingConventions) {
  // Dedicated endpoints are per stream, shared ones per (program, rank).
  EXPECT_EQ(StreamRegistry::dedicated_endpoint_name("s", "p", 3), "s|p.3");
  EXPECT_EQ(StreamRegistry::shared_endpoint_name("p", 3), "mux|p.3");
  EXPECT_TRUE(StreamRegistry::is_shared_name("mux|p.3"));
  EXPECT_FALSE(StreamRegistry::is_shared_name("s|p.3"));
  EXPECT_FALSE(StreamRegistry::is_shared_name("stream_mux|p.3"));
}

// ------------------------------------------------------- registry basics --

MuxOptions shared_opts() {
  MuxOptions m;
  m.shared_links = true;
  m.timeout = 20s;
  return m;
}

TEST(RegistryTest, SharedModeUsesOneEndpointPerProgramRank) {
  Runtime rt;
  auto& reg = rt.registry();
  evpath::LinkOptions lopts;

  std::vector<std::shared_ptr<StreamChannel>> channels;
  for (int i = 0; i < 6; ++i) {
    auto ch = reg.attach("str" + std::to_string(i), "progA", 0,
                         evpath::Location{0, 0}, lopts, shared_opts());
    ASSERT_TRUE(ch.is_ok()) << ch.status().to_string();
    EXPECT_TRUE(ch.value()->shared());
    EXPECT_EQ(ch.value()->name(), "mux|progA.0");
    channels.push_back(std::move(ch).value());
  }
  // O(links), not O(streams): six streams, one endpoint.
  EXPECT_EQ(reg.shared_endpoint_count(), 1u);
  EXPECT_EQ(reg.attached_stream_count(), 6u);

  // A second rank gets its own endpoint; stream count keeps climbing.
  auto other = reg.attach("str0", "progA", 1, evpath::Location{0, 1}, lopts,
                          shared_opts());
  ASSERT_TRUE(other.is_ok());
  EXPECT_EQ(reg.shared_endpoint_count(), 2u);
  EXPECT_EQ(reg.attached_stream_count(), 7u);

  // Detaching every stream of an endpoint releases it.
  channels.clear();
  EXPECT_EQ(reg.shared_endpoint_count(), 1u);
  EXPECT_EQ(reg.attached_stream_count(), 1u);
}

TEST(RegistryTest, DedicatedModeBypassesSharing) {
  Runtime rt;
  evpath::LinkOptions lopts;
  MuxOptions opts;  // shared_links = false
  auto ch = rt.registry().attach("solo", "progA", 0, evpath::Location{0, 0},
                                 lopts, opts);
  ASSERT_TRUE(ch.is_ok()) << ch.status().to_string();
  EXPECT_FALSE(ch.value()->shared());
  EXPECT_EQ(ch.value()->name(), "solo|progA.0");
  EXPECT_EQ(rt.registry().shared_endpoint_count(), 0u);
  EXPECT_EQ(rt.registry().attached_stream_count(), 0u);
}

TEST(RegistryTest, DuplicateAttachOfOneStreamSideFails) {
  Runtime rt;
  evpath::LinkOptions lopts;
  auto first = rt.registry().attach("dup", "progA", 0, evpath::Location{0, 0},
                                    lopts, shared_opts());
  ASSERT_TRUE(first.is_ok());
  auto second = rt.registry().attach("dup", "progA", 0, evpath::Location{0, 0},
                                     lopts, shared_opts());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyExists);
}

TEST(RegistryTest, DemuxRoutesFramesToTheRightStream) {
  Runtime rt;
  auto& reg = rt.registry();
  evpath::LinkOptions lopts;

  // Two streams between the same pair of shared endpoints.
  auto a1 = reg.attach("route_one", "pw", 0, evpath::Location{0, 0}, lopts,
                       shared_opts());
  auto a2 = reg.attach("route_two", "pw", 0, evpath::Location{0, 0}, lopts,
                       shared_opts());
  auto b1 = reg.attach("route_one", "pr", 0, evpath::Location{0, 1}, lopts,
                       shared_opts());
  auto b2 = reg.attach("route_two", "pr", 0, evpath::Location{0, 1}, lopts,
                       shared_opts());
  ASSERT_TRUE(a1.is_ok() && a2.is_ok() && b1.is_ok() && b2.is_ok());
  EXPECT_EQ(reg.shared_endpoint_count(), 2u);

  const std::string dest = StreamRegistry::shared_endpoint_name("pr", 0);
  // Interleave frames from the two streams; use Close frames as a compact
  // valid payload carrying a distinguishing step id.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(a1.value()
                    ->send(dest, ByteView(wire::encode_close(100 + i)),
                           evpath::SendMode::kSync)
                    .is_ok());
    ASSERT_TRUE(a2.value()
                    ->send(dest, ByteView(wire::encode_close(200 + i)),
                           evpath::SendMode::kSync)
                    .is_ok());
  }
  // Each receiving channel sees only its own stream's frames, demuxed and
  // stripped of the prefix, in per-stream FIFO order.
  for (int i = 0; i < 8; ++i) {
    evpath::Message m1, m2;
    ASSERT_TRUE(b2.value()->recv(&m2, 10s).is_ok());
    ASSERT_TRUE(b1.value()->recv(&m1, 10s).is_ok());
    auto c1 = wire::decode_close(ByteView(m1.payload));
    auto c2 = wire::decode_close(ByteView(m2.payload));
    ASSERT_TRUE(c1.is_ok() && c2.is_ok());
    EXPECT_EQ(c1.value(), 100 + i);
    EXPECT_EQ(c2.value(), 200 + i);
  }

  // A frame without the prefix routes to no stream: the pump counts it in
  // flexio.stream.orphan_frames and drops it.
  const bool metrics_were_on = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Counter& orphans = metrics::counter("flexio.stream.orphan_frames");
  const std::uint64_t orphans0 = orphans.value();
  auto raw_tx = rt.bus().create_endpoint("route_raw.0", evpath::Location{0, 0});
  ASSERT_TRUE(raw_tx.is_ok());
  ASSERT_TRUE(raw_tx.value()
                  ->send(dest, ByteView(wire::encode_close(999)),
                         evpath::SendMode::kAsync)
                  .is_ok());
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (orphans.value() == orphans0 &&
         std::chrono::steady_clock::now() < deadline) {
    evpath::Message m;
    EXPECT_FALSE(b1.value()->recv(&m, 20ms).is_ok());  // pumps, gets nothing
  }
  EXPECT_EQ(orphans.value() - orphans0, 1u);
  metrics::set_enabled(metrics_were_on);
}

TEST(RegistryTest, SendIovCoalescesUnderThePrefix) {
  Runtime rt;
  auto& reg = rt.registry();
  evpath::LinkOptions lopts;
  auto tx = reg.attach("iov", "pw", 0, evpath::Location{0, 0}, lopts,
                       shared_opts());
  auto rx = reg.attach("iov", "pr", 0, evpath::Location{0, 1}, lopts,
                       shared_opts());
  ASSERT_TRUE(tx.is_ok() && rx.is_ok());

  const auto raw = wire::encode_close(42);
  const std::size_t half = raw.size() / 2;
  const ByteView frags[] = {ByteView(raw.data(), half),
                            ByteView(raw.data() + half, raw.size() - half)};
  ASSERT_TRUE(tx.value()
                  ->send(StreamRegistry::shared_endpoint_name("pr", 0), frags,
                         evpath::SendMode::kSync)
                  .is_ok());
  evpath::Message msg;
  ASSERT_TRUE(rx.value()->recv(&msg, 10s).is_ok());
  auto close = wire::decode_close(ByteView(msg.payload));
  ASSERT_TRUE(close.is_ok());
  EXPECT_EQ(close.value(), 42);
}

TEST(RegistryTest, AsyncSendErrorSurfacesOnFlush) {
  Runtime rt;
  evpath::LinkOptions lopts;
  lopts.timeout = 200ms;  // fail the dial fast
  MuxOptions opts = shared_opts();
  opts.timeout = 5s;
  auto tx = rt.registry().attach("errs", "pw", 0, evpath::Location{0, 0},
                                 lopts, opts);
  ASSERT_TRUE(tx.is_ok());
  // No such destination endpoint: the drainer's send fails and the error is
  // latched, surfacing on flush (async sends themselves already returned).
  ASSERT_TRUE(tx.value()
                  ->send("mux|nowhere.0", ByteView(wire::encode_close(1)),
                         evpath::SendMode::kAsync)
                  .is_ok());
  Status st = tx.value()->flush(5s);
  EXPECT_FALSE(st.is_ok());
  // The latch is cleared: a second flush of the (now empty) queue is clean.
  EXPECT_TRUE(tx.value()->flush(5s).is_ok());
}

// ------------------------------------------- backpressure and fairness --

TEST(RegistryTest, CreditBackpressureStallsOnlyTheElephantStream) {
  metrics::set_enabled(true);
  {
    Runtime rt;
    auto& reg = rt.registry();
    // Tiny shm ring so the shared link itself backs up: two 512-byte slots.
    evpath::LinkOptions lopts;
    lopts.queue_entries = 2;

    MuxOptions opts = shared_opts();
    opts.credit_bytes = 1024;  // elephant stalls after ~3 queued frames
    auto elephant = reg.attach("bp_elephant", "pw", 0, evpath::Location{0, 0},
                               lopts, opts);
    auto mouse = reg.attach("bp_mouse", "pw", 0, evpath::Location{0, 0},
                            lopts, opts);
    auto rx_e = reg.attach("bp_elephant", "pr", 0, evpath::Location{0, 1},
                           lopts, opts);
    auto rx_m = reg.attach("bp_mouse", "pr", 0, evpath::Location{0, 1},
                           lopts, opts);
    ASSERT_TRUE(elephant.is_ok() && mouse.is_ok() && rx_e.is_ok() &&
                rx_m.is_ok());

    const std::string dest = StreamRegistry::shared_endpoint_name("pr", 0);
    const std::uint64_t stalls_before =
        metrics::counter("flexio.stream.stalls.bp_elephant").value();

    // Elephant floods 256-byte frames with no consumer pumping: the ring
    // fills, the drainer blocks, and the producer runs out of credit.
    constexpr int kFrames = 12;
    std::atomic<bool> elephant_done{false};
    std::thread flood([&] {
      std::vector<std::byte> payload(256, std::byte{0xEE});
      for (int i = 0; i < kFrames; ++i) {
        payload[0] = std::byte{static_cast<unsigned char>(i)};
        ASSERT_TRUE(elephant.value()
                        ->send(dest, ByteView(payload),
                               evpath::SendMode::kAsync)
                        .is_ok());
      }
      elephant_done.store(true);
    });

    // Wait until the elephant producer is observably stalled on credit.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (metrics::counter("flexio.stream.stalls.bp_elephant").value() ==
               stalls_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_GT(metrics::counter("flexio.stream.stalls.bp_elephant").value(),
              stalls_before);
    EXPECT_FALSE(elephant_done.load());
    EXPECT_GT(elephant.value()->queued_bytes(), 0u);

    // The mouse's own credit is untouched: its async sends are admitted
    // immediately even though the elephant is stalled on the same link.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(mouse.value()
                      ->send(dest, ByteView(wire::encode_close(i)),
                             evpath::SendMode::kAsync)
                      .is_ok());
    }
    EXPECT_FALSE(elephant_done.load());

    // Start consuming: everything drains, per-stream FIFO order preserved.
    for (int i = 0; i < 3; ++i) {
      evpath::Message msg;
      ASSERT_TRUE(rx_m.value()->recv(&msg, 20s).is_ok());
      auto c = wire::decode_close(ByteView(msg.payload));
      ASSERT_TRUE(c.is_ok());
      EXPECT_EQ(c.value(), i);
    }
    for (int i = 0; i < kFrames; ++i) {
      evpath::Message msg;
      ASSERT_TRUE(rx_e.value()->recv(&msg, 20s).is_ok());
      ASSERT_EQ(msg.payload.size(), 256u);
      EXPECT_EQ(msg.payload[0], std::byte{static_cast<unsigned char>(i)});
    }
    flood.join();
    EXPECT_TRUE(elephant_done.load());
    ASSERT_TRUE(elephant.value()->flush(10s).is_ok());
    EXPECT_EQ(elephant.value()->queued_bytes(), 0u);
    EXPECT_EQ(metrics::counter("flexio.stream.stalls.bp_mouse").value(), 0u);
  }
  metrics::set_enabled(false);
}

// ------------------------------------------------- end-to-end pipelines --

xml::MethodConfig shared_method(const std::string& extra = "") {
  xml::MethodConfig m;
  m.method = "FLEXIO";
  m.timeout_ms = 20000;
  std::string params = "shared_links=yes";
  if (!extra.empty()) params += "; " + extra;
  FLEXIO_CHECK(xml::apply_method_params(params, &m).is_ok());
  return m;
}

/// One writer/reader pipeline over a named stream with seeded payloads; all
/// collectives are trivial (single-rank programs) so many pipelines can run
/// concurrently against one Runtime. `global` varies per stream so a plan
/// cached for one stream placed against another corrupts data detectably.
void run_shared_pipeline(Runtime& rt, Program& sim, Program& viz,
                         const std::string& stream, const Dims& global,
                         int steps, std::uint32_t seed,
                         const std::string& extra_params = "") {
  auto writer_fn = [&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = shared_method(extra_params);
    auto writer = rt.open_writer(spec);
    ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
    StreamWriter& w = *writer.value();

    std::mt19937 rng(seed);
    const Box box{{0}, global};
    std::vector<double> field(box.elements());
    for (int step = 0; step < steps; ++step) {
      for (auto& v : field) v = static_cast<double>(rng());
      ASSERT_TRUE(w.begin_step(step).is_ok());
      ASSERT_TRUE(w.write(adios::global_array_var("field", DataType::kDouble,
                                                  global, box),
                          as_bytes_view(std::span<const double>(field)))
                      .is_ok());
      const Status st = w.end_step();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    }
    ASSERT_TRUE(w.close().is_ok());
  };

  auto reader_fn = [&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = shared_method(extra_params);
    auto reader = rt.open_reader(spec);
    ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
    StreamReader& r = *reader.value();

    std::mt19937 rng(seed);  // same golden sequence as the writer
    const Box sel{{0}, global};
    std::vector<double> out(sel.elements());
    int steps_seen = 0;
    for (;;) {
      auto step = r.begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      std::fill(out.begin(), out.end(), -1.0);
      ASSERT_TRUE(r.schedule_read("field", sel,
                                  MutableByteView(std::as_writable_bytes(
                                      std::span<double>(out))))
                      .is_ok());
      const Status st = r.perform_reads();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      for (double v : out) {
        ASSERT_DOUBLE_EQ(v, static_cast<double>(rng()))
            << "stream " << stream << " seed " << seed;
      }
      ASSERT_TRUE(r.end_step().is_ok());
      ++steps_seen;
    }
    EXPECT_EQ(steps_seen, steps);
  };

  std::thread wt(writer_fn), rt_thread(reader_fn);
  wt.join();
  rt_thread.join();
}

TEST(MultiplexPipelineTest, SharedLinksEndToEnd) {
  // The full stream protocol (handshake, announces, data, close) over one
  // shared endpoint pair instead of dedicated per-stream endpoints.
  Runtime rt;
  Program sim("sim", 1), viz("viz", 1);
  run_shared_pipeline(rt, sim, viz, "e2e", {48}, 3, test_seed());
  // Channels closed with the streams; nothing should leak.
  EXPECT_EQ(rt.registry().shared_endpoint_count(), 0u);
  EXPECT_EQ(rt.registry().attached_stream_count(), 0u);
}

TEST(MultiplexPipelineTest, ManyStreamsShareTwoEndpoints) {
  Runtime rt;
  Program sim("sim", 1), viz("viz", 1);
  constexpr int kStreams = 4;

  std::atomic<std::size_t> max_endpoints{0};
  std::atomic<std::size_t> max_streams{0};
  std::atomic<bool> stop_probe{false};
  std::thread probe([&] {
    // Sample the registry while the pipelines run: the O(links) evidence.
    // Back to back: the four pipelines finish within a few milliseconds,
    // too quick for a millisecond sleep to catch them overlapping reliably.
    while (!stop_probe.load()) {
      std::size_t e = rt.registry().shared_endpoint_count();
      std::size_t s = rt.registry().attached_stream_count();
      if (e > max_endpoints.load()) max_endpoints.store(e);
      if (s > max_streams.load()) max_streams.store(s);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> pipelines;
  for (int i = 0; i < kStreams; ++i) {
    pipelines.emplace_back([&rt, &sim, &viz, i] {
      run_shared_pipeline(rt, sim, viz, "many" + std::to_string(i),
                          {16 + 8 * static_cast<std::uint64_t>(i)}, 3,
                          test_seed() + static_cast<std::uint32_t>(i));
    });
  }
  for (auto& t : pipelines) t.join();
  stop_probe.store(true);
  probe.join();

  // Four concurrent streams, two shared endpoints (one per program rank):
  // connection state scales with links, not streams.
  EXPECT_EQ(max_endpoints.load(), 2u);
  EXPECT_GT(max_streams.load(), 2u);
  EXPECT_LE(max_streams.load(), 2u * kStreams);
  EXPECT_EQ(rt.registry().attached_stream_count(), 0u);
}

TEST(MultiplexPipelineTest, ModeMismatchFailsLoudly) {
  // A shared-mode writer and a dedicated-mode reader must not silently
  // drop every frame at the demux: the reader rejects the writer's contact
  // name before sending anything.
  Runtime rt;
  Program sim("sim", 1), viz("viz", 1);

  Status writer_st, reader_st;
  std::thread wt([&] {
    StreamSpec spec;
    spec.stream = "mismatch";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = shared_method();
    spec.method.timeout_ms = 1500;  // the open handshake never completes
    auto w = rt.open_writer(spec);
    writer_st = w.status();
  });
  std::thread rd([&] {
    StreamSpec spec;
    spec.stream = "mismatch";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = shared_method();
    spec.method.shared_links = false;  // dedicated side
    spec.method.timeout_ms = 1500;
    auto r = rt.open_reader(spec);
    reader_st = r.status();
  });
  wt.join();
  rd.join();
  EXPECT_EQ(reader_st.code(), ErrorCode::kInvalidArgument)
      << reader_st.to_string();
  EXPECT_NE(reader_st.to_string().find("mode mismatch"), std::string::npos);
  EXPECT_FALSE(writer_st.is_ok());
}

TEST(MultiplexPipelineTest, PlanCacheDoesNotCrossStreamsOnSharedLink) {
  // Two streams share one link pair, both announce a variable named
  // "field", both cache their transfer plans (caching=all) -- but with
  // different global geometries. A plan cached under one stream's key and
  // replayed for the other would misplace every element; the seeded data
  // verification catches that, and the cache counters pin that each stream
  // planned for itself exactly once.
  metrics::set_enabled(true);
  {
    Runtime rt;
    Program sim("sim", 1), viz("viz", 1);
    const std::uint64_t hits0 =
        metrics::counter("flexio.plan.cache_hits").value();
    const std::uint64_t misses0 =
        metrics::counter("flexio.plan.cache_misses").value();

    constexpr int kSteps = 4;
    std::thread t1([&] {
      run_shared_pipeline(rt, sim, viz, "plan_a", {16}, kSteps, test_seed(),
                          "caching=all");
    });
    std::thread t2([&] {
      run_shared_pipeline(rt, sim, viz, "plan_b", {32}, kSteps,
                          test_seed() + 1, "caching=all");
    });
    t1.join();
    t2.join();

    // Each side of each stream misses once (its own first step) and hits on
    // the cached plan afterwards. A cross-stream hit would show up as fewer
    // misses -- and as corrupted data above.
    EXPECT_EQ(metrics::counter("flexio.plan.cache_misses").value() - misses0,
              4u);
    EXPECT_EQ(metrics::counter("flexio.plan.cache_hits").value() - hits0,
              4u * (kSteps - 1));
  }
  metrics::set_enabled(false);
}

}  // namespace
}  // namespace flexio
