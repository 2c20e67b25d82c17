// Fault-injection tests: scripted faults from the torture harness driven
// through the endpoint layer and the full stream runtime. Covers the
// timeout-and-retry contract (paper Section II.E), clean Status surfacing
// for lost handshake steps, handshake-cache invalidation across a peer
// restart, and End-of-Stream delivery via wire::Close's final step id.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "harness/fault_plan.h"
#include "harness/stress_driver.h"

namespace flexio::torture {
namespace {

using namespace std::chrono_literals;
using adios::Box;
using serial::DataType;

std::vector<std::byte> make_payload(std::size_t n) {
  std::vector<std::byte> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::byte>(i * 7 + 3);
  }
  return payload;
}

/// Two endpoints on different nodes => the bus builds an RDMA link pair.
struct RdmaPair {
  std::shared_ptr<evpath::Endpoint> tx;
  std::shared_ptr<evpath::Endpoint> rx;
};

RdmaPair make_rdma_pair(evpath::MessageBus* bus) {
  auto tx = bus->create_endpoint("fault.tx", evpath::Location{0, 0});
  auto rx = bus->create_endpoint("fault.rx", evpath::Location{1, 0});
  FLEXIO_CHECK(tx.is_ok() && rx.is_ok());
  return RdmaPair{tx.value(), rx.value()};
}

TEST(FaultTest, PutMessageFailsOnceIsRetriedAndSucceeds) {
  evpath::MessageBus bus;
  RdmaPair pair = make_rdma_pair(&bus);
  auto plan = FaultPlan::parse("fail putmsg nth=1 code=unavailable\n");
  ASSERT_TRUE(plan.is_ok());
  plan.value().install(&bus.fabric());

  const auto payload = make_payload(64);  // eager path
  ASSERT_TRUE(pair.tx->send("fault.rx", ByteView(payload)).is_ok());
  ASSERT_EQ(pair.tx->transport_to("fault.rx").value(),
            evpath::TransportKind::kRdma);

  evpath::Message msg;
  ASSERT_TRUE(pair.rx->recv(&msg, 5s).is_ok());
  EXPECT_TRUE(std::ranges::equal(msg.payload, payload));
  // The injected kUnavailable was absorbed by timeout-and-retry, visibly.
  EXPECT_GE(pair.tx->outbound_stats("fault.rx").retries, 1u);
  EXPECT_EQ(plan.value().faults_fired(), 1u);

  // Exactly one delivery: nothing further is pending.
  EXPECT_EQ(pair.rx->recv(&msg, 50ms).code(), ErrorCode::kTimeout);
}

TEST(FaultTest, RendezvousGetFailsOnceIsRetried) {
  evpath::MessageBus bus;
  RdmaPair pair = make_rdma_pair(&bus);
  // Fail the receiver-directed Get that fetches the rendezvous payload.
  auto plan = FaultPlan::parse("fail get nth=1 code=timeout\n");
  ASSERT_TRUE(plan.is_ok());
  plan.value().install(&bus.fabric());

  const auto payload = make_payload(16384);  // > eager threshold
  ASSERT_TRUE(pair.tx->send("fault.rx", ByteView(payload)).is_ok());
  evpath::Message msg;
  ASSERT_TRUE(pair.rx->recv(&msg, 5s).is_ok());
  EXPECT_TRUE(std::ranges::equal(msg.payload, payload));
  EXPECT_EQ(plan.value().faults_fired(), 1u);
}

TEST(FaultTest, DuplicatedFramesAreDeduplicated) {
  evpath::MessageBus bus;
  RdmaPair pair = make_rdma_pair(&bus);
  // Duplicate every eager frame; the receive link's sequence dedup must
  // deliver each message exactly once, in order.
  auto plan = FaultPlan::parse("dup putmsg nth=1 times=1000\n");
  ASSERT_TRUE(plan.is_ok());
  plan.value().install(&bus.fabric());

  for (int i = 0; i < 20; ++i) {
    std::vector<std::byte> payload{std::byte{static_cast<unsigned char>(i)}};
    ASSERT_TRUE(pair.tx->send("fault.rx", ByteView(payload)).is_ok());
  }
  for (int i = 0; i < 20; ++i) {
    evpath::Message msg;
    ASSERT_TRUE(pair.rx->recv(&msg, 5s).is_ok());
    ASSERT_EQ(msg.payload.size(), 1u);
    EXPECT_EQ(msg.payload[0], std::byte{static_cast<unsigned char>(i)});
  }
  evpath::Message extra;
  EXPECT_EQ(pair.rx->recv(&extra, 50ms).code(), ErrorCode::kTimeout);
}

TEST(FaultTest, DroppedHandshakeStepSurfacesTimeoutNotHang) {
  // Silently drop the writer's first StepAnnounce (occurrence 2 on the
  // writer->reader pair; occurrence 1 is the OpenReply). Both sides must
  // fail with a clean kTimeout within their configured timeout instead of
  // hanging.
  auto plan = FaultPlan::parse("drop putmsg nth=2 from=*sim.0>*\n");
  ASSERT_TRUE(plan.is_ok());
  StressConfig cfg;
  cfg.writers = 1;
  cfg.readers = 1;
  cfg.steps = 2;
  cfg.caching = "none";
  cfg.placement = PlacementMode::kRdma;
  cfg.stream = "dropped_announce";
  cfg.timeout_ms = 2000;
  cfg.faults = &plan.value();
  const auto start = std::chrono::steady_clock::now();
  const StressResult result = run_stress(cfg);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.status.is_ok());
  EXPECT_EQ(result.status.code(), ErrorCode::kTimeout)
      << result.status.to_string();
  EXPECT_GE(plan.value().faults_fired(), 1u);
  // "Not hang": everything unwound within a few timeout periods.
  EXPECT_LT(elapsed, 15s);
}

xml::MethodConfig caching_method(const std::string& params) {
  xml::MethodConfig m;
  m.method = "FLEXIO";
  m.timeout_ms = 20000;
  FLEXIO_CHECK(xml::apply_method_params(params, &m).is_ok());
  return m;
}

/// One caching=all writer/reader session on `rt`; returns the writer
/// coordinator's monitor report as delivered to the reader at close.
std::optional<wire::MonitorReport> run_caching_session(Runtime& rt,
                                                       const std::string& stream,
                                                       int steps) {
  Program sim("sim", 1);
  Program viz("viz", 1);
  std::optional<wire::MonitorReport> report;
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = caching_method("caching=all");
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok()) << w.status().to_string();
    std::vector<double> data(8, 1.0);
    for (int s = 0; s < steps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::global_array_var("v", DataType::kDouble,
                                                      {8}, Box{{0}, {8}}),
                              as_bytes_view(std::span<const double>(data)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{1, 0}};
    spec.method = caching_method("caching=all");
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<double> out(8);
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_TRUE(r.value()
                      ->schedule_read("v", Box{{0}, {8}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(out))))
                      .is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_TRUE(r.value()->end_step().is_ok());
    }
    report = r.value()->writer_report();
  });
  writer.join();
  reader.join();
  return report;
}

TEST(FaultTest, CachingAllRehandshakesAfterPeerRestart) {
  // Session 1 establishes and caches the handshake; "restarting" both peers
  // (new stream objects, same runtime, same stream name) must not reuse the
  // stale cache: the new session performs its own single handshake.
  Runtime rt;
  const int kSteps = 4;
  for (int session = 0; session < 2; ++session) {
    auto report = run_caching_session(rt, "restart", kSteps);
    ASSERT_TRUE(report.has_value()) << "session " << session;
    EXPECT_EQ(report->handshakes_performed, 1u) << "session " << session;
    EXPECT_EQ(report->handshakes_skipped,
              static_cast<std::uint64_t>(kSteps - 1))
        << "session " << session;
  }
}

// wire::Close carries the final step id, so the reader knows the stream end
// even when cached handshakes skip the per-step announce exchange. EOS must
// surface exactly once per begin_step sequence -- after the last data step,
// and sticky on every later call.
class EosTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EosTest, CloseDeliversEosExactlyOnce) {
  const std::string caching = GetParam();
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  const int kSteps = 3;
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "eos_" + caching;
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    // async writes: Close can race the final data step's delivery.
    spec.method = caching_method("caching=" + caching + "; async=yes");
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok()) << w.status().to_string();
    std::vector<double> data(8);
    for (int s = 0; s < kSteps; ++s) {
      std::fill(data.begin(), data.end(), static_cast<double>(s));
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::global_array_var("v", DataType::kDouble,
                                                      {8}, Box{{0}, {8}}),
                              as_bytes_view(std::span<const double>(data)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "eos_" + caching;
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{1, 0}};
    spec.method = caching_method("caching=" + caching + "; async=yes");
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<double> out(8);
    int steps_seen = 0;
    int eos_seen = 0;
    for (int attempt = 0; attempt < kSteps + 3; ++attempt) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) {
        ++eos_seen;
        continue;  // EOS must be sticky, not followed by more steps
      }
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_EQ(eos_seen, 0) << "data step delivered after End-of-Stream";
      ASSERT_EQ(step.value(), steps_seen);
      ASSERT_TRUE(r.value()
                      ->schedule_read("v", Box{{0}, {8}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(out))))
                      .is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      EXPECT_DOUBLE_EQ(out[0], static_cast<double>(steps_seen));
      ASSERT_TRUE(r.value()->end_step().is_ok());
      ++steps_seen;
    }
    // Every announced step arrived before EOS, exactly once each, and every
    // later begin_step kept returning kEndOfStream.
    EXPECT_EQ(steps_seen, kSteps);
    EXPECT_EQ(eos_seen, 3);
  });
  writer.join();
  reader.join();
}

INSTANTIATE_TEST_SUITE_P(AllCachingModes, EosTest,
                         ::testing::Values("none", "local", "all"),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param);
                         });

}  // namespace
}  // namespace flexio::torture
