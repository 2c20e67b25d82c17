// Tests for the live telemetry plane: Prometheus-style text exposition,
// label-family retirement (including the stream-close path through the
// registry), the shared flexio-stats-v1 delta encoder, the heartbeat
// stats trailer and its directory-side cluster aggregation, the health
// watchdog's detectors under the fake clock, and the stats server's
// scrape endpoints over a real loopback socket.
//
// The two acceptance scenarios from the issue live here: an injected
// credit-starvation stall plus a killed reader rank must produce exactly
// the two matching flexio-health-v1 events within two watchdog intervals
// (WatchdogTest.StarvedStreamAndDeadRankEmitExactlyTwoEvents), and one
// scrape of a simulated 2-rank deployment must return both ranks'
// per-phase histograms through the directory aggregation path
// (ClusterTest.TwoRankScrapeReturnsBothRanksPhaseHistograms).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/runtime.h"
#include "core/wire.h"
#include "evpath/directory.h"
#include "util/flight_recorder.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/stats_delta.h"
#include "util/stats_server.h"
#include "util/watchdog.h"

namespace flexio {
namespace {

using namespace std::chrono_literals;

std::atomic<std::uint64_t> g_fake_ns{0};
std::uint64_t fake_clock() {
  return g_fake_ns.load(std::memory_order_relaxed);
}

/// RAII: metrics + fake clock on, everything restored on destruction.
class FakeClockFixture {
 public:
  FakeClockFixture() {
    was_metrics_ = metrics::enabled();
    metrics::set_enabled(true);
    g_fake_ns.store(1000, std::memory_order_relaxed);
    metrics::set_clock_for_testing(&fake_clock);
  }
  ~FakeClockFixture() {
    metrics::set_clock_for_testing(nullptr);
    metrics::set_enabled(was_metrics_);
  }

  void advance(std::uint64_t ns) {
    g_fake_ns.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  bool was_metrics_ = false;
};

bool snapshot_has(const std::string& name) {
  const auto snaps = metrics::snapshot_all();
  return snaps.find(name) != snaps.end();
}

// ------------------------------------------------------- text exposition --

TEST(ExposeTest, RendersCountersGaugesAndHistogramSummaries) {
  metrics::set_enabled(true);
  metrics::counter("telemetrytest.expose.count").add(3);
  metrics::gauge("telemetrytest.expose.gauge").add(7);
  metrics::Histogram& h = metrics::histogram("telemetrytest.expose.hist");
  h.record(100);
  h.record(200);

  const std::string text = metrics::expose_text();
  // Dots sanitize to underscores; counters and gauges are single samples.
  EXPECT_NE(text.find("# TYPE telemetrytest_expose_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("telemetrytest_expose_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE telemetrytest_expose_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("telemetrytest_expose_gauge 7"), std::string::npos);
  // Histograms render as summaries: quantile samples plus _sum and _count.
  EXPECT_NE(text.find("telemetrytest_expose_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("telemetrytest_expose_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("telemetrytest_expose_hist_sum 300"),
            std::string::npos);
  EXPECT_NE(text.find("telemetrytest_expose_hist_count 2"),
            std::string::npos);
}

// ----------------------------------------------------- family retirement --

TEST(FamilyTest, RetireFreesCardinalitySlotAndDropsSeries) {
  metrics::set_enabled(true);
  metrics::Family<metrics::Counter> fam("telemetrytest.fam", 2);
  fam.with("a").inc();
  fam.with("b").inc();
  fam.with("c").inc();  // over the cap: lands in .other
  EXPECT_TRUE(snapshot_has("telemetrytest.fam.a"));
  EXPECT_TRUE(snapshot_has("telemetrytest.fam.b"));
  EXPECT_FALSE(snapshot_has("telemetrytest.fam.c"));
  EXPECT_TRUE(snapshot_has("telemetrytest.fam.other"));

  // Retiring a resolved label drops its series from scrapes...
  EXPECT_TRUE(fam.retire("a"));
  EXPECT_FALSE(snapshot_has("telemetrytest.fam.a"));
  // ...and frees the slot: the next new label gets its own series.
  fam.with("d").inc();
  EXPECT_TRUE(snapshot_has("telemetrytest.fam.d"));

  // Labels that never had their own series cannot be retired.
  EXPECT_FALSE(fam.retire("c"));
  EXPECT_FALSE(fam.retire("never-seen"));
}

TEST(FamilyTest, StreamCloseRetiresPerStreamSeries) {
  metrics::set_enabled(true);
  Runtime rt;
  MuxOptions mux;
  mux.shared_links = true;
  mux.timeout = 20s;
  auto ch = rt.registry().attach("retire_probe", "progT", 0,
                                 evpath::Location{0, 0}, evpath::LinkOptions{},
                                 mux);
  ASSERT_TRUE(ch.is_ok()) << ch.status().to_string();
  EXPECT_TRUE(snapshot_has("flexio.stream.credits.retire_probe"));
  EXPECT_TRUE(snapshot_has("flexio.stream.queued_bytes.retire_probe"));
  EXPECT_TRUE(snapshot_has("flexio.stream.stalls.retire_probe"));

  // Dropping the last channel for the stream retires all three series, so
  // a long-lived process's scrape stops showing closed streams as live.
  ch.value().reset();
  EXPECT_FALSE(snapshot_has("flexio.stream.credits.retire_probe"));
  EXPECT_FALSE(snapshot_has("flexio.stream.queued_bytes.retire_probe"));
  EXPECT_FALSE(snapshot_has("flexio.stream.stalls.retire_probe"));
}

TEST(FamilyTest, ClosedSharedStreamsFreeTheirSeries) {
  // Each shared-mode stream owns three per-stream series. Once a closed
  // stream's last holder lets go, its retired series must be freed, not
  // leaked: opening and closing many streams keeps the number of live
  // metric objects flat.
  metrics::set_enabled(true);
  Runtime rt;
  MuxOptions mux;
  mux.shared_links = true;
  mux.timeout = 20s;
  auto open_close = [&](int i) {
    auto ch = rt.registry().attach("leak_probe_" + std::to_string(i), "progT",
                                   0, evpath::Location{0, 0},
                                   evpath::LinkOptions{}, mux);
    ASSERT_TRUE(ch.is_ok()) << ch.status().to_string();
  };
  // Warm up: process-wide metrics register on first use.
  for (int i = 0; i < 4; ++i) open_close(i);
  const std::size_t live = metrics::detail::live_metric_objects();
  for (int i = 4; i < 260; ++i) open_close(i);
  EXPECT_EQ(metrics::detail::live_metric_objects(), live);
}

// --------------------------------------------------------- delta encoder --

TEST(DeltaEncoderTest, HistogramDeltasCarryCumulativeQuantiles) {
  FakeClockFixture fix;
  telemetry::DeltaEncoder enc;
  enc.prime();

  metrics::Histogram& h =
      metrics::histogram("telemetrytest.delta.quantiles");
  for (int i = 0; i < 100; ++i) h.record(1024);
  const std::string line = enc.next_line(1, 5000);
  ASSERT_FALSE(line.empty());

  auto doc = json::parse(line);
  ASSERT_TRUE(doc.is_ok()) << line;
  const json::Value* hists = doc.value().find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* hist = hists->find("telemetrytest.delta.quantiles");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_number(), 100);
  EXPECT_EQ(hist->find("sum")->as_number(), 100 * 1024);
  // p50/p99 are cumulative bucket-quantiles at sample time; every sample
  // is the exact bucket lower bound 1024, so both report exactly.
  ASSERT_NE(hist->find("p50"), nullptr);
  ASSERT_NE(hist->find("p99"), nullptr);
  EXPECT_EQ(hist->find("p50")->as_number(), 1024.0);
  EXPECT_EQ(hist->find("p99")->as_number(), 1024.0);

  // Nothing moved: no line.
  EXPECT_TRUE(enc.next_line(2, 6000).empty());
}

// -------------------------------------------------- flight-recorder tail --

TEST(FlightTailTest, RecordEventEntersTailAndFile) {
  FakeClockFixture fix;
  const std::string path =
      testing::TempDir() + "telemetrytest_flight_tail.jsonl";
  std::remove(path.c_str());
  flight::Options opts;
  opts.path = path;
  opts.background = false;
  ASSERT_TRUE(flight::start(opts).is_ok());

  metrics::counter("telemetrytest.tail.counter").inc();
  ASSERT_TRUE(flight::sample_now().is_ok());
  flight::record_event("{\"schema\":\"flexio-health-v1\",\"rule\":\"t\"}");
  flight::stop();

  const auto tail = flight::tail(16);
  ASSERT_GE(tail.size(), 2u);  // start marker, sample, event
  bool saw_event = false;
  for (const std::string& line : tail) {
    if (line.find("flexio-health-v1") != std::string::npos) saw_event = true;
    EXPECT_TRUE(json::parse(line).is_ok()) << line;
  }
  EXPECT_TRUE(saw_event);
  // tail(n) bounds the result.
  EXPECT_LE(flight::tail(1).size(), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------- health watchdog --

/// Acceptance: an injected credit-starvation stall plus a killed reader
/// rank produce the two matching flexio-health-v1 events -- and only
/// those -- within two watchdog intervals under the fake clock.
TEST(WatchdogTest, StarvedStreamAndDeadRankEmitExactlyTwoEvents) {
  FakeClockFixture fix;

  // A directory with one joined reader rank that will miss its TTL.
  evpath::DirectoryServer directory;
  evpath::MembershipOptions membership;
  membership.enabled = true;
  membership.ttl = std::chrono::nanoseconds(150);
  directory.set_membership_options(membership);
  ASSERT_TRUE(directory.register_stream("wd_fields", "writer0").is_ok());
  ASSERT_TRUE(directory.join_member("wd_fields", 1, "reader1").is_ok());

  // An injected credit-starved stream: credits pinned at 0 with stalls
  // climbing (queued bytes present, so the disjoint no-progress rule must
  // stay quiet: it requires credits > 0).
  metrics::Gauge& credits = metrics::gauge("flexio.stream.credits.wd_fields");
  metrics::Counter& stalls =
      metrics::counter("flexio.stream.stalls.wd_fields");
  metrics::gauge("flexio.stream.queued_bytes.wd_fields").add(4096);
  (void)credits;  // stays 0: starved

  telemetry::Watchdog watchdog;
  telemetry::WatchdogOptions options;
  options.interval_ns = 100;
  options.credit_intervals = 2;
  options.membership_probe = [&directory] {
    return directory.dead_members();
  };
  ASSERT_TRUE(watchdog.start(options).is_ok());

  // Interval 1 (t=1100): first sighting primes the stream baseline. The
  // reader's TTL (joined at t=1000, ttl 150) has not expired yet.
  stalls.inc();
  fix.advance(100);
  watchdog.poll();
  EXPECT_EQ(watchdog.events().size(), 0u);

  // Interval 2 (t=1200): starved interval 1 of 2. TTL now expired.
  stalls.inc();
  fix.advance(100);
  watchdog.poll();

  // Interval 3 (t=1300): starved interval 2 -> credit-starved fires.
  stalls.inc();
  fix.advance(100);
  watchdog.poll();

  const auto events = watchdog.events();
  ASSERT_EQ(events.size(), 2u);  // exactly the two injected faults
  const auto find_rule = [&events](const std::string& rule)
      -> const telemetry::HealthEvent* {
    for (const auto& ev : events) {
      if (ev.rule == rule) return &ev;
    }
    return nullptr;
  };
  const telemetry::HealthEvent* starved = find_rule("credit-starved");
  ASSERT_NE(starved, nullptr);
  EXPECT_EQ(starved->subject, "wd_fields");
  const telemetry::HealthEvent* dead = find_rule("rank-dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->subject, "wd_fields/1");
  EXPECT_EQ(watchdog.active_conditions(), 2u);

  // Both render as valid flexio-health-v1 JSON (what /health serves).
  for (const auto& ev : events) {
    auto doc = json::parse(ev.to_json());
    ASSERT_TRUE(doc.is_ok()) << ev.to_json();
    EXPECT_EQ(doc.value().find("schema")->as_string(), "flexio-health-v1");
  }

  // The latch holds: the same conditions do not re-emit...
  stalls.inc();
  fix.advance(100);
  watchdog.poll();
  EXPECT_EQ(watchdog.events().size(), 2u);

  // ...until the starvation clears, after which it may fire again.
  metrics::gauge("flexio.stream.credits.wd_fields").add(5);
  fix.advance(100);
  watchdog.poll();
  EXPECT_EQ(watchdog.active_conditions(), 1u);  // rank-dead stays latched

  watchdog.stop();
}

TEST(WatchdogTest, SpinRunawayAndPoolDeadlineRules) {
  FakeClockFixture fix;
  metrics::reset_all();  // clear pool/spin history from earlier tests

  metrics::Counter& spins = metrics::counter("shm.queue.full_spins");
  spins.add(500);  // pre-start history: baselined away by start()

  telemetry::Watchdog watchdog;
  telemetry::WatchdogOptions options;
  options.interval_ns = 100;
  options.full_spin_limit = 1000;
  options.task_deadline_ns = 10'000;
  ASSERT_TRUE(watchdog.start(options).is_ok());

  // Below the per-interval limit: quiet.
  spins.add(900);
  fix.advance(100);
  watchdog.poll();
  EXPECT_EQ(watchdog.events().size(), 0u);

  // Runaway interval: fires once.
  spins.add(5000);
  fix.advance(100);
  watchdog.poll();
  ASSERT_EQ(watchdog.events().size(), 1u);
  EXPECT_EQ(watchdog.events()[0].rule, "shm-spin-runaway");

  // A pool task over the deadline fires; a shorter one does not re-fire;
  // a strictly longer one reports again.
  metrics::Histogram& exec = metrics::histogram("flexio.pool.exec_ns");
  exec.record(50'000);
  fix.advance(100);
  watchdog.poll();
  ASSERT_EQ(watchdog.events().size(), 2u);
  EXPECT_EQ(watchdog.events()[1].rule, "pool-task-deadline");

  exec.record(20'000);  // over deadline but under the reported max
  fix.advance(100);
  watchdog.poll();
  EXPECT_EQ(watchdog.events().size(), 2u);

  exec.record(200'000);
  fix.advance(100);
  watchdog.poll();
  ASSERT_EQ(watchdog.events().size(), 3u);
  EXPECT_EQ(watchdog.events()[2].rule, "pool-task-deadline");

  watchdog.stop();
}

TEST(WatchdogTest, SecondWatchdogRejectedAndHookDispatches) {
  FakeClockFixture fix;
  EXPECT_FALSE(telemetry::watchdog_active());
  telemetry::maybe_poll();  // no watchdog: the near-free path

  telemetry::Watchdog watchdog;
  telemetry::WatchdogOptions options;
  options.interval_ns = 100;
  ASSERT_TRUE(watchdog.start(options).is_ok());
  EXPECT_TRUE(telemetry::watchdog_active());

  telemetry::Watchdog second;
  EXPECT_EQ(second.start(options).code(), ErrorCode::kFailedPrecondition);

  // The cooperative hook evaluates only when a poll was requested.
  fix.advance(100);
  telemetry::maybe_poll();  // not requested: no-op
  telemetry::request_poll();
  telemetry::maybe_poll();  // performs the poll (no conditions: no events)
  EXPECT_EQ(watchdog.events().size(), 0u);

  watchdog.stop();
  EXPECT_FALSE(telemetry::watchdog_active());
}

// ------------------------------------------------ heartbeat stats trailer --

TEST(WireTrailerTest, HeartbeatStatsTrailerRoundTrips) {
  wire::Heartbeat hb;
  hb.stream = "wind";
  hb.rank = 3;
  hb.incarnation = 7;
  hb.send_ns = 42;
  hb.program = "viz";
  hb.stats = "{\"schema\":\"flexio-stats-v1\",\"seq\":1,\"t_ns\":42}";

  auto decoded = wire::decode_heartbeat(ByteView(wire::encode(hb)));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().stream, "wind");
  EXPECT_EQ(decoded.value().rank, 3);
  EXPECT_EQ(decoded.value().incarnation, 7u);
  EXPECT_EQ(decoded.value().program, "viz");
  EXPECT_EQ(decoded.value().stats, hb.stats);
}

TEST(WireTrailerTest, HeartbeatWithoutStatsDecodesEmpty) {
  // A frame with no stats trailer -- byte-identical to what a pre-trailer
  // encoder produced -- must decode with both fields empty.
  wire::Heartbeat hb;
  hb.stream = "wind";
  hb.rank = 1;
  hb.incarnation = 2;
  auto decoded = wire::decode_heartbeat(ByteView(wire::encode(hb)));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().program.empty());
  EXPECT_TRUE(decoded.value().stats.empty());
}

TEST(WireTrailerTest, StatsAndTraceTrailersCoexist) {
  wire::Heartbeat hb;
  hb.stream = "wind";
  hb.rank = 0;
  hb.incarnation = 1;
  wire::TraceContext trace;
  trace.span_id = 99;
  hb.trace = trace;
  hb.program = "sim";
  hb.stats = "{\"schema\":\"flexio-stats-v1\",\"seq\":2,\"t_ns\":7}";

  auto decoded = wire::decode_heartbeat(ByteView(wire::encode(hb)));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_TRUE(decoded.value().trace.has_value());
  EXPECT_EQ(decoded.value().trace->span_id, 99u);
  EXPECT_EQ(decoded.value().program, "sim");
  EXPECT_EQ(decoded.value().stats, hb.stats);
}

// --------------------------------------------------- cluster aggregation --

std::string stats_line(std::uint64_t t_ns, std::uint64_t pack_count,
                       std::uint64_t pack_sum) {
  std::string line = "{\"schema\":\"flexio-stats-v1\",\"seq\":1,\"t_ns\":" +
                     std::to_string(t_ns) + ",\"counters\":{" +
                     "\"flexio.bytes.sent\":1024},\"gauges\":{" +
                     "\"shm.queue.occupancy\":2},\"histograms\":{";
  bool first = true;
  for (const char* phase :
       {"pack", "enqueue", "transfer", "unpack", "total"}) {
    if (!first) line += ",";
    first = false;
    line += "\"flexio.step." + std::string(phase) + ".ns\":{\"count\":" +
            std::to_string(pack_count) + ",\"sum\":" +
            std::to_string(pack_sum) +
            ",\"p50\":2048.0,\"p99\":8192.0}";
  }
  line += "}}";
  return line;
}

TEST(DirectoryFoldTest, AccumulatesDeltasAndRejectsMalformed) {
  evpath::DirectoryServer directory;
  ASSERT_TRUE(
      directory.fold_stats("viz", 0, stats_line(100, 2, 5000)).is_ok());
  ASSERT_TRUE(
      directory.fold_stats("viz", 0, stats_line(200, 3, 7000)).is_ok());

  const auto cluster = directory.cluster();
  ASSERT_EQ(cluster.size(), 1u);
  const evpath::RankStats& rs = cluster[0];
  EXPECT_EQ(rs.program, "viz");
  EXPECT_EQ(rs.rank, 0);
  EXPECT_EQ(rs.frames, 2u);
  EXPECT_EQ(rs.last_ns, 200u);
  // Counters and histogram count/sum accumulate deltas; gauges and
  // quantiles keep the latest value.
  EXPECT_EQ(rs.counters.at("flexio.bytes.sent"), 2048u);
  EXPECT_EQ(rs.gauges.at("shm.queue.occupancy"), 2);
  const auto& pack = rs.histograms.at("flexio.step.pack.ns");
  EXPECT_EQ(pack.count, 5u);
  EXPECT_EQ(pack.sum, 12000u);
  EXPECT_EQ(pack.p50, 2048.0);
  EXPECT_EQ(pack.p99, 8192.0);

  // Malformed or wrong-schema lines are rejected without partial folds.
  EXPECT_FALSE(directory.fold_stats("viz", 0, "{ not json").is_ok());
  EXPECT_FALSE(
      directory.fold_stats("viz", 0, "{\"schema\":\"wrong-v9\"}").is_ok());
  EXPECT_EQ(directory.cluster()[0].frames, 2u);
}

/// Acceptance: one scrape of a 2-rank simulated deployment returns both
/// ranks' per-phase histograms through the directory aggregation path --
/// heartbeat frames with stats trailers delivered through the runtime,
/// folded by the directory, served at /cluster, fetched over a real
/// loopback socket.
TEST(ClusterTest, TwoRankScrapeReturnsBothRanksPhaseHistograms) {
  Runtime rt;
  evpath::MembershipOptions membership;
  membership.enabled = true;
  membership.ttl = std::chrono::seconds(5);
  rt.directory().set_membership_options(membership);
  ASSERT_TRUE(rt.directory().register_stream("wind", "writer0").is_ok());

  for (int rank = 0; rank < 2; ++rank) {
    auto member = rt.directory().join_member("wind", rank,
                                             "reader" + std::to_string(rank));
    ASSERT_TRUE(member.is_ok());
    wire::Heartbeat hb;
    hb.stream = "wind";
    hb.rank = rank;
    hb.incarnation = member.value().incarnation;
    hb.send_ns = 50 + static_cast<std::uint64_t>(rank);
    hb.program = "viz";
    hb.stats = stats_line(50 + static_cast<std::uint64_t>(rank),
                          4 + static_cast<std::uint64_t>(rank), 9000);
    ASSERT_TRUE(
        rt.deliver_heartbeat(ByteView(wire::encode(hb))).is_ok());
  }

  telemetry::StatsServer server;
  ASSERT_TRUE(server.start("127.0.0.1:0").is_ok());
  server.add_source("/cluster",
                    [&rt] { return rt.directory().cluster_json(); });

  std::string body;
  ASSERT_TRUE(telemetry::scrape(server.address(), "/cluster", &body).is_ok());
  server.stop();

  auto doc = json::parse(body);
  ASSERT_TRUE(doc.is_ok()) << body;
  EXPECT_EQ(doc.value().find("schema")->as_string(), "flexio-cluster-v1");
  const json::Value* ranks = doc.value().find("ranks");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->as_array().size(), 2u);
  for (int rank = 0; rank < 2; ++rank) {
    const json::Value& r = ranks->as_array()[static_cast<std::size_t>(rank)];
    EXPECT_EQ(r.find("program")->as_string(), "viz");
    EXPECT_EQ(r.find("rank")->as_number(), rank);
    const json::Value* hists = r.find("histograms");
    ASSERT_NE(hists, nullptr);
    for (const char* phase :
         {"pack", "enqueue", "transfer", "unpack", "total"}) {
      const json::Value* h =
          hists->find("flexio.step." + std::string(phase) + ".ns");
      ASSERT_NE(h, nullptr) << "rank " << rank << " missing " << phase;
      EXPECT_EQ(h->find("count")->as_number(), 4 + rank);
      EXPECT_EQ(h->find("p50")->as_number(), 2048.0);
      EXPECT_EQ(h->find("p99")->as_number(), 8192.0);
    }
  }
}

TEST(MonitorTest, ClusterPhaseReportFoldsAcrossRanks) {
  evpath::ClusterSnapshot cluster;
  for (int rank = 0; rank < 2; ++rank) {
    evpath::RankStats rs;
    rs.program = "viz";
    rs.rank = rank;
    rs.histograms["flexio.step.pack.ns"] = {10, 1000, 0, 0};
    rs.histograms["flexio.step.total.ns"] = {10, 5000, 0, 0};
    rs.counters["flexio.bytes.sent"] = 4096;
    rs.counters["flexio.handshake.performed"] = 3;
    cluster.push_back(rs);
  }
  evpath::RankStats other;
  other.program = "sim";
  other.rank = 0;
  other.histograms["flexio.step.pack.ns"] = {99, 99999, 0, 0};
  cluster.push_back(other);

  const wire::MonitorReport all = cluster_phase_report(cluster);
  EXPECT_EQ(all.pack_ns, 1000u + 1000u + 99999u);
  EXPECT_EQ(all.phase_steps, 20u);

  const wire::MonitorReport viz = cluster_phase_report(cluster, "viz");
  EXPECT_EQ(viz.pack_ns, 2000u);
  EXPECT_EQ(viz.total_ns, 10000u);
  EXPECT_EQ(viz.phase_steps, 20u);
  EXPECT_EQ(viz.bytes_sent, 8192u);
  EXPECT_EQ(viz.handshakes_performed, 6u);
}

// ------------------------------------------------------------ stats server --

TEST(StatsServerTest, ServesMetricsHealthAndFlight) {
  FakeClockFixture fix;
  metrics::counter("telemetrytest.server.counter").add(5);

  telemetry::StatsServer server;
  ASSERT_TRUE(server.start("127.0.0.1:0").is_ok());
  EXPECT_TRUE(server.running());
  // Double start is rejected.
  EXPECT_FALSE(server.start("127.0.0.1:0").is_ok());

  std::string body;
  ASSERT_TRUE(telemetry::scrape(server.address(), "/metrics", &body).is_ok());
  EXPECT_NE(body.find("telemetrytest_server_counter 5"), std::string::npos);

  // /health is empty without a watchdog, then serves its events.
  ASSERT_TRUE(telemetry::scrape(server.address(), "/health", &body).is_ok());
  EXPECT_TRUE(body.empty());

  evpath::DirectoryServer directory;
  evpath::MembershipOptions membership;
  membership.enabled = true;
  membership.ttl = std::chrono::nanoseconds(50);
  directory.set_membership_options(membership);
  ASSERT_TRUE(directory.register_stream("hs", "w").is_ok());
  ASSERT_TRUE(directory.join_member("hs", 2, "r").is_ok());
  telemetry::Watchdog watchdog;
  telemetry::WatchdogOptions options;
  options.interval_ns = 100;
  options.membership_probe = [&directory] {
    return directory.dead_members();
  };
  ASSERT_TRUE(watchdog.start(options).is_ok());
  server.set_watchdog(&watchdog);
  fix.advance(200);  // past the TTL and the poll interval
  watchdog.poll();
  ASSERT_TRUE(telemetry::scrape(server.address(), "/health", &body).is_ok());
  EXPECT_NE(body.find("\"rule\":\"rank-dead\""), std::string::npos);
  EXPECT_NE(body.find("\"subject\":\"hs/2\""), std::string::npos);

  // /flight serves the recorder's in-memory tail (health events included
  // via flight::record_event even when no recorder is running).
  ASSERT_TRUE(telemetry::scrape(server.address(), "/flight", &body).is_ok());
  EXPECT_NE(body.find("flexio-health-v1"), std::string::npos);

  // Unknown paths 404 (scrape reports the non-200 as an error).
  EXPECT_FALSE(
      telemetry::scrape(server.address(), "/nope", &body).is_ok());

  server.set_watchdog(nullptr);
  watchdog.stop();
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent

  // Scraping a closed server fails instead of hanging.
  EXPECT_FALSE(telemetry::scrape("127.0.0.1:1", "/metrics", &body).is_ok());
}

TEST(StatsServerTest, PublishFlagAndConfigure) {
  const bool was = telemetry::publish_enabled();
  telemetry::set_publish_enabled(false);
  EXPECT_FALSE(telemetry::publish_enabled());
  // configure with no address only ORs in the publish flag; it never
  // starts a listener.
  telemetry::StatsServer& server = telemetry::configure("", true);
  EXPECT_TRUE(telemetry::publish_enabled());
  EXPECT_FALSE(server.running());
  telemetry::configure("", false);  // cannot un-publish
  EXPECT_TRUE(telemetry::publish_enabled());
  telemetry::set_publish_enabled(was);
}

}  // namespace
}  // namespace flexio
