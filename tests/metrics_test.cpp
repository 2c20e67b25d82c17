// Tests for the global metrics registry (src/util/metrics.h): exact
// concurrent counting, torn-free snapshots while writers run (the TSan CI
// job exercises this file), histogram quantiles against a sorted-vector
// oracle, and the deterministic fake-clock hook.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace flexio::metrics {
namespace {

// Every test flips the global enable gate; restore the default (off unless
// FLEXIO_METRICS was set) so ordering between tests does not matter.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override {
    set_clock_for_testing(nullptr);
    set_enabled(false);
  }
};

std::uint64_t fake_now = 0;
std::uint64_t fake_clock() { return fake_now; }

TEST_F(MetricsTest, RegistryReturnsStableReferences) {
  Counter& a = counter("test.registry.counter");
  Counter& b = counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = gauge("test.registry.gauge");
  Gauge& g2 = gauge("test.registry.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = histogram("test.registry.hist");
  Histogram& h2 = histogram("test.registry.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST_F(MetricsTest, ConcurrentIncrementsSumExactly) {
  Counter& c = counter("test.concurrent.counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, GaugeBalancesAcrossThreads) {
  Gauge& g = gauge("test.concurrent.gauge");
  g.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  // Each thread adds then subtracts; cross-thread add/sub must cancel.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          g.add(3);
        } else {
          g.sub(3);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), 0);
}

// A reader snapshots while writers are mid-update. The sharded atomics mean
// each observed value is a sum of per-shard loads: never torn, and -- since
// counters are monotone -- never exceeding the final total. Run under TSan
// (CI) this also pins that snapshot_all() has no data races.
TEST_F(MetricsTest, SnapshotDuringUpdateIsTornFreeAndMonotone) {
  Counter& c = counter("test.snapshot.counter");
  c.reset();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 100000;
  constexpr std::uint64_t kFinal = kWriters * kPerThread;
  std::atomic<bool> done{false};
  // The writers start once the reader has taken its first snapshot, so a
  // loaded host cannot let them finish before any snapshot overlaps them.
  std::atomic<bool> reader_running{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&c, &reader_running] {
      while (!reader_running.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  std::uint64_t prev = 0;
  std::uint64_t observations = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = snapshot_all();
      reader_running.store(true, std::memory_order_release);
      const auto it = snap.find("test.snapshot.counter");
      ASSERT_NE(it, snap.end());
      ASSERT_EQ(it->second.kind, MetricSnapshot::Kind::kCounter);
      const std::uint64_t v = it->second.counter;
      EXPECT_GE(v, prev) << "counter snapshot went backwards";
      EXPECT_LE(v, kFinal) << "counter snapshot torn past final total";
      prev = v;
      ++observations;
    }
  });
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(observations, 0u);
  EXPECT_EQ(c.value(), kFinal);
}

TEST_F(MetricsTest, HistogramBucketMathRoundTrips) {
  // Every reachable bucket's lower bound must map back to that bucket, and
  // bucket indices must be monotone in the sample value. The array is
  // sized to a power of two, so indices past bucket_for(UINT64_MAX) are
  // unreachable padding.
  const int top = Histogram::bucket_for(~std::uint64_t{0});
  ASSERT_LT(top, Histogram::kBuckets);
  for (int b = 0; b <= top; ++b) {
    EXPECT_EQ(Histogram::bucket_for(Histogram::bucket_lower(b)), b)
        << "bucket " << b;
  }
  int prev = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const int b = Histogram::bucket_for(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

// Oracle test: when every sample is an exact bucket lower bound, the
// histogram loses no information, so its nearest-rank quantile must match
// a sorted-vector nearest-rank oracle exactly.
TEST_F(MetricsTest, HistogramQuantileMatchesSortedVectorOracle) {
  Histogram& h = histogram("test.quantile.hist");
  h.reset();
  std::vector<std::uint64_t> samples;
  // A spread of bucket lower bounds with repeats, recorded out of order.
  for (int b : {0, 1, 2, 3, 5, 9, 17, 33, 64, 120, 3, 9, 9, 64, 0, 17}) {
    samples.push_back(Histogram::bucket_lower(b));
  }
  for (std::uint64_t v : samples) h.record(v);

  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto oracle = [&sorted](double q) -> double {
    const auto n = static_cast<double>(sorted.size());
    const auto rank =
        static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    return static_cast<double>(sorted[rank - 1]);
  };

  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.min, sorted.front());
  EXPECT_EQ(snap.max, sorted.back());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.quantile(q), oracle(q)) << "q=" << q;
  }
  std::uint64_t sum = 0;
  for (std::uint64_t v : sorted) sum += v;
  EXPECT_EQ(snap.sum, sum);
  EXPECT_DOUBLE_EQ(snap.mean(),
                   static_cast<double>(sum) / static_cast<double>(sorted.size()));
}

TEST_F(MetricsTest, QuantileBoundedErrorForArbitrarySamples) {
  // For samples that are not bucket lower bounds, the reported quantile is
  // the lower bound of the sample's bucket: never above the true value and
  // within one sub-bucket width below it.
  Histogram& h = histogram("test.quantile.approx");
  h.reset();
  std::vector<std::uint64_t> samples = {7,   13,  99,  1000, 777, 42,
                                        511, 513, 100, 3,    65,  129};
  for (std::uint64_t v : samples) h.record(v);
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const HistogramSnapshot snap = h.snapshot();
  for (double q : {0.25, 0.5, 0.9, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
    const auto truth = static_cast<double>(sorted[rank - 1]);
    const double reported = snap.quantile(q);
    EXPECT_LE(reported, truth) << "q=" << q;
    EXPECT_EQ(reported,
              static_cast<double>(Histogram::bucket_lower(
                  Histogram::bucket_for(sorted[rank - 1]))))
        << "q=" << q;
  }
}

TEST_F(MetricsTest, FakeClockMakesTimersDeterministic) {
  fake_now = 1000;
  set_clock_for_testing(&fake_clock);
  EXPECT_EQ(now_ns(), 1000u);
  Histogram& h = histogram("test.fakeclock.hist");
  h.reset();
  {
    ScopedTimerNs timer(&h);
    fake_now += 64;  // a bucket lower bound: recorded exactly
  }
  {
    ScopedTimerNs timer(&h);
    fake_now += 256;
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.min, 64u);
  EXPECT_EQ(snap.max, 256u);
  EXPECT_EQ(snap.sum, 320u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 64.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 256.0);
  set_clock_for_testing(nullptr);
  // Real steady clock is monotone again.
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_GE(b, a);
}

TEST_F(MetricsTest, DisabledRecordingIsDropped) {
  Counter& c = counter("test.disabled.counter");
  Gauge& g = gauge("test.disabled.gauge");
  Histogram& h = histogram("test.disabled.hist");
  c.reset();
  g.reset();
  h.reset();
  set_enabled(false);
  c.inc();
  g.add(5);
  h.record(123);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  // ScopedTimerNs latches the gate at construction: enabling mid-scope
  // must not record a sample with a garbage start time.
  {
    ScopedTimerNs timer(&h);
    set_enabled(true);
  }
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(MetricsTest, ResetAllZeroesEveryMetric) {
  Counter& c = counter("test.resetall.counter");
  Histogram& h = histogram("test.resetall.hist");
  c.add(7);
  h.record(9);
  reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(MetricsTest, SnapshotJsonContainsRegisteredMetrics) {
  Counter& c = counter("test.json.counter");
  c.reset();
  c.add(42);
  const std::string json = snapshot_json();
  EXPECT_NE(json.find("\"test.json.counter\": 42"), std::string::npos)
      << json;
}

TEST_F(MetricsTest, FamilyRollsOverToOtherBeyondMaxLabels) {
  // Bounded cardinality: the first max_labels distinct labels get their own
  // registry series, everything past the cap shares `<base>.other` -- a
  // thousand-stream process must not register a thousand counters.
  CounterFamily fam("test.family.stalls", 3);
  fam.with("s0").add(1);
  fam.with("s1").add(2);
  fam.with("s2").add(3);
  EXPECT_EQ(fam.distinct(), 3u);
  // Over the cap: distinct labels collapse into one rollover counter.
  fam.with("s3").add(10);
  fam.with("s4").add(20);
  EXPECT_EQ(fam.distinct(), 3u);
  EXPECT_EQ(&fam.with("s3"), &fam.with("s4"));
  EXPECT_EQ(counter("test.family.stalls.other").value(), 30u);
  // Already-admitted labels keep resolving to their own series.
  fam.with("s1").add(5);
  EXPECT_EQ(counter("test.family.stalls.s1").value(), 7u);
  EXPECT_EQ(&fam.with("s1"), &counter("test.family.stalls.s1"));
  // Re-probing a rolled-over label never steals an admitted slot.
  EXPECT_EQ(&fam.with("s3"), &counter("test.family.stalls.other"));

  // Gauges roll over the same way.
  GaugeFamily gfam("test.family.queued", 1);
  gfam.with("a").add(4);
  gfam.with("b").add(6);
  gfam.with("c").sub(1);
  EXPECT_EQ(gauge("test.family.queued.a").value(), 4);
  EXPECT_EQ(gauge("test.family.queued.other").value(), 5);
}

TEST_F(MetricsTest, FamilyConcurrentRegistrationIsConsistent) {
  // Races on the admission boundary must resolve to exactly max_labels own
  // series plus one rollover; every add lands in exactly one counter.
  CounterFamily fam("test.family.race", 8);
  constexpr int kThreads = 4;
  constexpr int kLabels = 32;
  constexpr int kAddsPerLabel = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fam] {
      for (int i = 0; i < kAddsPerLabel; ++i) {
        for (int l = 0; l < kLabels; ++l) {
          fam.with("l" + std::to_string(l)).inc();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fam.distinct(), 8u);
  // Sum the distinct series (8 own + the rollover): every increment must
  // have landed in exactly one of them.
  std::uint64_t total = counter("test.family.race.other").value();
  int own = 0;
  for (int l = 0; l < kLabels; ++l) {
    Counter& c = counter("test.family.race.l" + std::to_string(l));
    if (&fam.with("l" + std::to_string(l)) == &c) {
      total += c.value();
      ++own;
    }
  }
  EXPECT_EQ(own, 8);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kLabels *
                       kAddsPerLabel);
}

}  // namespace
}  // namespace flexio::metrics
