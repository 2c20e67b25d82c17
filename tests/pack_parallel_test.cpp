// Serial-vs-parallel oracle for the writer's parallel pack + send path.
//
// For every caching level, a seeded random geometry (writers, readers,
// field dims, steps, batching) runs the full stress pipeline serially
// (pack_threads=1) and again at 2 and 4 threads. The stress driver
// cross-checks every delivered element against the golden model, so two
// clean runs of the same config are byte-identical to the golden field --
// and therefore to each other -- regardless of thread count. On top of
// that, the flexio.pack.{bytes,memcpy_runs} counter deltas must be
// *identical* across thread counts: parallel pack must execute exactly
// the same strided copies as serial, just on more threads. Runs under
// TSan via the concurrency label (the acceptance gate for the full
// thread-count x caching matrix).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "harness/stress_driver.h"
#include "util/metrics.h"

namespace flexio::torture {
namespace {

std::uint64_t oracle_seed() {
  const char* env = std::getenv("FLEXIO_TORTURE_SEED");
  if (env == nullptr || *env == '\0') return 0x9ac40107ULL;
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(env, &end, 0);
  if (end == env || *end != '\0') {
    ADD_FAILURE() << "FLEXIO_TORTURE_SEED must be an integer, got \"" << env
                  << "\"";
    return 0x9ac40107ULL;
  }
  return seed;
}

struct PackCounters {
  std::uint64_t bytes = 0;
  std::uint64_t memcpy_runs = 0;
};

PackCounters pack_counters() {
  return PackCounters{metrics::counter("flexio.pack.bytes").value(),
                      metrics::counter("flexio.pack.memcpy_runs").value()};
}

class PackParallelOracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    was_ = metrics::enabled();
    metrics::set_enabled(true);
  }
  void TearDown() override { metrics::set_enabled(was_); }

 private:
  bool was_ = false;
};

TEST_P(PackParallelOracleTest, ThreadCountNeverChangesBytesOrCopies) {
  const std::string caching = GetParam();
  const std::uint64_t seed = oracle_seed();
  // Derive the geometry from (seed, caching) so each caching level covers
  // a different random corner but a failing seed replays exactly.
  std::mt19937_64 rng(seed ^ std::hash<std::string>{}(caching));
  StressConfig base;
  base.caching = caching;
  base.placement = PlacementMode::kShm;
  base.writers = 1 + static_cast<int>(rng() % 3);       // 1..3
  base.readers = 2 + static_cast<int>(rng() % 3);       // 2..4
  base.steps = 2 + static_cast<int>(rng() % 3);         // 2..4
  base.rows = 12 * (1 + rng() % 4);                     // 12..48, /2 /3 /4
  base.cols = 8 + 2 * (rng() % 5);                      // 8..16
  base.async_writes = rng() % 2 == 0;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " writers=" +
               std::to_string(base.writers) + " readers=" +
               std::to_string(base.readers) + " steps=" +
               std::to_string(base.steps) + " rows=" +
               std::to_string(base.rows) + " cols=" + std::to_string(base.cols) +
               (base.async_writes ? " async" : " sync") +
               "; replay with FLEXIO_TORTURE_SEED=" + std::to_string(seed));

  PackCounters serial_delta;
  std::uint64_t serial_verified = 0;
  for (const int pack : {1, 2, 4}) {
    StressConfig cfg = base;
    cfg.pack_threads = pack;
    cfg.stream = "pack_oracle_" + caching + "_" + std::to_string(pack);
    const PackCounters before = pack_counters();
    const StressResult result = run_stress(cfg);
    const PackCounters after = pack_counters();
    ASSERT_TRUE(result.status.is_ok())
        << "pack_threads=" << pack << ": " << result.status.to_string();
    // Every element verified against the golden model: any byte diverging
    // from the serial run fails inside run_stress before we get here.
    ASSERT_GT(result.elements_verified, 0u);
    const PackCounters delta{after.bytes - before.bytes,
                             after.memcpy_runs - before.memcpy_runs};
    if (pack == 1) {
      serial_delta = delta;
      serial_verified = result.elements_verified;
      continue;
    }
    EXPECT_EQ(delta.bytes, serial_delta.bytes) << "pack_threads=" << pack;
    EXPECT_EQ(delta.memcpy_runs, serial_delta.memcpy_runs)
        << "pack_threads=" << pack;
    EXPECT_EQ(result.elements_verified, serial_verified)
        << "pack_threads=" << pack;
  }
}

INSTANTIATE_TEST_SUITE_P(CachingMatrix, PackParallelOracleTest,
                         ::testing::Values("none", "local", "all"),
                         [](const auto& p) { return std::string(p.param); });

// ------------------------------------------------- reader unpack oracle --
//
// Mirror image of the pack oracle: for every caching level, the same
// seeded geometry runs serially (read_threads=1) and again at 2 and 4
// unpack threads. run_stress golden-verifies every delivered element, so a
// clean run is byte-identical to the serial one regardless of thread
// count. On top of that the deterministic unpack accounting must match
// exactly: the flexio.step.unpack.ns histogram gains one record per reader
// step whatever the thread count (the sum of per-task ns is attribution,
// not work done twice), flexio.bytes.received is identical, and the
// per-step critical path (max task) can never exceed the step's task sum.

struct UnpackCounters {
  std::uint64_t bytes_received = 0;
  std::uint64_t unpack_records = 0;
  std::uint64_t unpack_sum_ns = 0;
  std::uint64_t critical_records = 0;
  std::uint64_t critical_sum_ns = 0;
};

UnpackCounters unpack_counters() {
  const auto unpack = metrics::histogram("flexio.step.unpack.ns").snapshot();
  const auto critical =
      metrics::histogram("flexio.step.unpack.critical.ns").snapshot();
  return UnpackCounters{metrics::counter("flexio.bytes.received").value(),
                        unpack.count, unpack.sum, critical.count,
                        critical.sum};
}

class UnpackParallelOracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    was_ = metrics::enabled();
    metrics::set_enabled(true);
  }
  void TearDown() override { metrics::set_enabled(was_); }

 private:
  bool was_ = false;
};

TEST_P(UnpackParallelOracleTest, ThreadCountNeverChangesDeliveredBytes) {
  const std::string caching = GetParam();
  const std::uint64_t seed = oracle_seed();
  // Distinct rng stream from the pack oracle so the two cover different
  // random corners of the geometry space.
  std::mt19937_64 rng(seed ^ 0x5eadU ^ std::hash<std::string>{}(caching));
  StressConfig base;
  base.caching = caching;
  base.placement = PlacementMode::kShm;
  base.writers = 2 + static_cast<int>(rng() % 3);       // 2..4
  base.readers = 1 + static_cast<int>(rng() % 3);       // 1..3
  base.steps = 2 + static_cast<int>(rng() % 3);         // 2..4
  base.rows = 12 * (1 + rng() % 4);                     // 12..48, /2 /3 /4
  base.cols = 8 + 2 * (rng() % 5);                      // 8..16
  base.async_writes = rng() % 2 == 0;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " writers=" +
               std::to_string(base.writers) + " readers=" +
               std::to_string(base.readers) + " steps=" +
               std::to_string(base.steps) + " rows=" +
               std::to_string(base.rows) + " cols=" + std::to_string(base.cols) +
               (base.async_writes ? " async" : " sync") +
               "; replay with FLEXIO_TORTURE_SEED=" + std::to_string(seed));

  std::uint64_t serial_bytes = 0;
  std::uint64_t serial_records = 0;
  std::uint64_t serial_verified = 0;
  for (const int read : {1, 2, 4}) {
    StressConfig cfg = base;
    cfg.read_threads = read;
    cfg.stream = "unpack_oracle_" + caching + "_" + std::to_string(read);
    const UnpackCounters before = unpack_counters();
    const StressResult result = run_stress(cfg);
    const UnpackCounters after = unpack_counters();
    ASSERT_TRUE(result.status.is_ok())
        << "read_threads=" << read << ": " << result.status.to_string();
    // Every element verified against the golden model: any byte diverging
    // from the serial run fails inside run_stress before we get here.
    ASSERT_GT(result.elements_verified, 0u);
    const std::uint64_t bytes = after.bytes_received - before.bytes_received;
    const std::uint64_t records = after.unpack_records - before.unpack_records;
    ASSERT_GT(bytes, 0u) << "read_threads=" << read;
    ASSERT_GT(records, 0u) << "read_threads=" << read;
    // One critical-path record lands with every unpack record, and a max
    // can never exceed its own sum.
    EXPECT_EQ(after.critical_records - before.critical_records, records)
        << "read_threads=" << read;
    EXPECT_LE(after.critical_sum_ns - before.critical_sum_ns,
              after.unpack_sum_ns - before.unpack_sum_ns)
        << "read_threads=" << read;
    if (read == 1) {
      serial_bytes = bytes;
      serial_records = records;
      serial_verified = result.elements_verified;
      continue;
    }
    EXPECT_EQ(bytes, serial_bytes) << "read_threads=" << read;
    EXPECT_EQ(records, serial_records) << "read_threads=" << read;
    EXPECT_EQ(result.elements_verified, serial_verified)
        << "read_threads=" << read;
  }
}

INSTANTIATE_TEST_SUITE_P(CachingMatrix, UnpackParallelOracleTest,
                         ::testing::Values("none", "local", "all"),
                         [](const auto& p) { return std::string(p.param); });

}  // namespace
}  // namespace flexio::torture
