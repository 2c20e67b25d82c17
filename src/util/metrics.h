// Low-overhead global metrics registry: counters, gauges, and log-bucketed
// histograms, shared by every layer of the data path.
//
// Design targets (docs/OBSERVABILITY.md):
//  * Disabled cost is one relaxed atomic load + a predictable branch per
//    call site. Nothing else runs; call sites hold a `static Metric&` so
//    the name lookup happens once per process.
//  * Enabled cost is one relaxed fetch_add on a cacheline-padded per-thread
//    shard, so concurrent writers never bounce a line between cores.
//  * Snapshots are torn-free: every shard is an atomic, so a reader thread
//    sums a monotone set of values while writers keep running (TSan-clean;
//    pinned by tests/metrics_test.cpp).
//  * A process-wide fake clock hook makes every timing metric (and trace
//    span) deterministic under test.
//
// The registry is the runtime's only instrumentation path. It is
// process-global and feeds offline tooling (bench/report.h counter deltas,
// tools/flexio_trace dumps), the live telemetry plane, and test
// invariants. The wire::MonitorReport shipped to the analytics side stays
// exact with the registry off: StreamWriter keeps its few counts as plain
// fields (StreamWriter::counts()).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/cacheline.h"
#include "util/status.h"

namespace flexio::metrics {

namespace detail {
/// Storage for the runtime gate; use enabled()/set_enabled().
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime gate. Initialized from the FLEXIO_METRICS environment variable
/// ("1"/"true"/"on"); tests and benches flip it with set_enabled().
/// Inline so a disabled call site compiles to one relaxed load + branch --
/// an out-of-line call would triple the disabled cost.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Nanosecond clock used by every timing metric and trace span.
/// set_clock_for_testing(nullptr) restores the real steady clock.
using ClockFn = std::uint64_t (*)();
std::uint64_t now_ns();
void set_clock_for_testing(ClockFn fn);

namespace detail {
/// Stable per-thread shard index in [0, kShards).
inline constexpr int kShards = 16;
int this_thread_shard();
}  // namespace detail

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n) {
    if (!enabled()) return;
    shards_[detail::this_thread_shard()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Sum over all shards (readable from any thread while writers run).
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  struct alignas(kCacheLineSize) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[detail::kShards];
};

/// Signed up/down gauge (occupancy, bytes in flight). The value is the sum
/// of per-shard deltas, so add/sub may happen on different threads.
class Gauge {
 public:
  void add(std::int64_t delta) {
    if (!enabled()) return;
    shards_[detail::this_thread_shard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta) { add(-delta); }

  std::int64_t value() const {
    std::int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  struct alignas(kCacheLineSize) Shard {
    std::atomic<std::int64_t> v{0};
  };
  Shard shards_[detail::kShards];
};

/// Summary of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// Cumulative bucket counts in bucket order (see Histogram bucket math).
  std::vector<std::uint64_t> buckets;

  /// Nearest-rank quantile, reported as the lower bound of the bucket that
  /// holds the rank-ceil(q*count) sample. Relative error is bounded by the
  /// sub-bucket width (25% worst case); values that are exact bucket lower
  /// bounds are reported exactly (tests/metrics_test.cpp oracle).
  double quantile(double q) const;
  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

/// Log2-bucketed histogram of non-negative integer samples (latencies in
/// ns, sizes in bytes). 4 linear sub-buckets per octave.
class Histogram {
 public:
  static constexpr int kSubBits = 2;
  static constexpr int kBuckets = 256;

  void record(std::uint64_t v) {
    if (!enabled()) return;
    Shard& s = shards_[detail::this_thread_shard()];
    s.buckets[bucket_for(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    update_min(s.min, v);
    update_max(s.max, v);
  }

  HistogramSnapshot snapshot() const;
  void reset();

  /// Bucket index for a sample value.
  static int bucket_for(std::uint64_t v);
  /// Smallest sample value that maps to bucket `b`.
  static std::uint64_t bucket_lower(int b);

 private:
  friend class Registry;
  Histogram() = default;

  static void update_min(std::atomic<std::uint64_t>& m, std::uint64_t v) {
    std::uint64_t cur = m.load(std::memory_order_relaxed);
    while (v < cur &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void update_max(std::atomic<std::uint64_t>& m, std::uint64_t v) {
    std::uint64_t cur = m.load(std::memory_order_relaxed);
    while (v > cur &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  struct alignas(kCacheLineSize) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets]{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };
  Shard shards_[detail::kShards];
};

/// RAII timer recording elapsed ns into a histogram. Latches the enable
/// decision at construction so a mid-scope flip cannot tear a sample.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram* hist)
      : hist_(hist), armed_(enabled()), start_(armed_ ? now_ns() : 0) {}
  ~ScopedTimerNs() {
    if (armed_) hist_->record(now_ns() - start_);
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram* hist_;
  bool armed_;
  std::uint64_t start_;
};

/// Look up (creating on first use) a metric by name. References stay valid
/// for the life of the process. Naming scheme: <layer>.<object>.<what>,
/// e.g. "nnti.get.bytes", "shm.queue.occupancy", "evpath.send.ns" --
/// see docs/OBSERVABILITY.md for the full catalogue.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

namespace detail {
/// Drop a metric from the registry maps. Future snapshots and scrapes no
/// longer include the name; a later lookup under the same name creates a
/// fresh metric. The registry lets go of the object: it lives on only while
/// a handle from shared_counter()/shared_gauge() holds it. Used by
/// Family::retire when a labeled series (a closed stream's gauges) ends its
/// life. Returns false when the name is not registered.
bool unregister_metric(const std::string& name);

/// Shared handles to the registry metric `name`; they keep it writable (but
/// unscraped) after unregister_metric, and the last one frees it.
std::shared_ptr<Counter> shared_counter(std::string_view name);
std::shared_ptr<Gauge> shared_gauge(std::string_view name);

/// Counter, gauge and histogram objects alive in the process, registered or
/// retired-but-held (for leak tests).
std::size_t live_metric_objects();
}  // namespace detail

/// Bounded-cardinality label family: with(label) resolves to the registry
/// metric `<base>.<label>` for the first `max_labels` distinct labels and
/// to the shared `<base>.other` rollover bucket for every label beyond
/// that, so an unbounded label set (per-stream counters with thousands of
/// streams) cannot bloat the registry or its snapshots. First-come,
/// first-named: which labels get their own series depends on registration
/// order, which is what a per-process family wants (the first N streams a
/// process hosts are the ones worth telling apart; the long tail
/// aggregates). Thread-safe; callers resolve a label once and cache the
/// result -- a share() handle when the label may be retired under them.
template <typename Metric>
class Family {
 public:
  Family(std::string base, std::size_t max_labels)
      : base_(std::move(base)), max_labels_(max_labels) {}
  Family(const Family&) = delete;
  Family& operator=(const Family&) = delete;

  /// The metric for `label`. Stable until retire(label); a holder that may
  /// outlive the retirement takes share() instead.
  Metric& with(std::string_view label) { return *share(label); }

  /// Shared ownership of the metric for `label` (the rollover bucket past
  /// the cap). A retired series stays writable through its handles, is no
  /// longer scraped, and is freed with the last handle.
  std::shared_ptr<Metric> share(std::string_view label) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = resolved_.find(label); it != resolved_.end()) {
      return it->second;
    }
    if (resolved_.size() < max_labels_) {
      auto m = lookup(base_ + "." + std::string(label));
      resolved_.emplace(std::string(label), m);
      return m;
    }
    if (other_ == nullptr) other_ = lookup(base_ + ".other");
    return other_;
  }

  /// Retire `label`: forget it (freeing its cardinality slot for a future
  /// label) and drop its `<base>.<label>` series from registry snapshots,
  /// so a scrape of a long-lived process stops showing closed streams as
  /// live. The metric object is freed once no share() handle holds it. A
  /// later with() of the same label starts a fresh series. Returns false
  /// when the label never had its own series (unknown, or rolled into
  /// `.other`).
  bool retire(std::string_view label) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = resolved_.find(label);
    if (it == resolved_.end()) return false;
    detail::unregister_metric(base_ + "." + it->first);
    resolved_.erase(it);
    return true;
  }

  /// Distinct labels granted their own series so far (excludes rollover).
  std::size_t distinct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return resolved_.size();
  }

 private:
  std::shared_ptr<Metric> lookup(const std::string& name);

  const std::string base_;
  const std::size_t max_labels_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Metric>, std::less<>> resolved_;
  std::shared_ptr<Metric> other_;
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;

template <>
inline std::shared_ptr<Counter> Family<Counter>::lookup(
    const std::string& name) {
  return detail::shared_counter(name);
}
template <>
inline std::shared_ptr<Gauge> Family<Gauge>::lookup(const std::string& name) {
  return detail::shared_gauge(name);
}

/// One entry of a full-registry snapshot.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  HistogramSnapshot hist;
};

/// Torn-free snapshot of every registered metric, keyed by name.
std::map<std::string, MetricSnapshot> snapshot_all();

/// Zero every registered metric (counts only; registration is permanent).
void reset_all();

/// Snapshot rendered as a JSON object {"name": value-or-summary, ...}.
std::string snapshot_json();

/// Snapshot rendered in the Prometheus text exposition format: counters and
/// gauges as single samples, histograms as summaries (`{quantile="0.5"}` /
/// `{quantile="0.99"}` bucket-quantiles plus `_sum` / `_count`). Metric
/// names are sanitized to the Prometheus grammar (`.` and other invalid
/// characters become `_`). This is what telemetry::StatsServer serves at
/// /metrics, so any Prometheus-compatible scraper can watch a live run.
std::string expose_text();

/// Write snapshot_json() to a file.
Status dump_json(const std::string& path);

}  // namespace flexio::metrics
