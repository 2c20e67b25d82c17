#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/strings.h"

namespace flexio::metrics {

namespace {

bool env_on(const char* name) {
  const char* v = std::getenv(name);
  if (!v) return false;
  return std::string_view(v) == "1" || std::string_view(v) == "true" ||
         std::string_view(v) == "on";
}

std::uint64_t real_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<ClockFn> g_clock{&real_now_ns};

}  // namespace

namespace detail {
std::atomic<bool> g_enabled{env_on("FLEXIO_METRICS")};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return g_clock.load(std::memory_order_relaxed)();
}

void set_clock_for_testing(ClockFn fn) {
  g_clock.store(fn ? fn : &real_now_ns, std::memory_order_relaxed);
}

namespace detail {

int this_thread_shard() {
  static std::atomic<unsigned> next{0};
  thread_local const int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % kShards);
  return shard;
}

}  // namespace detail

// ------------------------------------------------------------- Histogram --

int Histogram::bucket_for(std::uint64_t v) {
  if (v < (std::uint64_t{1} << kSubBits)) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((v >> shift) & ((1u << kSubBits) - 1));
  return ((msb - kSubBits + 1) << kSubBits) + sub;
}

std::uint64_t Histogram::bucket_lower(int b) {
  if (b < (1 << kSubBits)) return static_cast<std::uint64_t>(b);
  const int octave = (b >> kSubBits) + kSubBits - 1;
  // Indices past the top 64-bit octave are unreachable from bucket_for
  // (the array is sized to a power of two); saturate instead of shifting
  // past the word.
  if (octave > 63) return ~std::uint64_t{0};
  const int sub = b & ((1 << kSubBits) - 1);
  return (std::uint64_t{1} << octave) |
         (static_cast<std::uint64_t>(sub) << (octave - kSubBits));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.buckets.assign(kBuckets, 0);
  out.min = ~std::uint64_t{0};
  for (const Shard& s : shards_) {
    for (int b = 0; b < kBuckets; ++b) {
      out.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[b].load(std::memory_order_relaxed);
    }
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.min = std::min(out.min, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  for (std::uint64_t c : out.buckets) out.count += c;
  if (out.count == 0) out.min = 0;
  return out;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches rank.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      return static_cast<double>(Histogram::bucket_lower(static_cast<int>(b)));
    }
  }
  return static_cast<double>(max);
}

// -------------------------------------------------------------- Registry --

namespace {

std::atomic<std::size_t> g_live_metrics{0};

/// Own a freshly constructed metric, counting it while it lives.
template <typename Metric>
std::shared_ptr<Metric> make_metric(Metric* m) {
  g_live_metrics.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<Metric>(m, [](Metric* dead) {
    g_live_metrics.fetch_sub(1, std::memory_order_relaxed);
    delete dead;
  });
}

}  // namespace

/// Global name->metric maps. A registered metric is never destroyed (call
/// sites hold plain references for the life of the process), so the
/// registry leaks by design to dodge static-destruction order. Only
/// unregister_metric lets go of one, and only Family series are ever
/// unregistered; their holders keep shared handles. Not in an anonymous
/// namespace: the metric classes befriend flexio::metrics::Registry to
/// expose their private constructors.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry;
    return *r;
  }

  std::shared_ptr<Counter> counter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = counters_.try_emplace(std::string(name), nullptr);
    if (inserted) it->second = make_metric(new Counter);
    return it->second;
  }

  std::shared_ptr<Gauge> gauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = gauges_.try_emplace(std::string(name), nullptr);
    if (inserted) it->second = make_metric(new Gauge);
    return it->second;
  }

  Histogram& histogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = histograms_.try_emplace(std::string(name), nullptr);
    if (inserted) it->second = make_metric(new Histogram);
    return *it->second;
  }

  std::map<std::string, MetricSnapshot> snapshot_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, MetricSnapshot> out;
    for (const auto& [name, c] : counters_) {
      MetricSnapshot m;
      m.kind = MetricSnapshot::Kind::kCounter;
      m.counter = c->value();
      out.emplace(name, std::move(m));
    }
    for (const auto& [name, g] : gauges_) {
      MetricSnapshot m;
      m.kind = MetricSnapshot::Kind::kGauge;
      m.gauge = g->value();
      out.emplace(name, std::move(m));
    }
    for (const auto& [name, h] : histograms_) {
      MetricSnapshot m;
      m.kind = MetricSnapshot::Kind::kHistogram;
      m.hist = h->snapshot();
      out.emplace(name, std::move(m));
    }
    return out;
  }

  void reset_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
  }

  bool unregister_metric(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.erase(name) + gauges_.erase(name) +
               histograms_.erase(name) >
           0;
  }

 private:
  Registry() = default;
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::shared_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::shared_ptr<Histogram>, std::less<>> histograms_;
};

Counter& counter(std::string_view name) {
  return *Registry::instance().counter(name);
}

Gauge& gauge(std::string_view name) {
  return *Registry::instance().gauge(name);
}

Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

std::map<std::string, MetricSnapshot> snapshot_all() {
  return Registry::instance().snapshot_all();
}

void reset_all() { Registry::instance().reset_all(); }

namespace detail {
bool unregister_metric(const std::string& name) {
  return Registry::instance().unregister_metric(name);
}

std::shared_ptr<Counter> shared_counter(std::string_view name) {
  return Registry::instance().counter(name);
}

std::shared_ptr<Gauge> shared_gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}

std::size_t live_metric_objects() {
  return g_live_metrics.load(std::memory_order_relaxed);
}
}  // namespace detail

std::string snapshot_json() {
  const auto snap = snapshot_all();
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, m] : snap) {
    if (!first) out += ",\n";
    first = false;
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += str_format("  \"%s\": %llu", name.c_str(),
                          static_cast<unsigned long long>(m.counter));
        break;
      case MetricSnapshot::Kind::kGauge:
        out += str_format("  \"%s\": %lld", name.c_str(),
                          static_cast<long long>(m.gauge));
        break;
      case MetricSnapshot::Kind::kHistogram:
        out += str_format(
            "  \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
            "\"max\": %llu, \"p50\": %.1f, \"p99\": %.1f}",
            name.c_str(), static_cast<unsigned long long>(m.hist.count),
            static_cast<unsigned long long>(m.hist.sum),
            static_cast<unsigned long long>(m.hist.min),
            static_cast<unsigned long long>(m.hist.max),
            m.hist.quantile(0.5), m.hist.quantile(0.99));
        break;
    }
  }
  out += "\n}\n";
  return out;
}

namespace {

/// Prometheus metric-name grammar: [a-zA-Z_:][a-zA-Z0-9_:]*. FlexIO names
/// use dots, which become underscores.
std::string sanitize_prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9' && !out.empty()) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

}  // namespace

std::string expose_text() {
  const auto snap = snapshot_all();
  std::string out;
  for (const auto& [name, m] : snap) {
    const std::string prom = sanitize_prom_name(name);
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += str_format("# TYPE %s counter\n%s %llu\n", prom.c_str(),
                          prom.c_str(),
                          static_cast<unsigned long long>(m.counter));
        break;
      case MetricSnapshot::Kind::kGauge:
        out += str_format("# TYPE %s gauge\n%s %lld\n", prom.c_str(),
                          prom.c_str(), static_cast<long long>(m.gauge));
        break;
      case MetricSnapshot::Kind::kHistogram:
        out += str_format(
            "# TYPE %s summary\n"
            "%s{quantile=\"0.5\"} %.1f\n"
            "%s{quantile=\"0.99\"} %.1f\n"
            "%s_sum %llu\n"
            "%s_count %llu\n",
            prom.c_str(), prom.c_str(), m.hist.quantile(0.5), prom.c_str(),
            m.hist.quantile(0.99), prom.c_str(),
            static_cast<unsigned long long>(m.hist.sum), prom.c_str(),
            static_cast<unsigned long long>(m.hist.count));
        break;
    }
  }
  return out;
}

Status dump_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(ErrorCode::kInternal,
                      "cannot open metrics dump: " + path);
  }
  out << snapshot_json();
  return out ? Status::ok()
             : make_error(ErrorCode::kInternal, "metrics dump write failed");
}

}  // namespace flexio::metrics
