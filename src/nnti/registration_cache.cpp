#include "nnti/registration_cache.h"

#include <bit>

#include "util/metrics.h"

namespace flexio::nnti {

namespace {
// Process-wide hit/miss/eviction accounting across every cache instance
// (each side of an RDMA link owns one); the per-instance stats() stays
// exact.
metrics::Counter& hit_counter() {
  static metrics::Counter& c = metrics::counter("nnti.regcache.hits");
  return c;
}
metrics::Counter& miss_counter() {
  static metrics::Counter& c = metrics::counter("nnti.regcache.misses");
  return c;
}
metrics::Counter& evict_counter() {
  static metrics::Counter& c = metrics::counter("nnti.regcache.evictions");
  return c;
}
// Bytes handed out and not yet released, across every cache: send-side
// rendezvous buffers awaiting their ack plus receive-side buffers still
// leased by the reader.
metrics::Gauge& in_use_gauge() {
  static metrics::Gauge& g = metrics::gauge("nnti.regcache.bytes_in_use");
  return g;
}
}  // namespace

RegistrationCache::RegistrationCache(Nic* nic, std::size_t capacity_bytes)
    : nic_(nic), capacity_bytes_(capacity_bytes) {
  FLEXIO_CHECK(nic != nullptr);
  FLEXIO_CHECK(capacity_bytes >= kMinClassBytes);
}

RegistrationCache::~RegistrationCache() { detach(); }

void RegistrationCache::detach() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (nic_ == nullptr) return;
  for (auto& shelf : shelves_) {
    for (FreeEntry& entry : shelf) {
      (void)nic_->unregister_memory(entry.buf.region);
      delete[] entry.buf.data;
      stats_.bytes_held -= entry.buf.capacity;
    }
    shelf.clear();
  }
  nic_ = nullptr;
}

std::uint32_t RegistrationCache::class_for(std::size_t size) {
  if (size <= kMinClassBytes) return 0;
  const auto rounded = std::bit_ceil(size);
  return static_cast<std::uint32_t>(std::countr_zero(rounded) -
                                    std::countr_zero(kMinClassBytes));
}

std::size_t RegistrationCache::class_capacity(std::uint32_t size_class) {
  return kMinClassBytes << size_class;
}

StatusOr<RegisteredBuffer> RegistrationCache::acquire(std::size_t size) {
  const std::uint32_t cls = class_for(size);
  const std::size_t cap = class_capacity(cls);

  std::lock_guard<std::mutex> lock(mutex_);
  if (nic_ == nullptr) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "registration cache detached from its nic");
  }
  ++stats_.acquisitions;
  if (cls + 1 >= shelves_.size()) shelves_.resize(cls + 2);
  // One class up at most: a buffer never serves less than a quarter of its
  // capacity.
  auto& shelf = shelves_[cls].empty() ? shelves_[cls + 1] : shelves_[cls];
  if (!shelf.empty()) {
    // Reuse the most recently released buffer of the shelf (the back
    // carries the largest stamp: releases push_back in order).
    RegisteredBuffer buf = shelf.back().buf;
    shelf.pop_back();
    ++stats_.hits;
    stats_.bytes_in_use += buf.capacity;
    // Gate outside the accessor so the disabled fast path stays one
    // load+branch (no static-init guard load).
    if (metrics::enabled()) {
      hit_counter().inc();
      in_use_gauge().add(static_cast<std::int64_t>(buf.capacity));
    }
    return buf;
  }
  ++stats_.misses;
  if (metrics::enabled()) miss_counter().inc();
  // Over budget: evict least recently used free buffers before growing.
  if (stats_.bytes_held + cap > capacity_bytes_) {
    evict_lru_locked(cap);
  }
  RegisteredBuffer buf;
  buf.data = new std::byte[cap];
  buf.capacity = cap;
  buf.size_class = cls;
  auto region = nic_->register_memory(buf.data, cap);
  if (!region.is_ok()) {
    delete[] buf.data;
    return region.status();
  }
  buf.region = region.value();
  ++stats_.registrations;
  stats_.bytes_held += cap;
  stats_.bytes_in_use += cap;
  if (metrics::enabled()) in_use_gauge().add(static_cast<std::int64_t>(cap));
  return buf;
}

void RegistrationCache::release(RegisteredBuffer buffer) {
  if (!buffer) return;
  std::lock_guard<std::mutex> lock(mutex_);
  FLEXIO_CHECK(stats_.bytes_in_use >= buffer.capacity);
  stats_.bytes_in_use -= buffer.capacity;
  if (metrics::enabled()) {
    in_use_gauge().sub(static_cast<std::int64_t>(buffer.capacity));
  }
  if (nic_ == nullptr) {
    // Detached: there is no pool to return to.
    delete[] buffer.data;
    stats_.bytes_held -= buffer.capacity;
    return;
  }
  if (stats_.bytes_held > capacity_bytes_) {
    reclaim_locked(buffer);
    return;
  }
  FLEXIO_CHECK(buffer.size_class < shelves_.size());
  shelves_[buffer.size_class].push_back(FreeEntry{buffer, ++use_clock_});
}

void RegistrationCache::evict_lru_locked(std::size_t needed) {
  while (stats_.bytes_held + needed > capacity_bytes_) {
    // Victim: the free buffer with the globally smallest release stamp.
    // Shelves are stamp-ordered, so only fronts need comparing; the scan
    // is over size classes (a few dozen), not buffers.
    std::vector<FreeEntry>* victim_shelf = nullptr;
    for (auto& shelf : shelves_) {
      if (shelf.empty()) continue;
      if (victim_shelf == nullptr ||
          shelf.front().last_use < victim_shelf->front().last_use) {
        victim_shelf = &shelf;
      }
    }
    if (victim_shelf == nullptr) return;  // nothing free to evict
    reclaim_locked(victim_shelf->front().buf);
    victim_shelf->erase(victim_shelf->begin());
  }
}

void RegistrationCache::reclaim_locked(RegisteredBuffer& buf) {
  (void)nic_->unregister_memory(buf.region);
  delete[] buf.data;
  FLEXIO_CHECK(stats_.bytes_held >= buf.capacity);
  stats_.bytes_held -= buf.capacity;
  ++stats_.reclamations;
  if (metrics::enabled()) evict_counter().inc();
  buf.data = nullptr;
}

RegistrationCacheStats RegistrationCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace flexio::nnti
