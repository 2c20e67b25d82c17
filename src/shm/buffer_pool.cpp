#include "shm/buffer_pool.h"

#include <bit>

#include "util/metrics.h"
#include "util/strings.h"

namespace flexio::shm {

namespace {
// Pool-wide observability across every BufferPool in the process: reuse
// hit rate and current memory footprint (gauge mirrors bytes_in_use).
metrics::Counter& acquire_counter() {
  static metrics::Counter& c = metrics::counter("shm.pool.acquisitions");
  return c;
}
metrics::Counter& reuse_counter() {
  static metrics::Counter& c = metrics::counter("shm.pool.reuses");
  return c;
}
metrics::Counter& reclaim_counter() {
  static metrics::Counter& c = metrics::counter("shm.pool.reclamations");
  return c;
}
metrics::Gauge& in_use_gauge() {
  static metrics::Gauge& g = metrics::gauge("shm.pool.bytes_in_use");
  return g;
}
}  // namespace

BufferPool::BufferPool(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  FLEXIO_CHECK(capacity_bytes >= kMinClassBytes);
}

BufferPool::~BufferPool() {
  for (auto& shelf : shelves_) {
    for (std::byte* p : shelf.free_buffers) delete[] p;
  }
}

std::uint32_t BufferPool::class_for(std::size_t size) {
  if (size <= kMinClassBytes) return 0;
  const auto rounded = std::bit_ceil(size);
  return static_cast<std::uint32_t>(std::countr_zero(rounded) -
                                    std::countr_zero(kMinClassBytes));
}

std::size_t BufferPool::class_capacity(std::uint32_t size_class) {
  return kMinClassBytes << size_class;
}

StatusOr<PoolBuffer> BufferPool::acquire(std::size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  return acquire_locked(size);
}

StatusOr<PoolBuffer> BufferPool::acquire_until(
    std::size_t size, std::chrono::steady_clock::time_point deadline) {
  const bool never_fits = class_capacity(class_for(size)) > 2 * capacity_bytes_;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    StatusOr<PoolBuffer> buf = acquire_locked(size);
    if (buf.is_ok() || never_fits) return buf;
    if (waits_cancelled_) {
      return make_error(ErrorCode::kUnavailable,
                        "buffer pool wait: receiver gone");
    }
    if (released_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return make_error(ErrorCode::kTimeout,
                        "buffer pool wait timed out: " +
                            buf.status().message());
    }
  }
}

void BufferPool::cancel_waits() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    waits_cancelled_ = true;
  }
  released_.notify_all();
}

StatusOr<PoolBuffer> BufferPool::acquire_locked(std::size_t size) {
  const std::uint32_t cls = class_for(size);
  const std::size_t cap = class_capacity(cls);
  if (cls >= shelves_.size()) shelves_.resize(cls + 1);

  Shelf& shelf = shelves_[cls];
  PoolBuffer out;
  out.capacity = cap;
  out.size_class = cls;
  if (!shelf.free_buffers.empty()) {
    out.data = shelf.free_buffers.back();
    shelf.free_buffers.pop_back();
    out.id = next_id_++;
    ++stats_.acquisitions;
    ++stats_.reuses;
    stats_.bytes_in_use += cap;
    // One gate check for the whole reuse fast path.
    if (metrics::enabled()) {
      acquire_counter().inc();
      reuse_counter().inc();
      in_use_gauge().add(static_cast<std::int64_t>(cap));
    }
    return out;
  }

  // Nothing free in this class. Reclaim free buffers from other classes if
  // we are over the threshold, then allocate fresh memory. Allow in-use
  // overshoot up to 2x the threshold so a single oversized transfer cannot
  // deadlock the pipeline, but refuse beyond that.
  if (stats_.bytes_allocated + cap > capacity_bytes_) {
    for (auto& other : shelves_) {
      while (!other.free_buffers.empty() &&
             stats_.bytes_allocated + cap > capacity_bytes_) {
        delete[] other.free_buffers.back();
        other.free_buffers.pop_back();
        const std::size_t freed =
            class_capacity(static_cast<std::uint32_t>(&other - shelves_.data()));
        stats_.bytes_allocated -= freed;
        ++stats_.reclamations;
        reclaim_counter().inc();
      }
    }
  }
  if (stats_.bytes_allocated + cap > 2 * capacity_bytes_) {
    return make_error(
        ErrorCode::kResourceExhausted,
        str_format("buffer pool over budget: need %zu, allocated %zu, cap %zu",
                   cap, stats_.bytes_allocated, capacity_bytes_));
  }
  out.data = new std::byte[cap];
  out.id = next_id_++;
  ++stats_.acquisitions;
  ++stats_.allocations;
  stats_.bytes_allocated += cap;
  stats_.bytes_in_use += cap;
  if (metrics::enabled()) {
    acquire_counter().inc();
    in_use_gauge().add(static_cast<std::int64_t>(cap));
  }
  return out;
}

void BufferPool::release(PoolBuffer buffer) {
  if (!buffer) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // A waiter re-checks only once this lock drops, after the release below.
  released_.notify_all();
  FLEXIO_CHECK(buffer.size_class < shelves_.size());
  FLEXIO_CHECK(stats_.bytes_in_use >= buffer.capacity);
  stats_.bytes_in_use -= buffer.capacity;
  if (metrics::enabled()) {
    in_use_gauge().sub(static_cast<std::int64_t>(buffer.capacity));
  }
  if (stats_.bytes_allocated > capacity_bytes_) {
    delete[] buffer.data;
    stats_.bytes_allocated -= buffer.capacity;
    ++stats_.reclamations;
    if (metrics::enabled()) reclaim_counter().inc();
    return;
  }
  shelves_[buffer.size_class].free_buffers.push_back(buffer.data);
}

PoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace flexio::shm
