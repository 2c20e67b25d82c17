// Shared-memory buffer pool with a size-classed free list.
//
// Large messages do not fit the fixed-size data-queue entries; the paper
// (Section II.D) has the producer pre-allocate a buffer pool indexed by a
// free list, pick "a buffer of the closest size" (allocating when none
// fits), and the consumer return the buffer after copying out. The same
// structure backs the RDMA transport's persistent-registration cache, so it
// also tracks a capacity threshold that triggers reclamation.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace flexio::shm {

/// Handle to a pooled buffer. Plain data so it can cross "address spaces"
/// inside a control message (the in-process analog of a shared-segment
/// offset / RDMA remote address).
struct PoolBuffer {
  std::byte* data = nullptr;
  std::size_t capacity = 0;   // size-class capacity, >= requested size
  std::uint32_t size_class = 0;
  std::uint64_t id = 0;       // unique per acquisition, for debugging

  explicit operator bool() const { return data != nullptr; }
};

/// Monitoring counters.
struct PoolStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t reuses = 0;        // satisfied from the free list
  std::uint64_t allocations = 0;   // fresh memory allocated
  std::uint64_t reclamations = 0;  // buffers freed to honor the capacity cap
  std::size_t bytes_allocated = 0; // currently owned by the pool (free + busy)
  std::size_t bytes_in_use = 0;    // handed out, not yet released
};

/// Thread-safe (mutexed) pool. The producer acquires; the consumer releases
/// possibly from another thread, matching the paper's protocol where the
/// consumer "returns the buffer to the producer's free list".
class BufferPool {
 public:
  /// `capacity_bytes` is the reclamation threshold: when the total memory
  /// held by the pool exceeds it, released buffers are freed instead of
  /// cached (paper: "a configurable threshold value controls total memory
  /// usage and triggers buffer reclamation").
  explicit BufferPool(std::size_t capacity_bytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Acquire a buffer with capacity >= size. Fails with kResourceExhausted
  /// when honoring the request would exceed 2x the capacity threshold even
  /// after reclaiming everything free.
  StatusOr<PoolBuffer> acquire(std::size_t size);

  /// acquire() that applies backpressure instead of refusing: while the
  /// request does not fit, it waits (no spinning) for a release(). Instead
  /// of waiting it fails with kUnavailable once cancel_waits() was called,
  /// and with kResourceExhausted when the request exceeds 2x the threshold
  /// on its own, so that no release can make it fit. Fails with kTimeout
  /// at `deadline`.
  StatusOr<PoolBuffer> acquire_until(
      std::size_t size, std::chrono::steady_clock::time_point deadline);

  /// Make every current and later acquire_until() that would wait fail
  /// with kUnavailable instead: the consumer whose releases it waits for
  /// is gone.
  void cancel_waits();

  /// Return a buffer. Reuses it when under the threshold, frees otherwise.
  /// Wakes a producer waiting in acquire_until().
  void release(PoolBuffer buffer);

  PoolStats stats() const;

  /// Smallest size class (bytes); exposed for tests.
  static constexpr std::size_t kMinClassBytes = 64;

  /// Size class index for a request: classes are powers of two starting at
  /// kMinClassBytes.
  static std::uint32_t class_for(std::size_t size);
  /// Capacity in bytes of a size class.
  static std::size_t class_capacity(std::uint32_t size_class);

 private:
  struct Shelf {
    std::vector<std::byte*> free_buffers;
  };

  StatusOr<PoolBuffer> acquire_locked(std::size_t size);

  mutable std::mutex mutex_;
  std::condition_variable released_;
  bool waits_cancelled_ = false;
  std::size_t capacity_bytes_;
  std::vector<Shelf> shelves_;
  PoolStats stats_;
  std::uint64_t next_id_ = 1;
};

}  // namespace flexio::shm
