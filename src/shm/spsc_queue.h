// FastForward-style single-producer/single-consumer lock-free queue.
//
// Reproduces the paper's intra-node data queue (Section II.D):
//  * circular FIFO of fixed-size entries,
//  * producer and consumer keep *private* cursors (no shared head/tail),
//    so the only shared state is each entry's full/empty flag,
//  * entries are aligned and padded so no two entries share a cache line
//    (kills false sharing), and the flag protocol gives the ordering:
//    producer release-stores "full" after filling the payload, consumer
//    acquire-loads it before reading, then release-stores "empty".
// On weakly-ordered machines those acquire/release pairs are exactly the
// "additional memory fences" the paper mentions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "util/cacheline.h"
#include "util/common.h"
#include "util/status.h"

namespace flexio::shm {

/// Counters exported to the performance-monitoring layer.
struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t enqueue_full_spins = 0;  // producer found entry occupied
  std::uint64_t dequeue_empty_spins = 0; // consumer found entry empty
};

class SpscQueue {
 public:
  /// `entries` must be >= 2; `payload_bytes` is the fixed per-entry message
  /// capacity. Both are rounded so entries never straddle cache lines.
  SpscQueue(std::size_t entries, std::size_t payload_bytes);
  ~SpscQueue();

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return entries_; }
  std::size_t payload_capacity() const { return payload_bytes_; }

  /// Non-blocking enqueue. Returns false when the next entry is still full.
  /// Aborts if msg exceeds payload_capacity() (programmer error; large
  /// messages must go through the buffer pool path instead).
  bool try_enqueue(ByteView msg);

  /// Non-blocking dequeue into `out` (resized to the message length).
  /// Returns false when the next entry is empty.
  bool try_dequeue(std::vector<std::byte>* out);

  /// Blocking enqueue with deadline; spins with yields (the consumer is a
  /// sibling core in the real system, so latency matters more than sleep).
  Status enqueue(ByteView msg, std::chrono::nanoseconds timeout);

  /// Blocking dequeue with deadline.
  Status dequeue(std::vector<std::byte>* out, std::chrono::nanoseconds timeout);

  /// Snapshot of the producer+consumer counters (relaxed reads; monitoring
  /// tolerates slight skew).
  QueueStats stats() const;

  /// Messages published / consumed so far. Read right after its own
  /// enqueue, enqueued() is the producer's ticket for that message; once
  /// dequeued() reaches the ticket the consumer has taken the message.
  std::uint64_t enqueued() const {
    return producer_.enqueued.load(std::memory_order_relaxed);
  }
  std::uint64_t dequeued() const {
    return consumer_.dequeued.load(std::memory_order_acquire);
  }

 private:
  // Entry layout: [flag | size | payload...], padded to a multiple of the
  // cache line so consecutive entries never share a line.
  struct EntryHeader {
    std::atomic<std::uint32_t> state;  // 0 = empty, 1 = full
    std::uint32_t size;
  };

  std::byte* aligned_base() { return storage_.get() + aligned_offset_; }
  EntryHeader* header(std::size_t idx) {
    return reinterpret_cast<EntryHeader*>(aligned_base() + idx * stride_);
  }
  std::byte* payload(std::size_t idx) {
    return aligned_base() + idx * stride_ + sizeof(EntryHeader);
  }

  std::size_t entries_;
  std::size_t payload_bytes_;
  std::size_t stride_;
  std::size_t storage_raw_size_ = 0;
  std::size_t aligned_offset_ = 0;
  std::unique_ptr<std::byte[]> storage_;

  // Producer-private state on its own cache line; counters are relaxed
  // atomics only so stats() may read them from a third thread.
  struct alignas(kCacheLineSize) ProducerSide {
    std::size_t head = 0;
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> full_spins{0};
  } producer_;

  struct alignas(kCacheLineSize) ConsumerSide {
    std::size_t tail = 0;
    std::atomic<std::uint64_t> dequeued{0};
    std::atomic<std::uint64_t> empty_spins{0};
  } consumer_;
};

}  // namespace flexio::shm
