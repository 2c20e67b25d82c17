// Intra-node message channel: control queue + buffer pool.
//
// Implements the paper's shared-memory transport protocol (Section II.D)
// for one producer -> consumer direction:
//  * small messages ride inline in FastForward data-queue entries;
//  * large messages go through the shared buffer pool: the producer copies
//    in, and the consumer receives a lease over the pool slot itself
//    instead of copying out (the paper's second copy). The slot returns to
//    the producer's free list when the lease drops. So a large message costs
//    one copy, which is what the paper's XPMEM path existed to save; no
//    separate path is needed. When the pool is over budget the producer
//    waits for a lease to drop instead of failing.
//
// Threading contract: one producer thread at a time per channel (the SPSC
// queue and buffer-pool free list assume a single concurrent sender);
// Endpoint's per-link send mutex enforces it. Distinct channels share no
// state, so sends on different links proceed fully in parallel.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "shm/buffer_pool.h"
#include "shm/spsc_queue.h"
#include "util/byte_lease.h"
#include "util/status.h"

namespace flexio::shm {

/// Transfer statistics for the monitoring layer.
struct ChannelStats {
  std::uint64_t inline_sends = 0;
  std::uint64_t pool_sends = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t memory_copies = 0;  // copies of message payloads, both sides
                                    // (inline 2, pool 1)
};

/// Tuning knobs, fed from the XML method config.
struct ChannelOptions {
  std::size_t queue_entries = 64;
  std::size_t queue_payload_bytes = 256;
  std::size_t pool_bytes = 64ull << 20;
  /// Messages <= this ride inline in a queue entry. Must be smaller than
  /// queue_payload_bytes minus the control header.
  std::size_t inline_threshold = 192;
  std::chrono::nanoseconds timeout = std::chrono::seconds(30);
};

class Channel {
 public:
  explicit Channel(ChannelOptions options);
  /// Hands the slots of pool messages still queued -- never received,
  /// because the consumer went away mid-stream -- back to the pool.
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Send the concatenation of `frags`, gathered straight into the queue
  /// entry (inline) or a pool slot: the only producer-side copy. Returns
  /// once the message is enqueued, so the caller may reuse its buffers. A
  /// `sync` send of a pool-sized message also waits until the consumer has
  /// dequeued it; an inline-sized one returns at enqueue. A pool over budget
  /// makes the send wait for the consumer's leases to drop. Every wait is
  /// bounded by the channel timeout; a sync send that times out leaves its
  /// message queued and the channel usable.
  Status send(std::span<const ByteView> frags, bool sync = false);
  Status send(ByteView msg, bool sync = false) {
    return send(std::span<const ByteView>(&msg, 1), sync);
  }

  /// Receive the next message. Returns kEndOfStream after close() has been
  /// received, kTimeout if nothing arrives in time. A pool message arrives
  /// as a lease over its pool slot (no copy-out): the slot stays busy until
  /// the last copy of the lease drops, and the lease keeps the pool alive
  /// past this channel's destruction. An inline message leases the copy
  /// the dequeue made of it.
  Status receive(ByteLease* out);

  /// Like receive() but with an explicit deadline; a zero timeout polls once
  /// (used by upper layers multiplexing several inbound links).
  Status receive_for(ByteLease* out, std::chrono::nanoseconds timeout);

  /// Signal end-of-stream to the consumer (paper: analytics see EOS from
  /// their read calls when the simulation closes the file).
  Status close();

  /// Mark the consumer side as gone (its receive link was destroyed).
  /// Subsequent sends -- and a producer already blocked on ring space, a
  /// pool slot or a sync dequeue -- fail fast with kUnavailable instead of
  /// burning the full timeout against a consumer that will never drain the
  /// queue.
  void abandon_receiver();
  bool receiver_gone() const {
    return receiver_gone_.load(std::memory_order_acquire);
  }

  ChannelStats stats() const;
  /// Occupancy of the producer's buffer pool; bytes_in_use counts the pool
  /// messages in flight plus the slots still leased by the consumer.
  PoolStats pool_stats() const { return pool_->stats(); }
  const ChannelOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class Tag : std::uint8_t {
    kInline = 0,
    kPool = 1,
    kEos = 2,
  };

  struct Control {  // fixed-size control message, fits any queue entry
    Tag tag;
    std::uint64_t size;
    std::uint64_t addr;  // pool buffer address
    std::uint64_t pool_capacity;
    std::uint32_t pool_class;
    std::uint64_t pool_id;
  };

  Status send_control(const Control& ctl, std::span<const ByteView> frags,
                      Clock::time_point deadline);
  Status wait_dequeued(std::uint64_t ticket, Clock::time_point deadline);
  static void encode_control(const Control& ctl,
                             std::span<const ByteView> frags,
                             std::vector<std::byte>* out);
  static Status decode_control(ByteView raw, Control* ctl,
                               ByteView* inline_payload);
  static PoolBuffer pool_buffer_of(const Control& ctl);

  ChannelOptions options_;
  SpscQueue queue_;
  // Shared with every outstanding pool-slot lease, so a slot can return to
  // the free list after the channel itself is gone.
  std::shared_ptr<BufferPool> pool_;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> inline_sends_{0};
  std::atomic<std::uint64_t> pool_sends_{0};
  std::atomic<std::uint64_t> copies_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> receiver_gone_{false};
  bool eos_received_ = false;  // consumer-side only
};

}  // namespace flexio::shm
