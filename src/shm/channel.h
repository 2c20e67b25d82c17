// Intra-node message channel: control queue + buffer pool + XPMEM-style path.
//
// Implements the paper's full shared-memory transport protocol
// (Section II.D) for one producer -> consumer direction:
//  * small messages ride inline in FastForward data-queue entries;
//  * large asynchronous messages go through the shared buffer pool: the
//    producer copies in, and the consumer receives a lease over the pool
//    slot itself instead of copying out (the paper's second copy). The
//    slot returns to the producer's free list when the lease drops;
//  * large synchronous messages can use the XPMEM-style path: the producer
//    publishes its source buffer as a segment and blocks until the consumer
//    copies directly out of it ("one memory copy"), mirroring
//    xpmem_make()/xpmem_attach().
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
  std::uint64_t xpmem_sends = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t memory_copies = 0;  // copies of message payloads, both sides
                                    // (inline 2, pool 1, xpmem 1)
};

/// Tuning knobs, fed from the XML method config.
struct ChannelOptions {
  std::size_t queue_entries = 64;
  std::size_t queue_payload_bytes = 256;
  std::size_t pool_bytes = 64ull << 20;
  /// Messages <= this ride inline in a queue entry. Must be smaller than
  /// queue_payload_bytes minus the control header.
  std::size_t inline_threshold = 192;
  /// Use the XPMEM one-copy path for synchronous sends of large messages.
  bool use_xpmem = true;
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

  /// Asynchronous send: returns once the message is enqueued (inline) or
  /// copied into a pool buffer. The caller may reuse `msg` immediately.
  Status send(ByteView msg);

  /// Synchronous send: additionally guarantees the consumer has copied the
  /// data out before returning. Uses the XPMEM one-copy path when enabled.
  Status send_sync(ByteView msg);

  /// Scatter-gather variants: the message is the concatenation of `frags`.
  /// The producer gathers straight into the queue entry (inline) or pool
  /// buffer, skipping the flat coalescing copy a plain send would need.
  Status send_iov(std::span<const ByteView> frags);

  /// Synchronous scatter-gather send. With XPMEM enabled the producer
  /// publishes a fragment descriptor list and the consumer gathers directly
  /// out of the producer's buffers -- still exactly one payload copy.
  Status send_sync_iov(std::span<const ByteView> frags);

  /// Receive the next message. Returns kEndOfStream after close() has been
  /// received, kTimeout if nothing arrives in time. A pool message arrives
  /// as a lease over its pool slot (no copy-out): the slot stays busy until
  /// the last copy of the lease drops, and the lease keeps the pool alive
  /// past this channel's destruction. Inline and XPMEM messages lease the
  /// single copy the consumer made of them.
  Status receive(ByteLease* out);

  /// Like receive() but with an explicit deadline; a zero timeout polls once
  /// (used by upper layers multiplexing several inbound links).
  Status receive_for(ByteLease* out, std::chrono::nanoseconds timeout);

  /// Signal end-of-stream to the consumer (paper: analytics see EOS from
  /// their read calls when the simulation closes the file).
  Status close();

  /// Mark the consumer side as gone (its receive link was destroyed).
  /// Subsequent sends -- and a producer already blocked on ring space or
  /// an XPMEM ack -- fail fast with kUnavailable instead of burning the
  /// full timeout against a consumer that will never drain the queue.
  /// Safe because a destroyed consumer can no longer touch published
  /// buffers or ack flags.
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
  enum class Tag : std::uint8_t {
    kInline = 0,
    kPool = 1,
    kXpmem = 2,
    kEos = 3,
    kXpmemIov = 4,  // xpmem sync path with a fragment descriptor list
  };

  struct Control {  // fixed-size control message, fits any queue entry
    Tag tag;
    std::uint64_t size;
    std::uint64_t addr;        // pool buffer / xpmem segment address
    std::uint64_t pool_capacity;
    std::uint32_t pool_class;
    std::uint64_t pool_id;
    std::uint64_t ack_addr;    // producer-side completion flag (xpmem path)
  };

  Status send_control(const Control& ctl, ByteView inline_payload);
  Status send_control(const Control& ctl, std::span<const ByteView> frags);
  Status wait_ack(const std::atomic<std::uint32_t>& ack);
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
  std::atomic<std::uint64_t> xpmem_sends_{0};
  std::atomic<std::uint64_t> copies_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> receiver_gone_{false};
  bool eos_received_ = false;  // consumer-side only
};

}  // namespace flexio::shm
