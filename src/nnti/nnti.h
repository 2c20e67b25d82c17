// NNTI-like RDMA portability layer.
//
// The paper's EVPath RDMA transport sits on Sandia's NNTI library, which
// exposes a uniform API -- Connect, Memory Register/Unregister, RDMA Put and
// Get, and small-message queues -- over ibverbs, Portals, and uGNI. This
// module reproduces that API surface over an in-process "fabric": peers are
// threads, remote memory really is remote to the caller (it may only be
// touched through registered regions, with key + bounds enforcement), and a
// pluggable fault injector exercises the timeout-and-retry story. Timing
// behaviour (registration cost, bandwidth) lives in cost_model.h for the
// simulated experiments.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace flexio::nnti {

/// Handle to a registered memory region. Sendable to peers (plain data);
/// remote sides address the region by key, never by raw pointer.
struct MemRegion {
  std::uint64_t key = 0;
  std::uint64_t len = 0;
};

/// Which operation a fault injector intercepts.
enum class Op { kConnect, kPutMessage, kGet, kPut, kRegister };

std::string_view op_name(Op op);

/// Test hook: return non-OK to make the next matching operation fail.
using FaultInjector =
    std::function<Status(Op op, const std::string& local, const std::string& peer)>;

/// Richer fault decision for one intercepted operation. The default action
/// lets the operation through untouched.
struct FaultAction {
  Status status;                      // non-OK: the operation fails with this
  std::chrono::nanoseconds delay{0};  // sleep before acting (reordering/jitter)
  bool duplicate = false;             // perform the side effect twice
  /// Swallow the operation: report success without performing it. Only
  /// put_message can be silently lost (fire-and-forget); the synchronous
  /// one-sided ops and connect surface a dropped attempt as kTimeout.
  bool drop = false;
};

/// Full-featured test hook; FaultInjector is the fail-only special case.
using FaultHook = std::function<FaultAction(
    Op op, const std::string& local, const std::string& peer)>;

struct NicStats {
  std::uint64_t registrations = 0;
  std::uint64_t deregistrations = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t bytes_get = 0;
  std::uint64_t bytes_put = 0;
};

class Fabric;

/// One endpoint on the fabric (a "process" in NNTI terms).
class Nic {
 public:
  ~Nic();
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  const std::string& name() const { return name_; }

  /// Register local memory so peers may Get from / Put into it.
  StatusOr<MemRegion> register_memory(void* addr, std::size_t len);

  /// Unregister; outstanding remote operations against the region fail.
  Status unregister_memory(const MemRegion& region);

  /// Enqueue a small message into the peer's receive queue (FMA-Put-style).
  /// The message is the concatenation of `frags`, gathered once into the
  /// queue entry itself. Fails with kResourceExhausted when the peer queue
  /// is full. Thread-safe (per-NIC mutex): each RDMA link owns a dedicated
  /// tx/rx NIC pair, so concurrent sends on different links only meet at
  /// the fabric's name-lookup mutex, never on a queue.
  Status put_message(const std::string& peer, std::span<const ByteView> frags);
  Status put_message(const std::string& peer, ByteView msg) {
    return put_message(peer, std::span<const ByteView>(&msg, 1));
  }

  /// Dequeue the next small message; blocks up to `timeout`.
  Status poll_message(std::vector<std::byte>* out,
                      std::chrono::nanoseconds timeout);

  /// One-sided read of [offset, offset+dst.size()) from the peer's
  /// registered region into local memory (BTE-Get-style).
  Status get(const std::string& peer, const MemRegion& remote,
             std::uint64_t offset, MutableByteView dst);

  /// One-sided write into the peer's registered region.
  Status put(const std::string& peer, ByteView src, const MemRegion& remote,
             std::uint64_t offset);

  /// Liveness probe: true while `peer`'s NIC is still on the fabric. Sync
  /// senders use it to abandon ack waits on a destroyed receiver instead of
  /// burning the full timeout. Bypasses the fault hook (a real NIC learns
  /// of a torn-down peer from the connection state, not from traffic).
  bool peer_alive(const std::string& peer) const;

  NicStats stats() const;

 private:
  friend class Fabric;
  Nic(Fabric* fabric, std::string name, std::size_t queue_depth);

  struct Region {
    std::byte* addr;
    std::uint64_t len;
  };

  Fabric* fabric_;
  std::string name_;
  std::size_t queue_depth_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::vector<std::byte>> message_queue_;
  std::map<std::uint64_t, Region> regions_;
  std::uint64_t next_key_ = 1;
  NicStats stats_;

  // Called by peers (any thread). Takes ownership of the frame.
  Status deliver(std::vector<std::byte>&& msg);
  Status read_region(std::uint64_t key, std::uint64_t offset,
                     MutableByteView dst);
  Status write_region(std::uint64_t key, std::uint64_t offset, ByteView src);
};

/// The interconnect: a registry of NICs plus the fault-injection hook.
/// Thread-safe; NICs may be created and destroyed from any thread.
class Fabric {
 public:
  Fabric() = default;

  /// Create an endpoint. Names must be unique while the NIC lives.
  StatusOr<std::shared_ptr<Nic>> create_nic(const std::string& name,
                                            std::size_t queue_depth = 1024);

  /// Check a peer exists (NNTI Connect). With a fault injector installed,
  /// this is also the retryable step the timeout-and-retry logic wraps.
  Status connect(const std::string& from, const std::string& to);

  /// Install (or clear, with nullptr) the fail-only fault injector.
  /// Convenience wrapper over set_fault_hook.
  void set_fault_injector(FaultInjector injector);

  /// Install (or clear, with nullptr) the full fault hook (fail, delay,
  /// duplicate, drop). Replaces any previously installed hook/injector.
  void set_fault_hook(FaultHook hook);

 private:
  friend class Nic;
  std::shared_ptr<Nic> lookup(const std::string& name);
  Status inject(Op op, const std::string& local, const std::string& peer);
  FaultAction inject_action(Op op, const std::string& local,
                            const std::string& peer);
  void remove(const std::string& name);

  std::mutex mutex_;
  std::map<std::string, std::weak_ptr<Nic>> nics_;
  FaultHook hook_;
};

}  // namespace flexio::nnti
