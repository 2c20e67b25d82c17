// In-process "parallel program" with coordinator collectives.
//
// The reproduction runs each MPI program (simulation, analytics) as a set
// of threads, one per rank. FlexIO's connection/handshake protocol needs
// exactly three program-local collectives (paper Section II.C): gather to
// the elected coordinator (Steps 1.s/1.a), broadcast from the coordinator
// (Step 3), and a barrier. Rank 0 is the coordinator, matching the paper's
// "elect a local coordinator".
//
// Unlike MPI, the rank set is *elastic*: a rank can be deactivated (left
// or declared dead) or activated (admitted joiner) between collective
// rounds. A round completes when every currently-active rank has arrived,
// so survivors are never wedged behind a corpse; a deactivated rank that
// calls in gets kUnavailable ("excised"). Waits poll an optional liveness
// hook so a stalled round can trigger the failure detector that unblocks
// it (see DESIGN.md "Elastic membership").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace flexio {

class Program {
 public:
  /// A program named `name` with `size` rank slots, all initially active.
  Program(std::string name, int size);

  const std::string& name() const { return name_; }
  int size() const { return size_; }
  static constexpr int kCoordinator = 0;

  /// Gather: every active rank contributes a byte blob; the coordinator's
  /// `all` receives them indexed by rank (others get an empty vector).
  /// Slots of inactive ranks stay empty -- consumers must skip them.
  Status gather(int rank, ByteView contribution,
                std::vector<std::vector<std::byte>>* all,
                std::chrono::nanoseconds timeout);

  /// Broadcast: the coordinator's `data` is distributed to every active
  /// rank.
  Status broadcast(int rank, std::vector<std::byte>* data,
                   std::chrono::nanoseconds timeout);

  /// Barrier across all active ranks.
  Status barrier(int rank, std::chrono::nanoseconds timeout);

  // --- elastic membership ----------------------------------------------

  /// Admit `rank` into subsequent collective rounds (idempotent). Wakes
  /// await_admission and any round currently forming.
  void activate(int rank);

  /// activate() plus a record that the coordinator has applied a
  /// membership view of `epoch` covering this rank. A late joiner gates on
  /// that epoch (not on raw is_active) so it can never mistake its dead
  /// predecessor's still-active slot for its own admission.
  void admit(int rank, std::uint64_t epoch);

  /// Remove `rank` from collective accounting (left or dead; idempotent).
  /// A round blocked on its arrival completes over the remaining active
  /// ranks; its own in-flight collective (if any) is abandoned. The
  /// coordinator can never be deactivated.
  void deactivate(int rank);

  bool is_active(int rank) const {
    FLEXIO_CHECK(rank >= 0 && rank < size_);
    return active_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  int active_count() const;

  /// Block until the coordinator admits `rank` at an epoch >= `join_epoch`
  /// (late-join admission gate). The rank being active is NOT sufficient:
  /// a respawn can race the old incarnation's excision, leaving the slot
  /// active for the *previous* incarnation while its rounds still assume
  /// the old participant.
  Status await_admission(int rank, std::uint64_t join_epoch,
                         std::chrono::nanoseconds timeout);

  /// Install a failure-detector hook polled by blocked collective waits
  /// (every few ms, with all program locks released). The hook typically
  /// sweeps the directory's TTLs and deactivates dead ranks, unblocking
  /// the very round that polled it. Pass nullptr to clear.
  void set_liveness_hook(std::function<void()> hook);

 private:
  /// One reusable collective slot. A round is *latched*: completion is
  /// decided once against the active set of that moment, then the round
  /// drains (everyone who arrived departs) and resets.
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t generation = 0;
    bool complete = false;
    std::vector<char> arrived;
    std::vector<char> departed;
    std::vector<std::vector<std::byte>> contributions;
    std::vector<std::byte> bcast_data;
  };

  /// Re-evaluate a slot's round against the current active set: latch
  /// completion, excuse inactive ranks from draining, reset when drained.
  /// Caller holds slot.mutex.
  void advance_locked(Slot& slot);

  /// Predicate wait on a slot cv that honors the deadline and periodically
  /// runs the liveness hook (lock released during the call).
  template <typename Pred>
  Status wait_slot(Slot& slot, std::unique_lock<std::mutex>& lock,
                   std::chrono::steady_clock::time_point deadline, Pred pred,
                   const char* what);

  void run_liveness_hook();

  Status excised(const char* what, int rank) const;

  std::string name_;
  int size_;
  std::unique_ptr<std::atomic<bool>[]> active_;
  std::atomic<int> active_count_{0};
  Slot gather_slot_;
  Slot bcast_slot_;
  Slot barrier_slot_;

  mutable std::mutex membership_mutex_;
  std::condition_variable membership_cv_;
  /// Highest membership epoch at which each rank was admitted by the
  /// coordinator's view application. Guarded by membership_mutex_.
  std::vector<std::uint64_t> admitted_epoch_;

  std::mutex hook_mutex_;
  std::function<void()> liveness_hook_;
  std::atomic<bool> has_hook_{false};
};

}  // namespace flexio
