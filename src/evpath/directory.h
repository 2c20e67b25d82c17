// Directory server for stream discovery and reader-group membership.
//
// Before any data moves, simulation and analytics find each other through
// an external directory server (paper Section II.C.1): the writer's
// coordinator registers a file name with its contact information; the
// reader's coordinator looks the name up and connects. The server is only
// involved in discovery -- it never sits on the data path -- which the
// monitoring counters here make checkable.
//
// On top of discovery the directory now tracks *liveness* for each
// stream's reader group. Every reader rank joins the group and heartbeats
// on a fixed interval; the directory lazily sweeps the group on access and
// declares any member whose last beat is older than the TTL dead. Every
// join, graceful leave, or declared death bumps the group's monotonically
// increasing MembershipEpoch -- the single value the stream endpoints
// compare to decide whether the MxN handshake must be re-exchanged and
// the redistribution plan rebuilt (see DESIGN.md "Elastic membership").
// A member that has been declared dead is *fenced*: its further
// heartbeats are rejected, so a zombie rank cannot resurrect itself; a
// respawned rank rejoins under a new incarnation number instead.
//
// Liveness uses metrics::now_ns(), so tests drive TTL expiry with the
// fake-clock hook (metrics::set_clock_for_testing). Membership is off by
// default -- streams opened against a directory that never enabled it
// behave exactly as before.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace flexio::evpath {

struct DirectoryStats {
  std::uint64_t registrations = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_waits = 0;  // lookups that had to block for a writer
};

/// Liveness configuration for all groups served by one directory.
struct MembershipOptions {
  /// Master switch. Disabled directories accept no joins or heartbeats and
  /// streams run with the frozen reader set from the open handshake.
  bool enabled = false;
  /// A member whose last heartbeat is older than this is declared dead at
  /// the next sweep. Readers should beat at ttl/4 or faster.
  std::chrono::nanoseconds ttl = std::chrono::milliseconds(500);
};

enum class MemberState : std::uint8_t {
  kAlive = 0,
  kLeft = 1,  // graceful departure at a step boundary
  kDead = 2,  // TTL expired; member is fenced
};

std::string_view member_state_name(MemberState state);

/// One reader rank's record in a stream's membership group. Dead and left
/// members stay in the view as tombstones so writers can distinguish "never
/// existed" from "gone" and so respawns get a fresh incarnation.
struct Member {
  int rank = 0;
  std::string contact;  // endpoint name data should be sent to
  /// Bumped every time this rank rejoins; senders drop cached links when
  /// the incarnation behind a contact changes.
  std::uint64_t incarnation = 0;
  MemberState state = MemberState::kAlive;
  /// Epoch at which this incarnation joined. A joiner only participates in
  /// handshakes stamped with an epoch >= join_epoch.
  std::uint64_t join_epoch = 0;
  std::uint64_t last_beat_ns = 0;
};

/// Atomic snapshot of a group: the epoch plus every member record sorted by
/// rank. The epoch counts joins + leaves + deaths since the group formed.
struct MembershipView {
  std::uint64_t epoch = 0;
  std::vector<Member> members;

  const Member* find(int rank) const;
  int alive_count() const;
};

/// One rank's aggregated telemetry in the directory's cluster view:
/// the fold of every "flexio-stats-v1" delta frame the rank piggybacked
/// on its heartbeats. Counters and histogram count/sum accumulate the
/// deltas; gauges and histogram p50/p99 keep the latest value.
struct RankStats {
  std::string program;  // logical program name (e.g. "sim", "viz")
  int rank = 0;
  std::uint64_t last_ns = 0;  // t_ns of the newest folded frame
  std::uint64_t frames = 0;   // frames folded so far
  struct Hist {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double p50 = 0;
    double p99 = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Hist> histograms;
};

/// Every rank's RankStats, ordered by (program, rank).
using ClusterSnapshot = std::vector<RankStats>;

class DirectoryServer {
 public:
  /// Register a stream name with the writer coordinator's contact (its
  /// endpoint name). Re-registering a live name fails. `open_info` is an
  /// opaque blob (the encoded open reply) a late joiner can bootstrap its
  /// handshake state from without a live OpenRequest exchange.
  Status register_stream(const std::string& stream_name,
                         const std::string& coordinator_contact,
                         std::vector<std::byte> open_info = {});

  /// Remove a registration (stream closed). Also retires the stream's
  /// membership group.
  Status unregister_stream(const std::string& stream_name);

  /// Look up a stream's coordinator contact, waiting up to `timeout` for a
  /// writer to register it (readers may open before writers create).
  StatusOr<std::string> lookup(const std::string& stream_name,
                               std::chrono::nanoseconds timeout);

  /// Look up the open-info blob stored at registration (empty if the writer
  /// registered none). Waits like lookup().
  StatusOr<std::vector<std::byte>> lookup_info(const std::string& stream_name,
                                               std::chrono::nanoseconds timeout);

  DirectoryStats stats() const;

  // --- membership -------------------------------------------------------

  void set_membership_options(const MembershipOptions& options);
  MembershipOptions membership_options() const;
  bool membership_enabled() const;

  /// Join (or rejoin) stream's reader group as `rank`. Bumps the epoch and
  /// returns the new record (carrying incarnation and join_epoch). Joining
  /// while a previous incarnation of the rank is still alive fails with
  /// kAlreadyExists -- a respawner retries until the old incarnation is
  /// swept dead or leaves.
  StatusOr<Member> join_member(const std::string& stream_name, int rank,
                               const std::string& contact);

  /// Graceful departure; the caller must have drained its current step.
  /// Bumps the epoch.
  Status leave_member(const std::string& stream_name, int rank);

  /// Record a heartbeat for (rank, incarnation). kNotFound if the member is
  /// unknown; kFailedPrecondition if it was declared dead or superseded
  /// (fenced) -- the caller must stop participating.
  Status heartbeat(const std::string& stream_name, int rank,
                   std::uint64_t incarnation);

  /// Sweep the group for TTL expiries, then snapshot it.
  MembershipView membership(const std::string& stream_name);

  /// Sweep + return just the epoch (0 if the group does not exist).
  std::uint64_t membership_epoch(const std::string& stream_name);

  /// Block until the group's epoch differs from `last_seen` (sweeping on
  /// each wakeup so TTL deaths are declared even with no other activity).
  StatusOr<std::uint64_t> wait_for_epoch_change(const std::string& stream_name,
                                                std::uint64_t last_seen,
                                                std::chrono::nanoseconds timeout);

  // --- telemetry aggregation ---------------------------------------------

  /// Fold one "flexio-stats-v1" delta line from (program, rank) into the
  /// cluster view. Malformed lines are rejected (the cluster view never
  /// holds partial folds). Called by the runtime's heartbeat delivery
  /// adapter for heartbeats with a non-empty stats line.
  Status fold_stats(const std::string& program, int rank,
                    const std::string& stats_line);

  /// Snapshot of every rank's folded telemetry.
  ClusterSnapshot cluster() const;

  /// The snapshot rendered as one "flexio-cluster-v1" JSON document --
  /// what the stats server serves at /cluster:
  ///   {"schema":"flexio-cluster-v1","ranks":[
  ///     {"program":"viz","rank":0,"t_ns":...,"frames":2,
  ///      "counters":{...},"gauges":{...},
  ///      "histograms":{"flexio.step.total.ns":
  ///          {"count":4,"sum":812345,"p50":180224.0,"p99":229376.0}}}]}
  std::string cluster_json() const;

  /// Sweep every group and list members currently declared dead, as
  /// "stream/rank" descriptors. Feeds the watchdog's rank-dead rule.
  std::vector<std::string> dead_members();

 private:
  struct Group {
    std::uint64_t epoch = 0;
    std::map<int, Member> members;
    /// Stream unregistered. The group persists as a tombstone: readers
    /// drain buffered steps after the writer closes, and their failure
    /// detector must still observe deaths/fencing in that window. A
    /// re-registration under the same name starts a fresh group.
    bool closed = false;
  };

  /// Declare TTL-expired members dead. Caller holds mutex_.
  void sweep_locked(Group& group);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::string> streams_;
  std::map<std::string, std::vector<std::byte>> stream_info_;
  std::map<std::string, Group> groups_;
  MembershipOptions membership_options_;
  DirectoryStats stats_;
  /// Cluster telemetry keyed by (program, rank).
  std::map<std::pair<std::string, int>, RankStats> rank_stats_;
};

}  // namespace flexio::evpath
