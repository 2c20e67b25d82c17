// Reader side of a FlexIO stream.
//
// Analytics open the stream by name (directory lookup behind the scenes),
// then loop: begin_step -> schedule reads (global-array selections and/or
// whole process groups) -> perform_reads -> end_step, until begin_step
// returns End-of-Stream. The same API runs against BP files for offline
// placement. All ranks of the reader program call collectively.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "adios/bp_file.h"
#include "core/redistribution.h"
#include "core/runtime.h"
#include "util/stats_delta.h"
#include "util/work_pool.h"

namespace flexio {

/// One process-group block delivered by perform_reads. In stream mode the
/// payload is a lease over the received frame (shm pool slot, rdma receive
/// buffer, inproc queue entry): no copy is made to deliver it. The reader
/// drops its own reference at the next begin_step or close; a copy of the
/// block keeps the bytes valid for as long as it lives, past the reader and
/// the runtime, but also keeps that transport memory busy.
struct PgBlock {
  int writer_rank = 0;
  adios::VarMeta meta;
  ByteLease payload;
};

class StreamReader {
 public:
  ~StreamReader();
  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Advance to the next step. Returns its id, or kEndOfStream once the
  /// writer closed the stream.
  StatusOr<StepId> begin_step();

  /// Schedule a read of `selection` of global array `var` into `dst`
  /// (dense row-major buffer of the selection; must stay alive through
  /// perform_reads).
  Status schedule_read(const std::string& var, const adios::Box& selection,
                       MutableByteView dst);

  /// Schedule a read of one writer rank's whole process group.
  Status schedule_read_pg(int writer_rank);

  /// Deploy a Data Conditioning plug-in against `var`. Writer-side
  /// plug-ins are shipped with the next read request and compiled inside
  /// the simulation's address space; reader-side ones run here after
  /// receive. Coordinator-rank call (plug-ins are program-wide).
  Status install_plugin(const std::string& var, const std::string& source,
                        bool run_at_writer);

  /// Remove a previously installed plug-in from one side (effective at the
  /// next handshake exchange).
  Status remove_plugin(const std::string& var, bool from_writer);

  /// Migrate a plug-in between address spaces at runtime (paper Section
  /// II.F: "they can be migrated across address spaces at runtime"):
  /// removes it from one side and installs the same source on the other,
  /// atomically within one handshake.
  Status migrate_plugin(const std::string& var, const std::string& source,
                        bool to_writer);

  /// Execute the data movement for everything scheduled this step. Must be
  /// called once per step in stream mode even when nothing is scheduled:
  /// the writer's end_step rendezvouses with this call's read request
  /// (except under CACHING_ALL, where the handshake is skipped).
  Status perform_reads();

  /// Process-group blocks delivered to this rank by the last perform_reads.
  const std::vector<PgBlock>& pg_blocks() const { return pg_blocks_; }

  /// Read a scalar announced this step (valid after begin_step). Scalars
  /// travel with the step metadata; with handshake caching enabled they
  /// refresh only on the first step.
  StatusOr<double> scalar_double(const std::string& name) const;
  StatusOr<std::int64_t> scalar_int(const std::string& name) const;

  /// Variable metadata visible this step (all writer blocks of `var`).
  StatusOr<std::vector<adios::VarMeta>> inquire(const std::string& var) const;

  Status end_step();
  Status close();

  // --- elastic membership (stream mode with directory liveness on) ------

  /// Gracefully depart the stream at a step boundary: the current step must
  /// be drained (no step open). Announces the leave to the directory,
  /// removes this rank from the program's collectives, and tears the
  /// endpoint down. Non-coordinator ranks only. The reader is closed after.
  Status leave();

  /// Test hook: die abruptly. Heartbeats stop, the endpoint (and with it
  /// every inbound link) is destroyed, but the directory is *not* told --
  /// the failure detector has to notice via TTL expiry, exactly as with a
  /// real crash.
  void simulate_crash();

  /// Test hook: suppress heartbeats for `d` from now, simulating a stalled
  /// or partitioned rank without killing it.
  void pause_heartbeats_for(std::chrono::nanoseconds d);

  /// True once the directory fenced this rank (declared it dead while it
  /// was merely slow). A fenced rank must stop participating; step entry
  /// points return kUnavailable.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }

  /// This rank's membership incarnation (0 when membership is off).
  std::uint64_t incarnation() const { return incarnation_; }

  bool file_mode() const { return bp_ != nullptr; }
  int num_writers() const { return writer_size_; }

  /// Unpack concurrency this reader resolved at open (config > env > 1).
  int read_threads() const { return read_threads_; }

  /// Test/bench hook: replace the unpack pool (mirrors the writer's
  /// set_pack_pool_for_testing). A zero-worker pool prices the dispatch
  /// machinery at concurrency 1; nullptr restores the plain serial loop.
  void set_read_pool_for_testing(std::shared_ptr<util::WorkPool> pool) {
    read_pool_ = std::move(pool);
    read_threads_ = read_pool_ ? read_pool_->workers() + 1 : 1;
  }

  /// Writer-side monitoring shipped at stream close (stream mode only;
  /// valid after begin_step returned kEndOfStream).
  const std::optional<wire::MonitorReport>& writer_report() const {
    return writer_report_;
  }

 private:
  friend class Runtime;
  StreamReader() = default;

  Status open(Runtime* rt, const StreamSpec& spec);
  Status open_late_join(Runtime* rt);
  /// Adopt the writer's stream shape and caching level from an encoded
  /// OpenReply (the live reply, or the directory's open-info blob).
  Status apply_open_reply(ByteView raw);
  StatusOr<StepId> begin_step_stream();
  StatusOr<StepId> begin_step_file();
  void start_heartbeats();
  void stop_heartbeats();
  /// Coordinator, before broadcasting an epoch-stamped announce: admit
  /// joiners whose join_epoch the announce covers and excise the departed,
  /// from the writer's shipped view (pending_membership_) or, failing
  /// that, the directory's.
  void apply_membership(std::uint64_t announce_epoch);
  Status perform_reads_stream();
  Status perform_reads_file();
  /// Coordinator helper: receive the next control message from the writer
  /// coordinator, stashing any early data messages.
  Status next_control(std::vector<std::byte>* out);
  /// Takes the piece by value: a local-array piece's lease moves straight
  /// into the delivered PgBlock, and a global-array piece is copy_region'd
  /// from its lease into the scheduled dst buffers, after which the lease
  /// drops (on whichever thread ran the task). A reader-side plug-in first
  /// materializes the piece, then transforms it. Safe to run
  /// concurrently for distinct pieces (DESIGN.md "Parallel unpack"):
  /// expected pieces cover disjoint regions, pending_reads_ /
  /// reader_plugins_ are read-only while a step's batch is in flight, and
  /// each task gets its own pg_out slot.
  Status place_piece(wire::DataPiece piece, int writer_rank,
                     std::vector<PgBlock>* pg_out);
  /// Record a just-decoded data message's trace context: a clock sample
  /// for offset estimation plus its transfer latency, accumulated per step
  /// (a message may be decoded and stashed before its step opens).
  void observe_data_msg(const wire::DataMsg& m);

  Runtime* rt_ = nullptr;
  StreamSpec spec_;
  Program* program_ = nullptr;
  int rank_ = 0;
  std::chrono::nanoseconds timeout_{};

  // Stream mode. The channel is the reader's only path to the transport:
  // dedicated per-stream endpoint by default, shared multiplexed endpoint
  // under method shared_links (core/stream_registry.h).
  std::shared_ptr<StreamChannel> channel_;
  std::string writer_program_;
  int writer_size_ = 0;
  std::string writer_coord_;  // coordinator only
  xml::CachingLevel caching_ = xml::CachingLevel::kNone;

  // Step state.
  bool in_step_ = false;
  bool closed_ = false;
  bool eos_ = false;            // coordinator saw the writer's Close frame
  bool eos_delivered_ = false;  // EOS was collectively broadcast to this rank
  StepId close_last_step_ = -1;  // last step id announced by the Close frame
  StepId step_ = -1;
  std::uint64_t steps_completed_ = 0;
  std::vector<wire::BlockInfo> step_blocks_;  // writer distributions
  // Step telemetry: stream hash, the writer's trace context from this
  // step's announce (parents reader spans under the writer's end_step
  // span; zero for a cached step, whose announce the coordinator
  // synthesizes), and per-step data-frame accounting keyed by step id
  // because data messages can arrive before their step opens: summed
  // transfer latency, and the earliest send stamp, which starts the clock
  // of a cached step (it has no announce to time it from).
  std::uint64_t stream_id_ = 0;
  wire::TraceContext announce_ctx_{};
  struct StepWire {
    std::uint64_t transfer_ns = 0;
    std::optional<std::uint64_t> first_send_ns;
  };
  std::map<StepId, StepWire> step_wire_;
  struct PendingRead {
    std::string var;
    adios::Box selection;
    MutableByteView dst;
  };
  std::vector<PendingRead> pending_reads_;
  std::vector<int> pending_pg_;
  std::vector<wire::PluginInstall> pending_plugins_;  // coordinator only
  std::vector<PgBlock> pg_blocks_;
  std::map<std::string, PluginFn> reader_plugins_;

  // Parallel unpack (DESIGN.md "Parallel unpack"): per-step piece placement
  // runs as pool tasks. read_threads_ is the total concurrency including
  // the caller; the pool holds read_threads_ - 1 workers and is absent when
  // the reader unpacks serially (read_threads_ == 1).
  int read_threads_ = 1;
  std::shared_ptr<util::WorkPool> read_pool_;

  // Handshake caches.
  wire::ReadRequest cached_request_;
  bool have_cached_request_ = false;
  std::vector<TransferPiece> cached_expected_;  // pieces destined to me

  // Elastic membership. cached_epoch_ is the epoch the cached handshake
  // was exchanged under; an announce stamped with a different epoch forces
  // the exchange even under CACHING_ALL. The heartbeat thread beats at
  // TTL/4 and latches fenced_ if the directory rejects a beat (this rank
  // was declared dead while merely slow).
  bool membership_ = false;
  std::uint64_t incarnation_ = 0;
  std::uint64_t join_epoch_ = 0;
  std::uint64_t cached_epoch_ = 0;
  std::uint64_t announce_epoch_ = 0;  // 0: membership off, or a cached step
  bool left_ = false;
  bool crashed_ = false;
  std::atomic<bool> fenced_{false};
  std::optional<wire::MembershipUpdate> pending_membership_;  // coordinator
  /// Coordinator only, shared with the liveness hook (which runs on any
  /// blocked rank's thread): the incarnation of each rank the collective
  /// rounds were last formed with. A directory incarnation newer than the
  /// applied one means the old participant is gone even though the rank
  /// reads as alive -- its respawn landed inside one sweep window -- and
  /// must be excised until the joiner is admitted.
  struct AppliedIncarnations {
    std::mutex mutex;
    std::map<int, std::uint64_t> inc;
  };
  std::shared_ptr<AppliedIncarnations> applied_inc_;
  std::thread hb_thread_;
  std::atomic<bool> hb_stop_{false};
  std::atomic<std::uint64_t> hb_pause_until_ns_{0};
  /// Telemetry piggyback (owned by the heartbeat thread): deltas since
  /// the previous beat, sent in the heartbeat's stats field when
  /// publishing is enabled (telemetry::publish_enabled()).
  telemetry::DeltaEncoder hb_stats_;
  std::uint64_t hb_stats_seq_ = 0;

  // Early-arrival stashes: data messages for future steps, and control
  // frames (the next StepAnnounce can overtake the tail of the current
  // step's data on other links -- writers run ahead). Stashed data pieces
  // keep their frame's lease, and with it an shm slot or rdma receive
  // buffer, until their step places them or the reader closes.
  std::vector<wire::DataMsg> stash_;
  std::deque<std::vector<std::byte>> control_stash_;
  std::optional<wire::MonitorReport> writer_report_;

  // File mode.
  std::unique_ptr<adios::BpReader> bp_;
  std::vector<StepId> bp_steps_;
  std::size_t bp_cursor_ = 0;
};

}  // namespace flexio
