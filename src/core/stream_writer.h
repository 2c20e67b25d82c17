// Writer side of a FlexIO stream.
//
// Implements the ADIOS-compatible write API over either transport mode:
//  * stream mode ("FLEXIO"): the 4-step handshake of Section II.C with the
//    three caching levels, optional variable batching, sync/async delivery,
//    and writer-side DC plug-in execution;
//  * file mode ("BP"): the offline path through the BP-like file engine.
// All ranks of the writer program call every method collectively (SPMD).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "adios/bp_file.h"
#include "core/redistribution.h"
#include "core/runtime.h"
#include "util/work_pool.h"

namespace flexio {

class StreamWriter {
 public:
  ~StreamWriter();
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Start a new output step (strictly increasing ids).
  Status begin_step(StepId step);

  /// Declare + buffer one variable. The payload is copied, so the caller
  /// may reuse its buffer immediately (this is what makes async mode safe).
  Status write(const adios::VarMeta& meta, ByteView payload);

  /// Convenience scalar writers.
  Status write_scalar(const std::string& name, double value);
  Status write_scalar(const std::string& name, std::int64_t value);

  /// Complete the step: run the handshake (as far as the caching level
  /// demands) and move the data.
  Status end_step();

  /// Close the stream: in stream mode ships the monitoring report and the
  /// End-of-Stream to the reader program.
  Status close();

  bool file_mode() const { return bp_ != nullptr; }

  /// Transport the runtime auto-configured towards a reader rank (valid
  /// after data has been sent to it). Lets callers verify that a placement
  /// decision was enforced: same node -> shm, across nodes -> rdma.
  StatusOr<evpath::TransportKind> transport_to_reader(int reader_rank) const {
    if (!channel_) {
      return make_error(ErrorCode::kFailedPrecondition, "file mode");
    }
    return channel_->transport_to(
        channel_->peer_name(spec_.stream, reader_program_, reader_rank));
  }

  /// Writer-side monitoring (Section II.G).
  const PerfMonitor& monitor() const { return monitor_; }

  /// Packing concurrency the writer resolved at open() (method config,
  /// else FLEXIO_PACK_THREADS, else 1 = serial).
  int pack_threads() const { return pack_threads_; }

  /// Replace the pack pool (tests: share one pool across writers, or force
  /// a specific worker count). Must not be called with a step in flight.
  void set_pack_pool_for_testing(std::shared_ptr<util::WorkPool> pool) {
    pack_pool_ = std::move(pool);
    pack_threads_ = pack_pool_ ? pack_pool_->workers() + 1 : 1;
  }

 private:
  friend class Runtime;
  StreamWriter() = default;

  Status open(Runtime* rt, const StreamSpec& spec);
  Status end_step_stream();
  Status end_step_file();
  Status run_handshake(bool* did_exchange);
  Status send_pieces();
  /// One pool task: pack, transform, and send every planned piece for one
  /// reader. Shared writer state is read-only while a batch is in flight
  /// (see DESIGN.md "Parallel pack"); the out-params are this task's
  /// private slots in the per-task timing vectors.
  struct ReaderWork;
  Status send_to_reader(const ReaderWork& work, std::uint64_t* pack_ns,
                        std::uint64_t* enqueue_ns);
  void rebuild_send_plan();
  bool plan_bindings_valid() const;
  wire::MonitorReport build_report() const;
  /// Membership record for a reader rank (nullptr when membership is off or
  /// the rank never joined).
  const wire::MemberInfo* member_info(int reader_rank) const;
  /// A data send to `reader_rank` failed mid-step. Poll the directory
  /// (bounded by ~2x TTL) until it corroborates the loss; true means the
  /// reader is declared gone and its remaining pieces may be dropped.
  bool confirm_reader_gone(int reader_rank);

  Runtime* rt_ = nullptr;
  StreamSpec spec_;
  Program* program_ = nullptr;
  int rank_ = 0;
  std::chrono::nanoseconds timeout_{};

  // Stream mode. The channel is the writer's only path to the transport:
  // dedicated per-stream endpoint by default, shared multiplexed endpoint
  // under method shared_links (core/stream_registry.h).
  std::shared_ptr<StreamChannel> channel_;
  std::string reader_program_;
  int reader_size_ = 0;
  std::string reader_coord_;  // endpoint name of reader rank 0

  // Elastic membership (DESIGN.md "Elastic membership"). The coordinator
  // reads the directory's view once per step and broadcasts it, so every
  // writer rank gates its sends against the same epoch. planned_epoch_ is
  // the epoch the cached handshake (and thus the send plan) was exchanged
  // under; a differing step epoch forces a re-exchange even when the
  // caching level would skip it.
  bool membership_ = false;
  std::uint64_t planned_epoch_ = 0;
  wire::MembershipUpdate member_update_;
  bool have_members_ = false;
  // Incarnation each reader's cached link was established against; a bump
  // means the rank respawned and the stale link must be dropped.
  std::map<int, std::uint64_t> link_incarnation_;

  // Step state.
  bool in_step_ = false;
  bool closed_ = false;
  StepId step_ = -1;
  StepId last_step_ = -1;
  std::uint64_t steps_completed_ = 0;
  // Step telemetry: the stream's stable id (stamped into wire trace
  // contexts) and the current end_step span whose id frames sent this
  // step carry, so the reader can parent its spans under it.
  std::uint64_t stream_id_ = 0;
  std::uint64_t step_span_id_ = 0;
  std::vector<wire::BlockInfo> my_blocks_;
  // Buffered block payloads, slot i for my_blocks_[i]. Persistent: slots
  // outlive the step (begin_step only empties them), so a steady writer
  // refills the same capacity every step instead of allocating it. There
  // may be more slots than blocks this step.
  std::vector<std::vector<std::byte>> my_payloads_;

  // Handshake caches (paper Section II.C.2, third optimization).
  std::vector<wire::BlockInfo> cached_all_blocks_;  // coordinator only
  wire::ReadRequest cached_request_;
  bool have_cached_request_ = false;

  // Cached send plan: the per-reader piece groupings from plan_transfers
  // plus each piece's binding to the buffered payload index. Valid until
  // the handshake re-exchanges (the reader's request may have changed) or
  // the step writes different blocks. Counted in flexio.plan.cache_{hits,
  // misses}.
  struct PlannedPiece {
    TransferPiece piece;
    std::size_t block_index;  // into my_blocks_ / my_payloads_
  };
  std::vector<std::pair<int, std::vector<PlannedPiece>>> cached_plan_;
  bool have_cached_plan_ = false;

  // Writer-side DC plug-ins, keyed by variable name.
  std::map<std::string, PluginFn> plugins_;

  // Parallel pack (DESIGN.md "Parallel pack"): per-reader piece groups are
  // packed + sent as pool tasks. pack_threads_ is the total concurrency
  // including the caller; the pool holds pack_threads_ - 1 workers and is
  // absent when the writer runs serial (pack_threads_ == 1).
  int pack_threads_ = 1;
  std::shared_ptr<util::WorkPool> pack_pool_;

  // File mode.
  std::unique_ptr<adios::BpWriter> bp_;

  PerfMonitor monitor_;
};

}  // namespace flexio
