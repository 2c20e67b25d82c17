#include "core/stream_writer.h"

#include <cstring>
#include <thread>

#include "util/log.h"
#include "util/metrics.h"
#include "util/stats_server.h"
#include "util/trace.h"

namespace flexio {

namespace {
std::chrono::nanoseconds ns_from_ms(double ms) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(ms * 1e6));
}

// Process-wide handshake accounting, shared with StreamReader: both sides
// bump the same registry counters, so in a colocated test the totals are
// 2x the per-side expectation. StreamWriter::counts() keeps the exact
// per-endpoint numbers for wire::MonitorReport.
metrics::Counter& handshakes_performed_counter() {
  static metrics::Counter& c = metrics::counter("flexio.handshake.performed");
  return c;
}
metrics::Counter& handshakes_skipped_counter() {
  static metrics::Counter& c = metrics::counter("flexio.handshake.skipped");
  return c;
}
metrics::Counter& stream_bytes_sent_counter() {
  static metrics::Counter& c = metrics::counter("flexio.bytes.sent");
  return c;
}
metrics::Counter& plan_cache_hits_counter() {
  static metrics::Counter& c = metrics::counter("flexio.plan.cache_hits");
  return c;
}
metrics::Counter& plan_cache_misses_counter() {
  static metrics::Counter& c = metrics::counter("flexio.plan.cache_misses");
  return c;
}
// Pieces planned for a reader that turned out to be gone (left, dead, or
// declared gone mid-send). Dropped, never retried: the next epoch-changed
// handshake re-plans the step over the survivors.
metrics::Counter& dropped_pieces_counter() {
  static metrics::Counter& c = metrics::counter("flexio.membership.dropped_pieces");
  return c;
}
// Per-step phase attribution (Section II.G): time the writer spends
// packing regions vs. handing frames to the transport, recorded once per
// step as a sum over the step's pieces.
metrics::Histogram& step_pack_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.step.pack.ns");
  return h;
}
metrics::Histogram& step_enqueue_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.step.enqueue.ns");
  return h;
}
// Parallel-pack critical path: the slowest per-reader pack task of the
// step. With a serial writer this equals the largest single reader's pack
// time; the gap between it and flexio.step.pack.ns (the sum over tasks =
// total work) is what parallelism reclaims from the step's wall clock.
metrics::Histogram& step_pack_critical_hist() {
  static metrics::Histogram& h =
      metrics::histogram("flexio.step.pack.critical.ns");
  return h;
}
// DC plug-in execution, one sample per transformed piece; StreamReader
// records its side's plug-ins into the same histogram.
metrics::Histogram& plugin_exec_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.plugin.exec.ns");
  return h;
}
}  // namespace

StreamWriter::~StreamWriter() {
  if (!closed_ && !in_step_) (void)close();
}

Status StreamWriter::open(Runtime* rt, const StreamSpec& spec) {
  trace::Span span("writer.open");
  rt_ = rt;
  spec_ = spec;
  stream_id_ = wire::stream_id_hash(spec.stream);
  program_ = spec.endpoint.program;
  rank_ = spec.endpoint.rank;
  timeout_ = ns_from_ms(spec.method.timeout_ms);
  FLEXIO_CHECK(program_ != nullptr);
  FLEXIO_CHECK(rank_ >= 0 && rank_ < program_->size());
  if (spec.method.telemetry || !spec.method.stats_addr.empty()) {
    telemetry::configure(spec.method.stats_addr, spec.method.telemetry);
  }

  if (spec.method.method != "FLEXIO") {
    // File mode: any ADIOS-style file method name maps to the BP engine.
    auto bp = adios::BpWriter::create(spec.file_dir, spec.stream, rank_,
                                      program_->size());
    if (!bp.is_ok()) return bp.status();
    bp_ = std::move(bp).value();
    return Status::ok();
  }

  // Stream mode: resolve the packing concurrency (config wins, then the
  // FLEXIO_PACK_THREADS env knob, then serial) and spawn the pool once per
  // stream -- per-step spawning would dwarf the pack times it parallelizes.
  pack_threads_ = spec.method.pack_threads > 0
                      ? spec.method.pack_threads
                      : util::WorkPool::env_pack_threads(1);
  if (pack_threads_ > 1) {
    pack_pool_ = std::make_shared<util::WorkPool>(pack_threads_ - 1);
  }

  // Create this rank's endpoint and rendezvous with the reader program
  // through the directory server (Section II.C.1).
  evpath::LinkOptions lopts;
  lopts.queue_entries = spec.method.queue_entries;
  lopts.queue_payload_bytes = spec.method.queue_payload_bytes;
  lopts.pool_bytes = spec.method.pool_bytes;
  lopts.rdma_pool_bytes = spec.method.rdma_pool_bytes;
  lopts.timeout = timeout_;
  lopts.max_retries = spec.method.max_retries;
  MuxOptions mux;
  mux.shared_links = spec.method.shared_links;
  mux.credit_bytes = spec.method.credit_bytes;
  mux.drr_quantum_bytes = spec.method.drr_quantum_bytes;
  mux.timeout = timeout_;
  auto ch = rt->registry().attach(spec.stream, program_->name(), rank_,
                                  spec.endpoint.location, lopts, mux);
  if (!ch.is_ok()) return ch.status();
  channel_ = std::move(ch).value();

  membership_ = rt->directory().membership_enabled();

  std::vector<std::byte> reader_info;
  if (rank_ == Program::kCoordinator) {
    // Register with the open-info blob a late joiner bootstraps from: the
    // same fields the OpenReply would carry, known before any reader calls.
    wire::OpenReply info;
    info.writer_program = program_->name();
    info.writer_size = program_->size();
    info.caching = static_cast<std::uint8_t>(spec.method.caching);
    info.batching = spec.method.batching;
    info.async_writes = spec.method.async_writes;
    FLEXIO_RETURN_IF_ERROR(rt->directory().register_stream(
        spec.stream, channel_->name(), wire::encode(info)));
    // Wait for the reader coordinator's OpenRequest.
    evpath::Message msg;
    FLEXIO_RETURN_IF_ERROR(channel_->recv(&msg, timeout_));
    auto req = wire::decode_open_request(ByteView(msg.payload));
    if (!req.is_ok()) return req.status();
    if (StreamRegistry::is_shared_name(msg.from) != channel_->shared()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "stream multiplexing mode mismatch: reader contact " +
                            msg.from);
    }
    reader_program_ = req.value().reader_program;
    reader_size_ = req.value().reader_size;
    reader_coord_ = msg.from;
    wire::OpenReply reply;
    reply.writer_program = program_->name();
    reply.writer_size = program_->size();
    reply.caching = static_cast<std::uint8_t>(spec.method.caching);
    reply.batching = spec.method.batching;
    reply.async_writes = spec.method.async_writes;
    FLEXIO_RETURN_IF_ERROR(
        channel_->send(reader_coord_, ByteView(wire::encode(reply))));
    serial::BufWriter w;
    w.put_string(reader_program_);
    w.put_varint(static_cast<std::uint64_t>(reader_size_));
    reader_info = w.take();
  }
  FLEXIO_RETURN_IF_ERROR(program_->broadcast(rank_, &reader_info, timeout_));
  if (rank_ != Program::kCoordinator) {
    serial::BufReader r{ByteView(reader_info)};
    FLEXIO_RETURN_IF_ERROR(r.get_string(&reader_program_));
    std::uint64_t size = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&size));
    reader_size_ = static_cast<int>(size);
  }
  return Status::ok();
}

Status StreamWriter::begin_step(StepId step) {
  if (closed_) {
    return make_error(ErrorCode::kFailedPrecondition, "writer closed");
  }
  if (in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "step already open");
  }
  if (step <= last_step_) {
    return make_error(ErrorCode::kInvalidArgument,
                      "step ids must strictly increase");
  }
  if (bp_) FLEXIO_RETURN_IF_ERROR(bp_->begin_step(step));
  in_step_ = true;
  step_ = step;
  my_blocks_.clear();
  // Keep each slot's capacity for the next write into it. Borrowed pieces
  // never outlive send_iov, so nothing still reads the old bytes.
  for (std::vector<std::byte>& slot : my_payloads_) slot.clear();
  return Status::ok();
}

Status StreamWriter::write(const adios::VarMeta& meta, ByteView payload) {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "write outside step");
  }
  FLEXIO_RETURN_IF_ERROR(meta.validate());
  if (payload.size() != meta.payload_bytes()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "payload size does not match metadata of " + meta.name);
  }
  if (bp_) return bp_->write(meta, payload);

  for (const wire::BlockInfo& existing : my_blocks_) {
    if (existing.meta.name == meta.name) {
      return make_error(ErrorCode::kAlreadyExists,
                        "variable written twice this step: " + meta.name);
    }
  }
  wire::BlockInfo block;
  block.writer_rank = rank_;
  block.meta = meta;
  const std::size_t slot = my_blocks_.size();
  if (slot == my_payloads_.size()) my_payloads_.emplace_back();
  if (meta.shape == adios::ShapeKind::kScalar) {
    block.scalar_payload.assign(payload.begin(), payload.end());
  } else {
    my_payloads_[slot].assign(payload.begin(), payload.end());
  }
  my_blocks_.push_back(std::move(block));
  return Status::ok();
}

Status StreamWriter::write_scalar(const std::string& name, double value) {
  return write(adios::scalar_var(name, serial::DataType::kDouble),
               ByteView(reinterpret_cast<const std::byte*>(&value),
                        sizeof value));
}

Status StreamWriter::write_scalar(const std::string& name,
                                  std::int64_t value) {
  return write(adios::scalar_var(name, serial::DataType::kInt64),
               ByteView(reinterpret_cast<const std::byte*>(&value),
                        sizeof value));
}

Status StreamWriter::end_step() {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "no step open");
  }
  const Status st = bp_ ? bp_->end_step() : end_step_stream();
  if (st.is_ok()) {
    last_step_ = step_;
    ++steps_completed_;
    in_step_ = false;
  }
  return st;
}

Status StreamWriter::run_handshake(bool* did_exchange) {
  trace::Span span("writer.handshake");
  using xml::CachingLevel;
  const CachingLevel caching = spec_.method.caching;
  const bool first = steps_completed_ == 0;

  // Membership: the coordinator reads the directory's view once per step
  // and broadcasts it, so every writer rank observes the *same* epoch (a
  // per-rank read could straddle a change and split the collective). A
  // step epoch that differs from the one the cached handshake was
  // exchanged under forces the full re-exchange below, whatever the
  // caching level says.
  std::uint64_t step_epoch = 0;
  bool epoch_changed = false;
  if (membership_) {
    std::vector<std::byte> view_raw;
    if (rank_ == Program::kCoordinator) {
      const evpath::MembershipView view =
          rt_->directory().membership(spec_.stream);
      wire::MembershipUpdate upd;
      upd.stream = spec_.stream;
      upd.epoch = view.epoch;
      for (const evpath::Member& m : view.members) {
        upd.members.push_back(wire::MemberInfo{
            m.rank, m.contact, m.incarnation,
            static_cast<std::uint8_t>(m.state), m.join_epoch});
      }
      view_raw = wire::encode(upd);
    }
    FLEXIO_RETURN_IF_ERROR(program_->broadcast(rank_, &view_raw, timeout_));
    auto upd = wire::decode_membership_update(ByteView(view_raw));
    if (!upd.is_ok()) return upd.status();
    member_update_ = std::move(upd).value();
    have_members_ = true;
    step_epoch = member_update_.epoch;
    epoch_changed = !first && step_epoch != planned_epoch_;
  }

  // Step 1.s: gather local distributions at the coordinator, unless the
  // local side is cached (CACHING_LOCAL and CACHING_ALL skip it).
  const bool do_gather = first || epoch_changed || caching == CachingLevel::kNone;
  if (do_gather) {
    wire::StepAnnounce mine;
    mine.step = step_;
    mine.blocks = my_blocks_;
    std::vector<std::vector<std::byte>> all;
    FLEXIO_RETURN_IF_ERROR(
        program_->gather(rank_, ByteView(wire::encode(mine)), &all, timeout_));
    if (rank_ == Program::kCoordinator) {
      cached_all_blocks_.clear();
      for (const auto& raw : all) {
        if (raw.empty()) continue;  // inactive rank slot (elastic gather)
        auto ann = wire::decode_step_announce(ByteView(raw));
        if (!ann.is_ok()) return ann.status();
        for (auto& b : ann.value().blocks) {
          cached_all_blocks_.push_back(std::move(b));
        }
      }
    }
  }

  // Steps 2+3: exchange with the peer side, unless fully cached. An epoch
  // change always re-exchanges: the merged request must be rebuilt from
  // the surviving readers and the joiners.
  const bool do_exchange = first || epoch_changed || caching != CachingLevel::kAll;
  *did_exchange = do_exchange;
  if (do_exchange) {
    std::vector<std::byte> request_raw;
    if (rank_ == Program::kCoordinator) {
      if (epoch_changed) {
        // Ship the view behind the new epoch ahead of the announce (same
        // FIFO link), so the reader coordinator can admit joiners and
        // excise the departed without consulting the directory itself.
        FLEXIO_RETURN_IF_ERROR(channel_->send(
            reader_coord_, ByteView(wire::encode(member_update_))));
      }
      wire::StepAnnounce ann;
      ann.step = step_;
      ann.blocks = cached_all_blocks_;
      ann.trace = wire::TraceContext{stream_id_, step_, step_span_id_,
                                     metrics::now_ns()};
      if (membership_) ann.membership_epoch = step_epoch;
      FLEXIO_RETURN_IF_ERROR(
          channel_->send(reader_coord_, ByteView(wire::encode(ann))));
      evpath::Message msg;
      FLEXIO_RETURN_IF_ERROR(
          channel_->recv_from(reader_coord_, &msg, timeout_));
      if (msg.eos) {
        return make_error(ErrorCode::kEndOfStream,
                          "reader disappeared mid-stream");
      }
      request_raw.assign(msg.payload.begin(), msg.payload.end());
    }
    // Step 3: broadcast the peer-side distribution (the read request) so
    // every writer rank can compute its mapping independently.
    FLEXIO_RETURN_IF_ERROR(
        program_->broadcast(rank_, &request_raw, timeout_));
    auto req = wire::decode_read_request(ByteView(request_raw));
    if (!req.is_ok()) return req.status();
    cached_request_ = std::move(req).value();
    have_cached_request_ = true;
    if (membership_) {
      // The reader echoes the announce's epoch back: the collective
      // agreement point. The new handshake state is valid for that epoch.
      planned_epoch_ = cached_request_.membership_epoch.value_or(step_epoch);
    }
    // Pair our receive clock with the reader's send clock; the merge tool
    // estimates the cross-process offset from these samples. Coordinator
    // only: other ranks see the request after a broadcast delay.
    if (rank_ == Program::kCoordinator && cached_request_.trace) {
      trace::clock_sample(cached_request_.trace->send_ns);
    }
    // The reader's request may have changed: the cached send plan is stale.
    have_cached_plan_ = false;
    ++counts_.handshakes_performed;
    handshakes_performed_counter().inc();

    // Install any plug-ins that rode along with the request. An empty
    // source removes the plug-in: that is how the reader migrates a
    // codelet out of the simulation's address space at runtime.
    for (const wire::PluginInstall& p : cached_request_.plugins) {
      if (!p.run_at_writer) continue;
      if (p.source.empty()) {
        plugins_.erase(p.var);
        ++counts_.plugins_removed;
        continue;
      }
      PluginCompiler compiler = rt_->plugin_compiler();
      if (!compiler) {
        return make_error(ErrorCode::kUnimplemented,
                          "no plug-in compiler installed in runtime");
      }
      auto fn = compiler(p.source);
      if (!fn.is_ok()) return fn.status();
      plugins_[p.var] = std::move(fn).value();
    }
  } else {
    ++counts_.handshakes_skipped;
    handshakes_skipped_counter().inc();
  }
  if (!have_cached_request_) {
    return make_error(ErrorCode::kInternal, "no read request available");
  }
  return Status::ok();
}

void StreamWriter::rebuild_send_plan() {
  // Step 4.s: compute this rank's pieces, group them per receiving reader,
  // and bind each piece to its buffered payload once. write() guarantees
  // variable names are unique within a step, so the name alone keys the
  // (var, block) -> payload-index map.
  const std::vector<TransferPiece> mine =
      pieces_from_writer(plan_transfers(my_blocks_, cached_request_), rank_);
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < my_blocks_.size(); ++i) {
    index_of.emplace(my_blocks_[i].meta.name, i);
  }
  std::map<int, std::vector<PlannedPiece>> by_reader;
  for (const TransferPiece& p : mine) {
    const auto it = index_of.find(p.var);
    FLEXIO_CHECK(it != index_of.end());
    FLEXIO_CHECK(my_blocks_[it->second].meta.block == p.meta.block);
    by_reader[p.reader_rank].push_back(PlannedPiece{p, it->second});
  }
  cached_plan_.assign(by_reader.begin(), by_reader.end());
  have_cached_plan_ = true;
}

bool StreamWriter::plan_bindings_valid() const {
  // A cached plan only survives a step that wrote the same variables with
  // the same block geometry (the premise of CACHING_LOCAL/ALL). Cheap
  // re-validation catches an application that changes its output anyway.
  for (const auto& [reader, planned] : cached_plan_) {
    for (const PlannedPiece& pp : planned) {
      if (pp.block_index >= my_blocks_.size()) return false;
      const wire::BlockInfo& block = my_blocks_[pp.block_index];
      if (block.meta.name != pp.piece.var) return false;
      if (block.meta.block != pp.piece.meta.block) return false;
    }
  }
  return true;
}

// One pool task's worth of work: everything send_to_reader needs, decided
// serially in the dispatch prologue. `planned` points into cached_plan_,
// which no thread mutates while a batch is in flight.
struct StreamWriter::ReaderWork {
  int reader = 0;
  const std::vector<PlannedPiece>* planned = nullptr;
  std::string dest;
};

Status StreamWriter::send_pieces() {
  trace::Span span("writer.send_pieces");
  // Reuse the cached per-reader plan when neither side of the handshake
  // changed; otherwise recompute and rebind.
  if (have_cached_plan_ && !plan_bindings_valid()) have_cached_plan_ = false;
  if (have_cached_plan_) {
    plan_cache_hits_counter().inc();
  } else {
    rebuild_send_plan();
    plan_cache_misses_counter().inc();
  }

  // Serial prologue: membership gating mutates shared writer state (the
  // link-incarnation map, stale-link drops), so every dispatch decision is
  // made here, before any task can run. What remains per reader -- pack,
  // plug-in, send, tolerated-loss confirmation -- touches only read-only
  // writer state and thread-safe components (DESIGN.md "Parallel pack").
  std::vector<ReaderWork> work;
  work.reserve(cached_plan_.size());
  for (const auto& [reader, planned] : cached_plan_) {
    std::string dest =
        channel_->peer_name(spec_.stream, reader_program_, reader);
    if (membership_ && have_members_) {
      const wire::MemberInfo* mi = member_info(reader);
      if (mi == nullptr || mi->state != 0) {
        // The plan predates this rank's departure (it can only be stale by
        // part of a step: the next epoch-changed handshake re-plans over
        // the survivors). Drop its pieces instead of stalling the step.
        dropped_pieces_counter().add(planned.size());
        continue;
      }
      const auto it = link_incarnation_.find(reader);
      if (it != link_incarnation_.end() && it->second != mi->incarnation) {
        // The rank respawned under the same name: the cached link points
        // at the dead incarnation's transport state.
        channel_->drop_link(dest);
      }
      link_incarnation_[reader] = mi->incarnation;
    }
    work.push_back(ReaderWork{reader, &planned, std::move(dest)});
  }

  // Per-task count slots: disjoint indices, written by exactly one task
  // each, read after the batch joins (run_batch's completion wait is the
  // synchronization point).
  std::vector<Counts> tallies(work.size());

  Status sent = Status::ok();
  if (pack_pool_ != nullptr && work.size() > 1) {
    // Each task inherits the submitting thread's trace identity so its
    // spans land in the writer's timeline, parented under this function's
    // span; first-error-wins across tasks, every task runs (a failing
    // reader must not suppress its siblings' sends).
    const trace::TaskContext tctx = trace::TaskContext::capture();
    std::vector<util::WorkPool::Task> tasks;
    tasks.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      tasks.push_back([this, tctx, &work, &tallies, i]() -> Status {
        trace::TaskScope task_identity(tctx);
        return send_to_reader(work[i], &tallies[i]);
      });
    }
    sent = pack_pool_->run_batch(std::move(tasks));
  } else {
    // Serial path: same tasks, same all-run + first-error-wins semantics,
    // executed inline in plan order.
    for (std::size_t i = 0; i < work.size(); ++i) {
      const Status st = send_to_reader(work[i], &tallies[i]);
      if (sent.is_ok()) sent = st;
    }
  }
  if (!sent.is_ok()) return sent;

  // Phase attribution: the sum over tasks is the step's total pack work
  // (invariant across thread counts); the max is the parallel critical
  // path -- the pack time the step actually waits for.
  std::uint64_t pack_sum = 0;
  std::uint64_t pack_max = 0;
  std::uint64_t enqueue_sum = 0;
  for (const Counts& t : tallies) {
    pack_sum += t.pack_ns;
    if (t.pack_ns > pack_max) pack_max = t.pack_ns;
    enqueue_sum += t.enqueue_ns;
    counts_.bytes_sent += t.bytes_sent;
    counts_.msgs_sent += t.msgs_sent;
    counts_.plugin_pieces += t.plugin_pieces;
  }
  step_pack_hist().record(pack_sum);
  step_pack_critical_hist().record(pack_max);
  step_enqueue_hist().record(enqueue_sum);
  counts_.pack_ns += pack_sum;
  counts_.enqueue_ns += enqueue_sum;
  return Status::ok();
}

Status StreamWriter::send_to_reader(const ReaderWork& work, Counts* tally) {
  trace::Span span("writer.pack_task");
  const std::vector<PlannedPiece>& planned = *work.planned;
  const auto send_mode = spec_.method.async_writes ? evpath::SendMode::kAsync
                                                   : evpath::SendMode::kSync;
  std::vector<wire::DataPiece> packed;
  packed.reserve(planned.size());
  for (const PlannedPiece& pp : planned) {
    const TransferPiece& p = pp.piece;
    const wire::BlockInfo& block = my_blocks_[pp.block_index];
    const std::vector<std::byte>& payload = my_payloads_[pp.block_index];
    wire::DataPiece piece;
    piece.meta = block.meta;
    piece.region = p.region;
    if (p.whole_block) {
      // Borrow the buffered block: the bytes flow straight from
      // my_payloads_ into the transport at encode time. Safe because
      // every transport finishes its copy inside send and the buffer is
      // not refilled before the next step's write.
      piece.borrowed = ByteView(payload);
    } else {
      // Pack the overlap region densely.
      const std::uint64_t pack_start = metrics::now_ns();
      const std::size_t elem = serial::size_of(block.meta.type);
      piece.payload.resize(p.region.elements() * elem);
      adios::copy_region(block.meta.block, payload.data(), p.region,
                         piece.payload.data(), p.region, elem);
      tally->pack_ns += metrics::now_ns() - pack_start;
    }
    // Writer-side DC plug-in, if deployed against this variable. Plug-ins
    // may run concurrently against different pieces; they transform their
    // input and must not mutate shared state (DESIGN.md "Parallel pack").
    const auto plug = plugins_.find(p.var);
    if (plug != plugins_.end()) {
      metrics::ScopedTimerNs timer(&plugin_exec_hist());
      piece.materialize();  // plug-ins consume owned payload bytes
      auto transformed = plug->second(piece);
      if (!transformed.is_ok()) return transformed.status();
      piece = std::move(transformed).value();
      ++tally->plugin_pieces;
    }
    packed.push_back(std::move(piece));
  }
  auto send_batch = [&](std::vector<wire::DataPiece> pieces) -> Status {
    wire::DataMsg msg;
    msg.step = step_;
    msg.writer_rank = rank_;
    msg.pieces = std::move(pieces);
    msg.trace = wire::TraceContext{stream_id_, step_, step_span_id_,
                                   metrics::now_ns()};
    std::uint64_t bytes = 0;
    for (const auto& p : msg.pieces) bytes += p.bytes().size();
    tally->bytes_sent += bytes;
    ++tally->msgs_sent;
    stream_bytes_sent_counter().add(bytes);
    // Scatter-gather framing: header slices interleaved with borrowed
    // payload views; transports gather them without a flat intermediate.
    const serial::IovMessage iov = wire::encode_data_iov(msg);
    const std::uint64_t enqueue_start = metrics::now_ns();
    const Status st = channel_->send_iov(work.dest, iov.frags, send_mode);
    tally->enqueue_ns += metrics::now_ns() - enqueue_start;
    return st;
  };
  Status sent = Status::ok();
  if (spec_.method.batching) {
    sent = send_batch(std::move(packed));
  } else {
    for (auto& piece : packed) {
      std::vector<wire::DataPiece> one;
      one.push_back(std::move(piece));
      sent = send_batch(std::move(one));
      if (!sent.is_ok()) break;
    }
  }
  if (!sent.is_ok()) {
    // A reader that dies mid-step takes its links down with it; the
    // transports fast-fail instead of wedging the writer. Tolerate the
    // loss only once the failure detector corroborates it -- anything
    // else is a real transport error. confirm_reader_gone only reads
    // shared state (directory polls + link-incarnation lookups), so a
    // pool task may block in it while its siblings keep sending.
    const bool reader_loss = sent.code() == ErrorCode::kUnavailable ||
                             sent.code() == ErrorCode::kNotFound ||
                             sent.code() == ErrorCode::kTimeout;
    if (!membership_ || !reader_loss || !confirm_reader_gone(work.reader)) {
      return sent;
    }
    channel_->drop_link(work.dest);
    dropped_pieces_counter().add(planned.size());
  }
  return Status::ok();
}

const wire::MemberInfo* StreamWriter::member_info(int reader_rank) const {
  if (!have_members_) return nullptr;
  for (const wire::MemberInfo& m : member_update_.members) {
    if (m.rank == reader_rank) return &m;
  }
  return nullptr;
}

bool StreamWriter::confirm_reader_gone(int reader_rank) {
  // The step was planned while the rank was still alive, then a send to it
  // failed. Its heartbeats stop with it, so within ~TTL the directory
  // declares it dead (or its graceful leave / respawn has already landed).
  const auto ttl = rt_->directory().membership_options().ttl;
  const auto deadline = std::chrono::steady_clock::now() + 2 * ttl +
                        std::chrono::milliseconds(200);
  const auto it = link_incarnation_.find(reader_rank);
  for (;;) {
    const evpath::MembershipView view =
        rt_->directory().membership(spec_.stream);
    const evpath::Member* m = view.find(reader_rank);
    if (m == nullptr || m->state != evpath::MemberState::kAlive ||
        (it != link_incarnation_.end() && m->incarnation != it->second)) {
      return true;
    }
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status StreamWriter::end_step_stream() {
  // The scope annotates every span ending inside this step (handshake,
  // send_pieces, the step span itself) with {stream, step}; the span id is
  // what the wire trace context ships so the reader can parent under it.
  trace::StepScope step_scope(stream_id_, step_);
  trace::Span span("writer.end_step");
  step_span_id_ = span.id();
  bool did_exchange = false;
  const std::uint64_t handshake_start = metrics::now_ns();
  FLEXIO_RETURN_IF_ERROR(run_handshake(&did_exchange));
  counts_.handshake_ns += metrics::now_ns() - handshake_start;
  return send_pieces();
}

wire::MonitorReport StreamWriter::build_report() const {
  wire::MonitorReport r;
  r.steps = steps_completed_;
  r.bytes_sent = counts_.bytes_sent;
  r.handshakes_performed = counts_.handshakes_performed;
  r.handshakes_skipped = counts_.handshakes_skipped;
  r.handshake_ns = counts_.handshake_ns;
  r.pack_ns = counts_.pack_ns;
  r.enqueue_ns = counts_.enqueue_ns;
  r.phase_steps = steps_completed_;
  return r;
}

Status StreamWriter::close() {
  trace::Span span("writer.close");
  if (closed_) return Status::ok();
  if (in_step_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "close with an open step");
  }
  closed_ = true;
  if (bp_) return bp_->close();
  // Ensure every rank finished sending before announcing the close.
  FLEXIO_RETURN_IF_ERROR(program_->barrier(rank_, timeout_));
  if (rank_ == Program::kCoordinator) {
    // Ship writer-side monitoring to the analytics side, then EOS. A
    // reader that already exited cannot receive either; that is not a
    // writer-side failure.
    Status st = channel_->send(reader_coord_,
                               ByteView(wire::encode(build_report())));
    if (st.is_ok()) {
      st = channel_->send(reader_coord_,
                          ByteView(wire::encode_close(last_step_)));
    }
    if (!st.is_ok() && st.code() != ErrorCode::kUnavailable) return st;
    FLEXIO_RETURN_IF_ERROR(rt_->directory().unregister_stream(spec_.stream));
  }
  // Drain the data links before the writer's buffers go away: closing an
  // RDMA link blocks until every in-flight rendezvous transfer has been
  // fetched and acked by its reader (Section II.E buffer ownership).
  for (int r = 0; r < reader_size_; ++r) {
    if (membership_ && have_members_) {
      // Departed ranks have nothing left to drain (their pieces were
      // dropped); their links would only fast-fail.
      const wire::MemberInfo* mi = member_info(r);
      if (mi == nullptr || mi->state != 0) continue;
    }
    const Status st = channel_->close_to(
        channel_->peer_name(spec_.stream, reader_program_, r));
    // kNotFound: we never sent to that rank. kUnavailable: the reader is
    // already gone, so there is nothing left to drain.
    if (!st.is_ok() && st.code() != ErrorCode::kNotFound &&
        st.code() != ErrorCode::kUnavailable) {
      return st;
    }
  }
  return Status::ok();
}

}  // namespace flexio
