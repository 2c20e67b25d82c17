#include "core/stream_reader.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "util/backoff.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/stats_server.h"
#include "util/trace.h"

namespace flexio {

namespace {

std::chrono::nanoseconds ns_from_ms(double ms) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(ms * 1e6));
}

// Shared with StreamWriter: the same "flexio.handshake.*" registry counters
// count both sides, so a colocated run sees 2x the per-side totals.
metrics::Counter& handshakes_performed_counter() {
  static metrics::Counter& c = metrics::counter("flexio.handshake.performed");
  return c;
}
metrics::Counter& handshakes_skipped_counter() {
  static metrics::Counter& c = metrics::counter("flexio.handshake.skipped");
  return c;
}
metrics::Counter& stream_bytes_received_counter() {
  static metrics::Counter& c = metrics::counter("flexio.bytes.received");
  return c;
}
// Also shared with StreamWriter: both sides cache their transfer plans.
metrics::Counter& plan_cache_hits_counter() {
  static metrics::Counter& c = metrics::counter("flexio.plan.cache_hits");
  return c;
}
metrics::Counter& plan_cache_misses_counter() {
  static metrics::Counter& c = metrics::counter("flexio.plan.cache_misses");
  return c;
}
// Per-step phase attribution, reader side: wire latency of the step's data
// messages (send stamp -> decode), unpack/placement time, and the whole
// announce -> data-complete chain.
metrics::Histogram& step_transfer_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.step.transfer.ns");
  return h;
}
metrics::Histogram& step_unpack_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.step.unpack.ns");
  return h;
}
// Parallel-unpack critical path: the slowest per-piece placement task of
// the step. Sum (above) is thread-count invariant total work; the gap to
// this max is what the read pool reclaims from the step's wall clock.
metrics::Histogram& step_unpack_critical_hist() {
  static metrics::Histogram& h =
      metrics::histogram("flexio.step.unpack.critical.ns");
  return h;
}
metrics::Histogram& step_total_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.step.total.ns");
  return h;
}
// Shared with StreamWriter: one sample per piece a plug-in transformed.
metrics::Histogram& plugin_exec_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.plugin.exec.ns");
  return h;
}

/// Encoded per-rank contribution to the read request (Step 1.a payload).
std::vector<std::byte> encode_rank_request(const wire::ReadRequest& req) {
  return wire::encode(req);
}

}  // namespace

StreamReader::~StreamReader() { (void)close(); }

void StreamReader::observe_data_msg(const wire::DataMsg& m) {
  if (!m.trace) return;
  const std::uint64_t send_ns = m.trace->send_ns;
  trace::clock_sample(send_ns);
  StepWire& acc = step_wire_[m.step];
  if (!acc.first_send_ns || send_ns < *acc.first_send_ns) {
    acc.first_send_ns = send_ns;
  }
  const std::uint64_t now = metrics::now_ns();
  if (now > send_ns) acc.transfer_ns += now - send_ns;
}

Status StreamReader::open(Runtime* rt, const StreamSpec& spec) {
  trace::Span span("reader.open");
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
    // Offline mode: wait (bounded) for the writer to finish its files --
    // this is the "seamlessly switch analytics to run offline" path. The
    // retry delay backs off geometrically up to a hard cap, so a writer
    // that is seconds away does not get hammered and one that is minutes
    // away does not burn the whole deadline asleep.
    const auto deadline = std::chrono::steady_clock::now() + timeout_;
    util::Backoff backoff;
    for (;;) {
      auto bp = adios::BpReader::open(spec.file_dir, spec.stream);
      if (bp.is_ok()) {
        bp_ = std::move(bp).value();
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) return bp.status();
      backoff.sleep();
    }
    writer_size_ = bp_->num_writers();
    bp_steps_ = bp_->steps();
    return Status::ok();
  }

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

  // Unpack concurrency, the mirror of the writer's pack pool: method
  // config wins, FLEXIO_READ_THREADS is the fallback, serial the default.
  // Spawned once per stream; perform_reads dispatches per-piece placement
  // tasks into it every step.
  read_threads_ = spec.method.read_threads > 0
                      ? spec.method.read_threads
                      : util::WorkPool::env_read_threads(1);
  if (read_threads_ > 1) {
    read_pool_ = std::make_shared<util::WorkPool>(read_threads_ - 1);
  }

  membership_ = rt->directory().membership_enabled();
  if (membership_ && spec.late_join) return open_late_join(rt);
  if (membership_) {
    // Join before the coordinator contacts the writer, with a barrier so
    // every rank is in the group before the first announce can observe it:
    // the initial epoch is deterministically the program size.
    auto joined =
        rt->directory().join_member(spec.stream, rank_, channel_->name());
    if (!joined.is_ok()) return joined.status();
    incarnation_ = joined.value().incarnation;
    join_epoch_ = joined.value().join_epoch;
    FLEXIO_RETURN_IF_ERROR(program_->barrier(rank_, timeout_));
  }

  std::vector<std::byte> info;
  if (rank_ == Program::kCoordinator) {
    // Directory lookup, then the open handshake with the writer coordinator.
    auto contact = rt->directory().lookup(spec.stream, timeout_);
    if (!contact.is_ok()) return contact.status();
    writer_coord_ = contact.value();
    // Both sides must multiplex the same way: a dedicated-mode reader
    // sending unprefixed frames at a shared writer endpoint (or the
    // reverse) would only ever be dropped at the demux. Fail loudly here.
    if (StreamRegistry::is_shared_name(writer_coord_) != channel_->shared()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "stream multiplexing mode mismatch: writer contact " +
                            writer_coord_);
    }
    wire::OpenRequest req;
    req.reader_program = program_->name();
    req.reader_size = program_->size();
    FLEXIO_RETURN_IF_ERROR(
        channel_->send(writer_coord_, ByteView(wire::encode(req))));
    evpath::Message msg;
    FLEXIO_RETURN_IF_ERROR(channel_->recv_from(writer_coord_, &msg, timeout_));
    auto reply = wire::decode_open_reply(ByteView(msg.payload));
    if (!reply.is_ok()) return reply.status();
    writer_program_ = reply.value().writer_program;
    writer_size_ = reply.value().writer_size;
    caching_ = static_cast<xml::CachingLevel>(reply.value().caching);
    batching_ = reply.value().batching;
    serial::BufWriter w;
    w.put_string(writer_program_);
    w.put_string(writer_coord_);
    w.put_varint(static_cast<std::uint64_t>(writer_size_));
    w.put_u8(reply.value().caching);
    info = w.take();
  }
  FLEXIO_RETURN_IF_ERROR(program_->broadcast(rank_, &info, timeout_));
  if (rank_ != Program::kCoordinator) {
    serial::BufReader r{ByteView(info)};
    FLEXIO_RETURN_IF_ERROR(r.get_string(&writer_program_));
    FLEXIO_RETURN_IF_ERROR(r.get_string(&writer_coord_));
    std::uint64_t size = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&size));
    writer_size_ = static_cast<int>(size);
    std::uint8_t caching = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_u8(&caching));
    caching_ = static_cast<xml::CachingLevel>(caching);
  }
  if (membership_) {
    start_heartbeats();
    if (rank_ == Program::kCoordinator) {
      // Failure detector: blocked collective waits poll this hook, which
      // sweeps the directory's TTLs and excises dead or departed ranks --
      // unblocking the very round that polled it. It also excises a rank
      // whose directory incarnation is newer than the one the rounds were
      // applied with: a respawn can land inside a single sweep window, so
      // "alive" may describe a joiner that is not in the rounds yet while
      // the participant the rounds wait on is already gone.
      applied_inc_ = std::make_shared<AppliedIncarnations>();
      {
        const evpath::MembershipView view =
            rt_->directory().membership(spec_.stream);
        std::lock_guard<std::mutex> lock(applied_inc_->mutex);
        for (const evpath::Member& m : view.members) {
          applied_inc_->inc[m.rank] = m.incarnation;
        }
      }
      Runtime* rt_ptr = rt_;
      Program* prog = program_;
      const std::string stream = spec_.stream;
      auto applied = applied_inc_;
      program_->set_liveness_hook([rt_ptr, prog, stream, applied]() {
        const evpath::MembershipView view =
            rt_ptr->directory().membership(stream);
        for (const evpath::Member& m : view.members) {
          if (m.rank == Program::kCoordinator || !prog->is_active(m.rank)) {
            continue;
          }
          bool gone = m.state != evpath::MemberState::kAlive;
          if (!gone) {
            std::lock_guard<std::mutex> lock(applied->mutex);
            const auto it = applied->inc.find(m.rank);
            gone = it != applied->inc.end() && m.incarnation > it->second;
          }
          if (gone) prog->deactivate(m.rank);
        }
      });
    }
  }
  return Status::ok();
}

Status StreamReader::open_late_join(Runtime* rt) {
  // Bootstrap the open state from the directory's open-info blob instead
  // of a live OpenRequest exchange: the writer is mid-run and its
  // coordinator is not listening for opens.
  auto info = rt->directory().lookup_info(spec_.stream, timeout_);
  if (!info.is_ok()) return info.status();
  auto reply = wire::decode_open_reply(ByteView(info.value()));
  if (!reply.is_ok()) return reply.status();
  writer_program_ = reply.value().writer_program;
  writer_size_ = reply.value().writer_size;
  caching_ = static_cast<xml::CachingLevel>(reply.value().caching);
  batching_ = reply.value().batching;
  auto contact = rt->directory().lookup(spec_.stream, timeout_);
  if (!contact.is_ok()) return contact.status();
  writer_coord_ = contact.value();
  if (StreamRegistry::is_shared_name(writer_coord_) != channel_->shared()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "stream multiplexing mode mismatch: writer contact " +
                          writer_coord_);
  }

  // Rejoin under a fresh incarnation. The previous incarnation of this
  // rank may still be counted alive (its TTL has not expired yet), in
  // which case the join is refused -- retry with bounded backoff until the
  // sweep fences it.
  util::Backoff backoff;
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    auto joined =
        rt->directory().join_member(spec_.stream, rank_, channel_->name());
    if (joined.is_ok()) {
      incarnation_ = joined.value().incarnation;
      join_epoch_ = joined.value().join_epoch;
      break;
    }
    if (joined.status().code() != ErrorCode::kAlreadyExists ||
        std::chrono::steady_clock::now() > deadline) {
      return joined.status();
    }
    backoff.sleep();
  }
  // Beat from the moment of joining: admission can take up to a full step
  // and must not race the TTL.
  start_heartbeats();
  // The coordinator admits this rank when it applies the first membership
  // view whose epoch covers our join (an epoch-changed announce). Gating
  // on the join epoch (not on the rank slot being active) keeps this from
  // mistaking the dead predecessor's not-yet-excised slot for admission.
  return program_->await_admission(rank_, join_epoch_, timeout_);
}

void StreamReader::start_heartbeats() {
  hb_stop_.store(false, std::memory_order_release);
  hb_stats_.prime();  // piggybacked deltas start from the join, not birth
  hb_stats_seq_ = 0;
  const auto ttl = rt_->directory().membership_options().ttl;
  auto interval = ttl / 4;
  if (interval < std::chrono::milliseconds(1)) {
    interval = std::chrono::milliseconds(1);
  }
  if (interval > std::chrono::milliseconds(100)) {
    interval = std::chrono::milliseconds(100);
  }
  hb_thread_ = std::thread([this, interval] {
    while (!hb_stop_.load(std::memory_order_acquire)) {
      const std::uint64_t pause =
          hb_pause_until_ns_.load(std::memory_order_acquire);
      if (pause == 0 || metrics::now_ns() >= pause) {
        wire::Heartbeat hb;
        hb.stream = spec_.stream;
        hb.rank = rank_;
        hb.incarnation = incarnation_;
        hb.send_ns = metrics::now_ns();
        if (telemetry::publish_enabled()) {
          // Piggyback this rank's registry deltas since the last beat;
          // empty when nothing changed (the trailer is then omitted).
          hb.program = spec_.endpoint.program != nullptr
                           ? spec_.endpoint.program->name()
                           : "";
          hb.stats = hb_stats_.next_line(++hb_stats_seq_, hb.send_ns);
        }
        const Status st = rt_->deliver_heartbeat(ByteView(wire::encode(hb)));
        if (st.code() == ErrorCode::kFailedPrecondition) {
          // Fenced: the directory declared us dead while we were merely
          // slow. We must stop participating -- a zombie cannot rejoin the
          // group under its old incarnation.
          fenced_.store(true, std::memory_order_release);
          return;
        }
        if (st.code() == ErrorCode::kNotFound) return;  // stream closed
      }
      // Sleep the interval in 1 ms slices so stop_heartbeats is prompt.
      auto remaining = interval;
      while (remaining.count() > 0 &&
             !hb_stop_.load(std::memory_order_acquire)) {
        const auto slice = remaining < std::chrono::milliseconds(1)
                               ? remaining
                               : std::chrono::nanoseconds(
                                     std::chrono::milliseconds(1));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
    }
  });
}

void StreamReader::stop_heartbeats() {
  hb_stop_.store(true, std::memory_order_release);
  if (hb_thread_.joinable()) hb_thread_.join();
}

void StreamReader::pause_heartbeats_for(std::chrono::nanoseconds d) {
  hb_pause_until_ns_.store(
      metrics::now_ns() + static_cast<std::uint64_t>(d.count()),
      std::memory_order_release);
}

Status StreamReader::leave() {
  if (!membership_ || bp_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "leave requires stream mode with membership enabled");
  }
  if (in_step_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "leave with an open step (drain it first)");
  }
  if (rank_ == Program::kCoordinator) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "the coordinator rank cannot leave");
  }
  if (left_ || crashed_ || closed_) return Status::ok();
  stop_heartbeats();
  FLEXIO_RETURN_IF_ERROR(rt_->directory().leave_member(spec_.stream, rank_));
  program_->deactivate(rank_);
  channel_.reset();
  left_ = true;
  closed_ = true;
  return Status::ok();
}

void StreamReader::simulate_crash() {
  stop_heartbeats();
  crashed_ = true;
  closed_ = true;
  // Destroying the channel tears down this stream's inbound path. In
  // dedicated mode that destroys the endpoint and its links, so senders
  // observe receiver-gone fast-fails; in shared mode only this stream's
  // demux inbox detaches (its frames drop at the demux) and the shared
  // endpoint lives on for the other streams. Either way the directory is
  // *not* told: the failure detector has to notice the missing
  // heartbeats, exactly as with a real crash.
  channel_.reset();
}

void StreamReader::apply_membership(std::uint64_t announce_epoch) {
  // Prefer the view the writer shipped ahead of the announce (it is the
  // exact view behind the announce's epoch); fall back to the directory.
  std::vector<wire::MemberInfo> members;
  if (pending_membership_) {
    members = std::move(pending_membership_->members);
    pending_membership_.reset();
  } else {
    const evpath::MembershipView view =
        rt_->directory().membership(spec_.stream);
    for (const evpath::Member& m : view.members) {
      members.push_back(wire::MemberInfo{
          m.rank, m.contact, m.incarnation,
          static_cast<std::uint8_t>(m.state), m.join_epoch});
    }
  }
  for (const wire::MemberInfo& m : members) {
    if (m.rank == Program::kCoordinator) continue;
    if (m.state == 0 && m.join_epoch <= announce_epoch) {
      // Admit: the writer planned this epoch with the joiner in view, so
      // it is safe to include it in the collective rounds from here on.
      // admit() also records the epoch so a late joiner's admission gate
      // distinguishes this view from ones predating its join.
      if (applied_inc_) {
        std::lock_guard<std::mutex> lock(applied_inc_->mutex);
        applied_inc_->inc[m.rank] = m.incarnation;
      }
      program_->admit(m.rank, announce_epoch);
    } else if (m.state != 0 && program_->is_active(m.rank)) {
      program_->deactivate(m.rank);
    }
  }
}

Status StreamReader::next_control(std::vector<std::byte>* out) {
  // Coordinator-only: pull messages until a control frame appears; stash
  // data that raced ahead of the announce.
  if (!control_stash_.empty()) {
    *out = std::move(control_stash_.front());
    control_stash_.pop_front();
    return Status::ok();
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    evpath::Message msg;
    FLEXIO_RETURN_IF_ERROR(channel_->recv(&msg, timeout_));
    if (msg.eos) continue;  // link teardown marker, not a protocol frame
    auto type = wire::peek_type(ByteView(msg.payload));
    if (!type.is_ok()) return type.status();
    if (type.value() == wire::MsgType::kData) {
      auto data = wire::decode_data(msg.payload);
      if (!data.is_ok()) return data.status();
      observe_data_msg(data.value());
      stash_.push_back(std::move(data).value());
      if (std::chrono::steady_clock::now() > deadline) {
        return make_error(ErrorCode::kTimeout, "control frame never arrived");
      }
      continue;
    }
    // Control frames are small: copy them out and let the lease go, so
    // the transport memory is not held across the step.
    out->assign(msg.payload.begin(), msg.payload.end());
    return Status::ok();
  }
}

StatusOr<StepId> StreamReader::begin_step_file() {
  if (bp_cursor_ >= bp_steps_.size()) {
    return make_error(ErrorCode::kEndOfStream, "no more steps in file");
  }
  step_ = bp_steps_[bp_cursor_];
  in_step_ = true;
  return step_;
}

StatusOr<StepId> StreamReader::begin_step_stream() {
  trace::Span span("reader.begin_step");
  const bool do_exchange =
      steps_completed_ == 0 || caching_ != xml::CachingLevel::kAll;
  // Coordinator resolves the step (or EOS), everyone else learns by bcast.
  std::vector<std::byte> frame;
  if (rank_ == Program::kCoordinator) {
    if (do_exchange) {
      if (eos_ && control_stash_.empty() && step_ >= close_last_step_) {
        // The Close frame was already consumed during perform_reads (it
        // can arrive interleaved with the final step's data) and no
        // announces are stashed: go straight to the EOS broadcast instead
        // of waiting for a control frame that will never come.
        frame = writer_report_ ? wire::encode(*writer_report_)
                               : wire::encode_close(close_last_step_);
        FLEXIO_RETURN_IF_ERROR(program_->broadcast(rank_, &frame, timeout_));
        eos_delivered_ = true;
        return make_error(ErrorCode::kEndOfStream, "writer closed the stream");
      }
      Status st = next_control(&frame);
      if (!st.is_ok()) return st;
      auto type = wire::peek_type(ByteView(frame));
      if (!type.is_ok()) return type.status();
      while (type.value() == wire::MsgType::kMonitorReport ||
             type.value() == wire::MsgType::kMembershipUpdate) {
        if (type.value() == wire::MsgType::kMonitorReport) {
          auto report = wire::decode_monitor_report(ByteView(frame));
          if (!report.is_ok()) return report.status();
          writer_report_ = report.value();
        } else {
          // Membership view shipped ahead of an epoch-changed announce;
          // applied when the announce itself is processed below.
          auto upd = wire::decode_membership_update(ByteView(frame));
          if (!upd.is_ok()) return upd.status();
          pending_membership_ = std::move(upd).value();
        }
        st = next_control(&frame);
        if (!st.is_ok()) return st;
        type = wire::peek_type(ByteView(frame));
        if (!type.is_ok()) return type.status();
      }
      if (type.value() == wire::MsgType::kClose) {
        // EOS: propagate the writer-side monitoring report to every rank
        // by broadcasting it in place of the close frame.
        auto last = wire::decode_close(ByteView(frame));
        if (!last.is_ok()) return last.status();
        close_last_step_ = last.value();
        frame = writer_report_ ? wire::encode(*writer_report_)
                               : wire::encode_close(close_last_step_);
      } else if (type.value() != wire::MsgType::kStepAnnounce) {
        return make_error(ErrorCode::kInternal,
                          "unexpected control frame in begin_step");
      }
    } else {
      // Fully cached handshake: the next step is identified by the first
      // data message to arrive (or the close frame). A real StepAnnounce
      // arriving here means the writer forced a re-exchange (membership
      // epoch change); it takes precedence over pacing by data -- and it
      // cannot race data for its own step, because the writers only send
      // once this rank's coordinator has answered the announce.
      bool have_frame = false;
      while (!have_frame) {
        if (!control_stash_.empty()) {
          frame = std::move(control_stash_.front());
          control_stash_.pop_front();
          break;
        }
        StepId next = -1;
        for (const wire::DataMsg& m : stash_) {
          if (m.step > step_ && (next < 0 || m.step < next)) next = m.step;
        }
        if (next >= 0) {
          wire::StepAnnounce ann;
          ann.step = next;
          frame = wire::encode(ann);  // blocks omitted; ranks reuse cache
          break;
        }
        if (eos_ && step_ >= close_last_step_) {
          // All steps up to the writer's last are consumed: really done.
          frame = writer_report_ ? wire::encode(*writer_report_)
                                 : wire::encode_close(close_last_step_);
          break;
        }
        evpath::Message msg;
        FLEXIO_RETURN_IF_ERROR(channel_->recv(&msg, timeout_));
        if (msg.eos) continue;
        auto type = wire::peek_type(ByteView(msg.payload));
        if (!type.is_ok()) return type.status();
        switch (type.value()) {
          case wire::MsgType::kData: {
            auto data = wire::decode_data(msg.payload);
            if (!data.is_ok()) return data.status();
            observe_data_msg(data.value());
            stash_.push_back(std::move(data).value());
            break;
          }
          case wire::MsgType::kClose: {
            auto last = wire::decode_close(ByteView(msg.payload));
            if (!last.is_ok()) return last.status();
            close_last_step_ = last.value();
            eos_ = true;
            break;
          }
          case wire::MsgType::kMonitorReport: {
            auto report = wire::decode_monitor_report(ByteView(msg.payload));
            if (!report.is_ok()) return report.status();
            writer_report_ = report.value();
            break;
          }
          case wire::MsgType::kStepAnnounce:
            frame.assign(msg.payload.begin(), msg.payload.end());
            have_frame = true;
            break;
          case wire::MsgType::kMembershipUpdate: {
            auto upd = wire::decode_membership_update(ByteView(msg.payload));
            if (!upd.is_ok()) return upd.status();
            pending_membership_ = std::move(upd).value();
            break;
          }
          default:
            return make_error(ErrorCode::kInternal,
                              "unexpected frame while pacing cached steps");
        }
      }
    }
  }
  if (membership_ && rank_ == Program::kCoordinator) {
    // Apply membership changes *before* the broadcast, so the round forms
    // over exactly the ranks the announce's epoch covers: joiners are
    // admitted (waking their await_admission) and the departed excised.
    auto ft = wire::peek_type(ByteView(frame));
    if (ft.is_ok() && ft.value() == wire::MsgType::kStepAnnounce) {
      auto ann = wire::decode_step_announce(ByteView(frame));
      if (!ann.is_ok()) return ann.status();
      if (ann.value().membership_epoch) {
        apply_membership(*ann.value().membership_epoch);
      }
    }
  }
  FLEXIO_RETURN_IF_ERROR(program_->broadcast(rank_, &frame, timeout_));
  auto frame_type = wire::peek_type(ByteView(frame));
  if (!frame_type.is_ok()) return frame_type.status();
  if (frame_type.value() == wire::MsgType::kClose ||
      frame_type.value() == wire::MsgType::kMonitorReport) {
    if (frame_type.value() == wire::MsgType::kMonitorReport) {
      auto report = wire::decode_monitor_report(ByteView(frame));
      if (!report.is_ok()) return report.status();
      writer_report_ = report.value();
    }
    eos_ = true;
    eos_delivered_ = true;
    return make_error(ErrorCode::kEndOfStream, "writer closed the stream");
  }
  auto ann = wire::decode_step_announce(ByteView(frame));
  if (!ann.is_ok()) return ann.status();
  step_ = ann.value().step;
  have_announce_epoch_ = ann.value().membership_epoch.has_value();
  if (have_announce_epoch_) announce_epoch_ = *ann.value().membership_epoch;
  have_announce_ctx_ = false;
  if (ann.value().trace) {
    announce_ctx_ = *ann.value().trace;
    have_announce_ctx_ = true;
    trace::clock_sample(announce_ctx_.send_ns);
  }
  if (!ann.value().blocks.empty() || steps_completed_ == 0) {
    step_blocks_ = std::move(ann.value().blocks);
  }
  in_step_ = true;
  return step_;
}

StatusOr<StepId> StreamReader::begin_step() {
  if (fenced()) {
    return make_error(ErrorCode::kUnavailable,
                      "rank fenced: declared dead by the directory");
  }
  if (closed_) {
    return make_error(ErrorCode::kFailedPrecondition, "reader closed");
  }
  if (in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "step already open");
  }
  if (eos_delivered_) {
    // EOS is collective: it is only final once begin_step broadcast it to
    // every rank (the raw Close frame can race ahead of the final steps'
    // data and is tracked separately via close_last_step_).
    return make_error(ErrorCode::kEndOfStream, "stream already ended");
  }
  pending_reads_.clear();
  pending_pg_.clear();
  pg_blocks_.clear();  // releases the previous step's payload leases
  return bp_ ? begin_step_file() : begin_step_stream();
}

Status StreamReader::schedule_read(const std::string& var,
                                   const adios::Box& selection,
                                   MutableByteView dst) {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "schedule_read outside step");
  }
  // Validate against the announced metadata (stream mode) or the file
  // index (file mode) and check the destination size.
  serial::DataType type = serial::DataType::kDouble;
  adios::Dims global_dims;
  bool found = false;
  if (bp_) {
    auto blocks = bp_->inquire(step_, var);
    if (!blocks.is_ok()) return blocks.status();
    type = blocks.value()[0].meta.type;
    global_dims = blocks.value()[0].meta.global_dims;
    found = true;
  } else {
    for (const wire::BlockInfo& b : step_blocks_) {
      if (b.meta.name == var &&
          b.meta.shape == adios::ShapeKind::kGlobalArray) {
        type = b.meta.type;
        global_dims = b.meta.global_dims;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    return make_error(ErrorCode::kNotFound, "no global array named " + var);
  }
  // The selection must live inside the announced global space. (Within it,
  // the reader receives whatever the writers covered; asking beyond the
  // array's bounds is a caller bug and would otherwise stall silently.)
  if (selection.ndim() != global_dims.size() ||
      !contains(adios::Box{adios::Dims(global_dims.size(), 0), global_dims},
                selection)) {
    return make_error(ErrorCode::kOutOfRange,
                      "selection outside the global space of " + var);
  }
  if (dst.size() != selection.elements() * serial::size_of(type)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "destination buffer size mismatch for " + var);
  }
  pending_reads_.push_back(PendingRead{var, selection, dst});
  return Status::ok();
}

Status StreamReader::schedule_read_pg(int writer_rank) {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "schedule_read_pg outside step");
  }
  if (writer_rank < 0 || writer_rank >= writer_size_) {
    return make_error(ErrorCode::kOutOfRange, "no such writer rank");
  }
  pending_pg_.push_back(writer_rank);
  return Status::ok();
}

Status StreamReader::install_plugin(const std::string& var,
                                    const std::string& source,
                                    bool run_at_writer) {
  if (rank_ != Program::kCoordinator) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "plug-ins are installed by the coordinator rank");
  }
  if (bp_) {
    return make_error(ErrorCode::kUnimplemented,
                      "plug-ins require stream mode");
  }
  pending_plugins_.push_back(wire::PluginInstall{var, source, run_at_writer});
  return Status::ok();
}

Status StreamReader::remove_plugin(const std::string& var, bool from_writer) {
  return install_plugin(var, "", from_writer);
}

Status StreamReader::migrate_plugin(const std::string& var,
                                    const std::string& source,
                                    bool to_writer) {
  FLEXIO_RETURN_IF_ERROR(remove_plugin(var, /*from_writer=*/!to_writer));
  return install_plugin(var, source, to_writer);
}

Status StreamReader::place_piece(wire::DataPiece piece, int writer_rank,
                                 std::vector<PgBlock>* pg_out) {
  // Reader-side plug-ins consume owned bytes, like the writer's: the
  // piece lets go of its frame first.
  const bool local = piece.meta.shape == adios::ShapeKind::kLocalArray;
  const auto plug = reader_plugins_.find(piece.meta.name);
  const std::size_t received_bytes = piece.bytes().size();
  if (plug != reader_plugins_.end()) {
    metrics::ScopedTimerNs timer(&plugin_exec_hist());
    piece.materialize();
    auto transformed = plug->second(piece);
    if (!transformed.is_ok()) return transformed.status();
    piece = std::move(transformed).value();
  }
  if (local) {
    // Applications read a block in place as its element type. The wire
    // aligns payloads within a frame, but a frame behind a transport
    // header (shm inline, rdma eager) can sit unaligned: such a block is
    // copied to the heap, which aligns it.
    if (reinterpret_cast<std::uintptr_t>(piece.bytes().data()) %
            wire::kPayloadAlign !=
        0) {
      piece.materialize();
    }
    PgBlock block;
    block.writer_rank = writer_rank;
    block.meta = piece.meta;
    block.payload = piece.take_lease();  // the piece is ours: no copy
    pg_out->push_back(std::move(block));
    return Status::ok();
  }
  // Global-array piece: route the region straight from the lease into
  // every overlapping pending read (normally exactly one).
  if (plug != reader_plugins_.end() && piece.bytes().size() != received_bytes) {
    return make_error(ErrorCode::kInvalidArgument,
                      "reader-side plug-in changed global-array size");
  }
  const std::size_t elem = serial::size_of(piece.meta.type);
  // copy_region reads the whole region out of the piece's bytes.
  if (elem != 0 && piece.bytes().size() != piece.region.elements() * elem) {
    return make_error(ErrorCode::kInvalidArgument,
                      "data piece size does not match its region: " +
                          piece.meta.name);
  }
  bool placed = false;
  for (PendingRead& pr : pending_reads_) {
    if (pr.var != piece.meta.name) continue;
    adios::Box overlap;
    if (!intersect(pr.selection, piece.region, &overlap)) continue;
    adios::copy_region(piece.region, piece.bytes().data(), pr.selection,
                       pr.dst.data(), overlap, elem);
    placed = true;
  }
  if (!placed) {
    return make_error(ErrorCode::kInternal,
                      "received piece matches no pending read: " +
                          piece.meta.name);
  }
  return Status::ok();
}

Status StreamReader::perform_reads_file() {
  for (const PendingRead& pr : pending_reads_) {
    FLEXIO_RETURN_IF_ERROR(bp_->read_global(step_, pr.var, pr.selection,
                                            pr.dst));
  }
  for (int w : pending_pg_) {
    for (const adios::BpBlockRef& ref : bp_->blocks_for_writer(step_, w)) {
      if (ref.meta.shape != adios::ShapeKind::kLocalArray) continue;
      std::vector<std::byte> bytes(ref.payload_bytes);
      FLEXIO_RETURN_IF_ERROR(bp_->read_block(ref, MutableByteView(bytes)));
      PgBlock block;
      block.writer_rank = w;
      block.meta = ref.meta;
      block.payload = ByteLease(std::move(bytes));
      pg_blocks_.push_back(std::move(block));
    }
  }
  return Status::ok();
}

Status StreamReader::perform_reads_stream() {
  // Annotate this step's spans with {stream, step} and parent them under
  // the writer's end_step span from the announce's trace context.
  trace::StepScope step_scope(stream_id_, step_,
                              have_announce_ctx_ ? announce_ctx_.span_id : 0);
  trace::Span span("reader.perform_reads");
  // An announce stamped with an epoch other than the one the cached
  // handshake was exchanged under invalidates the cache: re-exchange and
  // re-plan even when CACHING_ALL would skip it.
  const bool epoch_changed = membership_ && have_announce_epoch_ &&
                             announce_epoch_ != cached_epoch_;
  const bool do_exchange = steps_completed_ == 0 ||
                           caching_ != xml::CachingLevel::kAll || epoch_changed;

  // Assemble this rank's request.
  wire::ReadRequest mine;
  mine.step = step_;
  for (const PendingRead& pr : pending_reads_) {
    mine.selections.push_back(wire::SelectionInfo{rank_, pr.var, pr.selection});
  }
  for (int w : pending_pg_) {
    mine.pg_requests.push_back(wire::PgRequestInfo{rank_, w});
  }

  if (do_exchange) {
    trace::Span hs_span("reader.handshake");
    // Step 1.a: gather selections at the coordinator.
    std::vector<std::vector<std::byte>> all;
    FLEXIO_RETURN_IF_ERROR(program_->gather(
        rank_, ByteView(encode_rank_request(mine)), &all, timeout_));
    std::vector<std::byte> merged_raw;
    if (rank_ == Program::kCoordinator) {
      wire::ReadRequest merged;
      merged.step = step_;
      for (const auto& raw : all) {
        if (raw.empty()) continue;  // inactive rank slot (elastic gather)
        auto part = wire::decode_read_request(ByteView(raw));
        if (!part.is_ok()) return part.status();
        for (auto& s : part.value().selections) {
          merged.selections.push_back(std::move(s));
        }
        for (auto& p : part.value().pg_requests) {
          merged.pg_requests.push_back(p);
        }
      }
      merged.plugins = pending_plugins_;
      pending_plugins_.clear();
      merged.trace = wire::TraceContext{stream_id_, step_, span.id(),
                                        metrics::now_ns()};
      // Echo the announce's epoch: the collective agreement point. The
      // writer adopts it as the epoch its fresh handshake state is valid
      // for; every reader rank picks it up from the broadcast below.
      if (membership_ && have_announce_epoch_) {
        merged.membership_epoch = announce_epoch_;
      }
      merged_raw = wire::encode(merged);
      // Step 2: ship the reader-side distribution to the writer side.
      FLEXIO_RETURN_IF_ERROR(
          channel_->send(writer_coord_, ByteView(merged_raw)));
    }
    // Step 3: every reader rank learns the full request (and plug-ins).
    FLEXIO_RETURN_IF_ERROR(program_->broadcast(rank_, &merged_raw, timeout_));
    auto merged = wire::decode_read_request(ByteView(merged_raw));
    if (!merged.is_ok()) return merged.status();
    cached_request_ = std::move(merged).value();
    have_cached_request_ = true;
    if (cached_request_.membership_epoch) {
      cached_epoch_ = *cached_request_.membership_epoch;
    }
    handshakes_performed_counter().inc();

    for (const wire::PluginInstall& p : cached_request_.plugins) {
      if (p.run_at_writer) continue;
      if (p.source.empty()) {
        reader_plugins_.erase(p.var);
        continue;
      }
      PluginCompiler compiler = rt_->plugin_compiler();
      if (!compiler) {
        return make_error(ErrorCode::kUnimplemented,
                          "no plug-in compiler installed in runtime");
      }
      auto fn = compiler(p.source);
      if (!fn.is_ok()) return fn.status();
      reader_plugins_[p.var] = std::move(fn).value();
    }
    // Expected pieces for this rank (the exchange may have changed either
    // side's distribution, so the plan is recomputed -- a cache miss).
    cached_expected_ =
        pieces_to_reader(plan_transfers(step_blocks_, cached_request_), rank_);
    plan_cache_misses_counter().inc();
  } else {
    handshakes_skipped_counter().inc();
    plan_cache_hits_counter().inc();
    if (rank_ == Program::kCoordinator && !pending_plugins_.empty()) {
      return make_error(ErrorCode::kFailedPrecondition,
                        "plug-in (un)installation needs handshakes; "
                        "CACHING_ALL skips them after the first step");
    }
    // CACHING_ALL contract: selections must not change across steps.
    wire::ReadRequest cached_mine;
    cached_mine.step = step_;
    for (const auto& s : cached_request_.selections) {
      if (s.reader_rank == rank_) cached_mine.selections.push_back(s);
    }
    for (const auto& p : cached_request_.pg_requests) {
      if (p.reader_rank == rank_) cached_mine.pg_requests.push_back(p);
    }
    if (cached_mine.selections.size() != mine.selections.size() ||
        cached_mine.pg_requests.size() != mine.pg_requests.size()) {
      return make_error(ErrorCode::kFailedPrecondition,
                        "CACHING_ALL requires identical selections each step");
    }
    for (std::size_t i = 0; i < mine.selections.size(); ++i) {
      if (mine.selections[i].var != cached_mine.selections[i].var ||
          !(mine.selections[i].box == cached_mine.selections[i].box)) {
        return make_error(
            ErrorCode::kFailedPrecondition,
            "CACHING_ALL requires identical selections each step");
      }
    }
  }

  // Step 4.a: receive the packed strides. Expected pieces are bucketed by
  // (writer_rank, var) so each arriving piece probes only its own bucket
  // instead of scanning the full expectation list -- O(pieces log buckets)
  // instead of O(pieces x expected).
  std::multimap<std::pair<int, std::string>, const TransferPiece*> remaining;
  for (const TransferPiece& p : cached_expected_) {
    remaining.emplace(std::make_pair(p.writer_rank, p.var), &p);
  }
  // Matched pieces in arrival order. With a read pool, placement (plug-in
  // + copy/move) is deferred to one batch after the drain so the pool can
  // run it in parallel; a serial reader places each piece as it arrives,
  // so the piece's frame lease (an shm slot, an rdma receive buffer) goes
  // back while the rest of the step is still in flight. Either way the
  // frames drain strictly serially, keeping receive order and
  // control-frame handling unchanged. All-run + first-error-wins, like the
  // writer: one bad piece must not suppress its siblings' placement.
  struct MatchedPiece {
    wire::DataPiece piece;
    int writer_rank = 0;
  };
  std::vector<MatchedPiece> matched;
  std::vector<std::uint64_t> task_ns;
  Status placed = Status::ok();
  auto place_now = [&](wire::DataPiece piece, int writer_rank) {
    const std::uint64_t t0 = metrics::now_ns();
    const Status st = place_piece(std::move(piece), writer_rank, &pg_blocks_);
    task_ns.push_back(metrics::now_ns() - t0);
    if (placed.is_ok()) placed = st;
  };
  auto try_match = [&](wire::DataMsg& msg) -> StatusOr<bool> {
    bool any = false;
    for (wire::DataPiece& piece : msg.pieces) {
      const auto [lo, hi] = remaining.equal_range(
          std::make_pair(msg.writer_rank, piece.meta.name));
      auto hit = remaining.end();
      for (auto it = lo; it != hi; ++it) {
        const TransferPiece* e = it->second;
        if (!e->whole_block && !(e->region == piece.region)) continue;
        hit = it;
        break;
      }
      if (hit == remaining.end()) {
        return make_error(ErrorCode::kInternal,
                          "unexpected data piece for " + piece.meta.name);
      }
      remaining.erase(hit);
      stream_bytes_received_counter().add(piece.bytes().size());
      if (read_pool_ == nullptr) {
        place_now(std::move(piece), msg.writer_rank);
      } else {
        matched.push_back(MatchedPiece{std::move(piece), msg.writer_rank});
      }
      any = true;
    }
    return any;
  };

  // Drain the stash first (messages that raced ahead).
  for (std::size_t i = 0; i < stash_.size();) {
    if (stash_[i].step == step_) {
      auto hit = try_match(stash_[i]);
      if (!hit.is_ok()) return hit.status();
      stash_[i] = std::move(stash_.back());
      stash_.pop_back();
    } else {
      ++i;
    }
  }
  while (!remaining.empty()) {
    evpath::Message msg;
    FLEXIO_RETURN_IF_ERROR(channel_->recv(&msg, timeout_));
    if (msg.eos) continue;
    auto type = wire::peek_type(ByteView(msg.payload));
    if (!type.is_ok()) return type.status();
    switch (type.value()) {
      case wire::MsgType::kData: {
        auto data = wire::decode_data(msg.payload);
        if (!data.is_ok()) return data.status();
        observe_data_msg(data.value());
        if (data.value().step == step_) {
          auto hit = try_match(data.value());
          if (!hit.is_ok()) return hit.status();
        } else if (data.value().step > step_) {
          // A writer running ahead must not pin one transport buffer per
          // early frame (an shm pool fails its producer at a hard cap):
          // frames ahead of the step being read are copied out of their
          // lease before they wait in the stash.
          for (wire::DataPiece& p : data.value().pieces) p.materialize();
          stash_.push_back(std::move(data).value());
        } else {
          return make_error(ErrorCode::kInternal, "stale data message");
        }
        break;
      }
      case wire::MsgType::kClose: {
        // Data for this step may still be in flight on other links; record
        // the close and keep waiting for the remaining pieces.
        auto last = wire::decode_close(ByteView(msg.payload));
        if (!last.is_ok()) return last.status();
        close_last_step_ = last.value();
        eos_ = true;
        break;
      }
      case wire::MsgType::kMonitorReport: {
        auto report = wire::decode_monitor_report(ByteView(msg.payload));
        if (!report.is_ok()) return report.status();
        writer_report_ = report.value();
        break;
      }
      case wire::MsgType::kStepAnnounce:
        // The writer ran ahead: the next step's announce overtook the tail
        // of this step's data on other links. Keep it for begin_step.
        control_stash_.emplace_back(msg.payload.begin(), msg.payload.end());
        break;
      case wire::MsgType::kMembershipUpdate: {
        // Rode ahead of a future epoch-changed announce; hold it for the
        // begin_step that consumes that announce.
        auto upd = wire::decode_membership_update(ByteView(msg.payload));
        if (!upd.is_ok()) return upd.status();
        pending_membership_ = std::move(upd).value();
        break;
      }
      default:
        return make_error(ErrorCode::kInternal,
                          "unexpected control frame during perform_reads");
    }
  }

  // Placement batch: one plug-in + place task per matched piece, the
  // mirror of the writer's per-reader pack tasks. Expected pieces cover
  // disjoint destination regions and per-task PgBlock slots keep delivery
  // in arrival order, so tasks never write the same byte. Per-task timing
  // slots are disjoint indices read after run_batch's completion wait (the
  // synchronization point).
  const std::size_t n_matched = matched.size();
  if (n_matched > 1) {
    task_ns.assign(n_matched, 0);
    std::vector<std::vector<PgBlock>> pg_slots(n_matched);
    // Tasks inherit this thread's trace identity: their spans parent under
    // reader.perform_reads in the stitched timeline.
    const trace::TaskContext tctx = trace::TaskContext::capture();
    std::vector<util::WorkPool::Task> tasks;
    tasks.reserve(n_matched);
    for (std::size_t i = 0; i < n_matched; ++i) {
      tasks.push_back(
          [this, tctx, &matched, &pg_slots, &task_ns, i]() -> Status {
            trace::TaskScope task_identity(tctx);
            trace::Span task_span("reader.unpack_task");
            const std::uint64_t t0 = metrics::now_ns();
            const Status st = place_piece(std::move(matched[i].piece),
                                          matched[i].writer_rank,
                                          &pg_slots[i]);
            task_ns[i] = metrics::now_ns() - t0;
            return st;
          });
    }
    placed = read_pool_->run_batch(std::move(tasks));
    for (std::vector<PgBlock>& slot : pg_slots) {
      for (PgBlock& block : slot) pg_blocks_.push_back(std::move(block));
    }
  } else if (n_matched == 1) {
    place_now(std::move(matched[0].piece), matched[0].writer_rank);
  }
  if (!placed.is_ok()) return placed;
  std::uint64_t unpack_ns = 0;
  std::uint64_t unpack_max = 0;
  for (const std::uint64_t t_ns : task_ns) {
    unpack_ns += t_ns;
    if (t_ns > unpack_max) unpack_max = t_ns;
  }

  // Fold this step's phase timings into the registry histograms. Transfer
  // time may have accumulated before the step opened (stashed early
  // arrivals), hence the per-step map.
  StepWire wire_acc;
  if (const auto it = step_wire_.find(step_); it != step_wire_.end()) {
    wire_acc = it->second;
    step_wire_.erase(it);
  }
  step_transfer_hist().record(wire_acc.transfer_ns);
  step_unpack_hist().record(unpack_ns);
  step_unpack_critical_hist().record(unpack_max);
  // The step's total runs from its announce; a cached step has none, so it
  // runs from the earliest send stamp among its data frames.
  std::optional<std::uint64_t> start_ns = wire_acc.first_send_ns;
  if (have_announce_ctx_ && announce_ctx_.step == step_) {
    start_ns = announce_ctx_.send_ns;
  }
  if (start_ns) {
    const std::uint64_t now = metrics::now_ns();
    step_total_hist().record(now > *start_ns ? now - *start_ns : 0);
  }
  return Status::ok();
}

Status StreamReader::perform_reads() {
  if (fenced()) {
    return make_error(ErrorCode::kUnavailable,
                      "rank fenced: declared dead by the directory");
  }
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "perform_reads outside step");
  }
  return bp_ ? perform_reads_file() : perform_reads_stream();
}

StatusOr<double> StreamReader::scalar_double(const std::string& name) const {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "no step open");
  }
  if (bp_) {
    auto blocks = bp_->inquire(step_, name);
    if (!blocks.is_ok()) return blocks.status();
    const auto& ref = blocks.value()[0];
    if (ref.meta.type != serial::DataType::kDouble) {
      return make_error(ErrorCode::kInvalidArgument, name + " is not double");
    }
    double v = 0;
    std::vector<std::byte> raw(sizeof v);
    FLEXIO_RETURN_IF_ERROR(
        const_cast<adios::BpReader*>(bp_.get())
            ->read_block(ref, MutableByteView(raw)));
    std::memcpy(&v, raw.data(), sizeof v);
    return v;
  }
  for (const wire::BlockInfo& b : step_blocks_) {
    if (b.meta.name == name && b.meta.shape == adios::ShapeKind::kScalar &&
        b.meta.type == serial::DataType::kDouble) {
      double v = 0;
      if (b.scalar_payload.size() != sizeof v) {
        return make_error(ErrorCode::kInternal, "scalar payload size");
      }
      std::memcpy(&v, b.scalar_payload.data(), sizeof v);
      return v;
    }
  }
  return make_error(ErrorCode::kNotFound, "no double scalar named " + name);
}

StatusOr<std::int64_t> StreamReader::scalar_int(const std::string& name) const {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "no step open");
  }
  if (bp_) {
    auto blocks = bp_->inquire(step_, name);
    if (!blocks.is_ok()) return blocks.status();
    const auto& ref = blocks.value()[0];
    std::int64_t v = 0;
    std::vector<std::byte> raw(sizeof v);
    FLEXIO_RETURN_IF_ERROR(
        const_cast<adios::BpReader*>(bp_.get())
            ->read_block(ref, MutableByteView(raw)));
    std::memcpy(&v, raw.data(), sizeof v);
    return v;
  }
  for (const wire::BlockInfo& b : step_blocks_) {
    if (b.meta.name == name && b.meta.shape == adios::ShapeKind::kScalar &&
        b.meta.type == serial::DataType::kInt64) {
      std::int64_t v = 0;
      if (b.scalar_payload.size() != sizeof v) {
        return make_error(ErrorCode::kInternal, "scalar payload size");
      }
      std::memcpy(&v, b.scalar_payload.data(), sizeof v);
      return v;
    }
  }
  return make_error(ErrorCode::kNotFound, "no int scalar named " + name);
}

StatusOr<std::vector<adios::VarMeta>> StreamReader::inquire(
    const std::string& var) const {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "no step open");
  }
  std::vector<adios::VarMeta> out;
  if (bp_) {
    auto blocks = bp_->inquire(step_, var);
    if (!blocks.is_ok()) return blocks.status();
    for (const auto& ref : blocks.value()) out.push_back(ref.meta);
    return out;
  }
  for (const wire::BlockInfo& b : step_blocks_) {
    if (b.meta.name == var) out.push_back(b.meta);
  }
  if (out.empty()) {
    return make_error(ErrorCode::kNotFound, "no variable named " + var);
  }
  return out;
}

Status StreamReader::end_step() {
  if (!in_step_) {
    return make_error(ErrorCode::kFailedPrecondition, "no step open");
  }
  if (!bp_) {
    // Record the step boundary as a (near zero-duration) span carrying the
    // step annotation, so merged timelines show where each reader step
    // closed and parent it under the matching writer step.
    trace::StepScope step_scope(stream_id_, step_,
                                have_announce_ctx_ ? announce_ctx_.span_id : 0);
    trace::Span span("reader.end_step");
  }
  in_step_ = false;
  ++steps_completed_;
  if (bp_) ++bp_cursor_;
  return Status::ok();
}

Status StreamReader::close() {
  if (closed_) {
    stop_heartbeats();  // idempotent; covers leave()/simulate_crash() paths
    return Status::ok();
  }
  closed_ = true;
  // Let go of every transport lease this reader holds: the last step's
  // blocks and data that arrived for steps never read.
  pg_blocks_.clear();
  stash_.clear();
  if (membership_ && !bp_) {
    stop_heartbeats();
    if (rank_ == Program::kCoordinator) program_->set_liveness_hook(nullptr);
    if (!eos_delivered_ && !left_ && !crashed_ && !fenced()) {
      // Closing mid-stream is a graceful departure. After EOS the group is
      // being retired with the stream; no leave to announce.
      (void)rt_->directory().leave_member(spec_.stream, rank_);
    }
  }
  return Status::ok();
}

}  // namespace flexio
