#include "evpath/link.h"

#include <map>
#include <thread>

#include "serial/buffer.h"
#include "util/log.h"
#include "util/metrics.h"

namespace flexio::evpath {

namespace {

// Transport-level observability shared by every link in the process:
// per-transport send latency (enqueue-to-accepted for shm/inproc; control
// message placed + rendezvous data registered for rdma), frame/byte
// volumes, and the retry pressure of the timeout-and-retry wrapper.
metrics::Histogram& send_latency_hist(TransportKind kind) {
  static metrics::Histogram& inproc = metrics::histogram("evpath.inproc.send.ns");
  static metrics::Histogram& shm = metrics::histogram("evpath.shm.send.ns");
  static metrics::Histogram& rdma = metrics::histogram("evpath.rdma.send.ns");
  switch (kind) {
    case TransportKind::kInproc: return inproc;
    case TransportKind::kShm: return shm;
    case TransportKind::kRdma: return rdma;
  }
  return inproc;
}

metrics::Counter& send_bytes_counter() {
  static metrics::Counter& c = metrics::counter("evpath.send.bytes");
  return c;
}
metrics::Counter& send_msgs_counter() {
  static metrics::Counter& c = metrics::counter("evpath.send.msgs");
  return c;
}
metrics::Counter& recv_msgs_counter() {
  static metrics::Counter& c = metrics::counter("evpath.recv.msgs");
  return c;
}
metrics::Counter& retry_counter() {
  static metrics::Counter& c = metrics::counter("evpath.send.retries");
  return c;
}

void note_send(TransportKind kind, std::size_t bytes, std::uint64_t start_ns) {
  if (!metrics::enabled()) return;
  send_msgs_counter().inc();
  send_bytes_counter().add(bytes);
  send_latency_hist(kind).record(metrics::now_ns() - start_ns);
}

}  // namespace

std::string_view transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInproc: return "inproc";
    case TransportKind::kShm: return "shm";
    case TransportKind::kRdma: return "rdma";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------- inproc --

struct InprocState {
  std::mutex mutex;
  std::deque<std::vector<std::byte>> queue;
  bool closed = false;
  // Set by the receive side's destructor: frames sent after this would
  // otherwise queue forever with nobody to drain them, masking a dead
  // reader as silent success.
  bool receiver_gone = false;
};

class InprocSendLink final : public SendLink {
 public:
  InprocSendLink(std::shared_ptr<InprocState> state) : state_(std::move(state)) {}

  Status send(std::span<const ByteView> frags, SendMode) override {
    const std::uint64_t start_ns = metrics::enabled() ? metrics::now_ns() : 0;
    // Gather once into the queue entry itself.
    std::vector<std::byte> entry;
    const std::size_t total = total_size(frags);
    entry.reserve(total);
    for (const ByteView& f : frags) entry.insert(entry.end(), f.begin(), f.end());
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->closed) {
      return make_error(ErrorCode::kFailedPrecondition, "link closed");
    }
    if (state_->receiver_gone) {
      return make_error(ErrorCode::kUnavailable, "inproc receiver gone");
    }
    state_->queue.push_back(std::move(entry));
    ++stats_.messages;
    stats_.bytes += total;
    note_send(TransportKind::kInproc, total, start_ns);
    return Status::ok();
  }

  Status close() override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->closed = true;
    return Status::ok();
  }

  TransportKind kind() const override { return TransportKind::kInproc; }
  LinkStats stats() const override { return stats_; }

 private:
  std::shared_ptr<InprocState> state_;
  LinkStats stats_;
};

class InprocRecvLink final : public RecvLink {
 public:
  InprocRecvLink(std::string peer, std::shared_ptr<InprocState> state)
      : peer_(std::move(peer)), state_(std::move(state)) {}

  ~InprocRecvLink() override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->receiver_gone = true;
  }

  Status try_receive(Message* out, bool* got) override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!state_->queue.empty()) {
      out->from = peer_;
      out->payload = ByteLease(std::move(state_->queue.front()));
      out->eos = false;
      state_->queue.pop_front();
      *got = true;
      if (metrics::enabled()) recv_msgs_counter().inc();
      return Status::ok();
    }
    if (state_->closed && !eos_delivered_) {
      eos_delivered_ = true;
      out->from = peer_;
      out->payload.reset();
      out->eos = true;
      *got = true;
      return Status::ok();
    }
    *got = false;
    return Status::ok();
  }

  TransportKind kind() const override { return TransportKind::kInproc; }

 private:
  std::string peer_;
  std::shared_ptr<InprocState> state_;
  bool eos_delivered_ = false;
};

// ------------------------------------------------------------------- shm --

// Both halves share one shm::Channel: small messages ride inline in its
// queue, large ones in a pool slot the receive side leases. A kSync send of
// a large message returns once the receive side has dequeued it.
class ShmSendLink final : public SendLink {
 public:
  explicit ShmSendLink(std::shared_ptr<shm::Channel> channel)
      : channel_(std::move(channel)) {}

  Status send(std::span<const ByteView> frags, SendMode mode) override {
    const std::uint64_t start_ns = metrics::enabled() ? metrics::now_ns() : 0;
    const Status st = channel_->send(frags, mode == SendMode::kSync);
    if (st.is_ok()) {
      const std::size_t total = total_size(frags);
      ++stats_.messages;
      stats_.bytes += total;
      note_send(TransportKind::kShm, total, start_ns);
    }
    return st;
  }

  Status close() override { return channel_->close(); }
  TransportKind kind() const override { return TransportKind::kShm; }
  LinkStats stats() const override { return stats_; }

 private:
  std::shared_ptr<shm::Channel> channel_;
  LinkStats stats_;
};

class ShmRecvLink final : public RecvLink {
 public:
  ShmRecvLink(std::string peer, std::shared_ptr<shm::Channel> channel)
      : peer_(std::move(peer)), channel_(std::move(channel)) {}

  ~ShmRecvLink() override {
    // A sender blocked on ring space, a pool slot or a sync dequeue would
    // otherwise wait out its full timeout against a consumer that no longer
    // exists.
    channel_->abandon_receiver();
  }

  Status try_receive(Message* out, bool* got) override {
    ByteLease payload;
    const Status st =
        channel_->receive_for(&payload, std::chrono::nanoseconds(0));
    if (st.code() == ErrorCode::kTimeout) {
      *got = false;
      return Status::ok();
    }
    if (st.code() == ErrorCode::kEndOfStream) {
      if (eos_delivered_) {
        *got = false;
        return Status::ok();
      }
      eos_delivered_ = true;
      out->from = peer_;
      out->payload.reset();
      out->eos = true;
      *got = true;
      return Status::ok();
    }
    FLEXIO_RETURN_IF_ERROR(st);
    out->from = peer_;
    out->payload = std::move(payload);
    out->eos = false;
    *got = true;
    if (metrics::enabled()) recv_msgs_counter().inc();
    return Status::ok();
  }

  TransportKind kind() const override { return TransportKind::kShm; }

 private:
  std::string peer_;
  std::shared_ptr<shm::Channel> channel_;
  bool eos_delivered_ = false;
};

// ------------------------------------------------------------------ rdma --

// Control-message tags on the NNTI small-message queues.
enum class RdmaTag : std::uint8_t {
  kEager = 0,       // payload rides in the control message
  kRendezvous = 1,  // payload sits in a registered sender buffer; Get it
  kAck = 2,         // receiver finished the Get; sender may reuse buffer
  kEos = 3,
};

struct RdmaControl {
  RdmaTag tag = RdmaTag::kEager;
  std::uint64_t seq = 0;
  std::uint64_t len = 0;
  nnti::MemRegion region;
};

/// The header alone: an eager payload is gathered in after it.
void encode_rdma_control(const RdmaControl& ctl, serial::BufWriter* w) {
  w->put_u8(static_cast<std::uint8_t>(ctl.tag));
  w->put_varint(ctl.seq);
  w->put_varint(ctl.len);
  w->put_u64(ctl.region.key);
  w->put_u64(ctl.region.len);
}

Status decode_rdma_control(ByteView raw, RdmaControl* ctl, ByteView* payload) {
  serial::BufReader r(raw);
  std::uint8_t tag = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_u8(&tag));
  if (tag > static_cast<std::uint8_t>(RdmaTag::kEos)) {
    return make_error(ErrorCode::kInternal, "bad rdma control tag");
  }
  ctl->tag = static_cast<RdmaTag>(tag);
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&ctl->seq));
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&ctl->len));
  FLEXIO_RETURN_IF_ERROR(r.get_u64(&ctl->region.key));
  FLEXIO_RETURN_IF_ERROR(r.get_u64(&ctl->region.len));
  FLEXIO_RETURN_IF_ERROR(r.get_view(r.remaining(), payload));
  return Status::ok();
}

/// Retry wrapper: the paper's "simple timeout-and-retry schemes to cope
/// with errors and failures during data movement".
template <typename Fn>
Status with_retries(Fn&& fn, int max_retries, LinkStats* stats) {
  Status last;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    last = fn();
    if (last.is_ok()) return last;
    if (last.code() != ErrorCode::kUnavailable &&
        last.code() != ErrorCode::kResourceExhausted &&
        last.code() != ErrorCode::kTimeout) {
      return last;  // non-transient
    }
    if (attempt < max_retries) {
      ++stats->retries;
      retry_counter().inc();
      std::this_thread::yield();
    }
  }
  return last;
}

class RdmaSendLink final : public SendLink {
 public:
  RdmaSendLink(std::string peer_nic, LinkOptions options,
               std::shared_ptr<nnti::Nic> nic)
      : peer_nic_(std::move(peer_nic)),
        options_(options),
        nic_(std::move(nic)),
        cache_(nic_.get(), options.rdma_pool_bytes) {}

  ~RdmaSendLink() override {
    // Rendezvous buffers whose acks never arrived (receiver gone, link
    // abandoned without close()) still belong to the cache; hand them back
    // so its destructor deregisters and frees them.
    for (auto& [seq, buf] : outstanding_) cache_.release(buf);
  }

  Status send(std::span<const ByteView> frags, SendMode mode) override {
    const std::uint64_t start_ns = metrics::enabled() ? metrics::now_ns() : 0;
    // Opportunistic poll; a transient ack error here surfaces on the next
    // blocking drain instead.
    (void)drain_acks(std::chrono::nanoseconds(0));
    const std::size_t total = total_size(frags);
    const Status st = total <= options_.rdma_eager_threshold
                          ? send_eager(frags, total)
                          : send_rendezvous(frags, total, mode);
    if (st.is_ok()) {
      ++stats_.messages;
      stats_.bytes += total;
      note_send(TransportKind::kRdma, total, start_ns);
    }
    return st;
  }

  Status close() override {
    // Wait for outstanding rendezvous buffers so nothing leaks, then EOS.
    const auto deadline = std::chrono::steady_clock::now() + options_.timeout;
    while (!outstanding_.empty()) {
      if (!nic_->peer_alive(peer_nic_)) {
        return make_error(ErrorCode::kUnavailable,
                          "rdma close: receiver gone with transfers in flight");
      }
      FLEXIO_RETURN_IF_ERROR(drain_acks(std::chrono::milliseconds(1)));
      if (std::chrono::steady_clock::now() > deadline) {
        return make_error(ErrorCode::kTimeout,
                          "rdma close: unacked rendezvous transfers");
      }
    }
    serial::BufWriter w;
    encode_rdma_control(RdmaControl{RdmaTag::kEos, 0, 0, {}}, &w);
    return with_retries(
        [&] { return nic_->put_message(peer_nic_, w.view()); },
        options_.max_retries, &stats_);
  }

  TransportKind kind() const override { return TransportKind::kRdma; }
  LinkStats stats() const override { return stats_; }

 private:
  Status send_eager(std::span<const ByteView> frags, std::size_t total) {
    // The control header and every payload fragment gather straight into
    // the peer's queue frame -- no flat intermediate message.
    serial::BufWriter w;
    encode_rdma_control(RdmaControl{RdmaTag::kEager, next_seq_++, total, {}},
                        &w);
    std::vector<ByteView> all;
    all.reserve(frags.size() + 1);
    all.push_back(w.view());
    all.insert(all.end(), frags.begin(), frags.end());
    return with_retries(
        [&] { return nic_->put_message(peer_nic_, all); },
        options_.max_retries, &stats_);
  }

  /// Gather the fragments into a registered buffer the receiver will Get
  /// from, announce it, and (for sync sends) wait for the Get-completion ack.
  Status send_rendezvous(std::span<const ByteView> frags, std::size_t total,
                         SendMode mode) {
    auto buffer = cache_.acquire(total);
    if (!buffer.is_ok()) return buffer.status();
    const nnti::RegisteredBuffer buf = buffer.value();
    gather(frags, buf.data);
    const std::uint64_t seq = next_seq_++;
    serial::BufWriter w;
    encode_rdma_control(
        RdmaControl{RdmaTag::kRendezvous, seq, total, buf.region}, &w);
    const Status st = with_retries(
        [&] { return nic_->put_message(peer_nic_, w.view()); },
        options_.max_retries, &stats_);
    if (!st.is_ok()) {
      cache_.release(buf);
      return st;
    }
    outstanding_.emplace(seq, buf);
    if (mode == SendMode::kSync) {
      const auto deadline = std::chrono::steady_clock::now() + options_.timeout;
      while (outstanding_.count(seq) != 0) {
        if (!nic_->peer_alive(peer_nic_)) {
          // The buffer stays in outstanding_; the destructor hands it back
          // to the cache since no Get can touch it anymore.
          return make_error(ErrorCode::kUnavailable,
                            "rdma sync send: receiver gone");
        }
        FLEXIO_RETURN_IF_ERROR(drain_acks(std::chrono::milliseconds(1)));
        if (std::chrono::steady_clock::now() > deadline) {
          return make_error(ErrorCode::kTimeout,
                            "rdma sync send: receiver never fetched data");
        }
      }
    }
    return Status::ok();
  }

  /// Consume ack messages from our own queue, releasing buffers.
  Status drain_acks(std::chrono::nanoseconds wait) {
    for (;;) {
      std::vector<std::byte> raw;
      const Status st = nic_->poll_message(&raw, wait);
      if (st.code() == ErrorCode::kTimeout) return Status::ok();
      FLEXIO_RETURN_IF_ERROR(st);
      RdmaControl ctl;
      ByteView payload;
      FLEXIO_RETURN_IF_ERROR(decode_rdma_control(ByteView(raw), &ctl, &payload));
      if (ctl.tag != RdmaTag::kAck) {
        return make_error(ErrorCode::kInternal,
                          "unexpected message on rdma sender queue");
      }
      const auto it = outstanding_.find(ctl.seq);
      if (it != outstanding_.end()) {
        cache_.release(it->second);
        outstanding_.erase(it);
      }
      wait = std::chrono::nanoseconds(0);  // drain the rest without blocking
    }
  }

  std::string peer_nic_;
  LinkOptions options_;
  std::shared_ptr<nnti::Nic> nic_;
  nnti::RegistrationCache cache_;
  std::map<std::uint64_t, nnti::RegisteredBuffer> outstanding_;
  std::uint64_t next_seq_ = 1;
  LinkStats stats_;
};

class RdmaRecvLink final : public RecvLink {
 public:
  RdmaRecvLink(std::string peer, std::string sender_nic_name,
               LinkOptions options, std::shared_ptr<nnti::Nic> nic)
      : peer_(std::move(peer)),
        sender_nic_name_(std::move(sender_nic_name)),
        options_(options),
        nic_(std::move(nic)),
        recv_cache_(std::make_shared<nnti::RegistrationCache>(
            nic_.get(), options.rdma_pool_bytes)) {}

  ~RdmaRecvLink() override {
    // Leased receive buffers outlive the link (and its NIC); from here on
    // their release frees them instead of pooling them.
    recv_cache_->detach();
  }

  Status try_receive(Message* out, bool* got) override {
    *got = false;
    std::vector<std::byte> raw;
    const Status st = nic_->poll_message(&raw, std::chrono::nanoseconds(0));
    if (st.code() == ErrorCode::kTimeout) return Status::ok();
    FLEXIO_RETURN_IF_ERROR(st);
    RdmaControl ctl;
    ByteView payload;
    FLEXIO_RETURN_IF_ERROR(decode_rdma_control(ByteView(raw), &ctl, &payload));
    switch (ctl.tag) {
      case RdmaTag::kEager: {
        if (ctl.seq <= last_data_seq_) return Status::ok();  // duplicate frame
        last_data_seq_ = ctl.seq;
        // Lease the polled queue frame itself, narrowed past the header.
        const std::size_t header = raw.size() - payload.size();
        out->from = peer_;
        out->payload = ByteLease(std::move(raw)).subspan(header);
        out->eos = false;
        *got = true;
        if (metrics::enabled()) recv_msgs_counter().inc();
        return Status::ok();
      }
      case RdmaTag::kRendezvous: {
        // Duplicate detection matters most here: the first copy of the
        // frame was Get+acked already, so the sender may have reused (or
        // freed) the registered buffer a second Get would touch.
        if (ctl.seq <= last_data_seq_) return Status::ok();
        last_data_seq_ = ctl.seq;
        // Receiver-directed Get (paper: "we use receiver-directed RDMA Get
        // for data movement") into a persistent registered buffer, then ack
        // so the sender can reuse its buffer. The message leases the
        // receive buffer; the last lease hands it back to the cache.
        auto buffer = recv_cache_->acquire(ctl.len);
        if (!buffer.is_ok()) return buffer.status();
        const nnti::RegisteredBuffer buf = buffer.value();
        std::shared_ptr<const void> owner(
            buf.data, [cache = recv_cache_, buf](const void*) {
              cache->release(buf);
            });
        const MutableByteView target(buf.data, ctl.len);
        LinkStats dummy;
        FLEXIO_RETURN_IF_ERROR(with_retries(
            [&] { return nic_->get(sender_nic_name_, ctl.region, 0, target); },
            options_.max_retries, &dummy));
        serial::BufWriter w;
        encode_rdma_control(RdmaControl{RdmaTag::kAck, ctl.seq, 0, {}}, &w);
        FLEXIO_RETURN_IF_ERROR(with_retries(
            [&] { return nic_->put_message(sender_nic_name_, w.view()); },
            options_.max_retries, &dummy));
        out->from = peer_;
        out->payload = ByteLease(ByteView(target), std::move(owner));
        out->eos = false;
        *got = true;
        if (metrics::enabled()) recv_msgs_counter().inc();
        return Status::ok();
      }
      case RdmaTag::kEos:
        out->from = peer_;
        out->payload.reset();
        out->eos = true;
        *got = true;
        return Status::ok();
      case RdmaTag::kAck:
        return make_error(ErrorCode::kInternal,
                          "ack arrived on rdma receiver queue");
    }
    return make_error(ErrorCode::kInternal, "unreachable");
  }

  TransportKind kind() const override { return TransportKind::kRdma; }

 private:
  std::string peer_;
  std::string sender_nic_name_;
  LinkOptions options_;
  std::shared_ptr<nnti::Nic> nic_;
  // Persistent Get targets, bounded by rdma_pool_bytes like the sender's
  // cache. Shared with every lease over one of its buffers.
  std::shared_ptr<nnti::RegistrationCache> recv_cache_;
  // Highest data-frame sequence seen; eager and rendezvous frames share one
  // monotone per-link sequence, so anything at or below it is a duplicate.
  std::uint64_t last_data_seq_ = 0;
};

}  // namespace

std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>>
make_inproc_link(std::string peer_name, LinkOptions) {
  auto state = std::make_shared<InprocState>();
  return {std::make_unique<InprocSendLink>(state),
          std::make_unique<InprocRecvLink>(std::move(peer_name), state)};
}

std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>>
make_shm_link(std::string peer_name, LinkOptions options) {
  shm::ChannelOptions copts;
  copts.queue_entries = options.queue_entries;
  copts.queue_payload_bytes = options.queue_payload_bytes;
  copts.pool_bytes = options.pool_bytes;
  copts.timeout = options.timeout;
  auto channel = std::make_shared<shm::Channel>(copts);
  return {std::make_unique<ShmSendLink>(channel),
          std::make_unique<ShmRecvLink>(std::move(peer_name), channel)};
}

std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>>
make_rdma_link(std::string peer_name, LinkOptions options,
               std::shared_ptr<nnti::Nic> sender_nic,
               std::shared_ptr<nnti::Nic> receiver_nic) {
  const std::string sender_name = sender_nic->name();
  const std::string receiver_name = receiver_nic->name();
  auto send = std::make_unique<RdmaSendLink>(receiver_name, options,
                                             std::move(sender_nic));
  auto recv = std::make_unique<RdmaRecvLink>(std::move(peer_name), sender_name,
                                             options, std::move(receiver_nic));
  return {std::move(send), std::move(recv)};
}

}  // namespace flexio::evpath
