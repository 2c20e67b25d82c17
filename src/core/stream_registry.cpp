#include "core/stream_registry.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <set>
#include <utility>

#include "core/wire.h"

namespace flexio {

namespace {

using Clock = std::chrono::steady_clock;

// Per-stream series beyond this collapse into flexio.stream.*.other
// (metrics::Family rollover) so a 1k-stream process keeps a bounded
// registry. docs/OBSERVABILITY.md lists the names.
constexpr std::size_t kMaxStreamMetricLabels = 32;

metrics::GaugeFamily& queued_bytes_family() {
  static auto* f = new metrics::GaugeFamily("flexio.stream.queued_bytes",
                                            kMaxStreamMetricLabels);
  return *f;
}

metrics::GaugeFamily& credits_family() {
  static auto* f =
      new metrics::GaugeFamily("flexio.stream.credits", kMaxStreamMetricLabels);
  return *f;
}

metrics::CounterFamily& stalls_family() {
  static auto* f =
      new metrics::CounterFamily("flexio.stream.stalls", kMaxStreamMetricLabels);
  return *f;
}

metrics::Counter& orphan_counter() {
  static metrics::Counter& c = metrics::counter("flexio.stream.orphan_frames");
  return c;
}

}  // namespace

/// Per-stream outbound flow control, shared between the channel and every
/// frame it queued: frames release credit on send completion even if their
/// channel detached mid-flight (crash teardown must not strand credits).
struct CreditState {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t cap = 0;
  std::size_t queued = 0;       // bytes in DRR sub-queues, all destinations
  Status async_error;           // first kAsync send failure, latched
  std::shared_ptr<metrics::Gauge> queued_gauge;
  std::shared_ptr<metrics::Gauge> credits_gauge;
};

/// Completion latch for a synchronous mux send (the caller blocks until the
/// drainer has pushed the frame through the underlying link).
struct MuxWaiter {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Status st;
};

/// One shared Endpoint plus the demux and scheduling state multiplexing
/// every attached stream over it. Created and keyed by the registry; kept
/// alive by the channels attached to it.
class SharedEndpoint : public std::enable_shared_from_this<SharedEndpoint> {
 public:
  SharedEndpoint(StreamRegistry* registry,
                 std::shared_ptr<evpath::Endpoint> ep, std::size_t quantum)
      : registry_(registry), ep_(std::move(ep)), quantum_(quantum) {}

  const std::string& name() const { return ep_->name(); }
  const evpath::Location& location() const { return ep_->location(); }

  Status attach_stream(std::uint64_t sid) {
    std::lock_guard<std::mutex> lock(mux_mutex_);
    if (!inboxes_.try_emplace(sid).second) {
      return make_error(ErrorCode::kAlreadyExists,
                        "stream already attached to " + ep_->name());
    }
    return Status::ok();
  }

  void detach_stream(std::uint64_t sid) {
    {
      std::lock_guard<std::mutex> lock(mux_mutex_);
      inboxes_.erase(sid);  // pending undelivered frames drop with it
    }
    mux_cv_.notify_all();
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    for (auto& [dest, users] : dest_users_) users.erase(sid);
  }

  /// Queue one framed message for `dest` under the stream's credit. Blocks
  /// (bounded by `deadline`) while the stream is over its credit cap; a
  /// frame bigger than the whole cap is admitted alone, queue-empty.
  Status enqueue(std::uint64_t sid, const std::string& dest,
                 std::vector<std::byte> bytes, evpath::SendMode mode,
                 std::shared_ptr<CreditState> credit,
                 std::shared_ptr<MuxWaiter> waiter,
                 metrics::Counter* stalls, Clock::time_point deadline) {
    const std::size_t size = bytes.size();
    {
      std::unique_lock<std::mutex> lock(credit->mutex);
      const bool oversize = size > credit->cap;
      bool stalled = false;
      while (credit->queued + size > credit->cap &&
             !(oversize && credit->queued == 0)) {
        if (!stalled && stalls != nullptr) {
          stalls->inc();
          stalled = true;
        }
        if (credit->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
            credit->queued + size > credit->cap &&
            !(oversize && credit->queued == 0)) {
          return make_error(ErrorCode::kTimeout,
                            "stream credit exhausted sending to " + dest);
        }
      }
      credit->queued += size;
      if (credit->queued_gauge != nullptr) {
        credit->queued_gauge->add(static_cast<std::int64_t>(size));
      }
      if (credit->credits_gauge != nullptr) {
        credit->credits_gauge->sub(static_cast<std::int64_t>(size));
      }
    }

    std::shared_ptr<Lane> lane;
    {
      std::lock_guard<std::mutex> lock(lanes_mutex_);
      auto& slot = lanes_[dest];
      if (slot == nullptr) slot = std::make_shared<Lane>();
      lane = slot;
      dest_users_[dest].insert(sid);
    }
    bool start_drainer = false;
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      SubQueue& sq = lane->subs[sid];
      sq.q.push_back(PendingFrame{std::move(bytes), mode, std::move(waiter),
                                  std::move(credit), size});
      if (!sq.in_active) {
        sq.in_active = true;
        lane->active.push_back(sid);
      }
      if (!lane->draining) {
        lane->draining = true;
        start_drainer = true;
      }
    }
    if (start_drainer) {
      auto self = shared_from_this();
      registry_->drain_pool().submit(
          [self, lane, dest] { self->drain_lane(dest, lane); });
    }
    return Status::ok();
  }

  /// Logical close: bookkeeping only. The underlying link must outlive any
  /// one stream -- closing it would EOS every link-mate (the demux fans EOS
  /// out to all inboxes) and leave the closed channel cached in the
  /// endpoint's link table, failing the next link-mate send with "channel
  /// closed". The peer stream learns about this stream's close from the
  /// protocol's explicit Close frame; the link itself closes when the last
  /// channel detaches and the shared endpoint is destroyed.
  Status close_to(std::uint64_t sid, const std::string& dest) {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    auto it = dest_users_.find(dest);
    if (it == dest_users_.end() || it->second.erase(sid) == 0) {
      return make_error(ErrorCode::kNotFound, "no link to " + dest);
    }
    if (it->second.empty()) dest_users_.erase(it);
    return Status::ok();
  }

  void drop_link(const std::string& to) { ep_->drop_link(to); }

  StatusOr<evpath::TransportKind> transport_to(const std::string& to) const {
    return ep_->transport_to(to);
  }

  /// Cooperative demux pump. The first receiver to find its inbox empty
  /// becomes the pump: it drains the underlying endpoint for everyone,
  /// routing each raw frame to its stream's inbox by mux prefix, until its
  /// own message shows up or its deadline passes. Other receivers park on
  /// the condvar and are woken per routed frame. Exactly one pump runs at
  /// a time, so routing happens on one thread and an inbox can only gain
  /// messages while its owner is awake to check it (no lost wakeups).
  Status recv(std::uint64_t sid, const std::string& from, evpath::Message* out,
              std::chrono::nanoseconds timeout) {
    const Clock::time_point deadline = Clock::now() + timeout;
    std::unique_lock<std::mutex> lock(mux_mutex_);
    for (;;) {
      auto it = inboxes_.find(sid);
      if (it == inboxes_.end()) {
        return make_error(ErrorCode::kInternal,
                          "stream detached from " + ep_->name());
      }
      if (take(&it->second, from, out)) return Status::ok();
      const Clock::time_point now = Clock::now();
      if (now >= deadline) {
        return make_error(ErrorCode::kTimeout,
                          "recv timed out on " + ep_->name() +
                              (from.empty() ? "" : " waiting for " + from));
      }
      if (!pumping_) {
        pumping_ = true;
        lock.unlock();
        evpath::Message raw;
        const Status st = ep_->recv(&raw, deadline - now);
        lock.lock();
        pumping_ = false;
        if (st.is_ok()) route(std::move(raw));
        mux_cv_.notify_all();
        if (!st.is_ok() && st.code() != ErrorCode::kTimeout) return st;
        continue;
      }
      mux_cv_.wait_until(lock, deadline);
    }
  }

 private:
  struct PendingFrame {
    std::vector<std::byte> bytes;  // mux prefix + wire frame, owned
    evpath::SendMode mode;
    std::shared_ptr<MuxWaiter> waiter;  // non-null for sync sends
    std::shared_ptr<CreditState> credit;
    std::size_t size = 0;
  };
  struct SubQueue {
    std::deque<PendingFrame> q;
    std::size_t deficit = 0;
    bool in_active = false;
  };
  /// Per-destination send lane: sub-queues per stream, drained one frame
  /// at a time under deficit round-robin by a single drainer task, so
  /// frames of one (stream, dest) pair stay FIFO and a fat stream yields
  /// the link after each quantum's worth of bytes.
  struct Lane {
    std::mutex mutex;
    std::map<std::uint64_t, SubQueue> subs;
    std::deque<std::uint64_t> active;
    bool draining = false;
  };

  static bool take(std::deque<evpath::Message>* box, const std::string& from,
                   evpath::Message* out) {
    for (auto it = box->begin(); it != box->end(); ++it) {
      if (from.empty() || it->from == from) {
        *out = std::move(*it);
        box->erase(it);
        return true;
      }
    }
    return false;
  }

  /// Route one raw frame under mux_mutex_. EOS is a link-level event and
  /// fans out to every attached stream; data frames without a routable
  /// prefix (no prefix, or a stream nobody here attached) are counted and
  /// dropped -- a crashed stream's in-flight data must not wedge its
  /// neighbours.
  void route(evpath::Message raw) {
    if (raw.eos) {
      for (auto& [sid, box] : inboxes_) box.push_back(raw);
      return;
    }
    const auto mux = wire::decode_mux(ByteView(raw.payload));
    if (!mux.is_ok()) {
      orphan_counter().inc();
      return;
    }
    const auto it = inboxes_.find(mux.value().stream_id);
    if (it == inboxes_.end()) {
      orphan_counter().inc();
      return;
    }
    // Strip the prefix by narrowing the lease: the frame bytes never move.
    const std::size_t prefix_len = raw.payload.size() - mux.value().inner.size();
    raw.payload = raw.payload.subspan(prefix_len);
    it->second.push_back(std::move(raw));
  }

  void drain_lane(const std::string& dest, std::shared_ptr<Lane> lane) {
    std::unique_lock<std::mutex> lock(lane->mutex);
    for (;;) {
      if (lane->active.empty()) {
        lane->draining = false;
        return;
      }
      const std::uint64_t sid = lane->active.front();
      SubQueue& sq = lane->subs[sid];
      if (sq.q.empty()) {
        lane->active.pop_front();
        sq.in_active = false;
        sq.deficit = 0;
        continue;
      }
      if (sq.deficit < sq.q.front().size) {
        sq.deficit += quantum_;
        lane->active.push_back(sid);
        lane->active.pop_front();
        continue;
      }
      PendingFrame frame = std::move(sq.q.front());
      sq.q.pop_front();
      sq.deficit -= frame.size;
      if (sq.q.empty()) {
        lane->active.pop_front();
        sq.in_active = false;
        sq.deficit = 0;
      }
      lock.unlock();
      const Status st = ep_->send(dest, ByteView(frame.bytes), frame.mode);
      complete(frame, st);
      lock.lock();
    }
  }

  static void complete(PendingFrame& frame, const Status& st) {
    {
      std::lock_guard<std::mutex> lock(frame.credit->mutex);
      frame.credit->queued -= frame.size;
      if (!st.is_ok() && frame.waiter == nullptr &&
          frame.credit->async_error.is_ok()) {
        frame.credit->async_error = st;
      }
      if (frame.credit->queued_gauge != nullptr) {
        frame.credit->queued_gauge->sub(static_cast<std::int64_t>(frame.size));
      }
      if (frame.credit->credits_gauge != nullptr) {
        frame.credit->credits_gauge->add(static_cast<std::int64_t>(frame.size));
      }
    }
    frame.credit->cv.notify_all();
    if (frame.waiter != nullptr) {
      std::lock_guard<std::mutex> lock(frame.waiter->mutex);
      frame.waiter->st = st;
      frame.waiter->done = true;
      frame.waiter->cv.notify_all();
    }
  }

  StreamRegistry* registry_;
  std::shared_ptr<evpath::Endpoint> ep_;
  const std::size_t quantum_;

  // Demux side: per-stream inboxes plus the single-pump protocol state.
  // Inbox growth is bounded by the stream protocol's own pacing (a writer
  // sends data only against a step's ReadRequest), not by a local cap.
  std::mutex mux_mutex_;
  std::condition_variable mux_cv_;
  bool pumping_ = false;
  std::map<std::uint64_t, std::deque<evpath::Message>> inboxes_;

  // Send side: lanes keyed by destination, plus which streams ever sent to
  // each destination (close_to refcounting).
  std::mutex lanes_mutex_;
  std::map<std::string, std::shared_ptr<Lane>> lanes_;
  std::map<std::string, std::set<std::uint64_t>> dest_users_;
};

// ---------------------------------------------------------------------------
// StreamChannel

StreamChannel::~StreamChannel() {
  if (shared_ != nullptr) {
    shared_->detach_stream(stream_id_);
    // Return credits before detach_shared: the last detach retires the
    // stream's metric families, and the accounting should land on the
    // live series, not on a retired one.
    if (credits_gauge_ != nullptr) {
      credits_gauge_->sub(static_cast<std::int64_t>(opts_.credit_bytes));
    }
    if (registry_ != nullptr) registry_->detach_shared(stream_id_);
    shared_.reset();
  }
  own_.reset();
}

std::string StreamChannel::peer_name(const std::string& stream,
                                     const std::string& program,
                                     int rank) const {
  if (shared()) return StreamRegistry::shared_endpoint_name(program, rank);
  return StreamRegistry::dedicated_endpoint_name(stream, program, rank);
}

Status StreamChannel::send(const std::string& to,
                           std::span<const ByteView> frags,
                           evpath::SendMode mode) {
  if (own_ != nullptr) return own_->send(to, frags, mode);
  // The shared path coalesces into an owned frame: queued frames outlive
  // the call, so borrowed fragment buffers cannot back them. One copy is
  // the price of the shared link table (DESIGN.md "Stream multiplexing").
  std::vector<std::byte> frame;
  frame.reserve(prefix_.size() + total_size(frags));
  frame.insert(frame.end(), prefix_.begin(), prefix_.end());
  for (const ByteView f : frags) frame.insert(frame.end(), f.begin(), f.end());
  const Clock::time_point deadline = Clock::now() + opts_.timeout;
  if (mode == evpath::SendMode::kAsync) {
    {
      // Surface (and clear) the first failure of an earlier async send;
      // fire-and-forget callers otherwise never see their stream die.
      std::lock_guard<std::mutex> lock(credit_->mutex);
      if (!credit_->async_error.is_ok()) {
        return std::exchange(credit_->async_error, Status::ok());
      }
    }
    return shared_->enqueue(stream_id_, to, std::move(frame), mode, credit_,
                            nullptr, stalls_counter_.get(), deadline);
  }
  auto waiter = std::make_shared<MuxWaiter>();
  FLEXIO_RETURN_IF_ERROR(shared_->enqueue(stream_id_, to, std::move(frame),
                                          mode, credit_, waiter,
                                          stalls_counter_.get(), deadline));
  std::unique_lock<std::mutex> lock(waiter->mutex);
  if (!waiter->cv.wait_until(lock, deadline, [&] { return waiter->done; })) {
    return make_error(ErrorCode::kTimeout, "mux send to " + to + " timed out");
  }
  return waiter->st;
}

Status StreamChannel::close_to(const std::string& to) {
  if (own_ != nullptr) return own_->close_to(to);
  FLEXIO_RETURN_IF_ERROR(flush(opts_.timeout));
  return shared_->close_to(stream_id_, to);
}

void StreamChannel::drop_link(const std::string& to) {
  if (own_ != nullptr) {
    own_->drop_link(to);
    return;
  }
  shared_->drop_link(to);
}

Status StreamChannel::recv(evpath::Message* out,
                           std::chrono::nanoseconds timeout) {
  if (own_ != nullptr) return own_->recv(out, timeout);
  return shared_->recv(stream_id_, std::string(), out, timeout);
}

Status StreamChannel::recv_from(const std::string& from, evpath::Message* out,
                                std::chrono::nanoseconds timeout) {
  if (own_ != nullptr) return own_->recv_from(from, out, timeout);
  return shared_->recv(stream_id_, from, out, timeout);
}

StatusOr<evpath::TransportKind> StreamChannel::transport_to(
    const std::string& to) const {
  if (own_ != nullptr) return own_->transport_to(to);
  return shared_->transport_to(to);
}

Status StreamChannel::flush(std::chrono::nanoseconds timeout) {
  if (own_ != nullptr) return Status::ok();
  std::unique_lock<std::mutex> lock(credit_->mutex);
  if (!credit_->cv.wait_for(lock, timeout,
                            [&] { return credit_->queued == 0; })) {
    return make_error(ErrorCode::kTimeout,
                      "flush timed out with " +
                          std::to_string(credit_->queued) + " bytes queued");
  }
  return std::exchange(credit_->async_error, Status::ok());
}

std::size_t StreamChannel::queued_bytes() const {
  if (own_ != nullptr) return 0;
  std::lock_guard<std::mutex> lock(credit_->mutex);
  return credit_->queued;
}

// ---------------------------------------------------------------------------
// StreamRegistry

StreamRegistry::~StreamRegistry() = default;

StatusOr<std::shared_ptr<StreamChannel>> StreamRegistry::attach(
    const std::string& stream, const std::string& program, int rank,
    evpath::Location location, evpath::LinkOptions link_options,
    const MuxOptions& opts) {
  auto ch = std::shared_ptr<StreamChannel>(new StreamChannel());
  ch->stream_ = stream;
  ch->stream_id_ = wire::stream_id_hash(stream);
  ch->opts_ = opts;
  ch->registry_ = this;

  if (!opts.shared_links) {
    auto ep = bus_->create_endpoint(
        dedicated_endpoint_name(stream, program, rank), location, link_options);
    if (!ep.is_ok()) return ep.status();
    ch->own_ = std::move(ep).value();
    ch->name_ = ch->own_->name();
    return ch;
  }

  const std::string key = shared_endpoint_name(program, rank);
  std::shared_ptr<SharedEndpoint> se;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [sid_it, inserted] = stream_ids_.try_emplace(ch->stream_id_, stream, 0);
    if (!inserted && sid_it->second.first != stream) {
      return make_error(ErrorCode::kAlreadyExists,
                        "stream id collision: '" + stream + "' vs '" +
                            sid_it->second.first + "'");
    }
    auto cleanup_sid = [&] {
      if (sid_it->second.second == 0) stream_ids_.erase(sid_it);
    };
    if (auto it = endpoints_.find(key); it != endpoints_.end()) {
      se = it->second.lock();
    }
    if (se == nullptr) {
      auto ep = bus_->create_endpoint(key, location, link_options);
      if (!ep.is_ok()) {
        cleanup_sid();
        return ep.status();
      }
      se = std::make_shared<SharedEndpoint>(this, std::move(ep).value(),
                                            opts.drr_quantum_bytes);
      endpoints_[key] = se;
    } else if (!(se->location() == location)) {
      cleanup_sid();
      return make_error(ErrorCode::kInvalidArgument,
                        "shared endpoint " + key +
                            " already exists at a different location");
    }
    const Status st = se->attach_stream(ch->stream_id_);
    if (!st.is_ok()) {
      cleanup_sid();
      return st;
    }
    sid_it->second.second += 1;
    ++attached_streams_;
  }

  ch->shared_ = std::move(se);
  ch->name_ = key;
  ch->prefix_ = wire::encode_mux_prefix(ch->stream_id_);
  ch->credits_gauge_ = credits_family().share(stream);
  ch->stalls_counter_ = stalls_family().share(stream);
  auto credit = std::make_shared<CreditState>();
  credit->cap = opts.credit_bytes;
  credit->queued_gauge = queued_bytes_family().share(stream);
  credit->credits_gauge = ch->credits_gauge_;
  ch->credits_gauge_->add(static_cast<std::int64_t>(opts.credit_bytes));
  ch->credit_ = std::move(credit);
  return ch;
}

std::size_t StreamRegistry::shared_endpoint_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (const auto& [name, weak] : endpoints_) {
    if (!weak.expired()) ++live;
  }
  return live;
}

std::size_t StreamRegistry::attached_stream_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attached_streams_;
}

util::WorkPool& StreamRegistry::drain_pool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) pool_ = std::make_unique<util::WorkPool>(2);
  return *pool_;
}

void StreamRegistry::detach_shared(std::uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = stream_ids_.find(stream_id);
  if (it != stream_ids_.end() && --it->second.second <= 0) {
    // Last channel of this stream in the process: retire its per-stream
    // series so scrapes stop showing the closed stream as live, and its
    // cardinality slots free up for future streams. Holders (CreditState,
    // in-flight frames) keep the objects writable; the last one frees them.
    const std::string& stream = it->second.first;
    queued_bytes_family().retire(stream);
    credits_family().retire(stream);
    stalls_family().retire(stream);
    stream_ids_.erase(it);
  }
  if (attached_streams_ > 0) --attached_streams_;
}

}  // namespace flexio
