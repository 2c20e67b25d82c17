#include "evpath/bus.h"

#include <thread>

#include "util/backoff.h"
#include "util/log.h"
#include "util/metrics.h"

namespace flexio::evpath {

namespace {

// recv polling: spin-yield first (a message is usually one scheduler slice
// away in these in-process deployments), then back off into short sleeps so
// an idle reader stops burning a core during a long step. The cap keeps
// worst-case added latency well under any protocol timeout.
constexpr int kRecvSpinYields = 64;
constexpr util::BackoffPolicy kRecvBackoff{
    std::chrono::microseconds(2), std::chrono::microseconds(256), 2.0};

// One increment per message handed to a link as several fragments (header
// plus borrowed payload views) that the link gathers itself, instead of
// being flattened into one buffer first.
metrics::Counter& copies_avoided_counter() {
  static metrics::Counter& c = metrics::counter("flexio.wire.copies_avoided");
  return c;
}

}  // namespace

Endpoint::Endpoint(MessageBus* bus, std::string name, Location location,
                   LinkOptions options)
    : bus_(bus),
      name_(std::move(name)),
      location_(location),
      options_(options),
      recv_backoff_(kRecvBackoff) {}

Endpoint::~Endpoint() { bus_->remove(name_); }

std::shared_ptr<Endpoint::LinkEntry> Endpoint::outbound(
    const std::string& to) const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  const auto it = send_links_.find(to);
  return it == send_links_.end() ? nullptr : it->second;
}

StatusOr<std::shared_ptr<Endpoint::LinkEntry>> Endpoint::outbound_or_connect(
    const std::string& to) {
  if (auto entry = outbound(to)) return entry;
  // One dial per peer at a time: the double-checked lookup under
  // connect_mutex_ makes concurrent first-sends to the same destination
  // share a single link instead of racing two into existence.
  std::lock_guard<std::mutex> connect_lock(connect_mutex_);
  if (auto entry = outbound(to)) return entry;
  auto created = bus_->connect(this, to);
  if (!created.is_ok()) return created.status();
  auto entry = std::make_shared<LinkEntry>();
  entry->link = std::move(created).value();
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    send_links_.emplace(to, entry);
  }
  return entry;
}

Status Endpoint::send(const std::string& to, std::span<const ByteView> frags,
                      SendMode mode) {
  auto entry = outbound_or_connect(to);
  if (!entry.is_ok()) return entry.status();
  std::lock_guard<std::mutex> link_lock(entry.value()->mutex);
  const Status st = entry.value()->link->send(frags, mode);
  if (st.is_ok() && frags.size() > 1 && metrics::enabled()) {
    copies_avoided_counter().inc();
  }
  return st;
}

Status Endpoint::close_to(const std::string& to) {
  auto entry = outbound(to);
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound, "no link to " + to);
  }
  std::lock_guard<std::mutex> link_lock(entry->mutex);
  return entry->link->close();
}

void Endpoint::drop_link(const std::string& to) {
  std::shared_ptr<LinkEntry> doomed;
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    const auto it = send_links_.find(to);
    if (it == send_links_.end()) return;
    doomed = std::move(it->second);
    send_links_.erase(it);
  }
  // Deferred reclamation: if a send is in flight it still holds the entry
  // and finishes on the detached link; the link destructor (which may
  // release RDMA buffers) runs when the last holder lets go -- here, when
  // no send is mid-call.
}

Status Endpoint::recv(Message* out, std::chrono::nanoseconds timeout) {
  return recv_from("", out, timeout);
}

Status Endpoint::recv_from(const std::string& from, Message* out,
                           std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(recv_mutex_);
      if (has_attached_.load(std::memory_order_acquire)) {
        adopt_attached_locked();
      }
      const std::size_t n = recv_links_.size();
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (rr_cursor_ + step) % n;
        Inbound& in = recv_links_[i];
        if (!from.empty() && in.from != from) continue;
        bool got = false;
        FLEXIO_RETURN_IF_ERROR(in.link->try_receive(out, &got));
        if (!got) continue;
        rr_cursor_ = (i + 1) % n;
        if (out->eos) {
          // Drop the link after its EOS is observed.
          recv_links_.erase(recv_links_.begin() +
                            static_cast<std::ptrdiff_t>(i));
          if (rr_cursor_ >= recv_links_.size()) rr_cursor_ = 0;
        }
        {
          // A dequeue proves the senders are active again: restart the
          // idle ladder at the spin tier so a burst following a long idle
          // period is not paced by a stale max-backoff sleep (pinned by
          // tests/endpoint_concurrency_test.cpp).
          std::lock_guard<std::mutex> idle_lock(recv_idle_mutex_);
          recv_spins_ = 0;
          recv_backoff_.reset();
        }
        return Status::ok();
      }
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return make_error(ErrorCode::kTimeout,
                        "recv timed out at " + name_ +
                            (from.empty() ? "" : " waiting for " + from));
    }
    // The ladder state outlives this call (see bus.h): compute the step
    // under the idle lock, spin or sleep outside it.
    bool spin = false;
    std::chrono::nanoseconds delay{};
    {
      std::lock_guard<std::mutex> idle_lock(recv_idle_mutex_);
      if (recv_spins_ < kRecvSpinYields) {
        ++recv_spins_;
        spin = true;
      } else {
        delay = recv_backoff_.next_delay();
      }
    }
    if (spin) {
      std::this_thread::yield();
    } else {
      util::Backoff::sleep_for(delay);
    }
  }
}

StatusOr<TransportKind> Endpoint::transport_to(const std::string& to) const {
  const auto entry = outbound(to);
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound, "no link to " + to);
  }
  // kind() is immutable after construction; no entry lock needed.
  return entry->link->kind();
}

LinkStats Endpoint::outbound_stats(const std::string& to) const {
  const auto entry = outbound(to);
  if (entry == nullptr) return LinkStats{};
  std::lock_guard<std::mutex> link_lock(entry->mutex);
  return entry->link->stats();
}

void Endpoint::attach_recv_link(const std::string& from,
                                std::unique_ptr<RecvLink> link) {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  attached_.push_back(Inbound{from, std::move(link)});
  has_attached_.store(true, std::memory_order_release);
}

void Endpoint::adopt_attached_locked() {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (Inbound& in : attached_) recv_links_.push_back(std::move(in));
  attached_.clear();
  has_attached_.store(false, std::memory_order_relaxed);
}

StatusOr<std::shared_ptr<Endpoint>> MessageBus::create_endpoint(
    const std::string& name, Location location, LinkOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = endpoints_.find(name);
  if (it != endpoints_.end() && !it->second.expired()) {
    return make_error(ErrorCode::kAlreadyExists, "endpoint exists: " + name);
  }
  std::shared_ptr<Endpoint> ep(new Endpoint(this, name, location, options));
  endpoints_[name] = ep;
  return ep;
}

StatusOr<std::unique_ptr<SendLink>> MessageBus::connect(Endpoint* from,
                                                        const std::string& to) {
  std::shared_ptr<Endpoint> target;
  std::uint64_t link_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = endpoints_.find(to);
    if (it != endpoints_.end()) target = it->second.lock();
    if (!target) {
      return make_error(ErrorCode::kNotFound, "no such endpoint: " + to);
    }
    link_id = next_link_id_++;
  }

  std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>> pair;
  if (from->location() == target->location()) {
    pair = make_inproc_link(from->name(), from->options_);
  } else if (from->location().node == target->location().node) {
    pair = make_shm_link(from->name(), from->options_);
  } else {
    // Name the per-link NICs after the endpoint pair so fabric-level
    // diagnostics and fault rules can address links deterministically; the
    // "#id" suffix keeps names unique across link generations (fault
    // matching strips it -- see tests/harness/fault_plan.h).
    const std::string base =
        from->name() + ">" + to + "#" + std::to_string(link_id);
    auto tx = fabric_.create_nic(base + ":tx");
    if (!tx.is_ok()) return tx.status();
    auto rx = fabric_.create_nic(base + ":rx");
    if (!rx.is_ok()) return rx.status();
    FLEXIO_RETURN_IF_ERROR(
        fabric_.connect(tx.value()->name(), rx.value()->name()));
    pair = make_rdma_link(from->name(), from->options_, tx.value(),
                          rx.value());
  }
  FLEXIO_LOG(kDebug) << from->name() << " -> " << to << " via "
                     << transport_kind_name(pair.first->kind());
  target->attach_recv_link(from->name(), std::move(pair.second));
  return std::move(pair.first);
}

std::shared_ptr<Endpoint> MessageBus::lookup(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second.lock();
}

void MessageBus::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  endpoints_.erase(name);
}

}  // namespace flexio::evpath
