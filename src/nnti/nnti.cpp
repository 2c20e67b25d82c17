#include "nnti/nnti.h"

#include <cstring>
#include <thread>

#include "util/metrics.h"

namespace flexio::nnti {

namespace {
// Fabric-wide frame accounting. The putmsg counters obey, by construction:
//   delivered == sent_ok - dropped + duplicated
// and a consumer that drains every queue observes received == delivered.
// tests/trace_test.cpp checks these against the FaultPlan's decision log.
metrics::Counter& putmsg_sent() {
  static metrics::Counter& c = metrics::counter("nnti.putmsg.sent");
  return c;
}
metrics::Counter& putmsg_delivered() {
  static metrics::Counter& c = metrics::counter("nnti.putmsg.delivered");
  return c;
}
metrics::Counter& putmsg_dropped() {
  static metrics::Counter& c = metrics::counter("nnti.putmsg.dropped");
  return c;
}
metrics::Counter& putmsg_duplicated() {
  static metrics::Counter& c = metrics::counter("nnti.putmsg.duplicated");
  return c;
}
metrics::Counter& putmsg_received() {
  static metrics::Counter& c = metrics::counter("nnti.putmsg.received");
  return c;
}
metrics::Counter& get_bytes_counter() {
  static metrics::Counter& c = metrics::counter("nnti.get.bytes");
  return c;
}
metrics::Counter& put_bytes_counter() {
  static metrics::Counter& c = metrics::counter("nnti.put.bytes");
  return c;
}
metrics::Counter& register_counter() {
  static metrics::Counter& c = metrics::counter("nnti.registrations");
  return c;
}
// Bytes sitting in NIC message queues fabric-wide: delivered but not yet
// polled by the consumer. The flight recorder samples this to show
// transport backpressure building while a run is live.
metrics::Gauge& inflight_bytes_gauge() {
  static metrics::Gauge& g = metrics::gauge("nnti.inflight.bytes");
  return g;
}
}  // namespace

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kConnect: return "connect";
    case Op::kPutMessage: return "putmsg";
    case Op::kGet: return "get";
    case Op::kPut: return "put";
    case Op::kRegister: return "register";
  }
  return "unknown";
}

Nic::Nic(Fabric* fabric, std::string name, std::size_t queue_depth)
    : fabric_(fabric), name_(std::move(name)), queue_depth_(queue_depth) {}

Nic::~Nic() { fabric_->remove(name_); }

StatusOr<MemRegion> Nic::register_memory(void* addr, std::size_t len) {
  if (addr == nullptr || len == 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cannot register empty region");
  }
  FLEXIO_RETURN_IF_ERROR(fabric_->inject(Op::kRegister, name_, ""));
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t key = next_key_++;
  regions_[key] = Region{static_cast<std::byte*>(addr), len};
  ++stats_.registrations;
  if (metrics::enabled()) register_counter().inc();
  return MemRegion{key, len};
}

Status Nic::unregister_memory(const MemRegion& region) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (regions_.erase(region.key) == 0) {
    return make_error(ErrorCode::kNotFound, "region not registered");
  }
  ++stats_.deregistrations;
  return Status::ok();
}

Status Nic::put_message(const std::string& peer,
                        std::span<const ByteView> frags) {
  const FaultAction action =
      fabric_->inject_action(Op::kPutMessage, name_, peer);
  if (!action.status.is_ok()) return action.status;
  if (action.drop) {
    // Fire-and-forget: silently lost. The caller sees success, so this
    // counts as a sent frame that never gets delivered.
    putmsg_sent().inc();
    putmsg_dropped().inc();
    return Status::ok();
  }
  std::shared_ptr<Nic> target = fabric_->lookup(peer);
  if (!target) {
    return make_error(ErrorCode::kUnavailable, "peer gone: " + peer);
  }
  std::vector<std::byte> msg;
  msg.reserve(total_size(frags));
  for (const ByteView& f : frags) msg.insert(msg.end(), f.begin(), f.end());
  std::vector<std::byte> dup;
  if (action.duplicate) dup = msg;  // copy before the frame moves away
  const Status st = target->deliver(std::move(msg));
  if (st.is_ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.messages_sent;
    // One gate check for both touches on the send fast path.
    if (metrics::enabled()) {
      putmsg_sent().inc();
      putmsg_delivered().inc();
    }
  }
  if (st.is_ok() && action.duplicate) {
    // A duplicated frame that finds the peer queue full is simply dropped;
    // the original delivery decides the caller-visible outcome.
    if (target->deliver(std::move(dup)).is_ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.messages_sent;
      if (metrics::enabled()) {
        putmsg_delivered().inc();
        putmsg_duplicated().inc();
      }
    }
  }
  return st;
}

Status Nic::deliver(std::vector<std::byte>&& msg) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (message_queue_.size() >= queue_depth_) {
    return make_error(ErrorCode::kResourceExhausted,
                      "message queue full at " + name_);
  }
  if (metrics::enabled()) {
    inflight_bytes_gauge().add(static_cast<std::int64_t>(msg.size()));
  }
  message_queue_.push_back(std::move(msg));
  queue_cv_.notify_one();
  return Status::ok();
}

Status Nic::poll_message(std::vector<std::byte>* out,
                         std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!queue_cv_.wait_for(lock, timeout,
                          [this] { return !message_queue_.empty(); })) {
    return make_error(ErrorCode::kTimeout, "poll_message timed out");
  }
  *out = std::move(message_queue_.front());
  message_queue_.pop_front();
  ++stats_.messages_received;
  if (metrics::enabled()) {
    putmsg_received().inc();
    inflight_bytes_gauge().sub(static_cast<std::int64_t>(out->size()));
  }
  return Status::ok();
}

Status Nic::read_region(std::uint64_t key, std::uint64_t offset,
                        MutableByteView dst) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = regions_.find(key);
  if (it == regions_.end()) {
    return make_error(ErrorCode::kNotFound, "remote region not registered");
  }
  if (offset + dst.size() > it->second.len) {
    return make_error(ErrorCode::kOutOfRange, "RDMA get out of bounds");
  }
  std::memcpy(dst.data(), it->second.addr + offset, dst.size());
  return Status::ok();
}

Status Nic::write_region(std::uint64_t key, std::uint64_t offset,
                         ByteView src) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = regions_.find(key);
  if (it == regions_.end()) {
    return make_error(ErrorCode::kNotFound, "remote region not registered");
  }
  if (offset + src.size() > it->second.len) {
    return make_error(ErrorCode::kOutOfRange, "RDMA put out of bounds");
  }
  std::memcpy(it->second.addr + offset, src.data(), src.size());
  return Status::ok();
}

Status Nic::get(const std::string& peer, const MemRegion& remote,
                std::uint64_t offset, MutableByteView dst) {
  const FaultAction action = fabric_->inject_action(Op::kGet, name_, peer);
  if (!action.status.is_ok()) return action.status;
  if (action.drop) {
    // A one-sided read that vanishes on the wire is a timeout at the
    // initiator: nothing ever lands in dst.
    return make_error(ErrorCode::kTimeout, "injected drop of RDMA get");
  }
  std::shared_ptr<Nic> target = fabric_->lookup(peer);
  if (!target) {
    return make_error(ErrorCode::kUnavailable, "peer gone: " + peer);
  }
  const int transfers = action.duplicate ? 2 : 1;
  for (int i = 0; i < transfers; ++i) {
    FLEXIO_RETURN_IF_ERROR(target->read_region(remote.key, offset, dst));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.gets += static_cast<std::uint64_t>(transfers);
  stats_.bytes_get += static_cast<std::uint64_t>(transfers) * dst.size();
  if (metrics::enabled()) {
    get_bytes_counter().add(static_cast<std::uint64_t>(transfers) *
                            dst.size());
  }
  return Status::ok();
}

Status Nic::put(const std::string& peer, ByteView src, const MemRegion& remote,
                std::uint64_t offset) {
  const FaultAction action = fabric_->inject_action(Op::kPut, name_, peer);
  if (!action.status.is_ok()) return action.status;
  if (action.drop) {
    return make_error(ErrorCode::kTimeout, "injected drop of RDMA put");
  }
  std::shared_ptr<Nic> target = fabric_->lookup(peer);
  if (!target) {
    return make_error(ErrorCode::kUnavailable, "peer gone: " + peer);
  }
  const int transfers = action.duplicate ? 2 : 1;
  for (int i = 0; i < transfers; ++i) {
    FLEXIO_RETURN_IF_ERROR(target->write_region(remote.key, offset, src));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.puts += static_cast<std::uint64_t>(transfers);
  stats_.bytes_put += static_cast<std::uint64_t>(transfers) * src.size();
  if (metrics::enabled()) {
    put_bytes_counter().add(static_cast<std::uint64_t>(transfers) *
                            src.size());
  }
  return Status::ok();
}

bool Nic::peer_alive(const std::string& peer) const {
  return fabric_->lookup(peer) != nullptr;
}

NicStats Nic::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

StatusOr<std::shared_ptr<Nic>> Fabric::create_nic(const std::string& name,
                                                  std::size_t queue_depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = nics_.find(name);
  if (it != nics_.end() && !it->second.expired()) {
    return make_error(ErrorCode::kAlreadyExists, "nic exists: " + name);
  }
  std::shared_ptr<Nic> nic(new Nic(this, name, queue_depth));
  nics_[name] = nic;
  return nic;
}

Status Fabric::connect(const std::string& from, const std::string& to) {
  FLEXIO_RETURN_IF_ERROR(inject(Op::kConnect, from, to));
  if (!lookup(to)) {
    return make_error(ErrorCode::kNotFound, "no such peer: " + to);
  }
  return Status::ok();
}

void Fabric::set_fault_injector(FaultInjector injector) {
  if (!injector) {
    set_fault_hook(nullptr);
    return;
  }
  set_fault_hook([injector = std::move(injector)](
                     Op op, const std::string& local,
                     const std::string& peer) {
    FaultAction action;
    action.status = injector(op, local, peer);
    return action;
  });
}

void Fabric::set_fault_hook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  hook_ = std::move(hook);
}

std::shared_ptr<Nic> Fabric::lookup(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = nics_.find(name);
  return it == nics_.end() ? nullptr : it->second.lock();
}

Status Fabric::inject(Op op, const std::string& local,
                      const std::string& peer) {
  const FaultAction action = inject_action(op, local, peer);
  if (!action.status.is_ok()) return action.status;
  if (action.drop) {
    // Ops routed through this helper (connect, register) are synchronous:
    // losing one on the wire looks like a timeout to the initiator.
    return make_error(ErrorCode::kTimeout,
                      std::string("injected drop of ") +
                          std::string(op_name(op)));
  }
  return Status::ok();
}

FaultAction Fabric::inject_action(Op op, const std::string& local,
                                  const std::string& peer) {
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = hook_;
  }
  if (!hook) return FaultAction{};
  FaultAction action = hook(op, local, peer);
  if (action.delay.count() > 0) std::this_thread::sleep_for(action.delay);
  return action;
}

void Fabric::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  nics_.erase(name);
}

}  // namespace flexio::nnti
