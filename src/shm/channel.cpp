#include "shm/channel.h"

#include <cstring>
#include <thread>

namespace flexio::shm {

namespace {
constexpr std::size_t kControlBytes = 1 + 8 + 8 + 8 + 4 + 8;
}  // namespace

Channel::Channel(ChannelOptions options)
    : options_(options),
      queue_(options.queue_entries,
             std::max(options.queue_payload_bytes,
                      kControlBytes + options.inline_threshold)),
      pool_(std::make_shared<BufferPool>(options.pool_bytes)) {}

Channel::~Channel() {
  std::vector<std::byte> wire;
  while (queue_.try_dequeue(&wire)) {
    Control ctl{};
    ByteView inline_payload;
    if (decode_control(ByteView(wire), &ctl, &inline_payload).is_ok() &&
        ctl.tag == Tag::kPool) {
      pool_->release(pool_buffer_of(ctl));
    }
  }
}

PoolBuffer Channel::pool_buffer_of(const Control& ctl) {
  PoolBuffer buf;
  buf.data = reinterpret_cast<std::byte*>(ctl.addr);
  buf.capacity = ctl.pool_capacity;
  buf.size_class = ctl.pool_class;
  buf.id = ctl.pool_id;
  return buf;
}

void Channel::encode_control(const Control& ctl, std::span<const ByteView> frags,
                             std::vector<std::byte>* out) {
  out->resize(kControlBytes + total_size(frags));
  std::byte* p = out->data();
  auto put = [&p](const void* src, std::size_t n) {
    std::memcpy(p, src, n);
    p += n;
  };
  const auto tag = static_cast<std::uint8_t>(ctl.tag);
  put(&tag, 1);
  put(&ctl.size, 8);
  put(&ctl.addr, 8);
  put(&ctl.pool_capacity, 8);
  put(&ctl.pool_class, 4);
  put(&ctl.pool_id, 8);
  gather(frags, p);
}

Status Channel::decode_control(ByteView raw, Control* ctl,
                               ByteView* inline_payload) {
  if (raw.size() < kControlBytes) {
    return make_error(ErrorCode::kInternal, "short shm control message");
  }
  const std::byte* p = raw.data();
  auto get = [&p](void* dst, std::size_t n) {
    std::memcpy(dst, p, n);
    p += n;
  };
  std::uint8_t tag = 0;
  get(&tag, 1);
  if (tag > static_cast<std::uint8_t>(Tag::kEos)) {
    return make_error(ErrorCode::kInternal, "bad shm control tag");
  }
  ctl->tag = static_cast<Tag>(tag);
  get(&ctl->size, 8);
  get(&ctl->addr, 8);
  get(&ctl->pool_capacity, 8);
  get(&ctl->pool_class, 4);
  get(&ctl->pool_id, 8);
  *inline_payload = raw.subspan(kControlBytes);
  return Status::ok();
}

Status Channel::send_control(const Control& ctl,
                             std::span<const ByteView> frags,
                             Clock::time_point deadline) {
  std::vector<std::byte> wire;
  encode_control(ctl, frags, &wire);
  // Enqueue in short slices so a producer blocked on a full ring notices a
  // departed consumer quickly instead of waiting out the whole timeout.
  for (;;) {
    if (receiver_gone_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kUnavailable, "shm receiver gone");
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      return make_error(ErrorCode::kTimeout, "shm queue full");
    }
    const auto slice = std::min<std::chrono::nanoseconds>(
        deadline - now, std::chrono::milliseconds(5));
    const Status st = queue_.enqueue(ByteView(wire), slice);
    if (st.code() != ErrorCode::kTimeout) return st;
  }
}

Status Channel::wait_dequeued(std::uint64_t ticket,
                              Clock::time_point deadline) {
  int spins = 0;
  while (queue_.dequeued() < ticket) {
    if (receiver_gone_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kUnavailable,
                        "shm sync send: receiver gone");
    }
    if (++spins > 64) std::this_thread::yield();
    if (Clock::now() > deadline) {
      // The message stays queued and still arrives; it exposes no
      // producer memory, so the channel stays usable.
      return make_error(ErrorCode::kTimeout,
                        "shm sync send: consumer never dequeued");
    }
  }
  return Status::ok();
}

Status Channel::send(std::span<const ByteView> frags, bool sync) {
  if (closed_.load(std::memory_order_relaxed)) {
    return make_error(ErrorCode::kFailedPrecondition, "channel closed");
  }
  const Clock::time_point deadline = Clock::now() + options_.timeout;
  const std::size_t total = total_size(frags);
  Control ctl{};
  ctl.size = total;
  if (total <= options_.inline_threshold) {
    // Gather straight into the queue entry. A sync send returns here too:
    // the payload has already left the caller's buffers.
    ctl.tag = Tag::kInline;
    inline_sends_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(total, std::memory_order_relaxed);
    copies_.fetch_add(2, std::memory_order_relaxed);  // in + out of entry
    return send_control(ctl, frags, deadline);
  }
  // Pool path: gather into a pooled buffer, the only copy; the consumer
  // leases the buffer and its last lease returns it to our free list.
  auto buffer = pool_->acquire_until(total, deadline);
  if (!buffer.is_ok()) return buffer.status();
  const PoolBuffer buf = buffer.value();
  gather(frags, buf.data);
  ctl.tag = Tag::kPool;
  ctl.addr = reinterpret_cast<std::uint64_t>(buf.data);
  ctl.pool_capacity = buf.capacity;
  ctl.pool_class = buf.size_class;
  ctl.pool_id = buf.id;
  pool_sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(total, std::memory_order_relaxed);
  copies_.fetch_add(1, std::memory_order_relaxed);
  const Status st = send_control(ctl, {}, deadline);
  if (!st.is_ok()) {
    pool_->release(buf);  // undo so the buffer is not leaked
    return st;
  }
  // One producer per channel, so the count right after our enqueue is
  // this message's ticket.
  return sync ? wait_dequeued(queue_.enqueued(), deadline) : Status::ok();
}

Status Channel::receive(ByteLease* out) {
  return receive_for(out, options_.timeout);
}

Status Channel::receive_for(ByteLease* out, std::chrono::nanoseconds timeout) {
  if (eos_received_) {
    return make_error(ErrorCode::kEndOfStream, "stream closed by producer");
  }
  std::vector<std::byte> wire;
  FLEXIO_RETURN_IF_ERROR(queue_.dequeue(&wire, timeout));
  Control ctl{};
  ByteView inline_payload;
  FLEXIO_RETURN_IF_ERROR(decode_control(ByteView(wire), &ctl, &inline_payload));
  switch (ctl.tag) {
    case Tag::kInline: {
      // The dequeue already copied the entry out of the ring: lease that
      // copy, narrowed past the control header.
      if (ctl.size > inline_payload.size()) {
        return make_error(ErrorCode::kInternal, "short shm inline message");
      }
      *out = ByteLease(std::move(wire)).subspan(kControlBytes, ctl.size);
      return Status::ok();
    }
    case Tag::kPool: {
      // Hand the slot itself up the stack; the last lease returns it to the
      // producer's free list, from whichever thread drops it.
      const PoolBuffer buf = pool_buffer_of(ctl);
      std::shared_ptr<const void> owner(
          buf.data, [pool = pool_, buf](const void*) { pool->release(buf); });
      *out = ByteLease(ByteView(buf.data, ctl.size), std::move(owner));
      return Status::ok();
    }
    case Tag::kEos:
      eos_received_ = true;
      return make_error(ErrorCode::kEndOfStream, "stream closed by producer");
  }
  return make_error(ErrorCode::kInternal, "unreachable");
}

void Channel::abandon_receiver() {
  receiver_gone_.store(true, std::memory_order_release);
  pool_->cancel_waits();
}

Status Channel::close() {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true,
                                       std::memory_order_relaxed)) {
    return Status::ok();  // idempotent
  }
  Control ctl{};
  ctl.tag = Tag::kEos;
  return send_control(ctl, {}, Clock::now() + options_.timeout);
}

ChannelStats Channel::stats() const {
  ChannelStats s;
  s.inline_sends = inline_sends_.load(std::memory_order_relaxed);
  s.pool_sends = pool_sends_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.memory_copies = copies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace flexio::shm
