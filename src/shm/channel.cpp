#include "shm/channel.h"

#include <cstring>
#include <thread>

namespace flexio::shm {

namespace {
constexpr std::size_t kControlBytes = 1 + 8 + 8 + 8 + 4 + 8 + 8;

// One published fragment of an xpmem-iov sync send. The producer blocks on
// the ack until the consumer gathered every segment, so the descriptor
// array may live on the producer's stack/heap.
struct XpmemSeg {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
};

std::size_t iov_total(std::span<const ByteView> frags) {
  std::size_t n = 0;
  for (const ByteView& f : frags) n += f.size();
  return n;
}

void iov_gather(std::span<const ByteView> frags, std::byte* dst) {
  for (const ByteView& f : frags) {
    if (f.empty()) continue;
    std::memcpy(dst, f.data(), f.size());
    dst += f.size();
  }
}
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
  out->resize(kControlBytes + iov_total(frags));
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
  put(&ctl.ack_addr, 8);
  iov_gather(frags, p);
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
  if (tag > static_cast<std::uint8_t>(Tag::kXpmemIov)) {
    return make_error(ErrorCode::kInternal, "bad shm control tag");
  }
  ctl->tag = static_cast<Tag>(tag);
  get(&ctl->size, 8);
  get(&ctl->addr, 8);
  get(&ctl->pool_capacity, 8);
  get(&ctl->pool_class, 4);
  get(&ctl->pool_id, 8);
  get(&ctl->ack_addr, 8);
  *inline_payload = raw.subspan(kControlBytes);
  return Status::ok();
}

Status Channel::send_control(const Control& ctl, ByteView inline_payload) {
  const ByteView one[] = {inline_payload};
  return send_control(ctl, std::span<const ByteView>(one));
}

Status Channel::send_control(const Control& ctl,
                             std::span<const ByteView> frags) {
  std::vector<std::byte> wire;
  encode_control(ctl, frags, &wire);
  // Enqueue in short slices so a producer blocked on a full ring notices a
  // departed consumer quickly instead of waiting out the whole timeout.
  const auto deadline = std::chrono::steady_clock::now() + options_.timeout;
  for (;;) {
    if (receiver_gone_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kUnavailable, "shm receiver gone");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return make_error(ErrorCode::kTimeout, "shm queue full");
    }
    const auto slice = std::min<std::chrono::nanoseconds>(
        deadline - now, std::chrono::milliseconds(5));
    const Status st = queue_.enqueue(ByteView(wire), slice);
    if (st.code() != ErrorCode::kTimeout) return st;
  }
}

Status Channel::wait_ack(const std::atomic<std::uint32_t>& ack) {
  const auto deadline = std::chrono::steady_clock::now() + options_.timeout;
  int spins = 0;
  while (ack.load(std::memory_order_acquire) == 0) {
    if (receiver_gone_.load(std::memory_order_acquire)) {
      // The consumer was destroyed: it will never copy or touch the ack
      // flag, so the published buffers are safe to reclaim immediately.
      closed_.store(true, std::memory_order_relaxed);
      return make_error(ErrorCode::kUnavailable,
                        "xpmem sync send: receiver gone");
    }
    if (++spins > 64) std::this_thread::yield();
    if (std::chrono::steady_clock::now() > deadline) {
      // The consumer may still touch the published buffers and the ack flag
      // after we give up, so a timeout here is unrecoverable: poison the
      // channel.
      closed_.store(true, std::memory_order_relaxed);
      return make_error(ErrorCode::kTimeout,
                        "xpmem sync send: consumer never copied");
    }
  }
  return Status::ok();
}

Status Channel::send(ByteView msg) {
  if (closed_.load(std::memory_order_relaxed)) {
    return make_error(ErrorCode::kFailedPrecondition, "channel closed");
  }
  Control ctl{};
  if (msg.size() <= options_.inline_threshold) {
    ctl.tag = Tag::kInline;
    ctl.size = msg.size();
    inline_sends_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(msg.size(), std::memory_order_relaxed);
    copies_.fetch_add(2, std::memory_order_relaxed);  // in + out of entry
    return send_control(ctl, msg);
  }
  // Pool path: copy into a pooled buffer, the only copy; the consumer leases
  // the buffer and its last lease returns it to our free list.
  auto buffer = pool_->acquire(msg.size());
  if (!buffer.is_ok()) return buffer.status();
  PoolBuffer buf = buffer.value();
  std::memcpy(buf.data, msg.data(), msg.size());
  ctl.tag = Tag::kPool;
  ctl.size = msg.size();
  ctl.addr = reinterpret_cast<std::uint64_t>(buf.data);
  ctl.pool_capacity = buf.capacity;
  ctl.pool_class = buf.size_class;
  ctl.pool_id = buf.id;
  pool_sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(msg.size(), std::memory_order_relaxed);
  copies_.fetch_add(1, std::memory_order_relaxed);
  const Status st = send_control(ctl, ByteView{});
  if (!st.is_ok()) pool_->release(buf);  // undo so the buffer is not leaked
  return st;
}

Status Channel::send_sync(ByteView msg) {
  if (!options_.use_xpmem || msg.size() <= options_.inline_threshold) {
    // Fall back to the copying path; queue completion is good enough for
    // small messages since the payload left the caller's buffer already.
    return send(msg);
  }
  if (closed_.load(std::memory_order_relaxed)) {
    return make_error(ErrorCode::kFailedPrecondition, "channel closed");
  }
  // XPMEM path: publish the caller's buffer, wait for the consumer's ack.
  std::atomic<std::uint32_t> ack{0};
  Control ctl{};
  ctl.tag = Tag::kXpmem;
  ctl.size = msg.size();
  ctl.addr = reinterpret_cast<std::uint64_t>(msg.data());
  ctl.ack_addr = reinterpret_cast<std::uint64_t>(&ack);
  xpmem_sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(msg.size(), std::memory_order_relaxed);
  copies_.fetch_add(1, std::memory_order_relaxed);  // single consumer copy
  FLEXIO_RETURN_IF_ERROR(send_control(ctl, ByteView{}));
  return wait_ack(ack);
}

Status Channel::send_iov(std::span<const ByteView> frags) {
  if (closed_.load(std::memory_order_relaxed)) {
    return make_error(ErrorCode::kFailedPrecondition, "channel closed");
  }
  const std::size_t total = iov_total(frags);
  Control ctl{};
  if (total <= options_.inline_threshold) {
    // Gather straight into the queue entry: the flat coalescing copy a
    // plain send() would have needed never happens.
    ctl.tag = Tag::kInline;
    ctl.size = total;
    inline_sends_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(total, std::memory_order_relaxed);
    copies_.fetch_add(2, std::memory_order_relaxed);  // in + out of entry
    return send_control(ctl, frags);
  }
  // Pool path: gather the fragments directly into the pooled buffer, the
  // only copy; the consumer leases it as usual.
  auto buffer = pool_->acquire(total);
  if (!buffer.is_ok()) return buffer.status();
  PoolBuffer buf = buffer.value();
  iov_gather(frags, buf.data);
  ctl.tag = Tag::kPool;
  ctl.size = total;
  ctl.addr = reinterpret_cast<std::uint64_t>(buf.data);
  ctl.pool_capacity = buf.capacity;
  ctl.pool_class = buf.size_class;
  ctl.pool_id = buf.id;
  pool_sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(total, std::memory_order_relaxed);
  copies_.fetch_add(1, std::memory_order_relaxed);
  const Status st = send_control(ctl, ByteView{});
  if (!st.is_ok()) pool_->release(buf);
  return st;
}

Status Channel::send_sync_iov(std::span<const ByteView> frags) {
  const std::size_t total = iov_total(frags);
  if (!options_.use_xpmem || total <= options_.inline_threshold) {
    return send_iov(frags);
  }
  if (closed_.load(std::memory_order_relaxed)) {
    return make_error(ErrorCode::kFailedPrecondition, "channel closed");
  }
  // XPMEM iov path: publish a descriptor list of the caller's fragments and
  // block until the consumer gathered them all -- one payload copy total,
  // performed entirely by the consumer.
  std::vector<XpmemSeg> segs;
  segs.reserve(frags.size());
  for (const ByteView& f : frags) {
    if (f.empty()) continue;
    segs.push_back(XpmemSeg{reinterpret_cast<std::uint64_t>(f.data()),
                            static_cast<std::uint64_t>(f.size())});
  }
  std::atomic<std::uint32_t> ack{0};
  Control ctl{};
  ctl.tag = Tag::kXpmemIov;
  ctl.size = total;
  ctl.addr = reinterpret_cast<std::uint64_t>(segs.data());
  ctl.pool_id = segs.size();  // repurposed as the segment count
  ctl.ack_addr = reinterpret_cast<std::uint64_t>(&ack);
  xpmem_sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(total, std::memory_order_relaxed);
  copies_.fetch_add(1, std::memory_order_relaxed);
  FLEXIO_RETURN_IF_ERROR(send_control(ctl, ByteView{}));
  return wait_ack(ack);
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
    case Tag::kXpmem: {
      // "Map" the producer's segment and copy straight from its source
      // buffer, then ack so the producer may reuse it.
      const auto* src = reinterpret_cast<const std::byte*>(ctl.addr);
      std::vector<std::byte> copy(src, src + ctl.size);
      auto* ack = reinterpret_cast<std::atomic<std::uint32_t>*>(ctl.ack_addr);
      ack->store(1, std::memory_order_release);
      *out = ByteLease(std::move(copy));
      return Status::ok();
    }
    case Tag::kXpmemIov: {
      // Gather every published fragment straight out of the producer's
      // buffers, then ack. pool_id carries the segment count.
      const auto* segs = reinterpret_cast<const XpmemSeg*>(ctl.addr);
      std::vector<std::byte> copy(ctl.size);
      std::byte* dst = copy.data();
      for (std::uint64_t i = 0; i < ctl.pool_id; ++i) {
        std::memcpy(dst, reinterpret_cast<const std::byte*>(segs[i].addr),
                    segs[i].len);
        dst += segs[i].len;
      }
      auto* ack = reinterpret_cast<std::atomic<std::uint32_t>*>(ctl.ack_addr);
      ack->store(1, std::memory_order_release);
      *out = ByteLease(std::move(copy));
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
}

Status Channel::close() {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true,
                                       std::memory_order_relaxed)) {
    return Status::ok();  // idempotent
  }
  Control ctl{};
  ctl.tag = Tag::kEos;
  return send_control(ctl, ByteView{});
}

ChannelStats Channel::stats() const {
  ChannelStats s;
  s.inline_sends = inline_sends_.load(std::memory_order_relaxed);
  s.pool_sends = pool_sends_.load(std::memory_order_relaxed);
  s.xpmem_sends = xpmem_sends_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.memory_copies = copies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace flexio::shm
