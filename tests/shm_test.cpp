// Tests for the shared-memory transport: FastForward SPSC queue, buffer
// pool, and the full channel protocol (inline / pool / sync / EOS).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "shm/buffer_pool.h"
#include "shm/channel.h"
#include "shm/spsc_queue.h"
#include "util/rng.h"

namespace flexio::shm {
namespace {

using namespace std::chrono_literals;

ByteView bytes_of(const std::string& s) {
  return ByteView(reinterpret_cast<const std::byte*>(s.data()), s.size());
}

std::string string_of(ByteView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

TEST(SpscQueueTest, SingleThreadFifoOrder) {
  SpscQueue q(4, 64);
  EXPECT_TRUE(q.try_enqueue(bytes_of("one")));
  EXPECT_TRUE(q.try_enqueue(bytes_of("two")));
  std::vector<std::byte> out;
  ASSERT_TRUE(q.try_dequeue(&out));
  EXPECT_EQ(string_of(out), "one");
  ASSERT_TRUE(q.try_dequeue(&out));
  EXPECT_EQ(string_of(out), "two");
  EXPECT_FALSE(q.try_dequeue(&out));
}

TEST(SpscQueueTest, FullQueueRejectsEnqueue) {
  SpscQueue q(2, 16);
  EXPECT_TRUE(q.try_enqueue(bytes_of("a")));
  EXPECT_TRUE(q.try_enqueue(bytes_of("b")));
  EXPECT_FALSE(q.try_enqueue(bytes_of("c")));
  std::vector<std::byte> out;
  ASSERT_TRUE(q.try_dequeue(&out));
  EXPECT_TRUE(q.try_enqueue(bytes_of("c")));  // slot freed
}

TEST(SpscQueueTest, EmptyMessageAllowed) {
  SpscQueue q(2, 16);
  EXPECT_TRUE(q.try_enqueue({}));
  std::vector<std::byte> out{std::byte{1}};
  ASSERT_TRUE(q.try_dequeue(&out));
  EXPECT_TRUE(out.empty());
}

TEST(SpscQueueTest, BlockingTimeoutReported) {
  SpscQueue q(2, 16);
  std::vector<std::byte> out;
  EXPECT_EQ(q.dequeue(&out, 5ms).code(), ErrorCode::kTimeout);
  ASSERT_TRUE(q.try_enqueue(bytes_of("x")));
  ASSERT_TRUE(q.try_enqueue(bytes_of("y")));
  EXPECT_EQ(q.enqueue(bytes_of("z"), 5ms).code(), ErrorCode::kTimeout);
}

TEST(SpscQueueTest, StatsCountTraffic) {
  SpscQueue q(4, 16);
  std::vector<std::byte> out;
  EXPECT_FALSE(q.try_dequeue(&out));
  EXPECT_TRUE(q.try_enqueue(bytes_of("a")));
  EXPECT_TRUE(q.try_dequeue(&out));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.enqueued, 1u);
  EXPECT_EQ(s.dequeued, 1u);
  EXPECT_GE(s.dequeue_empty_spins, 1u);
}

// Cross-thread stress: every message must arrive intact, in order.
class SpscStressTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpscStressTest, CrossThreadOrderAndIntegrity) {
  const auto [entries, payload] = GetParam();
  SpscQueue q(static_cast<std::size_t>(entries),
              static_cast<std::size_t>(payload));
  constexpr int kMessages = 20000;

  std::thread producer([&] {
    Rng rng(1);
    std::vector<std::byte> msg;
    for (int i = 0; i < kMessages; ++i) {
      const std::size_t len = 4 + rng.next_below(
          static_cast<std::uint64_t>(payload) - 4);
      msg.resize(len);
      std::memcpy(msg.data(), &i, sizeof i);
      for (std::size_t k = sizeof(int); k < len; ++k) {
        msg[k] = static_cast<std::byte>((i + static_cast<int>(k)) & 0xff);
      }
      ASSERT_TRUE(q.enqueue(ByteView(msg), 10s).is_ok());
    }
  });

  Rng rng(1);  // same sequence as the producer for expected lengths
  std::vector<std::byte> out;
  for (int i = 0; i < kMessages; ++i) {
    const std::size_t len =
        4 + rng.next_below(static_cast<std::uint64_t>(payload) - 4);
    ASSERT_TRUE(q.dequeue(&out, 10s).is_ok()) << "message " << i;
    ASSERT_EQ(out.size(), len);
    int seq = -1;
    std::memcpy(&seq, out.data(), sizeof seq);
    ASSERT_EQ(seq, i);
    for (std::size_t k = sizeof(int); k < len; ++k) {
      ASSERT_EQ(out[k], static_cast<std::byte>((i + static_cast<int>(k)) & 0xff));
    }
  }
  producer.join();
  EXPECT_EQ(q.stats().enqueued, static_cast<std::uint64_t>(kMessages));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpscStressTest,
    ::testing::Values(std::make_tuple(2, 32), std::make_tuple(8, 64),
                      std::make_tuple(64, 256), std::make_tuple(3, 128)));

TEST(BufferPoolTest, SizeClassesArePowersOfTwo) {
  EXPECT_EQ(BufferPool::class_for(1), 0u);
  EXPECT_EQ(BufferPool::class_for(64), 0u);
  EXPECT_EQ(BufferPool::class_for(65), 1u);
  EXPECT_EQ(BufferPool::class_for(128), 1u);
  EXPECT_EQ(BufferPool::class_for(129), 2u);
  EXPECT_EQ(BufferPool::class_capacity(0), 64u);
  EXPECT_EQ(BufferPool::class_capacity(3), 512u);
}

TEST(BufferPoolTest, ReusesReleasedBuffers) {
  BufferPool pool(1 << 20);
  auto a = pool.acquire(1000);
  ASSERT_TRUE(a.is_ok());
  std::byte* ptr = a.value().data;
  pool.release(a.value());
  auto b = pool.acquire(900);  // same size class (1024)
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b.value().data, ptr);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 1u);
  pool.release(b.value());
}

TEST(BufferPoolTest, CapacityGrantsClosestClass) {
  BufferPool pool(1 << 20);
  auto b = pool.acquire(100);
  ASSERT_TRUE(b.is_ok());
  EXPECT_GE(b.value().capacity, 100u);
  EXPECT_EQ(b.value().capacity, 128u);
  pool.release(b.value());
}

TEST(BufferPoolTest, ReclaimsWhenOverThreshold) {
  BufferPool pool(256);  // tiny threshold
  auto a = pool.acquire(64);
  auto b = pool.acquire(64);
  auto c = pool.acquire(64);
  auto d = pool.acquire(64);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(c.is_ok());
  ASSERT_TRUE(d.is_ok());
  // 256 bytes allocated == threshold; releasing now keeps buffers, but a
  // fifth acquisition pushes over and later releases reclaim.
  auto e = pool.acquire(64);
  ASSERT_TRUE(e.is_ok());
  pool.release(e.value());
  EXPECT_GE(pool.stats().reclamations, 1u);
  pool.release(a.value());
  pool.release(b.value());
  pool.release(c.value());
  pool.release(d.value());
}

TEST(BufferPoolTest, RefusesBeyondDoubleBudget) {
  BufferPool pool(1024);
  auto a = pool.acquire(2048);  // in-use overshoot allowed up to 2x
  ASSERT_TRUE(a.is_ok());
  auto b = pool.acquire(2048);  // would exceed 2x budget
  EXPECT_FALSE(b.is_ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kResourceExhausted);
  pool.release(a.value());
}

TEST(BufferPoolTest, CrossThreadRelease) {
  BufferPool pool(1 << 20);
  auto buf = pool.acquire(4096);
  ASSERT_TRUE(buf.is_ok());
  std::thread t([&] { pool.release(buf.value()); });
  t.join();
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
}

ChannelOptions small_options() {
  ChannelOptions o;
  o.queue_entries = 8;
  o.inline_threshold = 64;
  o.pool_bytes = 1 << 20;
  o.timeout = 2s;
  return o;
}

TEST(ChannelTest, InlineMessagesRoundTrip) {
  Channel ch(small_options());
  ASSERT_TRUE(ch.send(bytes_of("tiny")).is_ok());
  ByteLease out;
  ASSERT_TRUE(ch.receive(&out).is_ok());
  EXPECT_EQ(string_of(out), "tiny");
  EXPECT_EQ(ch.stats().inline_sends, 1u);
  EXPECT_EQ(ch.stats().pool_sends, 0u);
}

TEST(ChannelTest, LargeAsyncGoesThroughPool) {
  Channel ch(small_options());
  std::string big(10000, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  ASSERT_TRUE(ch.send(bytes_of(big)).is_ok());
  ByteLease out;
  ASSERT_TRUE(ch.receive(&out).is_ok());
  EXPECT_EQ(string_of(out), big);
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.pool_sends, 1u);
  // The paper's asynchronous pool path makes two copies (producer in,
  // consumer out). The consumer here leases the pool slot instead of
  // copying out of it, so the producer's copy-in is the only one.
  EXPECT_EQ(s.memory_copies, 1u);
}

TEST(ChannelTest, PoolSlotIsLeasedUntilTheLastCopyDrops) {
  // The consumer receives the pool slot itself: it stays in use while any
  // copy of the lease lives, even past the channel, and returns to the
  // producer's free list when the last copy drops.
  std::string big(10000, 'y');
  ByteLease kept;
  {
    Channel ch(small_options());
    ASSERT_TRUE(ch.send(bytes_of(big)).is_ok());
    ByteLease out;
    ASSERT_TRUE(ch.receive(&out).is_ok());
    const std::size_t slot = ch.pool_stats().bytes_in_use;
    EXPECT_GE(slot, big.size());
    kept = out.subspan(1);
    out.reset();
    EXPECT_EQ(ch.pool_stats().bytes_in_use, slot);  // the copy holds it
    ByteLease last = kept;
    kept.reset();
    EXPECT_EQ(string_of(ByteView(last)), big.substr(1));
    last.reset();
    EXPECT_EQ(ch.pool_stats().bytes_in_use, 0u);
    EXPECT_EQ(ch.pool_stats().reuses, 0u);
    // Reused for the next message, and this lease outlives the channel.
    ASSERT_TRUE(ch.send(bytes_of(big)).is_ok());
    ASSERT_TRUE(ch.receive(&kept).is_ok());
    EXPECT_EQ(ch.pool_stats().reuses, 1u);
  }
  EXPECT_EQ(string_of(ByteView(kept)), big);
}

TEST(ChannelTest, SyncLargeWaitsForDequeueOneCopy) {
  // A pool-sized sync send returns only once the consumer has dequeued the
  // message. The consumer leases the pool slot, so the producer's gather is
  // the only copy.
  Channel ch(small_options());
  std::string big(5000, 'q');
  std::atomic<bool> receiving{false};
  ByteLease out;
  std::thread consumer([&] {
    std::this_thread::sleep_for(50ms);
    receiving.store(true);
    ASSERT_TRUE(ch.receive(&out).is_ok());
  });
  ASSERT_TRUE(ch.send(bytes_of(big), /*sync=*/true).is_ok());
  EXPECT_TRUE(receiving.load());
  consumer.join();
  EXPECT_EQ(string_of(out), big);
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.pool_sends, 1u);
  EXPECT_EQ(s.memory_copies, 1u);
}

TEST(ChannelTest, PoolOverBudgetWaitsForALease) {
  // Two 5000-byte messages fill the pool's 2x overshoot (two 8 KiB slots on
  // an 8 KiB budget) while the consumer keeps their leases, so the next
  // pool send waits. The rows cover the four ways that wait ends; the
  // consumer acts 20 ms into it.
  enum class Then { kDropLease, kNothing, kAbandonReceiver };
  struct Case {
    const char* name;
    int held;          // leases the consumer keeps before the send
    std::size_t size;  // the waiting send's message
    Then then;
    std::chrono::milliseconds timeout;
    ErrorCode want;
  };
  const Case cases[] = {
      {"lease_dropped", 2, 5000, Then::kDropLease, 10s, ErrorCode::kOk},
      {"nobody_releases", 2, 5000, Then::kNothing, 50ms, ErrorCode::kTimeout},
      {"receiver_gone", 2, 5000, Then::kAbandonReceiver, 10s,
       ErrorCode::kUnavailable},
      {"never_fits", 0, 40000, Then::kNothing, 10s,
       ErrorCode::kResourceExhausted},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ChannelOptions o = small_options();
    o.pool_bytes = 8192;
    o.timeout = c.timeout;
    Channel ch(o);
    std::vector<ByteLease> held(static_cast<std::size_t>(c.held));
    for (ByteLease& lease : held) {
      ASSERT_TRUE(ch.send(bytes_of(std::string(5000, 'h'))).is_ok());
      ASSERT_TRUE(ch.receive(&lease).is_ok());
    }
    std::thread consumer([&] {
      std::this_thread::sleep_for(20ms);
      if (c.then == Then::kDropLease) held.front().reset();
      if (c.then == Then::kAbandonReceiver) ch.abandon_receiver();
    });
    const std::string msg(c.size, 'w');
    const auto start = std::chrono::steady_clock::now();
    const Status st = ch.send(bytes_of(msg));
    const auto waited = std::chrono::steady_clock::now() - start;
    consumer.join();
    EXPECT_EQ(st.code(), c.want) << st.to_string();
    EXPECT_LT(waited, 5s);  // ended by its event, never a 10 s timeout
    if (st.is_ok()) {
      ByteLease out;
      ASSERT_TRUE(ch.receive(&out).is_ok());
      EXPECT_EQ(string_of(out), msg);
    }
  }
}

TEST(ChannelTest, EosDeliveredAfterPendingData) {
  Channel ch(small_options());
  ASSERT_TRUE(ch.send(bytes_of("last")).is_ok());
  ASSERT_TRUE(ch.close().is_ok());
  ByteLease out;
  ASSERT_TRUE(ch.receive(&out).is_ok());
  EXPECT_EQ(string_of(out), "last");
  EXPECT_EQ(ch.receive(&out).code(), ErrorCode::kEndOfStream);
  // EOS is sticky.
  EXPECT_EQ(ch.receive(&out).code(), ErrorCode::kEndOfStream);
}

TEST(ChannelTest, SendAfterCloseRejected) {
  Channel ch(small_options());
  ASSERT_TRUE(ch.close().is_ok());
  EXPECT_EQ(ch.send(bytes_of("x")).code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(ch.close().is_ok());  // idempotent
}

TEST(ChannelTest, ReceiveTimesOutWhenIdle) {
  ChannelOptions o = small_options();
  o.timeout = 10ms;
  Channel ch(o);
  ByteLease out;
  EXPECT_EQ(ch.receive(&out).code(), ErrorCode::kTimeout);
}

TEST(ChannelTest, SyncTimeoutLeavesChannelUsable) {
  // With no consumer a pool-sized sync send times out waiting for the
  // dequeue. No producer memory was published, so nothing is poisoned:
  // the message stays queued and still arrives, and later sends work.
  ChannelOptions o = small_options();
  o.timeout = std::chrono::milliseconds(20);
  Channel ch(o);
  std::string big(5000, 'p');
  EXPECT_EQ(ch.send(bytes_of(big), /*sync=*/true).code(), ErrorCode::kTimeout);
  // An inline-sized sync send returns at enqueue, consumer or not.
  ASSERT_TRUE(ch.send(bytes_of("after"), /*sync=*/true).is_ok());
  ByteLease out;
  ASSERT_TRUE(ch.receive(&out).is_ok());
  EXPECT_EQ(string_of(out), big);
  ASSERT_TRUE(ch.receive(&out).is_ok());
  EXPECT_EQ(string_of(out), "after");
}

TEST(ChannelTest, PoolBuffersRecycleAcrossManySends) {
  ChannelOptions o = small_options();
  Channel ch(o);
  std::string big(8192, 'z');
  ByteLease out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.send(bytes_of(big)).is_ok());
    ASSERT_TRUE(ch.receive(&out).is_ok());
  }
  // Alternating send/receive means the pool steady-states at one buffer.
  EXPECT_EQ(ch.stats().pool_sends, 100u);
}

// Pipeline stress across threads with mixed sizes and a final EOS.
TEST(ChannelTest, MixedSizePipelineStress) {
  ChannelOptions o = small_options();
  o.queue_entries = 16;
  Channel ch(o);
  constexpr int kCount = 3000;

  std::thread producer([&] {
    Rng rng(7);
    std::vector<std::byte> msg;
    for (int i = 0; i < kCount; ++i) {
      const std::size_t len = 1 + rng.next_below(4096);
      msg.resize(len);
      for (std::size_t k = 0; k < len; ++k) {
        msg[k] = static_cast<std::byte>((i * 31 + static_cast<int>(k)) & 0xff);
      }
      ASSERT_TRUE(ch.send(ByteView(msg)).is_ok());
    }
    ASSERT_TRUE(ch.close().is_ok());
  });

  Rng rng(7);
  ByteLease out;
  for (int i = 0; i < kCount; ++i) {
    const std::size_t len = 1 + rng.next_below(4096);
    ASSERT_TRUE(ch.receive(&out).is_ok()) << i;
    ASSERT_EQ(out.size(), len);
    for (std::size_t k = 0; k < len; ++k) {
      ASSERT_EQ(out[k],
                static_cast<std::byte>((i * 31 + static_cast<int>(k)) & 0xff));
    }
  }
  EXPECT_EQ(ch.receive(&out).code(), ErrorCode::kEndOfStream);
  producer.join();
}

}  // namespace
}  // namespace flexio::shm
