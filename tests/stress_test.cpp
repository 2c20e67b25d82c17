// Concurrency stress tests for the shared-memory layer: spinning
// producer/consumer pairs hammer the FastForward SPSC queue and the full
// channel, verifying FIFO order and zero lost entries. The default profile
// is short enough for CI; set FLEXIO_STRESS_ITERS to scale up (e.g.
// FLEXIO_STRESS_ITERS=2000000 for a soak run). These binaries are also the
// primary TSan targets -- see docs/TESTING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include "evpath/bus.h"
#include "shm/channel.h"
#include "shm/spsc_queue.h"

namespace flexio::shm {
namespace {

using namespace std::chrono_literals;

std::uint64_t stress_iters(std::uint64_t short_profile) {
  const char* env = std::getenv("FLEXIO_STRESS_ITERS");
  if (env == nullptr || *env == '\0') return short_profile;
  // Parse signed and range-check: strtoull would silently wrap a negative
  // value ("-5") to ~2^64 and spin the test for days.
  char* end = nullptr;
  const long long n = std::strtoll(env, &end, 0);
  if (end == env || *end != '\0' || n <= 0) {
    ADD_FAILURE() << "FLEXIO_STRESS_ITERS must be a positive integer, got \""
                  << env << "\"";
    return short_profile;
  }
  return static_cast<std::uint64_t>(n);
}

TEST(SpscStressTest, SpinningPairFifoOrderZeroLoss) {
  const std::uint64_t kMessages = stress_iters(50000);
  SpscQueue queue(64, 64);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      std::uint64_t value = i;
      while (!queue.try_enqueue(
          ByteView(reinterpret_cast<const std::byte*>(&value),
                   sizeof(value)))) {
        // spin: FastForward's hot path, no blocking primitive involved
      }
    }
  });

  std::uint64_t received = 0;
  std::uint64_t sum_check = 0;
  std::vector<std::byte> msg;
  std::thread consumer([&] {
    while (received < kMessages) {
      if (!queue.try_dequeue(&msg)) continue;
      ASSERT_EQ(msg.size(), sizeof(std::uint64_t));
      std::uint64_t value = 0;
      std::memcpy(&value, msg.data(), sizeof(value));
      // FIFO: each dequeued value is exactly the next expected sequence
      // number; any loss, duplication, or reorder breaks this immediately.
      ASSERT_EQ(value, received);
      sum_check += value;
      ++received;
    }
  });

  producer.join();
  consumer.join();
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(sum_check, kMessages * (kMessages - 1) / 2);
  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.enqueued, kMessages);
  EXPECT_EQ(stats.dequeued, kMessages);
}

TEST(SpscStressTest, VariableLengthPayloadsSurviveWrap) {
  // Length-varying messages force every payload size class through the
  // ring repeatedly (the ring has 16 entries, so wraps are constant).
  const std::uint64_t kMessages = stress_iters(20000);
  SpscQueue queue(16, 128);

  std::thread producer([&] {
    std::vector<std::byte> payload;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      payload.assign(1 + i % 120, std::byte{static_cast<unsigned char>(i)});
      while (!queue.try_enqueue(ByteView(payload))) {
      }
    }
  });
  std::thread consumer([&] {
    std::vector<std::byte> msg;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      while (!queue.try_dequeue(&msg)) {
      }
      ASSERT_EQ(msg.size(), 1 + i % 120);
      ASSERT_EQ(msg[0], std::byte{static_cast<unsigned char>(i)});
    }
  });
  producer.join();
  consumer.join();
}

TEST(SpscStressTest, BlockingApiUnderContention) {
  const std::uint64_t kMessages = stress_iters(20000);
  SpscQueue queue(8, 64);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      std::uint64_t value = i;
      ASSERT_TRUE(queue
                      .enqueue(ByteView(reinterpret_cast<const std::byte*>(
                                            &value),
                                        sizeof(value)),
                               10s)
                      .is_ok());
    }
  });
  std::thread consumer([&] {
    std::vector<std::byte> msg;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      ASSERT_TRUE(queue.dequeue(&msg, 10s).is_ok());
      std::uint64_t value = 0;
      std::memcpy(&value, msg.data(), sizeof(value));
      ASSERT_EQ(value, i);
    }
  });
  producer.join();
  consumer.join();
}

TEST(ChannelStressTest, MixedInlinePoolTraffic) {
  // Exercise both channel paths under contention: inline (<= 192 B) and
  // pool (large), every fifth send sync. The pool budget fits four 2 KiB
  // slots and the consumer keeps its last two leases, so the producer keeps
  // waiting on the consumer's leases. Sequence numbers embedded in the
  // payload verify order and integrity across path switches.
  const std::uint64_t kMessages = stress_iters(10000);
  ChannelOptions options;
  options.queue_entries = 32;
  options.pool_bytes = 4096;
  options.timeout = 30s;
  Channel channel(options);

  auto fill = [](std::vector<std::byte>* buf, std::uint64_t seq,
                 std::size_t n) {
    buf->resize(n);
    std::memcpy(buf->data(), &seq, sizeof(seq));
    for (std::size_t i = sizeof(seq); i < n; ++i) {
      (*buf)[i] = static_cast<std::byte>(seq + i);
    }
  };

  std::thread producer([&] {
    std::vector<std::byte> buf;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      const std::size_t size = (i % 3 == 0) ? 64 : 1024 + i % 512;
      fill(&buf, i, size);
      ASSERT_TRUE(channel.send(ByteView(buf), /*sync=*/i % 5 == 0).is_ok());
    }
    ASSERT_TRUE(channel.close().is_ok());
  });
  std::thread consumer([&] {
    ByteLease msg;
    std::deque<ByteLease> kept;
    std::vector<std::byte> want;
    for (std::uint64_t i = 0;; ++i) {
      const Status st = channel.receive(&msg);
      if (st.code() == ErrorCode::kEndOfStream) {
        ASSERT_EQ(i, kMessages);  // zero lost entries
        break;
      }
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      const std::size_t size = (i % 3 == 0) ? 64 : 1024 + i % 512;
      fill(&want, i, size);
      ASSERT_TRUE(std::ranges::equal(msg, want));  // FIFO across inline/pool switches
      kept.push_back(std::move(msg));
      if (kept.size() > 2) kept.pop_front();
    }
  });
  producer.join();
  consumer.join();

  const ChannelStats stats = channel.stats();
  EXPECT_GT(stats.inline_sends, 0u);
  EXPECT_GT(stats.pool_sends, 0u);
  EXPECT_LE(channel.pool_stats().bytes_allocated, 2 * options.pool_bytes);
}

TEST(SpscStressTest, ThirdThreadStatsSnapshotsAreRaceFree) {
  // QueueStats counters are relaxed atomics precisely so a monitoring
  // thread may sample them mid-traffic; this is the TSan regression guard
  // for that contract (producer/consumer cursors stay thread-private).
  const std::uint64_t kMessages = stress_iters(20000);
  SpscQueue queue(32, 64);
  std::atomic<bool> done{false};

  std::thread producer([&] {
    std::uint64_t value = 0;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      value = i;
      while (!queue.try_enqueue(
          ByteView(reinterpret_cast<const std::byte*>(&value),
                   sizeof(value)))) {
      }
    }
  });
  std::thread consumer([&] {
    std::vector<std::byte> msg;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      while (!queue.try_dequeue(&msg)) {
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::thread monitor([&] {
    std::uint64_t last_enq = 0, last_deq = 0;
    while (!done.load(std::memory_order_acquire)) {
      const QueueStats stats = queue.stats();
      // Monotone and consistent: dequeues never outrun enqueues.
      ASSERT_GE(stats.enqueued, last_enq);
      ASSERT_GE(stats.dequeued, last_deq);
      ASSERT_LE(stats.dequeued, stats.enqueued);
      last_enq = stats.enqueued;
      last_deq = stats.dequeued;
    }
  });
  producer.join();
  consumer.join();
  monitor.join();
  EXPECT_EQ(queue.stats().dequeued, kMessages);
}

TEST(EndpointStressTest, StatsPollingDuringRdmaTraffic) {
  // A monitoring thread polls outbound_stats()/transport_to() while the
  // sender streams messages over an RDMA link pair. Endpoint serializes
  // both behind send_mutex_; this test pins that contract under TSan (link
  // stats counters are plain fields, so any unlocked path is a real race).
  const std::uint64_t kMessages = stress_iters(2000);
  evpath::MessageBus bus;
  auto tx = bus.create_endpoint("stress.tx", evpath::Location{0, 0});
  auto rx = bus.create_endpoint("stress.rx", evpath::Location{1, 0});
  ASSERT_TRUE(tx.is_ok() && rx.is_ok());
  std::atomic<bool> done{false};

  std::thread sender([&] {
    std::vector<std::byte> payload;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      // Alternate eager and rendezvous sizes.
      payload.assign(i % 2 == 0 ? 64 : 8192,
                     static_cast<std::byte>(i));
      ASSERT_TRUE(tx.value()->send("stress.rx", ByteView(payload)).is_ok());
    }
    ASSERT_TRUE(tx.value()->close_to("stress.rx").is_ok());
  });
  std::thread receiver([&] {
    evpath::Message msg;
    std::uint64_t received = 0;
    for (;;) {
      ASSERT_TRUE(rx.value()->recv(&msg, std::chrono::seconds(30)).is_ok());
      if (msg.eos) break;
      ASSERT_EQ(msg.payload.size(), received % 2 == 0 ? 64u : 8192u);
      ++received;
    }
    ASSERT_EQ(received, kMessages);
    done.store(true, std::memory_order_release);
  });
  std::thread monitor([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const evpath::LinkStats stats = tx.value()->outbound_stats("stress.rx");
      ASSERT_GE(stats.messages, last);
      last = stats.messages;
      (void)tx.value()->transport_to("stress.rx");
      std::this_thread::yield();
    }
  });
  sender.join();
  receiver.join();
  monitor.join();
  EXPECT_EQ(tx.value()->outbound_stats("stress.rx").messages, kMessages);
}

}  // namespace
}  // namespace flexio::shm
