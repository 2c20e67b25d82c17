// Tests for the NNTI-like RDMA layer: fabric, one-sided ops, message
// queues, registration cache, fault injection, and the cost model.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "nnti/cost_model.h"
#include "nnti/nnti.h"
#include "nnti/registration_cache.h"
#include "util/metrics.h"

namespace flexio::nnti {
namespace {

using namespace std::chrono_literals;

ByteView bytes_of(const std::string& s) {
  return ByteView(reinterpret_cast<const std::byte*>(s.data()), s.size());
}

class NntiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = fabric_.create_nic("a");
    auto b = fabric_.create_nic("b");
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    a_ = a.value();
    b_ = b.value();
  }

  Fabric fabric_;
  std::shared_ptr<Nic> a_;
  std::shared_ptr<Nic> b_;
};

TEST_F(NntiTest, ConnectFindsPeers) {
  EXPECT_TRUE(fabric_.connect("a", "b").is_ok());
  EXPECT_EQ(fabric_.connect("a", "ghost").code(), ErrorCode::kNotFound);
}

TEST_F(NntiTest, DuplicateNicNameRejected) {
  EXPECT_EQ(fabric_.create_nic("a").status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(NntiTest, NicNameFreedAfterDestruction) {
  a_.reset();
  auto again = fabric_.create_nic("a");
  EXPECT_TRUE(again.is_ok());
}

TEST_F(NntiTest, SmallMessageQueueRoundTrip) {
  ASSERT_TRUE(a_->put_message("b", bytes_of("hello")).is_ok());
  std::vector<std::byte> out;
  ASSERT_TRUE(b_->poll_message(&out, 1s).is_ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), out.size()),
            "hello");
  EXPECT_EQ(a_->stats().messages_sent, 1u);
  EXPECT_EQ(b_->stats().messages_received, 1u);
}

TEST_F(NntiTest, PollTimesOutWhenEmpty) {
  std::vector<std::byte> out;
  EXPECT_EQ(b_->poll_message(&out, 5ms).code(), ErrorCode::kTimeout);
}

TEST_F(NntiTest, QueueDepthEnforced) {
  auto tiny = fabric_.create_nic("tiny", 2);
  ASSERT_TRUE(tiny.is_ok());
  EXPECT_TRUE(a_->put_message("tiny", bytes_of("1")).is_ok());
  EXPECT_TRUE(a_->put_message("tiny", bytes_of("2")).is_ok());
  EXPECT_EQ(a_->put_message("tiny", bytes_of("3")).code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(NntiTest, GetReadsRemoteRegisteredMemory) {
  std::vector<std::byte> remote(64);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    remote[i] = static_cast<std::byte>(i);
  }
  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());

  std::vector<std::byte> local(16);
  ASSERT_TRUE(
      a_->get("b", region.value(), 8, MutableByteView(local)).is_ok());
  EXPECT_EQ(local[0], std::byte{8});
  EXPECT_EQ(local[15], std::byte{23});
  EXPECT_EQ(a_->stats().bytes_get, 16u);
}

TEST_F(NntiTest, PutWritesRemoteRegisteredMemory) {
  std::vector<std::byte> remote(32, std::byte{0});
  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());
  const std::byte src[4] = {std::byte{9}, std::byte{8}, std::byte{7},
                            std::byte{6}};
  ASSERT_TRUE(a_->put("b", ByteView(src), region.value(), 4).is_ok());
  EXPECT_EQ(remote[4], std::byte{9});
  EXPECT_EQ(remote[7], std::byte{6});
}

TEST_F(NntiTest, GetRejectsUnregisteredOrOutOfBounds) {
  std::vector<std::byte> remote(32);
  std::vector<std::byte> local(16);
  MemRegion bogus{999, 32};
  EXPECT_EQ(a_->get("b", bogus, 0, MutableByteView(local)).code(),
            ErrorCode::kNotFound);

  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());
  EXPECT_EQ(a_->get("b", region.value(), 20, MutableByteView(local)).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(NntiTest, UnregisterInvalidatesRegion) {
  std::vector<std::byte> remote(32);
  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());
  ASSERT_TRUE(b_->unregister_memory(region.value()).is_ok());
  EXPECT_EQ(b_->unregister_memory(region.value()).code(),
            ErrorCode::kNotFound);
  std::vector<std::byte> local(8);
  EXPECT_EQ(a_->get("b", region.value(), 0, MutableByteView(local)).code(),
            ErrorCode::kNotFound);
}

TEST_F(NntiTest, RegisterRejectsEmpty) {
  EXPECT_FALSE(a_->register_memory(nullptr, 16).is_ok());
  int x = 0;
  EXPECT_FALSE(a_->register_memory(&x, 0).is_ok());
}

TEST_F(NntiTest, OperationsOnDeadPeerFail) {
  std::vector<std::byte> remote(32);
  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());
  const MemRegion saved = region.value();
  b_.reset();
  std::vector<std::byte> local(8);
  EXPECT_EQ(a_->get("b", saved, 0, MutableByteView(local)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(a_->put_message("b", bytes_of("x")).code(),
            ErrorCode::kUnavailable);
}

TEST_F(NntiTest, FaultInjectorInterceptsOps) {
  int failures_left = 2;
  fabric_.set_fault_injector(
      [&failures_left](Op op, const std::string&, const std::string&) {
        if (op == Op::kGet && failures_left > 0) {
          --failures_left;
          return make_error(ErrorCode::kUnavailable, "injected");
        }
        return Status::ok();
      });
  std::vector<std::byte> remote(32);
  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());
  std::vector<std::byte> local(8);
  // Two injected failures, then success: the timeout-and-retry pattern.
  EXPECT_FALSE(a_->get("b", region.value(), 0, MutableByteView(local)).is_ok());
  EXPECT_FALSE(a_->get("b", region.value(), 0, MutableByteView(local)).is_ok());
  EXPECT_TRUE(a_->get("b", region.value(), 0, MutableByteView(local)).is_ok());
  fabric_.set_fault_injector(nullptr);
}

TEST_F(NntiTest, CrossThreadMessaging) {
  constexpr int kCount = 500;
  std::thread sender([&] {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::byte> msg(sizeof i);
      std::memcpy(msg.data(), &i, sizeof i);
      // The queue may momentarily fill; retry as the runtime would.
      while (a_->put_message("b", ByteView(msg)).code() ==
             ErrorCode::kResourceExhausted) {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::byte> out;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(b_->poll_message(&out, 5s).is_ok());
    int v = -1;
    std::memcpy(&v, out.data(), sizeof v);
    ASSERT_EQ(v, i);  // single sender: order preserved
  }
  sender.join();
}

TEST_F(NntiTest, ConcurrentOneSidedOpsOnOneRegion) {
  // Several "nodes" Get from and Put into disjoint slices of one registered
  // region concurrently; contents must end up exactly as written.
  std::vector<std::byte> remote(1024, std::byte{0});
  auto region = b_->register_memory(remote.data(), remote.size());
  ASSERT_TRUE(region.is_ok());
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<Nic>> nics;
  for (int t = 0; t < kThreads; ++t) {
    auto nic = fabric_.create_nic("peer" + std::to_string(t));
    ASSERT_TRUE(nic.is_ok());
    nics.push_back(nic.value());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> mine(256, std::byte{static_cast<unsigned char>(t + 1)});
      for (int iter = 0; iter < 50; ++iter) {
        ASSERT_TRUE(nics[static_cast<std::size_t>(t)]
                        ->put("b", ByteView(mine), region.value(),
                              static_cast<std::uint64_t>(t) * 256)
                        .is_ok());
        std::vector<std::byte> readback(256);
        ASSERT_TRUE(nics[static_cast<std::size_t>(t)]
                        ->get("b", region.value(),
                              static_cast<std::uint64_t>(t) * 256,
                              MutableByteView(readback))
                        .is_ok());
        ASSERT_EQ(readback, mine);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(remote[static_cast<std::size_t>(t) * 256],
              std::byte{static_cast<unsigned char>(t + 1)});
  }
}

TEST(RegistrationCacheTest, ReusesRegisteredBuffers) {
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  RegistrationCache cache(nic.get(), 1 << 20);
  auto a = cache.acquire(1000);
  ASSERT_TRUE(a.is_ok());
  const std::uint64_t key = a.value().region.key;
  cache.release(a.value());
  auto b = cache.acquire(1024);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b.value().region.key, key);  // same registration reused
  const auto s = cache.stats();
  EXPECT_EQ(s.registrations, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(nic->stats().registrations, 1u);
  cache.release(b.value());
}

TEST(RegistrationCacheTest, ReclaimsOverThreshold) {
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  RegistrationCache cache(nic.get(), 1024);
  auto a = cache.acquire(1024);
  auto b = cache.acquire(1024);  // drives held bytes to 2x threshold
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  cache.release(b.value());  // over threshold -> reclaimed
  EXPECT_GE(cache.stats().reclamations, 1u);
  EXPECT_GE(nic->stats().deregistrations, 1u);
  cache.release(a.value());
}

TEST(RegistrationCacheTest, BuffersAreRemotelyReadable) {
  Fabric fabric;
  auto server = fabric.create_nic("server").value();
  auto client = fabric.create_nic("client").value();
  RegistrationCache cache(server.get(), 1 << 20);
  auto buf = cache.acquire(256);
  ASSERT_TRUE(buf.is_ok());
  std::memcpy(buf.value().data, "rdma-data", 9);
  std::vector<std::byte> local(9);
  ASSERT_TRUE(client
                  ->get("server", buf.value().region, 0,
                        MutableByteView(local))
                  .is_ok());
  EXPECT_EQ(std::memcmp(local.data(), "rdma-data", 9), 0);
  cache.release(buf.value());
}

TEST(RegistrationCacheTest, SizeClasses) {
  EXPECT_EQ(RegistrationCache::class_for(1), 0u);
  EXPECT_EQ(RegistrationCache::class_for(256), 0u);
  EXPECT_EQ(RegistrationCache::class_for(257), 1u);
  EXPECT_EQ(RegistrationCache::class_capacity(2), 1024u);
}

TEST(RegistrationCacheTest, MruReuseWithinClass) {
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  RegistrationCache cache(nic.get(), 1 << 20);
  auto a = cache.acquire(256);
  auto b = cache.acquire(256);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  const std::uint64_t key_a = a.value().region.key;
  const std::uint64_t key_b = b.value().region.key;
  cache.release(a.value());
  cache.release(b.value());
  // b was released last: it is the warmest buffer and must come back first.
  auto c = cache.acquire(256);
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value().region.key, key_b);
  auto d = cache.acquire(256);
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().region.key, key_a);
  cache.release(c.value());
  cache.release(d.value());
}

TEST(RegistrationCacheTest, FillPastCapacityEvictsLeastRecentlyUsed) {
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  // Room for four 256-byte-class buffers.
  RegistrationCache cache(nic.get(), 1024);
  std::vector<RegisteredBuffer> bufs;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 4; ++i) {
    auto b = cache.acquire(256);
    ASSERT_TRUE(b.is_ok());
    keys.push_back(b.value().region.key);
    bufs.push_back(b.value());
  }
  for (RegisteredBuffer& b : bufs) cache.release(b);  // stamps 1..4

  // A 512-class acquire does not fit: the two oldest free buffers (the
  // first two released) are deregistered to make room.
  auto big = cache.acquire(512);
  ASSERT_TRUE(big.is_ok());
  const auto s = cache.stats();
  EXPECT_EQ(s.reclamations, 2u);
  EXPECT_EQ(nic->stats().deregistrations, 2u);
  EXPECT_EQ(s.bytes_held, 1024u);  // 2x256 free + 512 in use

  // The survivors are the most recently released pair, MRU first.
  auto x = cache.acquire(256);
  auto y = cache.acquire(256);
  ASSERT_TRUE(x.is_ok());
  ASSERT_TRUE(y.is_ok());
  EXPECT_EQ(x.value().region.key, keys[3]);
  EXPECT_EQ(y.value().region.key, keys[2]);
  cache.release(x.value());
  cache.release(y.value());
  cache.release(big.value());
}

TEST(RegistrationCacheTest, LruVictimChosenAcrossSizeClasses) {
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  RegistrationCache cache(nic.get(), 2600);
  auto small = cache.acquire(256);   // cap 256
  auto large = cache.acquire(2000);  // cap 2048
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  const std::uint64_t large_key = large.value().region.key;
  cache.release(small.value());  // stamp 1: globally least recently used
  cache.release(large.value());  // stamp 2

  // 512-class acquire (two classes below the large buffer, so it cannot
  // borrow it): held 2304 + 512 > 2600, so exactly one eviction is needed
  // -- and it must take the small buffer (older stamp), not the large one
  // (which would free more bytes but is warmer).
  auto mid = cache.acquire(512);
  ASSERT_TRUE(mid.is_ok());
  EXPECT_EQ(cache.stats().reclamations, 1u);
  auto back = cache.acquire(2000);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().region.key, large_key);  // survived eviction
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.release(mid.value());
  cache.release(back.value());
}

TEST(RegistrationCacheTest, NextClassUpServesStraddlingSizes) {
  // Sizes that alternate across a class boundary share one registration:
  // a request with its own class empty takes a free buffer one class up
  // instead of evicting it and registering a smaller one. Two classes up
  // is too far (the buffer would be under a quarter full).
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  RegistrationCache cache(nic.get(), 4096);  // room for one 4096 buffer
  auto big = cache.acquire(3000);            // class 4096
  ASSERT_TRUE(big.is_ok());
  const std::uint64_t key = big.value().region.key;
  cache.release(big.value());
  for (int i = 0; i < 3; ++i) {
    auto small = cache.acquire(2000);  // class 2048: borrows the 4096
    ASSERT_TRUE(small.is_ok());
    EXPECT_EQ(small.value().region.key, key);
    cache.release(small.value());
    auto again = cache.acquire(3000);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().region.key, key);
    cache.release(again.value());
  }
  EXPECT_EQ(cache.stats().registrations, 1u);
  EXPECT_EQ(cache.stats().reclamations, 0u);
  auto tiny = cache.acquire(1000);  // class 1024: too small to borrow
  ASSERT_TRUE(tiny.is_ok());
  EXPECT_NE(tiny.value().region.key, key);
  cache.release(tiny.value());
}

TEST(RegistrationCacheTest, HitMissCountersBalance) {
  Fabric fabric;
  auto nic = fabric.create_nic("n").value();
  RegistrationCache cache(nic.get(), 1 << 20);
  auto a = cache.acquire(256);  // miss
  ASSERT_TRUE(a.is_ok());
  cache.release(a.value());
  auto b = cache.acquire(256);  // hit
  ASSERT_TRUE(b.is_ok());
  auto c = cache.acquire(256);  // miss (only buffer is in use)
  ASSERT_TRUE(c.is_ok());
  auto d = cache.acquire(4096);  // miss (new class)
  ASSERT_TRUE(d.is_ok());
  const auto s = cache.stats();
  EXPECT_EQ(s.acquisitions, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits + s.misses, s.acquisitions);
  EXPECT_EQ(s.registrations, 3u);
  cache.release(b.value());
  cache.release(c.value());
  cache.release(d.value());
}

TEST(RegistrationCacheTest, ReRegisteredBufferAfterEvictionIsUsable) {
  Fabric fabric;
  auto server = fabric.create_nic("server").value();
  auto client = fabric.create_nic("client").value();
  RegistrationCache cache(server.get(), 512);
  auto a = cache.acquire(256);
  ASSERT_TRUE(a.is_ok());
  cache.release(a.value());
  // This acquire evicts the freed 256-class buffer to fit under threshold.
  auto big = cache.acquire(512);
  ASSERT_TRUE(big.is_ok());
  EXPECT_EQ(cache.stats().reclamations, 1u);
  EXPECT_EQ(server->stats().deregistrations, 1u);
  cache.release(big.value());

  // Acquiring the evicted class again registers fresh memory; the new
  // region must be fully usable for remote one-sided reads.
  auto b = cache.acquire(256);
  ASSERT_TRUE(b.is_ok());
  std::memcpy(b.value().data, "post-evict", 10);
  std::vector<std::byte> local(10);
  ASSERT_TRUE(
      client->get("server", b.value().region, 0, MutableByteView(local))
          .is_ok());
  EXPECT_EQ(std::memcmp(local.data(), "post-evict", 10), 0);
  cache.release(b.value());
}

TEST(RegistrationCacheTest, GlobalMetricsMirrorInstanceStats) {
  metrics::set_enabled(true);
  metrics::reset_all();
  {
    Fabric fabric;
    auto nic = fabric.create_nic("n").value();
    RegistrationCache cache(nic.get(), 1 << 20);
    auto a = cache.acquire(256);  // miss
    ASSERT_TRUE(a.is_ok());
    cache.release(a.value());
    auto b = cache.acquire(256);  // hit
    ASSERT_TRUE(b.is_ok());
    cache.release(b.value());
  }
  const auto snap = metrics::snapshot_all();
  EXPECT_EQ(snap.at("nnti.regcache.hits").counter, 1u);
  EXPECT_EQ(snap.at("nnti.regcache.misses").counter, 1u);
  metrics::set_enabled(false);
}

TEST(CostModelTest, DynamicRegistrationSlowerEverywhere) {
  const RdmaCostModel model(sim::titan());
  for (std::size_t bytes = 1 << 10; bytes <= 64u << 20; bytes <<= 1) {
    EXPECT_LT(model.bandwidth(bytes, true), model.bandwidth(bytes, false))
        << bytes;
  }
}

TEST(CostModelTest, Figure4ShapeGapShrinksWithSize) {
  // Paper Figure 4: the static/dynamic gap is large for small-mid messages
  // and the curves converge (while never crossing) at large sizes.
  const RdmaCostModel model(sim::titan());
  const double gap_small =
      model.bandwidth(64 << 10, false) / model.bandwidth(64 << 10, true);
  const double gap_large =
      model.bandwidth(64 << 20, false) / model.bandwidth(64 << 20, true);
  EXPECT_GT(gap_small, 2.0);   // several-x penalty at 64 KiB
  EXPECT_LT(gap_large, 1.35);  // near-convergence at 64 MiB
}

TEST(CostModelTest, StaticApproachesPeak) {
  const RdmaCostModel model(sim::titan());
  EXPECT_GT(model.bandwidth(256u << 20, false), 0.95 * model.peak_bandwidth());
}

}  // namespace
}  // namespace flexio::nnti
