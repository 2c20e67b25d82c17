// Tests for the EVPath-like layer: links over all three transports, the
// endpoint/bus connection management, and the directory server.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "evpath/bus.h"
#include "evpath/directory.h"
#include "evpath/link.h"

namespace flexio::evpath {
namespace {

using namespace std::chrono_literals;

ByteView bytes_of(const std::string& s) {
  return ByteView(reinterpret_cast<const std::byte*>(s.data()), s.size());
}

std::string string_of(ByteView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

// ------------------------------------------------------------ link tests --

class LinkParamTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void make_pair_for(TransportKind kind) {
    LinkOptions opts;
    opts.timeout = 2s;
    opts.rdma_eager_threshold = 128;
    switch (kind) {
      case TransportKind::kInproc:
        std::tie(send_, recv_) = make_inproc_link("peer", opts);
        break;
      case TransportKind::kShm:
        std::tie(send_, recv_) = make_shm_link("peer", opts);
        break;
      case TransportKind::kRdma: {
        auto tx = fabric_.create_nic("tx");
        auto rx = fabric_.create_nic("rx");
        ASSERT_TRUE(tx.is_ok());
        ASSERT_TRUE(rx.is_ok());
        std::tie(send_, recv_) =
            make_rdma_link("peer", opts, tx.value(), rx.value());
        break;
      }
    }
  }

  Message must_receive() {
    Message msg;
    bool got = false;
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!got) {
      EXPECT_TRUE(recv_->try_receive(&msg, &got).is_ok());
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "receive timed out";
        break;
      }
    }
    return msg;
  }

  nnti::Fabric fabric_;
  std::unique_ptr<SendLink> send_;
  std::unique_ptr<RecvLink> recv_;
};

TEST_P(LinkParamTest, SmallMessageRoundTrip) {
  make_pair_for(GetParam());
  ASSERT_TRUE(send_->send(bytes_of("hello"), SendMode::kAsync).is_ok());
  const Message msg = must_receive();
  EXPECT_EQ(string_of(msg.payload), "hello");
  EXPECT_EQ(msg.from, "peer");
  EXPECT_FALSE(msg.eos);
  EXPECT_EQ(send_->kind(), GetParam());
  EXPECT_EQ(recv_->kind(), GetParam());
}

TEST_P(LinkParamTest, LargeMessageRoundTrip) {
  make_pair_for(GetParam());
  std::string big(100000, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = char('A' + i % 26);
  ASSERT_TRUE(send_->send(bytes_of(big), SendMode::kAsync).is_ok());
  const Message msg = must_receive();
  EXPECT_EQ(string_of(msg.payload), big);
}

TEST_P(LinkParamTest, OrderPreservedAcrossSizes) {
  make_pair_for(GetParam());
  ASSERT_TRUE(send_->send(bytes_of("first-small"), SendMode::kAsync).is_ok());
  const std::string big(50000, 'B');
  ASSERT_TRUE(send_->send(bytes_of(big), SendMode::kAsync).is_ok());
  ASSERT_TRUE(send_->send(bytes_of("last-small"), SendMode::kAsync).is_ok());
  EXPECT_EQ(string_of(must_receive().payload), "first-small");
  EXPECT_EQ(string_of(must_receive().payload), big);
  EXPECT_EQ(string_of(must_receive().payload), "last-small");
}

TEST_P(LinkParamTest, EosDeliveredOnce) {
  make_pair_for(GetParam());
  ASSERT_TRUE(send_->send(bytes_of("data"), SendMode::kAsync).is_ok());
  ASSERT_TRUE(send_->close().is_ok());
  EXPECT_FALSE(must_receive().eos);
  EXPECT_TRUE(must_receive().eos);
  Message msg;
  bool got = true;
  ASSERT_TRUE(recv_->try_receive(&msg, &got).is_ok());
  EXPECT_FALSE(got);
}

TEST_P(LinkParamTest, StatsCountMessagesAndBytes) {
  make_pair_for(GetParam());
  ASSERT_TRUE(send_->send(bytes_of("12345"), SendMode::kAsync).is_ok());
  const LinkStats s = send_->stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.bytes, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, LinkParamTest,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kShm,
                                           TransportKind::kRdma),
                         [](const auto& suite_info) {
                           return std::string(
                               transport_kind_name(suite_info.param));
                         });

TEST(RdmaLinkTest, EagerThresholdBoundary) {
  // Messages at the threshold ride the message queue; one byte over uses
  // the rendezvous protocol. Both must round-trip identically.
  nnti::Fabric fabric;
  LinkOptions opts;
  opts.timeout = 2s;
  opts.rdma_eager_threshold = 256;
  auto tx = fabric.create_nic("btx");
  auto rx = fabric.create_nic("brx");
  ASSERT_TRUE(tx.is_ok());
  ASSERT_TRUE(rx.is_ok());
  auto [send, recv] = make_rdma_link("peer", opts, tx.value(), rx.value());
  const std::string at_threshold(256, 'a');
  const std::string over_threshold(257, 'b');
  ASSERT_TRUE(send->send(bytes_of(at_threshold), SendMode::kAsync).is_ok());
  ASSERT_TRUE(send->send(bytes_of(over_threshold), SendMode::kAsync).is_ok());
  Message msg;
  bool got = false;
  while (!got) ASSERT_TRUE(recv->try_receive(&msg, &got).is_ok());
  EXPECT_EQ(string_of(msg.payload), at_threshold);
  // The eager message needs no Get; the rendezvous one does.
  EXPECT_EQ(rx.value()->stats().gets, 0u);
  got = false;
  while (!got) ASSERT_TRUE(recv->try_receive(&msg, &got).is_ok());
  EXPECT_EQ(string_of(msg.payload), over_threshold);
  EXPECT_EQ(rx.value()->stats().gets, 1u);
}

TEST(ShmLinkTest, SyncSendWaitsForDequeue) {
  LinkOptions opts;
  opts.timeout = 2s;
  auto [send, recv] = make_shm_link("peer", opts);
  const std::string big(50000, 'x');
  std::atomic<bool> polling{false};
  std::thread consumer([&recv = recv, &polling] {
    std::this_thread::sleep_for(20ms);
    polling.store(true);
    Message msg;
    bool got = false;
    while (!got) {
      ASSERT_TRUE(recv->try_receive(&msg, &got).is_ok());
      std::this_thread::yield();
    }
    EXPECT_EQ(msg.payload.size(), 50000u);
  });
  EXPECT_TRUE(send->send(bytes_of(big), SendMode::kSync).is_ok());
  EXPECT_TRUE(polling.load());  // returned only after the consumer's dequeue
  consumer.join();
}

TEST(RdmaLinkTest, SyncSendWaitsForReceiverFetch) {
  nnti::Fabric fabric;
  LinkOptions opts;
  opts.timeout = 2s;
  opts.rdma_eager_threshold = 64;
  auto tx = fabric.create_nic("tx");
  auto rx = fabric.create_nic("rx");
  ASSERT_TRUE(tx.is_ok());
  ASSERT_TRUE(rx.is_ok());
  auto [send, recv] = make_rdma_link("peer", opts, tx.value(), rx.value());

  const std::string big(10000, 'z');
  std::thread consumer([&recv = recv] {
    Message msg;
    bool got = false;
    while (!got) {
      ASSERT_TRUE(recv->try_receive(&msg, &got).is_ok());
      std::this_thread::yield();
    }
    EXPECT_EQ(msg.payload.size(), 10000u);
  });
  EXPECT_TRUE(send->send(bytes_of(big), SendMode::kSync).is_ok());
  consumer.join();
}

TEST(RdmaLinkTest, SyncSendTimesOutWithoutReceiver) {
  nnti::Fabric fabric;
  LinkOptions opts;
  opts.timeout = 20ms;
  opts.rdma_eager_threshold = 64;
  auto tx = fabric.create_nic("tx");
  auto rx = fabric.create_nic("rx");
  ASSERT_TRUE(tx.is_ok());
  ASSERT_TRUE(rx.is_ok());
  auto [send, recv] = make_rdma_link("peer", opts, tx.value(), rx.value());
  const std::string big(10000, 'z');
  EXPECT_EQ(send->send(bytes_of(big), SendMode::kSync).code(),
            ErrorCode::kTimeout);
}

TEST(RdmaLinkTest, RetriesTransientFaults) {
  nnti::Fabric fabric;
  LinkOptions opts;
  opts.timeout = 2s;
  opts.max_retries = 3;
  auto tx = fabric.create_nic("tx");
  auto rx = fabric.create_nic("rx");
  ASSERT_TRUE(tx.is_ok());
  ASSERT_TRUE(rx.is_ok());
  int failures = 2;
  fabric.set_fault_injector([&failures](nnti::Op op, const std::string&,
                                        const std::string&) {
    if (op == nnti::Op::kPutMessage && failures > 0) {
      --failures;
      return make_error(ErrorCode::kUnavailable, "injected flake");
    }
    return Status::ok();
  });
  auto [send, recv] = make_rdma_link("peer", opts, tx.value(), rx.value());
  ASSERT_TRUE(send->send(bytes_of("persist"), SendMode::kAsync).is_ok());
  EXPECT_EQ(send->stats().retries, 2u);
  Message msg;
  bool got = false;
  while (!got) ASSERT_TRUE(recv->try_receive(&msg, &got).is_ok());
  EXPECT_EQ(string_of(msg.payload), "persist");
}

// -------------------------------------------------------- endpoint tests --

TEST(BusTest, TransportSelectedByPlacement) {
  MessageBus bus;
  auto sim0 = bus.create_endpoint("sim0", Location{0, 0});
  auto helper = bus.create_endpoint("helper0", Location{0, 1});
  auto stager = bus.create_endpoint("stager0", Location{5, 0});
  auto inline0 = bus.create_endpoint("inline0", Location{0, 0});
  ASSERT_TRUE(sim0.is_ok());
  ASSERT_TRUE(helper.is_ok());
  ASSERT_TRUE(stager.is_ok());
  ASSERT_TRUE(inline0.is_ok());

  ASSERT_TRUE(sim0.value()->send("helper0", bytes_of("a")).is_ok());
  ASSERT_TRUE(sim0.value()->send("stager0", bytes_of("b")).is_ok());
  ASSERT_TRUE(sim0.value()->send("inline0", bytes_of("c")).is_ok());

  EXPECT_EQ(sim0.value()->transport_to("helper0").value(), TransportKind::kShm);
  EXPECT_EQ(sim0.value()->transport_to("stager0").value(),
            TransportKind::kRdma);
  EXPECT_EQ(sim0.value()->transport_to("inline0").value(),
            TransportKind::kInproc);
}

TEST(BusTest, RecvMultiplexesPeers) {
  MessageBus bus;
  auto a = bus.create_endpoint("a", Location{0, 0}).value();
  auto b = bus.create_endpoint("b", Location{0, 1}).value();
  auto c = bus.create_endpoint("c", Location{1, 0}).value();
  ASSERT_TRUE(b->send("a", bytes_of("from-b")).is_ok());
  ASSERT_TRUE(c->send("a", bytes_of("from-c")).is_ok());

  std::map<std::string, std::string> seen;
  for (int i = 0; i < 2; ++i) {
    Message msg;
    ASSERT_TRUE(a->recv(&msg, 2s).is_ok());
    seen[msg.from] = string_of(msg.payload);
  }
  EXPECT_EQ(seen["b"], "from-b");
  EXPECT_EQ(seen["c"], "from-c");
}

TEST(BusTest, RecvFromFiltersPeer) {
  MessageBus bus;
  auto a = bus.create_endpoint("a", Location{0, 0}).value();
  auto b = bus.create_endpoint("b", Location{0, 1}).value();
  auto c = bus.create_endpoint("c", Location{0, 2}).value();
  ASSERT_TRUE(b->send("a", bytes_of("from-b")).is_ok());
  ASSERT_TRUE(c->send("a", bytes_of("from-c")).is_ok());
  Message msg;
  ASSERT_TRUE(a->recv_from("c", &msg, 2s).is_ok());
  EXPECT_EQ(msg.from, "c");
  ASSERT_TRUE(a->recv_from("b", &msg, 2s).is_ok());
  EXPECT_EQ(msg.from, "b");
}

TEST(BusTest, SendToUnknownEndpointFails) {
  MessageBus bus;
  auto a = bus.create_endpoint("a", Location{0, 0}).value();
  EXPECT_EQ(a->send("ghost", bytes_of("x")).code(), ErrorCode::kNotFound);
}

TEST(BusTest, DuplicateEndpointNameRejected) {
  MessageBus bus;
  auto a = bus.create_endpoint("a", Location{0, 0}).value();
  EXPECT_EQ(bus.create_endpoint("a", Location{1, 0}).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(BusTest, RecvTimesOutQuietly) {
  MessageBus bus;
  auto a = bus.create_endpoint("a", Location{0, 0}).value();
  Message msg;
  EXPECT_EQ(a->recv(&msg, 10ms).code(), ErrorCode::kTimeout);
}

TEST(BusTest, EosThenLinkRemoved) {
  MessageBus bus;
  auto a = bus.create_endpoint("a", Location{0, 0}).value();
  auto b = bus.create_endpoint("b", Location{0, 1}).value();
  ASSERT_TRUE(b->send("a", bytes_of("payload")).is_ok());
  ASSERT_TRUE(b->close_to("a").is_ok());
  Message msg;
  ASSERT_TRUE(a->recv(&msg, 2s).is_ok());
  EXPECT_FALSE(msg.eos);
  ASSERT_TRUE(a->recv(&msg, 2s).is_ok());
  EXPECT_TRUE(msg.eos);
  EXPECT_EQ(msg.from, "b");
  EXPECT_EQ(a->recv(&msg, 10ms).code(), ErrorCode::kTimeout);
}

TEST(BusTest, PipelineAcrossNodesUnderLoad) {
  MessageBus bus;
  auto writer = bus.create_endpoint("w", Location{0, 0}).value();
  auto reader = bus.create_endpoint("r", Location{1, 0}).value();
  constexpr int kCount = 300;
  std::thread producer([&] {
    std::vector<std::byte> msg;
    for (int i = 0; i < kCount; ++i) {
      msg.resize(128 + static_cast<std::size_t>(i) * 37 % 20000);
      std::memcpy(msg.data(), &i, sizeof i);
      ASSERT_TRUE(writer->send("r", ByteView(msg)).is_ok());
    }
    ASSERT_TRUE(writer->close_to("r").is_ok());
  });
  int received = 0;
  for (;;) {
    Message msg;
    ASSERT_TRUE(reader->recv(&msg, 10s).is_ok());
    if (msg.eos) break;
    int seq = -1;
    std::memcpy(&seq, msg.payload.data(), sizeof seq);
    ASSERT_EQ(seq, received);
    ASSERT_EQ(msg.payload.size(),
              128 + static_cast<std::size_t>(received) * 37 % 20000);
    ++received;
  }
  EXPECT_EQ(received, kCount);
  producer.join();
}

// ------------------------------------------------------- directory tests --

TEST(DirectoryTest, RegisterLookupUnregister) {
  DirectoryServer dir;
  ASSERT_TRUE(dir.register_stream("particles.bp", "sim:coord").is_ok());
  auto contact = dir.lookup("particles.bp", 10ms);
  ASSERT_TRUE(contact.is_ok());
  EXPECT_EQ(contact.value(), "sim:coord");
  ASSERT_TRUE(dir.unregister_stream("particles.bp").is_ok());
  EXPECT_EQ(dir.lookup("particles.bp", 5ms).status().code(),
            ErrorCode::kNotFound);
}

TEST(DirectoryTest, DuplicateRegistrationRejected) {
  DirectoryServer dir;
  ASSERT_TRUE(dir.register_stream("s", "a").is_ok());
  EXPECT_EQ(dir.register_stream("s", "b").code(), ErrorCode::kAlreadyExists);
}

TEST(DirectoryTest, UnregisterUnknownFails) {
  DirectoryServer dir;
  EXPECT_EQ(dir.unregister_stream("nope").code(), ErrorCode::kNotFound);
}

TEST(DirectoryTest, LookupWaitsForLateWriter) {
  DirectoryServer dir;
  std::thread writer([&] {
    // Register only once the reader is observably blocked inside lookup();
    // a fixed sleep races with the reader on loaded single-core machines.
    while (dir.stats().lookup_waits == 0) std::this_thread::yield();
    ASSERT_TRUE(dir.register_stream("late", "writer:coord").is_ok());
  });
  auto contact = dir.lookup("late", 10s);  // reader arrives first
  ASSERT_TRUE(contact.is_ok());
  EXPECT_EQ(contact.value(), "writer:coord");
  EXPECT_GE(dir.stats().lookup_waits, 1u);
  writer.join();
}

TEST(DirectoryTest, StatsShowDiscoveryOnlyRole) {
  DirectoryServer dir;
  ASSERT_TRUE(dir.register_stream("s", "c").is_ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dir.lookup("s", 10ms).is_ok());
  }
  const DirectoryStats s = dir.stats();
  EXPECT_EQ(s.registrations, 1u);
  EXPECT_EQ(s.lookups, 5u);
}

}  // namespace
}  // namespace flexio::evpath
