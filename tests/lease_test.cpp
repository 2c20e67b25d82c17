// Lease lifetime tests for the zero-copy receive path (DESIGN.md "Lease
// rules"). Every transport hands a received frame up as a lease over its
// own memory -- an inproc queue entry, an shm pool slot, an rdma receive
// buffer -- and decode_data borrows each piece from that lease. A lease
// must keep its bytes valid on its own: past drop_link, the reader's
// close, and the Runtime's destruction, with the memory going back to its
// transport only when the last copy drops. The checks run on all three
// transports:
//  * a stashed early frame (a decoded DataMsg held past its link) and a
//    delivered PgBlock still read golden bytes after everything that
//    carried them is gone;
//  * a reader that keeps nothing holds no shm slot and no rdma receive
//    buffer after close (the pool and cache bytes_in_use gauges);
//  * an rdma link whose frames stay in one size class Gets into the same
//    registered buffer every time;
//  * a truncated data frame fails decode_data with a Status, and every
//    decoder given a mutated frame returns a Status or a value whose views
//    stay inside the frame (FLEXIO_TEST_SEED replays a mutation run).
// tier1, and a TSan target: leases drop on read-pool worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "core/wire.h"
#include "evpath/bus.h"
#include "serial/schema.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace flexio {
namespace {

using namespace std::chrono_literals;
using adios::Box;
using evpath::TransportKind;
using serial::DataType;

/// Metrics on for the test's lifetime (the lease gauges are registry
/// metrics); restored on destruction.
class MetricsOn {
 public:
  MetricsOn() : was_(metrics::enabled()) { metrics::set_enabled(true); }
  ~MetricsOn() { metrics::set_enabled(was_); }

 private:
  bool was_;
};

std::int64_t pool_in_use() {
  return metrics::gauge("shm.pool.bytes_in_use").value();
}
std::int64_t regcache_in_use() {
  return metrics::gauge("nnti.regcache.bytes_in_use").value();
}

/// Writers sit at {0, 0}; where the reader sits picks the transport.
evpath::Location reader_location(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInproc:
      return evpath::Location{0, 0};
    case TransportKind::kShm:
      return evpath::Location{0, 1};
    case TransportKind::kRdma:
      return evpath::Location{1, 0};
  }
  return evpath::Location{0, 0};
}

double golden(int step, std::size_t i) {
  return step * 1e6 + static_cast<double>(i);
}

std::vector<double> golden_values(int step, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = golden(step, i);
  return v;
}

/// True when `bytes` holds golden(step, 0 .. n).
bool is_golden(ByteView bytes, int step, std::size_t n) {
  if (bytes.size() != n * sizeof(double)) return false;
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0;
    std::memcpy(&v, bytes.data() + i * sizeof(double), sizeof v);
    if (v != golden(step, i)) return false;
  }
  return true;
}

// 4096 doubles = 32 KiB: over the shm inline threshold (pool path for async
// sends) and over the rdma eager threshold (rendezvous Get).
constexpr std::size_t kDoubles = 4096;

wire::DataMsg golden_msg(int step) {
  wire::DataMsg m;
  m.step = step;
  m.writer_rank = 0;
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("particles", DataType::kDouble,
                                      {kDoubles});
  piece.region = piece.meta.block;
  const std::vector<double> vals = golden_values(step, kDoubles);
  const ByteView bytes = as_bytes_view(std::span<const double>(vals));
  piece.payload.assign(bytes.begin(), bytes.end());
  m.pieces.push_back(std::move(piece));
  return m;
}

std::string transport_name(const ::testing::TestParamInfo<TransportKind>& info) {
  return std::string(evpath::transport_kind_name(info.param));
}

class LeaseTransportTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(LeaseTransportTest, StashedFrameOutlivesDropLinkAndBus) {
  MetricsOn on;
  const std::int64_t pool0 = pool_in_use();
  const std::int64_t reg0 = regcache_in_use();
  constexpr int kFrames = 3;
  std::vector<wire::DataMsg> stash;
  {
    evpath::MessageBus bus;
    evpath::LinkOptions opts;
    opts.timeout = 10s;
    auto tx = bus.create_endpoint("lease.tx", evpath::Location{0, 0}, opts);
    auto rx = bus.create_endpoint("lease.rx", reader_location(GetParam()), opts);
    ASSERT_TRUE(tx.is_ok());
    ASSERT_TRUE(rx.is_ok());
    for (int step = 0; step < kFrames; ++step) {
      ASSERT_TRUE(tx.value()
                      ->send("lease.rx", ByteView(wire::encode(golden_msg(step))),
                             evpath::SendMode::kAsync)
                      .is_ok());
    }
    ASSERT_EQ(tx.value()->transport_to("lease.rx").value(), GetParam());
    for (int step = 0; step < kFrames; ++step) {
      evpath::Message msg;
      ASSERT_TRUE(rx.value()->recv(&msg, 10s).is_ok());
      auto data = wire::decode_data(msg.payload);
      ASSERT_TRUE(data.is_ok()) << data.status().to_string();
      stash.push_back(std::move(data).value());
    }
    // The stash holds the transport memory itself, not a copy of it.
    if (GetParam() == TransportKind::kShm) {
      EXPECT_GT(pool_in_use(), pool0);
    }
    if (GetParam() == TransportKind::kRdma) {
      EXPECT_GT(regcache_in_use(), reg0);
    }
    tx.value()->drop_link("lease.rx");
  }  // endpoints, links, channel, NICs and the bus are gone

  ASSERT_EQ(stash.size(), static_cast<std::size_t>(kFrames));
  for (int step = 0; step < kFrames; ++step) {
    ASSERT_EQ(stash[step].pieces.size(), 1u);
    EXPECT_TRUE(is_golden(stash[step].pieces[0].bytes(), step, kDoubles))
        << "step " << step;
  }
  stash.clear();
  EXPECT_EQ(pool_in_use(), pool0);
  EXPECT_EQ(regcache_in_use(), reg0);
}

xml::MethodConfig stream_method(const std::string& params) {
  xml::MethodConfig m;
  m.method = "FLEXIO";
  m.timeout_ms = 20000;
  FLEXIO_CHECK(xml::apply_method_params(params, &m).is_ok());
  return m;
}

/// One writer, one reader on the transport under test, `steps` steps of a
/// process-group block (golden particles) plus a global array the reader
/// places with copy_region. Async writes, so shm frames ride the buffer
/// pool. With `keep`, the reader copies every step's PgBlock into *kept;
/// without, it checks that close leaves no shm slot or rdma receive
/// buffer leased.
void run_stream(TransportKind kind, const std::string& stream, int steps,
                bool keep, std::vector<PgBlock>* kept) {
  const std::int64_t pool0 = pool_in_use();
  const std::int64_t reg0 = regcache_in_use();
  const std::string params = "caching=all; async=yes; read_threads=2";
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  constexpr std::uint64_t kField = 2048;
  std::atomic<bool> writer_closed{false};
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = stream_method(params);
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok()) << w.status().to_string();
    for (int s = 0; s < steps; ++s) {
      const std::vector<double> particles = golden_values(s, kDoubles);
      const std::vector<double> field = golden_values(s + 100, kField);
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::local_array_var("particles",
                                                     DataType::kDouble,
                                                     {kDoubles}),
                              as_bytes_view(std::span<const double>(particles)))
                      .is_ok());
      ASSERT_TRUE(
          w.value()
              ->write(adios::global_array_var("field", DataType::kDouble,
                                              {kField}, Box{{0}, {kField}}),
                      as_bytes_view(std::span<const double>(field)))
              .is_ok());
      const Status st = w.value()->end_step();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    }
    ASSERT_TRUE(w.value()->close().is_ok());
    writer_closed.store(true);
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&viz, 0, reader_location(kind)};
    spec.method = stream_method(params);
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<double> field(kField);
    int steps_seen = 0;
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
      ASSERT_TRUE(r.value()
                      ->schedule_read("field", Box{{0}, {kField}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(field))))
                      .is_ok());
      const Status st = r.value()->perform_reads();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      EXPECT_TRUE(is_golden(as_bytes_view(std::span<const double>(field)),
                            step.value() + 100, kField));
      ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
      EXPECT_TRUE(is_golden(ByteView(r.value()->pg_blocks()[0].payload),
                            step.value(), kDoubles));
      if (keep) kept->push_back(r.value()->pg_blocks()[0]);
      ASSERT_TRUE(r.value()->end_step().is_ok());
      ++steps_seen;
    }
    EXPECT_EQ(steps_seen, steps);
    ASSERT_TRUE(r.value()->close().is_ok());
    if (!keep) {
      // Nothing kept: close let go of the last step's blocks and any
      // stashed frame, so no slot or receive buffer is leased any more.
      // (The writer's close waits for its rendezvous acks, so after it the
      // gauges count the reader's leases alone.)
      const auto deadline = std::chrono::steady_clock::now() + 20s;
      while (!writer_closed.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      EXPECT_EQ(pool_in_use(), pool0);
      EXPECT_EQ(regcache_in_use(), reg0);
    }
  });
  writer.join();
  reader.join();
}

TEST_P(LeaseTransportTest, PgBlockOutlivesReaderCloseAndRuntime) {
  MetricsOn on;
  const std::int64_t pool0 = pool_in_use();
  const std::int64_t reg0 = regcache_in_use();
  constexpr int kSteps = 3;
  std::vector<PgBlock> kept;
  run_stream(GetParam(), "lease_keep", kSteps, /*keep=*/true, &kept);
  // The Runtime, its bus, every link and the reader are gone; the kept
  // blocks still read their own step's bytes.
  ASSERT_EQ(kept.size(), static_cast<std::size_t>(kSteps));
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_EQ(kept[s].writer_rank, 0);
    EXPECT_TRUE(is_golden(ByteView(kept[s].payload), s, kDoubles)) << s;
  }
  kept.clear();
  EXPECT_EQ(pool_in_use(), pool0);
  EXPECT_EQ(regcache_in_use(), reg0);
}

TEST_P(LeaseTransportTest, CloseReleasesEveryLease) {
  MetricsOn on;
  metrics::Counter& avoided =
      metrics::counter("flexio.wire.recv_copies_avoided");
  const std::uint64_t avoided0 = avoided.value();
  constexpr int kSteps = 4;
  run_stream(GetParam(), "lease_release", kSteps, /*keep=*/false, nullptr);
  // Every data piece received (particles + field, each step) was decoded
  // as a view into its frame, not copied.
  EXPECT_EQ(avoided.value() - avoided0, 2u * kSteps);
}

INSTANTIATE_TEST_SUITE_P(Transports, LeaseTransportTest,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kShm,
                                           TransportKind::kRdma),
                         transport_name);

TEST(LeaseRdmaTest, SteadySizeClassReusesReceiveBuffer) {
  // Frames of one size class: the receiver Gets every frame into the same
  // registered buffer. Only the first frame registers memory (one buffer
  // on each side); every later acquisition on both sides is a cache hit.
  MetricsOn on;
  metrics::Counter& regs = metrics::counter("nnti.registrations");
  metrics::Counter& hits = metrics::counter("nnti.regcache.hits");
  const std::uint64_t regs0 = regs.value();
  const std::uint64_t hits0 = hits.value();
  constexpr int kFrames = 5;
  evpath::MessageBus bus;
  auto tx = bus.create_endpoint("rdma.tx", evpath::Location{0, 0});
  auto rx = bus.create_endpoint("rdma.rx", evpath::Location{1, 0});
  ASSERT_TRUE(tx.is_ok());
  ASSERT_TRUE(rx.is_ok());
  std::uint64_t regs_after_first = 0;
  for (int step = 0; step < kFrames; ++step) {
    // Sync: the sender's buffer is back in its cache before the next send.
    std::thread sender([&] {
      ASSERT_TRUE(tx.value()
                      ->send("rdma.rx", ByteView(wire::encode(golden_msg(step))),
                             evpath::SendMode::kSync)
                      .is_ok());
    });
    evpath::Message msg;
    ASSERT_TRUE(rx.value()->recv(&msg, 10s).is_ok());
    auto data = wire::decode_data(msg.payload);
    ASSERT_TRUE(data.is_ok());
    EXPECT_TRUE(is_golden(data.value().pieces[0].bytes(), step, kDoubles));
    sender.join();
    if (step == 0) regs_after_first = regs.value();
  }  // each iteration drops its lease before the next Get
  EXPECT_EQ(regs_after_first - regs0, 2u);
  EXPECT_EQ(regs.value(), regs_after_first);
  EXPECT_EQ(hits.value() - hits0, 2u * (kFrames - 1));
}

// ------------------------------------------------------ decode safety --

/// Every piece view of `m` lies inside `frame`, and shares its owner.
void expect_views_inside(const wire::DataMsg& m, const ByteLease& frame) {
  for (const wire::DataPiece& p : m.pieces) {
    const ByteView b = p.bytes();
    if (b.empty()) continue;
    EXPECT_GE(b.data(), frame.data());
    EXPECT_LE(b.data() + b.size(), frame.data() + frame.size());
    EXPECT_EQ(p.owner, frame.owner());
  }
}

TEST(LeaseDecodeTest, TruncatedFrameFailsWithStatus) {
  wire::DataMsg m = golden_msg(3);
  m.pieces.push_back(golden_msg(4).pieces[0]);
  const std::vector<std::byte> frame = wire::encode(m);
  {
    const ByteLease whole{std::vector<std::byte>(frame)};
    auto ok = wire::decode_data(whole);
    ASSERT_TRUE(ok.is_ok());
    expect_views_inside(ok.value(), whole);
  }
  // Every proper prefix misses bytes a piece needs; an exactly sized heap
  // copy lets ASan catch any read past the end.
  for (std::size_t len = 0; len < frame.size(); len += len < 64 ? 1 : 97) {
    const ByteLease cut{std::vector<std::byte>(frame.begin(),
                                               frame.begin() + len)};
    EXPECT_FALSE(wire::decode_data(cut).is_ok()) << "prefix " << len;
  }
}

/// Seed for the mutation test; set FLEXIO_TEST_SEED to replay a failure.
std::uint64_t test_seed() {
  if (const char* env = std::getenv("FLEXIO_TEST_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x1ea5e;
}

/// One decoder under mutation: a valid frame, and a decode that returns
/// whether it accepted the (possibly mutated) frame, checking the views of
/// an accepted value.
struct DecoderCase {
  const char* name;
  std::vector<std::byte> frame;
  std::function<bool(const ByteLease&)> decode;
};

/// A decoder whose value owns all its bytes: acceptance is all to check.
template <typename T>
std::function<bool(const ByteLease&)> owning(StatusOr<T> (*decode)(ByteView)) {
  return [decode](const ByteLease& f) { return decode(f.view()).is_ok(); };
}

std::vector<std::byte> flatten(const serial::IovMessage& iov) {
  std::vector<std::byte> out;
  for (const ByteView frag : iov.frags) {
    out.insert(out.end(), frag.begin(), frag.end());
  }
  return out;
}

std::vector<DecoderCase> decoder_cases() {
  std::vector<DecoderCase> cases;
  const auto data_case = [](const ByteLease& f) {
    auto d = wire::decode_data(f);
    if (d.is_ok()) expect_views_inside(d.value(), f);
    return d.is_ok();
  };
  const wire::TraceContext ctx{wire::stream_id_hash("s"), 5, 9, 1234};

  cases.push_back({"OpenRequest", wire::encode(wire::OpenRequest{"viz", 4}),
                   owning(wire::decode_open_request)});
  wire::OpenReply reply;
  reply.writer_program = "sim";
  reply.writer_size = 16;
  reply.caching = 2;
  cases.push_back({"OpenReply", wire::encode(reply),
                   owning(wire::decode_open_reply)});

  wire::StepAnnounce ann;
  ann.step = 5;
  ann.trace = ctx;
  ann.membership_epoch = 3;
  wire::BlockInfo block;
  block.writer_rank = 1;
  block.meta = adios::global_array_var("T", DataType::kDouble, {16},
                                       Box{{8}, {8}});
  ann.blocks.push_back(block);
  wire::BlockInfo scalar;
  scalar.meta = adios::scalar_var("dt", DataType::kDouble);
  scalar.scalar_payload.resize(sizeof(double), std::byte{0x3f});
  ann.blocks.push_back(scalar);
  cases.push_back({"StepAnnounce", wire::encode(ann),
                   owning(wire::decode_step_announce)});

  wire::ReadRequest req;
  req.step = 5;
  req.trace = ctx;
  req.membership_epoch = 3;
  req.selections.push_back(wire::SelectionInfo{1, "T", Box{{2}, {4}}});
  req.pg_requests.push_back(wire::PgRequestInfo{0, 1});
  req.plugins.push_back(wire::PluginInstall{"T", "x * 2", true});
  cases.push_back({"ReadRequest", wire::encode(req),
                   owning(wire::decode_read_request)});

  wire::DataMsg data = golden_msg(5);
  data.pieces.push_back(golden_msg(6).pieces[0]);
  data.trace = ctx;
  // Small payloads keep the header bytes a large share of the frame.
  for (wire::DataPiece& p : data.pieces) p.payload.resize(24);
  cases.push_back({"Data", wire::encode(data), data_case});
  // The iov path with a borrowed payload of odd length, so the second
  // piece's padding is non-empty.
  const std::vector<std::byte> odd(13, std::byte{0x5a});
  data.pieces[0].payload.clear();
  data.pieces[0].borrowed = ByteView(odd);
  cases.push_back({"DataIov", flatten(wire::encode_data_iov(data)),
                   data_case});

  cases.push_back({"Close", wire::encode_close(7),
                   owning(wire::decode_close)});
  wire::MonitorReport report;
  report.steps = 5;
  report.bytes_sent = 1000;
  report.pack_ns = 111;
  cases.push_back({"MonitorReport", wire::encode(report),
                   owning(wire::decode_monitor_report)});

  wire::MembershipUpdate upd;
  upd.stream = "s";
  upd.epoch = 7;
  upd.members.push_back(wire::MemberInfo{0, "viz.0", 1, 0, 0});
  upd.members.push_back(wire::MemberInfo{2, "viz.2", 2, 2, 6});
  cases.push_back({"MembershipUpdate", wire::encode(upd),
                   owning(wire::decode_membership_update)});

  wire::Heartbeat hb;
  hb.stream = "s";
  hb.rank = 3;
  hb.incarnation = 2;
  hb.send_ns = 42;
  hb.program = "viz";
  hb.stats = "{\"schema\":\"flexio-stats-v1\",\"seq\":1,\"t_ns\":42}";
  cases.push_back({"Heartbeat", wire::encode(hb),
                   owning(wire::decode_heartbeat)});

  std::vector<std::byte> muxed = wire::encode_mux_prefix(ctx.stream_id);
  const std::vector<std::byte> inner = wire::encode_close(7);
  muxed.insert(muxed.end(), inner.begin(), inner.end());
  cases.push_back({"MuxPrefix", muxed, [](const ByteLease& f) {
                     auto m = wire::decode_mux(f.view());
                     if (m.is_ok()) {
                       const ByteView in = m.value().inner;
                       EXPECT_GE(in.data(), f.data());
                       EXPECT_EQ(in.data() + in.size(), f.data() + f.size());
                       EXPECT_NE(m.value().stream_id, 0u);
                     }
                     return m.is_ok();
                   }});

  // A shared_ptr keeps the schema alive for the Record decoder's closure.
  const auto schema = std::make_shared<serial::Schema>(
      "sample", std::vector<serial::FieldDesc>{
                    {"t", DataType::kDouble, false},
                    {"id", DataType::kInt64, false},
                    {"tag", DataType::kString, false},
                    {"xs", DataType::kDouble, true},
                    {"ns", DataType::kInt32, true},
                    {"raw", DataType::kBytes, true}});
  serial::BufWriter schema_raw;
  schema->encode(&schema_raw);
  cases.push_back({"Schema", schema_raw.take(), [](const ByteLease& f) {
                     serial::BufReader r{f.view()};
                     return serial::Schema::decode(&r).is_ok();
                   }});
  serial::Record rec(schema.get());
  EXPECT_TRUE(rec.set("t", 1.5).is_ok());
  EXPECT_TRUE(rec.set("id", std::int64_t{-7}).is_ok());
  EXPECT_TRUE(rec.set("tag", std::string("abc")).is_ok());
  EXPECT_TRUE(rec.set("xs", std::vector<double>{1, 2, 3}).is_ok());
  EXPECT_TRUE(rec.set("ns", std::vector<std::int64_t>{4, -5}).is_ok());
  EXPECT_TRUE(
      rec.set("raw", std::vector<std::byte>(5, std::byte{1})).is_ok());
  serial::BufWriter rec_raw;
  rec.encode(&rec_raw);
  cases.push_back({"Record", rec_raw.take(), [schema](const ByteLease& f) {
                     serial::BufReader r{f.view()};
                     return serial::Record::decode(*schema, &r).is_ok();
                   }});
  return cases;
}

TEST(LeaseDecodeTest, MutatedFrameFailsOrStaysInsideTheFrame) {
  // Every decoder, fed its valid frame with 1-4 bytes overwritten (and a
  // quarter of the time also cut short or extended), must return a Status
  // or a value whose views stay inside the frame: never throw, and never
  // read outside the exactly sized heap copy (ASan).
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE("FLEXIO_TEST_SEED=" + std::to_string(seed));
  for (const DecoderCase& c : decoder_cases()) {
    SCOPED_TRACE(c.name);
    {
      const ByteLease valid{std::vector<std::byte>(c.frame)};
      bool ok = false;
      EXPECT_NO_THROW(ok = c.decode(valid));
      ASSERT_TRUE(ok) << "the unmutated frame must decode";
    }
    Rng rng(seed);
    int accepted = 0;
    for (int iter = 0; iter < 10000; ++iter) {
      std::vector<std::byte> bad = c.frame;
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int f = 0; f < flips; ++f) {
        bad[rng.next_below(bad.size())] =
            static_cast<std::byte>(rng.next_below(256));
      }
      if (rng.next_below(4) == 0) {
        if (rng.next_below(2) == 0) {
          bad.resize(rng.next_below(bad.size()));
        } else {
          for (std::uint64_t extra = 1 + rng.next_below(8); extra > 0;
               --extra) {
            bad.push_back(static_cast<std::byte>(rng.next_below(256)));
          }
        }
      }
      const ByteLease lease{std::vector<std::byte>(bad.begin(), bad.end())};
      bool ok = false;
      EXPECT_NO_THROW(ok = c.decode(lease)) << "iteration " << iter;
      accepted += ok ? 1 : 0;
    }
    // Some mutations (a flipped payload or name byte) leave a valid frame,
    // so the checks on accepted values run too.
    EXPECT_GT(accepted, 0);
  }
}

}  // namespace
}  // namespace flexio
