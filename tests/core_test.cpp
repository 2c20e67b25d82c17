// Integration tests for the FlexIO core runtime: program collectives, wire
// messages, redistribution planning, and full writer/reader pipelines over
// every transport mode, caching level, and I/O pattern.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "core/monitor.h"
#include "core/program.h"
#include "core/redistribution.h"
#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace flexio {
namespace {

using namespace std::chrono_literals;
using adios::Box;
using adios::Dims;
using serial::DataType;

/// Run fn(rank) on `size` threads, one per rank; propagate gtest failures.
void run_ranks(int size, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&fn, r] { fn(r); });
  }
  for (auto& t : threads) t.join();
}

TEST(ProgramTest, GatherCollectsAllRanks) {
  Program prog("p", 4);
  std::vector<std::vector<std::byte>> result;
  run_ranks(4, [&](int rank) {
    std::byte payload{static_cast<unsigned char>(rank * 3)};
    std::vector<std::vector<std::byte>> all;
    ASSERT_TRUE(prog.gather(rank, ByteView(&payload, 1), &all, 5s).is_ok());
    if (rank == 0) result = std::move(all);
  });
  ASSERT_EQ(result.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(result[static_cast<std::size_t>(r)].size(), 1u);
    EXPECT_EQ(result[static_cast<std::size_t>(r)][0],
              std::byte{static_cast<unsigned char>(r * 3)});
  }
}

TEST(ProgramTest, BroadcastDistributesCoordinatorData) {
  Program prog("p", 3);
  run_ranks(3, [&](int rank) {
    std::vector<std::byte> data;
    if (rank == 0) data = {std::byte{7}, std::byte{8}};
    ASSERT_TRUE(prog.broadcast(rank, &data, 5s).is_ok());
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data[0], std::byte{7});
  });
}

TEST(ProgramTest, RepeatedRoundsDoNotBleed) {
  Program prog("p", 3);
  run_ranks(3, [&](int rank) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::byte> data;
      if (rank == 0) data = {std::byte{static_cast<unsigned char>(round)}};
      ASSERT_TRUE(prog.broadcast(rank, &data, 5s).is_ok());
      ASSERT_EQ(data.size(), 1u);
      ASSERT_EQ(data[0], std::byte{static_cast<unsigned char>(round)});
      ASSERT_TRUE(prog.barrier(rank, 5s).is_ok());
    }
  });
}

TEST(ProgramTest, SingleRankProgramTrivial) {
  Program prog("solo", 1);
  std::vector<std::vector<std::byte>> all;
  EXPECT_TRUE(prog.gather(0, {}, &all, 1s).is_ok());
  EXPECT_TRUE(prog.barrier(0, 1s).is_ok());
}

TEST(WireTest, AllMessagesRoundTrip) {
  wire::OpenRequest openreq{"viz", 4};
  auto decoded_req =
      wire::decode_open_request(ByteView(wire::encode(openreq)));
  ASSERT_TRUE(decoded_req.is_ok());
  EXPECT_EQ(decoded_req.value().reader_program, "viz");
  EXPECT_EQ(decoded_req.value().reader_size, 4);

  wire::OpenReply reply{"sim", 16, 2, true, true};
  auto decoded_reply = wire::decode_open_reply(ByteView(wire::encode(reply)));
  ASSERT_TRUE(decoded_reply.is_ok());
  EXPECT_EQ(decoded_reply.value().writer_size, 16);
  EXPECT_EQ(decoded_reply.value().caching, 2);
  EXPECT_TRUE(decoded_reply.value().batching);

  wire::StepAnnounce ann;
  ann.step = 9;
  wire::BlockInfo b;
  b.writer_rank = 3;
  b.meta = adios::global_array_var("T", DataType::kDouble, {100}, Box{{0}, {50}});
  ann.blocks.push_back(b);
  auto decoded_ann =
      wire::decode_step_announce(ByteView(wire::encode(ann)));
  ASSERT_TRUE(decoded_ann.is_ok());
  EXPECT_EQ(decoded_ann.value().step, 9);
  ASSERT_EQ(decoded_ann.value().blocks.size(), 1u);
  EXPECT_EQ(decoded_ann.value().blocks[0].meta.name, "T");

  wire::ReadRequest req;
  req.step = 9;
  req.selections.push_back(wire::SelectionInfo{1, "T", Box{{10}, {20}}});
  req.pg_requests.push_back(wire::PgRequestInfo{0, 5});
  req.plugins.push_back(wire::PluginInstall{"T", "x * 2", true});
  auto decoded = wire::decode_read_request(ByteView(wire::encode(req)));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().selections[0].var, "T");
  EXPECT_EQ(decoded.value().pg_requests[0].writer_rank, 5);
  ASSERT_EQ(decoded.value().plugins.size(), 1u);
  EXPECT_EQ(decoded.value().plugins[0].source, "x * 2");

  wire::DataMsg data;
  data.step = 9;
  data.writer_rank = 2;
  wire::DataPiece piece;
  piece.meta = b.meta;
  piece.region = Box{{10}, {5}};
  piece.payload.resize(40);
  data.pieces.push_back(piece);
  auto decoded_data = wire::decode_data(ByteLease(wire::encode(data)));
  ASSERT_TRUE(decoded_data.is_ok());
  EXPECT_EQ(decoded_data.value().pieces[0].bytes().size(), 40u);

  EXPECT_EQ(wire::peek_type(ByteView(wire::encode_close(7))).value(),
            wire::MsgType::kClose);

  wire::MonitorReport report{5, 1000, 4, 1, 250};
  auto decoded_rep =
      wire::decode_monitor_report(ByteView(wire::encode(report)));
  ASSERT_TRUE(decoded_rep.is_ok());
  EXPECT_EQ(decoded_rep.value().steps, 5u);
  EXPECT_EQ(decoded_rep.value().handshake_ns, 250u);
}

TEST(WireTest, TraceContextTrailerRoundTrips) {
  const wire::TraceContext ctx{wire::stream_id_hash("temps"), 9, 77, 123456};

  wire::StepAnnounce ann;
  ann.step = 9;
  ann.trace = ctx;
  auto dec_ann = wire::decode_step_announce(ByteView(wire::encode(ann)));
  ASSERT_TRUE(dec_ann.is_ok());
  ASSERT_TRUE(dec_ann.value().trace.has_value());
  EXPECT_EQ(dec_ann.value().trace->stream_id, ctx.stream_id);
  EXPECT_EQ(dec_ann.value().trace->step, 9);
  EXPECT_EQ(dec_ann.value().trace->span_id, 77u);
  EXPECT_EQ(dec_ann.value().trace->send_ns, 123456u);

  wire::ReadRequest req;
  req.step = 9;
  req.selections.push_back(wire::SelectionInfo{0, "T", Box{{0}, {4}}});
  req.trace = ctx;
  auto dec_req = wire::decode_read_request(ByteView(wire::encode(req)));
  ASSERT_TRUE(dec_req.is_ok());
  ASSERT_TRUE(dec_req.value().trace.has_value());
  EXPECT_EQ(dec_req.value().trace->span_id, 77u);

  wire::DataMsg data;
  data.step = 9;
  data.writer_rank = 1;
  wire::DataPiece piece;
  piece.meta = adios::global_array_var("T", DataType::kDouble, {8}, Box{{0}, {4}});
  piece.region = Box{{0}, {4}};
  piece.payload.resize(32);
  data.pieces.push_back(std::move(piece));
  data.trace = ctx;
  auto dec_data = wire::decode_data(ByteLease(wire::encode(data)));
  ASSERT_TRUE(dec_data.is_ok());
  ASSERT_TRUE(dec_data.value().trace.has_value());
  EXPECT_EQ(dec_data.value().trace->send_ns, 123456u);

  // The scatter-gather path frames the exact same bytes: the trailer is
  // written after the last borrowed payload and must land in the final
  // wire fragment.
  const serial::IovMessage iov = wire::encode_data_iov(data);
  std::vector<std::byte> flat;
  for (const ByteView frag : iov.frags) {
    flat.insert(flat.end(), frag.begin(), frag.end());
  }
  EXPECT_EQ(flat, wire::encode(data));
  auto dec_iov = wire::decode_data(ByteLease(flat));
  ASSERT_TRUE(dec_iov.is_ok());
  ASSERT_TRUE(dec_iov.value().trace.has_value());
  EXPECT_EQ(dec_iov.value().trace->stream_id, ctx.stream_id);

  // Absent context encodes no trailer and decodes as absent.
  data.trace.reset();
  auto dec_plain = wire::decode_data(ByteLease(wire::encode(data)));
  ASSERT_TRUE(dec_plain.is_ok());
  EXPECT_FALSE(dec_plain.value().trace.has_value());
}

TEST(WireTest, StreamIdHashStable) {
  const std::uint64_t h = wire::stream_id_hash("temps");
  EXPECT_EQ(h, wire::stream_id_hash("temps"));
  EXPECT_NE(h, wire::stream_id_hash("pressure"));
  EXPECT_NE(h, 0u);
  EXPECT_LE(h, 0xffffffffull);        // fits a JSON double exactly
  EXPECT_NE(wire::stream_id_hash(""), 0u);  // empty name still maps to != 0
}

TEST(WireTest, MonitorReportPhaseFieldsRoundTrip) {
  wire::MonitorReport report{5, 1000, 4, 1, 250};
  report.pack_ns = 111;
  report.enqueue_ns = 222;
  report.transfer_ns = 333;
  report.unpack_ns = 444;
  report.total_ns = 555;
  report.phase_steps = 5;
  auto decoded = wire::decode_monitor_report(ByteView(wire::encode(report)));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().steps, 5u);
  EXPECT_EQ(decoded.value().bytes_sent, 1000u);
  EXPECT_EQ(decoded.value().handshakes_performed, 4u);
  EXPECT_EQ(decoded.value().handshakes_skipped, 1u);
  EXPECT_EQ(decoded.value().handshake_ns, 250u);
  EXPECT_EQ(decoded.value().pack_ns, 111u);
  EXPECT_EQ(decoded.value().enqueue_ns, 222u);
  EXPECT_EQ(decoded.value().transfer_ns, 333u);
  EXPECT_EQ(decoded.value().unpack_ns, 444u);
  EXPECT_EQ(decoded.value().total_ns, 555u);
  EXPECT_EQ(decoded.value().phase_steps, 5u);
}

TEST(WireTest, OldFormatStepAnnounceDecodesWithoutTrace) {
  // Hand-encode a StepAnnounce exactly as the pre-trailer format did (step
  // + empty block list, nothing after) and check it parses with no trace.
  serial::BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(wire::MsgType::kStepAnnounce));
  w.put_i64(3);
  w.put_varint(0);  // zero blocks
  auto decoded = wire::decode_step_announce(ByteView(w.take()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().step, 3);
  EXPECT_FALSE(decoded.value().trace.has_value());
}

TEST(WireTest, UnknownTraceTrailerVersionSkipped) {
  // A future trailer version must be skipped, not rejected.
  serial::BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(wire::MsgType::kStepAnnounce));
  w.put_i64(3);
  w.put_varint(0);
  w.put_u8(200);  // unknown trailer version
  w.put_u64(0xdeadbeef);  // opaque future payload
  auto decoded = wire::decode_step_announce(ByteView(w.take()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().step, 3);
  EXPECT_FALSE(decoded.value().trace.has_value());
}

TEST(WireTest, MembershipEpochTrailerRoundTrips) {
  // Trailer v2 rides after the v1 trace trailer on the handshake frames.
  wire::StepAnnounce ann;
  ann.step = 4;
  ann.trace = wire::TraceContext{wire::stream_id_hash("m"), 4, 9, 100};
  ann.membership_epoch = 17;
  auto dec_ann = wire::decode_step_announce(ByteView(wire::encode(ann)));
  ASSERT_TRUE(dec_ann.is_ok());
  ASSERT_TRUE(dec_ann.value().membership_epoch.has_value());
  EXPECT_EQ(*dec_ann.value().membership_epoch, 17u);
  ASSERT_TRUE(dec_ann.value().trace.has_value());
  EXPECT_EQ(dec_ann.value().trace->span_id, 9u);

  // The epoch also encodes without a trace context (trailers are
  // independent), and the reader's echo frame carries it the same way.
  ann.trace.reset();
  auto dec_bare = wire::decode_step_announce(ByteView(wire::encode(ann)));
  ASSERT_TRUE(dec_bare.is_ok());
  EXPECT_FALSE(dec_bare.value().trace.has_value());
  ASSERT_TRUE(dec_bare.value().membership_epoch.has_value());
  EXPECT_EQ(*dec_bare.value().membership_epoch, 17u);

  wire::ReadRequest req;
  req.step = 4;
  req.membership_epoch = 17;
  auto dec_req = wire::decode_read_request(ByteView(wire::encode(req)));
  ASSERT_TRUE(dec_req.is_ok());
  ASSERT_TRUE(dec_req.value().membership_epoch.has_value());
  EXPECT_EQ(*dec_req.value().membership_epoch, 17u);

  // Absent epoch (membership off) encodes no v2 trailer and decodes absent.
  wire::StepAnnounce frozen;
  frozen.step = 4;
  auto dec_frozen = wire::decode_step_announce(ByteView(wire::encode(frozen)));
  ASSERT_TRUE(dec_frozen.is_ok());
  EXPECT_FALSE(dec_frozen.value().membership_epoch.has_value());
}

TEST(WireTest, OldFormatFramesDecodeWithoutMembershipEpoch) {
  // A seed-format announce (step + empty block list, no trailer bytes at
  // all) must parse with both the trace and the membership epoch absent.
  serial::BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(wire::MsgType::kStepAnnounce));
  w.put_i64(3);
  w.put_varint(0);
  auto decoded = wire::decode_step_announce(ByteView(w.take()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_FALSE(decoded.value().trace.has_value());
  EXPECT_FALSE(decoded.value().membership_epoch.has_value());
}

TEST(WireTest, MembershipTrailerBeforeUnknownVersionsStillDecodes) {
  // A v2 epoch trailer followed by a future unknown trailer: the epoch is
  // read, the unknown tail is skipped, the frame parses.
  serial::BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(wire::MsgType::kStepAnnounce));
  w.put_i64(3);
  w.put_varint(0);
  w.put_u8(2);        // kMembershipTrailerV2
  w.put_varint(23);   // epoch
  w.put_u8(200);      // unknown future trailer version
  w.put_u64(0xfeed);  // opaque future payload
  auto decoded = wire::decode_step_announce(ByteView(w.take()));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().step, 3);
  ASSERT_TRUE(decoded.value().membership_epoch.has_value());
  EXPECT_EQ(*decoded.value().membership_epoch, 23u);
}

TEST(WireTest, MembershipUpdateAndHeartbeatRoundTrip) {
  wire::MembershipUpdate update;
  update.stream = "temps";
  update.epoch = 7;
  update.members.push_back(wire::MemberInfo{0, "viz.ep0", 1, 0, 0});
  update.members.push_back(wire::MemberInfo{2, "viz.ep2b", 2, 0, 6});
  update.members.push_back(wire::MemberInfo{1, "", 1, 2, 0});  // dead
  auto dec = wire::decode_membership_update(ByteView(wire::encode(update)));
  ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();
  EXPECT_EQ(dec.value().stream, "temps");
  EXPECT_EQ(dec.value().epoch, 7u);
  ASSERT_EQ(dec.value().members.size(), 3u);
  EXPECT_EQ(dec.value().members[1].rank, 2);
  EXPECT_EQ(dec.value().members[1].contact, "viz.ep2b");
  EXPECT_EQ(dec.value().members[1].incarnation, 2u);
  EXPECT_EQ(dec.value().members[1].join_epoch, 6u);
  EXPECT_EQ(dec.value().members[2].state, 2);  // dead tombstone preserved
  EXPECT_EQ(wire::peek_type(ByteView(wire::encode(update))).value(),
            wire::MsgType::kMembershipUpdate);

  wire::Heartbeat hb;
  hb.stream = "temps";
  hb.rank = 2;
  hb.incarnation = 3;
  hb.send_ns = 123456789;
  auto dec_hb = wire::decode_heartbeat(ByteView(wire::encode(hb)));
  ASSERT_TRUE(dec_hb.is_ok()) << dec_hb.status().to_string();
  EXPECT_EQ(dec_hb.value().stream, "temps");
  EXPECT_EQ(dec_hb.value().rank, 2);
  EXPECT_EQ(dec_hb.value().incarnation, 3u);
  EXPECT_EQ(dec_hb.value().send_ns, 123456789u);
  EXPECT_EQ(wire::peek_type(ByteView(wire::encode(hb))).value(),
            wire::MsgType::kHeartbeat);

  // Truncated membership frames are rejected, not misparsed.
  std::vector<std::byte> truncated = wire::encode(update);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(wire::decode_membership_update(ByteView(truncated)).is_ok());
}

TEST(WireTest, CorruptFramesRejected) {
  EXPECT_FALSE(wire::peek_type({}).is_ok());
  std::vector<std::byte> junk{std::byte{0xee}};
  EXPECT_FALSE(wire::peek_type(ByteView(junk)).is_ok());
  std::vector<std::byte> truncated = wire::encode(wire::OpenRequest{"x", 1});
  truncated.resize(1);
  EXPECT_FALSE(wire::decode_open_request(ByteView(truncated)).is_ok());

  // A garbage element count must come back as a Status. Reserving it
  // instead throws length_error (2^60) or bad_alloc (2^40) through the
  // decoder. Each input is a valid prefix followed by one huge count.
  const auto type_byte = [](wire::MsgType t) {
    serial::BufWriter w;
    w.put_u8(static_cast<std::uint8_t>(t));
    return w;
  };
  // Whether `decode` accepts `raw`; a throw fails the test.
  const auto decode_ok = [](const auto& decode, std::vector<std::byte> raw) {
    bool ok = true;
    EXPECT_NO_THROW(ok = decode(ByteView(raw)).is_ok());
    return ok;
  };
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 60}) {
    SCOPED_TRACE(huge);
    serial::BufWriter ann = type_byte(wire::MsgType::kStepAnnounce);
    ann.put_i64(3);
    ann.put_varint(huge);  // block count
    EXPECT_FALSE(decode_ok(wire::decode_step_announce, ann.take()));
    // Selection, pg-request and plug-in counts, each in turn.
    for (int patched = 0; patched < 3; ++patched) {
      serial::BufWriter req = type_byte(wire::MsgType::kReadRequest);
      req.put_i64(3);
      for (int i = 0; i <= patched; ++i) {
        req.put_varint(i == patched ? huge : 0);
      }
      EXPECT_FALSE(decode_ok(wire::decode_read_request, req.take()))
          << "count " << patched;
    }
    serial::BufWriter upd = type_byte(wire::MsgType::kMembershipUpdate);
    upd.put_string("s");
    upd.put_varint(7);     // epoch
    upd.put_varint(huge);  // member count
    EXPECT_FALSE(decode_ok(wire::decode_membership_update, upd.take()));

    serial::BufWriter schema_raw;
    schema_raw.put_string("s");
    schema_raw.put_varint(huge);  // field count
    const auto decode_schema = [](ByteView raw) {
      serial::BufReader r{raw};
      return serial::Schema::decode(&r);
    };
    EXPECT_FALSE(decode_ok(decode_schema, schema_raw.take()));

    for (const DataType t : {DataType::kDouble, DataType::kInt64}) {
      const serial::Schema schema("s", {{"arr", t, true}});
      serial::BufWriter rec_raw;
      rec_raw.put_u64(schema.fingerprint());
      rec_raw.put_varint(huge);  // array length
      const auto decode_record = [&schema](ByteView raw) {
        serial::BufReader r{raw};
        return serial::Record::decode(schema, &r);
      };
      EXPECT_FALSE(decode_ok(decode_record, rec_raw.take()));
    }
  }
}

// ------------------------------------------------------- planning tests --

std::vector<wire::BlockInfo> make_blocks(const Dims& global, int writers) {
  std::vector<wire::BlockInfo> blocks;
  for (int w = 0; w < writers; ++w) {
    wire::BlockInfo b;
    b.writer_rank = w;
    b.meta = adios::global_array_var(
        "A", DataType::kDouble, global,
        adios::block_decompose(global, writers, w, 0));
    blocks.push_back(b);
  }
  return blocks;
}

TEST(PlanTest, Figure3MappingNineToTwo) {
  // Paper Figure 3: a 2-D array distributed among 9 simulation processes is
  // passed to 2 analytics processes with a different decomposition.
  const Dims global{9, 6};
  auto blocks = make_blocks(global, 9);  // row-wise strips
  wire::ReadRequest req;
  req.step = 0;
  for (int r = 0; r < 2; ++r) {
    req.selections.push_back(wire::SelectionInfo{
        r, "A", adios::block_decompose(global, 2, r, 1)});  // column halves
  }
  const auto plan = plan_transfers(blocks, req);
  // Every writer overlaps both readers: 18 pieces.
  EXPECT_EQ(plan.size(), 18u);
  // Total bytes moved == one full copy of the array.
  std::uint64_t bytes = 0;
  for (const auto& p : plan) bytes += p.bytes();
  EXPECT_EQ(bytes, adios::volume(global) * sizeof(double));
  // Each reader receives exactly its half.
  const auto mine = pieces_to_reader(plan, 0);
  std::uint64_t reader0 = 0;
  for (const auto& p : mine) reader0 += p.bytes();
  EXPECT_EQ(reader0, 9u * 3u * sizeof(double));
}

TEST(PlanTest, DisjointSelectionsNoPieces) {
  auto blocks = make_blocks({10}, 1);
  wire::ReadRequest req;
  req.selections.push_back(wire::SelectionInfo{0, "B", Box{{0}, {10}}});
  EXPECT_TRUE(plan_transfers(blocks, req).empty());  // wrong name
}

TEST(PlanTest, PgRequestsTransferWholeBlocks) {
  std::vector<wire::BlockInfo> blocks;
  for (int w = 0; w < 3; ++w) {
    wire::BlockInfo b;
    b.writer_rank = w;
    b.meta = adios::local_array_var("particles", DataType::kDouble,
                                    {10 + static_cast<std::uint64_t>(w), 7});
    blocks.push_back(b);
  }
  wire::ReadRequest req;
  req.pg_requests.push_back(wire::PgRequestInfo{0, 1});
  req.pg_requests.push_back(wire::PgRequestInfo{1, 2});
  const auto plan = plan_transfers(blocks, req);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_TRUE(plan[0].whole_block);
  EXPECT_EQ(plan[0].writer_rank, 1);
  EXPECT_EQ(plan[0].reader_rank, 0);
  EXPECT_EQ(plan[0].bytes(), 11u * 7u * sizeof(double));
}

TEST(PlanTest, CommMatrixAggregatesBytes) {
  auto blocks = make_blocks({8}, 2);
  wire::ReadRequest req;
  req.selections.push_back(wire::SelectionInfo{0, "A", Box{{0}, {8}}});
  const auto plan = plan_transfers(blocks, req);
  const auto m = comm_matrix(plan, 2, 1);
  EXPECT_EQ(m[0][0], 4u * sizeof(double));
  EXPECT_EQ(m[1][0], 4u * sizeof(double));
}

TEST(PlanTest, DeterministicOrder) {
  auto blocks = make_blocks({100, 4}, 7);
  wire::ReadRequest req;
  for (int r = 0; r < 3; ++r) {
    req.selections.push_back(wire::SelectionInfo{
        r, "A", adios::block_decompose({100, 4}, 3, r, 0)});
  }
  const auto a = plan_transfers(blocks, req);
  const auto b = plan_transfers(blocks, req);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].writer_rank, b[i].writer_rank);
    EXPECT_EQ(a[i].reader_rank, b[i].reader_rank);
    EXPECT_EQ(a[i].region, b[i].region);
  }
}

// ------------------------------------------------- end-to-end pipelines --

struct PipelineConfig {
  int writers = 3;
  int readers = 2;
  int steps = 3;
  std::string method_params;
  bool writers_remote = false;  // place readers on another node (RDMA)
  const char* name = "";
};

xml::MethodConfig stream_method(const std::string& params) {
  xml::MethodConfig m;
  m.method = "FLEXIO";
  m.timeout_ms = 20000;
  FLEXIO_CHECK(xml::apply_method_params(params, &m).is_ok());
  return m;
}

/// Full coupled pipeline: `writers` ranks produce a 2-D global array and a
/// per-rank particle array each step; `readers` ranks pull a column-block
/// decomposition of the global array plus assigned process groups. Verifies
/// every element end to end.
void run_pipeline(const PipelineConfig& cfg) {
  Runtime rt;
  Program sim("sim", cfg.writers);
  Program viz("viz", cfg.readers);
  const Dims global{24, 10};

  auto writer_fn = [&](int rank) {
    StreamSpec spec;
    spec.stream = std::string("pipe_") + cfg.name;
    spec.endpoint = EndpointSpec{&sim, rank, evpath::Location{0, rank}};
    spec.method = stream_method(cfg.method_params);
    auto writer = rt.open_writer(spec);
    ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
    StreamWriter& w = *writer.value();

    const Box box = adios::block_decompose(global, cfg.writers, rank, 0);
    std::vector<double> field(box.elements());
    const std::uint64_t nparticles = 5 + static_cast<std::uint64_t>(rank);
    std::vector<double> particles(nparticles * 7);

    for (int step = 0; step < cfg.steps; ++step) {
      // Field value encodes (step, global row, global col).
      std::size_t i = 0;
      for (std::uint64_t r = 0; r < box.count[0]; ++r) {
        for (std::uint64_t c = 0; c < box.count[1]; ++c) {
          field[i++] = step * 1e6 + (box.offset[0] + r) * 1e3 +
                       (box.offset[1] + c);
        }
      }
      for (std::size_t p = 0; p < particles.size(); ++p) {
        particles[p] = rank * 1e4 + step * 1e2 + static_cast<double>(p);
      }
      ASSERT_TRUE(w.begin_step(step).is_ok());
      ASSERT_TRUE(w.write(adios::global_array_var("field", DataType::kDouble,
                                                  global, box),
                          as_bytes_view(std::span<const double>(field)))
                      .is_ok());
      ASSERT_TRUE(
          w.write(adios::local_array_var("particles", DataType::kDouble,
                                         {nparticles, 7}),
                  as_bytes_view(std::span<const double>(particles)))
              .is_ok());
      ASSERT_TRUE(w.write_scalar("time", step * 0.5).is_ok());
      const Status st = w.end_step();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    }
    ASSERT_TRUE(w.close().is_ok());
  };

  auto reader_fn = [&](int rank) {
    StreamSpec spec;
    spec.stream = std::string("pipe_") + cfg.name;
    spec.endpoint = EndpointSpec{
        &viz, rank,
        evpath::Location{cfg.writers_remote ? 7 : 0, 100 + rank}};
    spec.method = stream_method(cfg.method_params);
    auto reader = rt.open_reader(spec);
    ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
    StreamReader& r = *reader.value();
    EXPECT_EQ(r.num_writers(), cfg.writers);

    const Box sel = adios::block_decompose(global, cfg.readers, rank, 1);
    std::vector<double> out(sel.elements());
    int steps_seen = 0;
    for (;;) {
      auto step = r.begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_EQ(step.value(), steps_seen);
      std::fill(out.begin(), out.end(), -1.0);
      ASSERT_TRUE(r.schedule_read("field", sel,
                                  MutableByteView(std::as_writable_bytes(
                                      std::span<double>(out))))
                      .is_ok());
      // Round-robin process groups across readers.
      for (int w = rank; w < cfg.writers; w += cfg.readers) {
        ASSERT_TRUE(r.schedule_read_pg(w).is_ok());
      }
      const Status st = r.perform_reads();
      ASSERT_TRUE(st.is_ok()) << st.to_string();

      // Verify the field selection.
      std::size_t i = 0;
      for (std::uint64_t row = 0; row < sel.count[0]; ++row) {
        for (std::uint64_t col = 0; col < sel.count[1]; ++col) {
          ASSERT_DOUBLE_EQ(out[i++],
                           step.value() * 1e6 + (sel.offset[0] + row) * 1e3 +
                               (sel.offset[1] + col));
        }
      }
      // Verify the process groups.
      int expected_pgs = 0;
      for (int w = rank; w < cfg.writers; w += cfg.readers) ++expected_pgs;
      ASSERT_EQ(r.pg_blocks().size(), static_cast<std::size_t>(expected_pgs));
      for (const PgBlock& block : r.pg_blocks()) {
        const auto n = 5 + static_cast<std::uint64_t>(block.writer_rank);
        ASSERT_EQ(block.meta.block.count[0], n);
        const auto* vals =
            reinterpret_cast<const double*>(block.payload.data());
        for (std::uint64_t p = 0; p < n * 7; ++p) {
          ASSERT_DOUBLE_EQ(vals[p], block.writer_rank * 1e4 +
                                        step.value() * 1e2 +
                                        static_cast<double>(p));
        }
      }
      // Scalars ride the announce; with caching they refresh on step 0 only.
      auto time = r.scalar_double("time");
      ASSERT_TRUE(time.is_ok());
      ASSERT_TRUE(r.end_step().is_ok());
      ++steps_seen;
    }
    EXPECT_EQ(steps_seen, cfg.steps);
    ASSERT_TRUE(r.writer_report().has_value());
    EXPECT_EQ(r.writer_report()->steps, static_cast<std::uint64_t>(cfg.steps));
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < cfg.writers; ++w) {
    threads.emplace_back([&, w] { writer_fn(w); });
  }
  for (int r = 0; r < cfg.readers; ++r) {
    threads.emplace_back([&, r] { reader_fn(r); });
  }
  for (auto& t : threads) t.join();
}

class PipelineTest : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(PipelineTest, EndToEnd) { run_pipeline(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Modes, PipelineTest,
    ::testing::Values(
        PipelineConfig{3, 2, 3, "caching=none", false, "none_shm"},
        PipelineConfig{3, 2, 3, "caching=local", false, "local_shm"},
        PipelineConfig{3, 2, 4, "caching=all", false, "all_shm"},
        PipelineConfig{3, 2, 3, "caching=all; batching=yes; async=yes", false,
                       "tuned_shm"},
        PipelineConfig{3, 2, 3, "caching=none; batching=yes", true,
                       "batched_rdma"},
        PipelineConfig{2, 2, 3, "caching=all; async=yes", true, "all_rdma"},
        PipelineConfig{1, 1, 2, "caching=none", false, "minimal"},
        PipelineConfig{4, 1, 2, "caching=local; batching=yes", false,
                       "fan_in"},
        PipelineConfig{1, 3, 2, "caching=none", true, "fan_out"}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(PipelineModesTest, CachingSkipsHandshakes) {
  // Run a caching=all pipeline with the metrics registry off (the shipped
  // default) and confirm the writer-side report is still exact: one
  // performed handshake and the rest skipped, every written byte sent, and
  // a CSV dump that round-trips every field.
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(false);
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  const int kSteps = 5;
  std::optional<wire::MonitorReport> report;

  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "cachetest";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = stream_method("caching=all");
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> data(8, 1.0);
    for (int s = 0; s < kSteps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::global_array_var("v", DataType::kDouble,
                                                      {8}, Box{{0}, {8}}),
                              as_bytes_view(std::span<const double>(data)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "cachetest";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = stream_method("caching=all");
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    std::vector<double> out(8);
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok());
      ASSERT_TRUE(r.value()
                      ->schedule_read("v", Box{{0}, {8}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(out))))
                      .is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_TRUE(r.value()->end_step().is_ok());
    }
    report = r.value()->writer_report();
  });
  writer.join();
  reader.join();
  metrics::set_enabled(metrics_was);
  ASSERT_TRUE(report.has_value());
  const auto steps = static_cast<std::uint64_t>(kSteps);
  EXPECT_EQ(report->steps, steps);
  EXPECT_EQ(report->handshakes_performed, 1u);
  EXPECT_EQ(report->handshakes_skipped, steps - 1);
  EXPECT_EQ(report->bytes_sent, steps * 8 * sizeof(double));
  EXPECT_EQ(report->phase_steps, steps);
  EXPECT_GT(report->handshake_ns, 0u);
  EXPECT_GT(report->enqueue_ns, 0u);

  const std::string path = ::testing::TempDir() + "/caching_report.csv";
  ASSERT_TRUE(dump_csv(*report, path).is_ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "field,value");
  wire::MonitorReport parsed;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos) << line;
    const std::string field = line.substr(0, comma);
    bool known = false;
    for (const auto& [name, member] : wire::kMonitorReportFields) {
      if (field != name) continue;
      parsed.*member = std::stoull(line.substr(comma + 1));
      known = true;
    }
    EXPECT_TRUE(known) << line;
  }
  EXPECT_EQ(rows, std::size(wire::kMonitorReportFields));
  for (const auto& [name, member] : wire::kMonitorReportFields) {
    EXPECT_EQ(parsed.*member, report.value().*member) << name;
  }
}

TEST(PipelineModesTest, PlanCacheFollowsHandshakeRefresh) {
  // The cached send/receive plan must be rebuilt whenever the handshake
  // re-exchanges and reused when it is skipped: caching=none refreshes the
  // handshake every step (all misses), caching=all exchanges once and then
  // runs every later step off the cached plan (hits on both sides).
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  auto run_steps = [&](const char* params, const char* stream, int steps) {
    Runtime rt;
    Program sim("sim", 1);
    Program viz("viz", 1);
    std::thread writer([&] {
      StreamSpec spec;
      spec.stream = stream;
      spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
      spec.method = stream_method(params);
      auto w = rt.open_writer(spec);
      ASSERT_TRUE(w.is_ok());
      std::vector<double> data(16, 2.0);
      for (int s = 0; s < steps; ++s) {
        ASSERT_TRUE(w.value()->begin_step(s).is_ok());
        ASSERT_TRUE(w.value()
                        ->write(adios::global_array_var(
                                    "v", DataType::kDouble, {16}, Box{{0}, {16}}),
                                as_bytes_view(std::span<const double>(data)))
                        .is_ok());
        ASSERT_TRUE(w.value()->end_step().is_ok());
      }
      ASSERT_TRUE(w.value()->close().is_ok());
    });
    std::thread reader([&] {
      StreamSpec spec;
      spec.stream = stream;
      spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
      spec.method = stream_method(params);
      auto r = rt.open_reader(spec);
      ASSERT_TRUE(r.is_ok());
      std::vector<double> out(16);
      for (;;) {
        auto step = r.value()->begin_step();
        if (step.status().code() == ErrorCode::kEndOfStream) break;
        ASSERT_TRUE(step.is_ok());
        ASSERT_TRUE(r.value()
                        ->schedule_read("v", Box{{0}, {16}},
                                        MutableByteView(std::as_writable_bytes(
                                            std::span<double>(out))))
                        .is_ok());
        ASSERT_TRUE(r.value()->perform_reads().is_ok());
        ASSERT_TRUE(r.value()->end_step().is_ok());
      }
    });
    writer.join();
    reader.join();
  };
  metrics::Counter& hits = metrics::counter("flexio.plan.cache_hits");
  metrics::Counter& misses = metrics::counter("flexio.plan.cache_misses");
  const int kSteps = 4;

  std::uint64_t hits0 = hits.value(), misses0 = misses.value();
  run_steps("caching=none", "plancache_none", kSteps);
  // Every step re-exchanged the handshake: no reuse on either side.
  EXPECT_EQ(hits.value() - hits0, 0u);
  EXPECT_EQ(misses.value() - misses0, static_cast<std::uint64_t>(2 * kSteps));

  hits0 = hits.value();
  misses0 = misses.value();
  run_steps("caching=all", "plancache_all", kSteps);
  // One exchange at step 0 (a miss on each side); the rest reuse the plan.
  EXPECT_EQ(misses.value() - misses0, 2u);
  EXPECT_EQ(hits.value() - hits0,
            static_cast<std::uint64_t>(2 * (kSteps - 1)));
  metrics::set_enabled(was);
}

TEST(PipelineModesTest, WholeBlockPiecesMoveZeroCopy) {
  // Acceptance gate for the scatter-gather send path: with batching and
  // caching=all, a process-group (whole-block) piece must reach the
  // transport without any payload memcpy after end_step -- the pack kernel
  // never runs (flexio.pack.memcpy_runs flat), the wire layer borrows the
  // buffered payload instead of flattening (flexio.wire.copies_avoided
  // advances), and the send plan comes from cache after step 0.
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Counter& pack_runs = metrics::counter("flexio.pack.memcpy_runs");
  metrics::Counter& avoided = metrics::counter("flexio.wire.copies_avoided");
  metrics::Counter& hits = metrics::counter("flexio.plan.cache_hits");
  const std::uint64_t pack0 = pack_runs.value();
  const std::uint64_t avoided0 = avoided.value();
  const std::uint64_t hits0 = hits.value();

  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  const int kSteps = 3;
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "zerocopy_pg";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = stream_method("caching=all; batching=yes");
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> particles(9 * 4, 1.5);
    for (int s = 0; s < kSteps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::local_array_var("particles",
                                                     DataType::kDouble, {9, 4}),
                              as_bytes_view(std::span<const double>(particles)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "zerocopy_pg";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = stream_method("caching=all; batching=yes");
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    int steps_seen = 0;
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok());
      ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
      const PgBlock& block = r.value()->pg_blocks()[0];
      ASSERT_EQ(block.payload.size(), 9 * 4 * sizeof(double));
      EXPECT_DOUBLE_EQ(
          reinterpret_cast<const double*>(block.payload.data())[0], 1.5);
      ASSERT_TRUE(r.value()->end_step().is_ok());
      ++steps_seen;
    }
    EXPECT_EQ(steps_seen, kSteps);
  });
  writer.join();
  reader.join();

  // No strided pack ran anywhere in the step loop...
  EXPECT_EQ(pack_runs.value() - pack0, 0u);
  // ...every batched data message was gathered natively by the transport...
  EXPECT_GE(avoided.value() - avoided0, static_cast<std::uint64_t>(kSteps));
  // ...and steps after the first ran off the cached plan.
  EXPECT_GT(hits.value() - hits0, 0u);
  metrics::set_enabled(was);
}

/// One writer, one reader over shm; step s writes a process-group block of
/// sizes[s] doubles whose values encode (step, index). The reader must get
/// exactly that block each step, whatever the writer wrote before it.
void run_pg_sizes(const std::string& stream, const std::string& params,
                  const std::vector<std::uint64_t>& sizes) {
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  const int steps = static_cast<int>(sizes.size());
  auto value = [](int step, std::uint64_t i) {
    return step * 1e6 + static_cast<double>(i);
  };
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = stream_method(params);
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    for (int s = 0; s < steps; ++s) {
      std::vector<double> particles(sizes[s]);
      for (std::uint64_t i = 0; i < sizes[s]; ++i) particles[i] = value(s, i);
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::local_array_var("particles",
                                                     DataType::kDouble,
                                                     {sizes[s]}),
                              as_bytes_view(std::span<const double>(particles)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = stream;
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = stream_method(params);
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    int s = 0;
    for (;; ++s) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok());
      ASSERT_LT(s, steps);
      ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
      const PgBlock& block = r.value()->pg_blocks()[0];
      EXPECT_EQ(block.meta.block.count, Dims{sizes[s]});
      ASSERT_EQ(block.payload.size(), sizes[s] * sizeof(double));
      for (std::uint64_t i = 0; i < sizes[s]; ++i) {
        double v = 0;
        std::memcpy(&v, block.payload.data() + i * sizeof(double), sizeof v);
        ASSERT_EQ(v, value(s, i)) << "step " << s << " element " << i;
      }
      ASSERT_TRUE(r.value()->end_step().is_ok());
    }
    EXPECT_EQ(s, steps);
  });
  writer.join();
  reader.join();
}

class PersistentWriterBufferTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PersistentWriterBufferTest, SmallerBlockAfterLargerArrivesExactly) {
  // The writer keeps each variable's buffer across steps and refills its
  // capacity: a block that shrinks (then grows back within the old
  // capacity) must reach the reader as exactly the bytes written.
  run_pg_sizes(std::string("shrink_") + GetParam(),
               std::string("caching=") + GetParam(), {600, 40, 300, 41});
}

INSTANTIATE_TEST_SUITE_P(CachingLevels, PersistentWriterBufferTest,
                         ::testing::Values("none", "local", "all"),
                         [](const auto& p) { return std::string(p.param); });

TEST(PipelineModesTest, CachedStepsRecordStepTotals) {
  // Under caching=all only step 0 carries an announce; the later steps are
  // timed from the earliest send stamp among their data frames, so every
  // step lands in flexio.step.total.ns.
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Histogram& total = metrics::histogram("flexio.step.total.ns");
  const std::uint64_t before = total.snapshot().count;
  run_pg_sizes("cached_totals", "caching=all", {16, 16, 16});
  EXPECT_EQ(total.snapshot().count - before, 3u);
  metrics::set_enabled(was);
}

TEST(PipelineModesTest, WriterSidePluginFiltersParticles) {
  // A hand-rolled plug-in compiler standing in for CoD: the "source" is a
  // threshold; the plug-in keeps particle rows whose first attribute is
  // above it (the paper's range-query example, run inside the simulation's
  // address space).
  Runtime rt;
  rt.set_plugin_compiler([](const std::string& source) -> StatusOr<PluginFn> {
    double threshold = 0;
    if (!flexio::parse_double(source, &threshold)) {
      return make_error(ErrorCode::kInvalidArgument, "bad plugin source");
    }
    return PluginFn([threshold](const wire::DataPiece& in)
                        -> StatusOr<wire::DataPiece> {
      const auto cols = in.meta.block.count[1];
      const auto* vals = reinterpret_cast<const double*>(in.payload.data());
      std::vector<double> kept;
      for (std::uint64_t row = 0; row < in.meta.block.count[0]; ++row) {
        if (vals[row * cols] > threshold) {
          kept.insert(kept.end(), vals + row * cols, vals + (row + 1) * cols);
        }
      }
      wire::DataPiece out = in;
      out.meta.block.count[0] = kept.size() / cols;
      out.region = out.meta.block;
      out.payload.resize(kept.size() * sizeof(double));
      std::memcpy(out.payload.data(), kept.data(), out.payload.size());
      return out;
    });
  });

  Program sim("sim", 1);
  Program viz("viz", 1);
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "plugtest";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = stream_method("caching=none");
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    // 6 particles, first attribute 0..5.
    std::vector<double> particles(6 * 2);
    for (int p = 0; p < 6; ++p) {
      particles[static_cast<std::size_t>(p) * 2] = p;
      particles[static_cast<std::size_t>(p) * 2 + 1] = 100.0 + p;
    }
    ASSERT_TRUE(w.value()->begin_step(0).is_ok());
    ASSERT_TRUE(
        w.value()
            ->write(adios::local_array_var("zion", DataType::kDouble, {6, 2}),
                    as_bytes_view(std::span<const double>(particles)))
            .is_ok());
    ASSERT_TRUE(w.value()->end_step().is_ok());
    ASSERT_TRUE(w.value()->close().is_ok());
    // The plug-in ran inside the writer's address space.
    EXPECT_EQ(w.value()->counts().plugin_pieces, 1u);
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "plugtest";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = stream_method("caching=none");
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    ASSERT_TRUE(
        r.value()->install_plugin("zion", "2.5", /*run_at_writer=*/true)
            .is_ok());
    auto step = r.value()->begin_step();
    ASSERT_TRUE(step.is_ok());
    ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
    ASSERT_TRUE(r.value()->perform_reads().is_ok());
    ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
    const PgBlock& block = r.value()->pg_blocks()[0];
    // Particles 3,4,5 survive the >2.5 filter.
    ASSERT_EQ(block.meta.block.count[0], 3u);
    const auto* vals = reinterpret_cast<const double*>(block.payload.data());
    EXPECT_DOUBLE_EQ(vals[0], 3.0);
    EXPECT_DOUBLE_EQ(vals[1], 103.0);
    ASSERT_TRUE(r.value()->end_step().is_ok());
    while (r.value()->begin_step().status().code() !=
           ErrorCode::kEndOfStream) {
    }
  });
  writer.join();
  reader.join();
}

TEST(FileModeTest, SameApiThroughBpFiles) {
  // The one-line switch: identical application logic, method "BP" instead
  // of "FLEXIO". Writer finishes first (offline semantics), reader follows.
  const std::string dir = ::testing::TempDir() + "/flexio_filemode";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Runtime rt;
  Program sim("sim", 2);
  Program viz("viz", 1);
  const Dims global{8, 4};

  run_ranks(2, [&](int rank) {
    StreamSpec spec;
    spec.stream = "offline";
    spec.endpoint = EndpointSpec{&sim, rank, evpath::Location{0, rank}};
    spec.method.method = "BP";
    spec.file_dir = dir;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok()) << w.status().to_string();
    const Box box = adios::block_decompose(global, 2, rank, 0);
    std::vector<double> data(box.elements());
    for (int s = 0; s < 2; ++s) {
      std::iota(data.begin(), data.end(), s * 100.0 + rank * 10.0);
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::global_array_var("g", DataType::kDouble,
                                                      global, box),
                              as_bytes_view(std::span<const double>(data)))
                      .is_ok());
      ASSERT_TRUE(w.value()->write_scalar("step_time", s * 1.5).is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });

  StreamSpec spec;
  spec.stream = "offline";
  spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{1, 0}};
  spec.method.method = "BP";
  spec.file_dir = dir;
  auto r = rt.open_reader(spec);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r.value()->file_mode());
  EXPECT_EQ(r.value()->num_writers(), 2);
  int steps = 0;
  std::vector<double> out(adios::volume(global));
  for (;;) {
    auto step = r.value()->begin_step();
    if (step.status().code() == ErrorCode::kEndOfStream) break;
    ASSERT_TRUE(step.is_ok());
    ASSERT_TRUE(r.value()
                    ->schedule_read("g", Box{{0, 0}, global},
                                    MutableByteView(std::as_writable_bytes(
                                        std::span<double>(out))))
                    .is_ok());
    ASSERT_TRUE(r.value()->perform_reads().is_ok());
    EXPECT_DOUBLE_EQ(out[0], step.value() * 100.0);
    auto t = r.value()->scalar_double("step_time");
    ASSERT_TRUE(t.is_ok());
    EXPECT_DOUBLE_EQ(t.value(), step.value() * 1.5);
    ASSERT_TRUE(r.value()->end_step().is_ok());
    ++steps;
  }
  EXPECT_EQ(steps, 2);
  std::filesystem::remove_all(dir);
}

TEST(StreamApiTest, SequencingErrorsSurfaced) {
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "seq";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = stream_method("caching=none");
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> d(4, 0.0);
    const auto meta =
        adios::global_array_var("x", DataType::kDouble, {4}, Box{{0}, {4}});
    // Write before begin_step.
    EXPECT_FALSE(
        w.value()
            ->write(meta, as_bytes_view(std::span<const double>(d)))
            .is_ok());
    EXPECT_FALSE(w.value()->end_step().is_ok());
    ASSERT_TRUE(w.value()->begin_step(0).is_ok());
    EXPECT_FALSE(w.value()->begin_step(1).is_ok());  // nested
    EXPECT_FALSE(w.value()->close().is_ok());        // open step
    ASSERT_TRUE(w.value()
                    ->write(meta, as_bytes_view(std::span<const double>(d)))
                    .is_ok());
    ASSERT_TRUE(w.value()->end_step().is_ok());
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "seq";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 1}};
    spec.method = stream_method("caching=none");
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    std::vector<double> out(4);
    auto dst = MutableByteView(std::as_writable_bytes(std::span<double>(out)));
    // Reads outside a step.
    EXPECT_FALSE(r.value()->schedule_read("x", Box{{0}, {4}}, dst).is_ok());
    EXPECT_FALSE(r.value()->perform_reads().is_ok());
    auto step = r.value()->begin_step();
    ASSERT_TRUE(step.is_ok());
    // Unknown variable.
    EXPECT_EQ(
        r.value()->schedule_read("ghost", Box{{0}, {4}}, dst).code(),
        ErrorCode::kNotFound);
    // Wrong buffer size.
    EXPECT_EQ(r.value()
                  ->schedule_read("x", Box{{0}, {4}}, dst.subspan(0, 8))
                  .code(),
              ErrorCode::kInvalidArgument);
    // Bad pg rank.
    EXPECT_EQ(r.value()->schedule_read_pg(99).code(), ErrorCode::kOutOfRange);
    ASSERT_TRUE(r.value()->schedule_read("x", Box{{0}, {4}}, dst).is_ok());
    ASSERT_TRUE(r.value()->perform_reads().is_ok());
    ASSERT_TRUE(r.value()->end_step().is_ok());
    EXPECT_EQ(r.value()->begin_step().status().code(),
              ErrorCode::kEndOfStream);
    // Sticky EOS.
    EXPECT_EQ(r.value()->begin_step().status().code(),
              ErrorCode::kEndOfStream);
  });
  writer.join();
  reader.join();
}

}  // namespace
}  // namespace flexio
