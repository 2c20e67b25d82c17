// Control- and data-plane wire messages of the FlexIO stream protocol.
//
// The stream protocol (paper Section II.C) exchanges:
//  * open request/reply between the two coordinators (connection setup via
//    the directory server),
//  * StepAnnounce (writer-side distributions, Steps 1.s + 2),
//  * ReadRequest (reader-side selections, Steps 1.a + 2),
//  * Data messages carrying packed strides (Step 4), optionally batched,
//  * plug-in installation, shipped monitoring records, and stream close.
// All messages are length-checked on decode; a corrupt frame yields an
// error instead of undefined behaviour.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adios/var.h"
#include "serial/buffer.h"
#include "util/byte_lease.h"
#include "util/status.h"

namespace flexio::wire {

enum class MsgType : std::uint8_t {
  kOpenRequest = 1,
  kOpenReply = 2,
  kStepAnnounce = 3,
  kReadRequest = 4,
  kData = 5,
  kClose = 6,
  kPluginInstall = 7,
  kMonitorReport = 8,
  kHeartbeat = 9,
  kMembershipUpdate = 10,
};

/// Compact trace context stamped into data-plane and handshake frames so
/// reader-side spans can be stitched under the writer step that produced
/// them (and vice versa). Encoded as a *versioned trailer* after the
/// message's regular fields: old frames simply end where the trailer would
/// begin, so decoders treat "no bytes left" as "no context" and old-format
/// frames keep parsing (pinned by tests/core_test.cpp).
struct TraceContext {
  std::uint64_t stream_id = 0;  // stream_id_hash of the stream name
  StepId step = 0;              // step the frame belongs to
  std::uint64_t span_id = 0;    // sender's trace span (0 = tracing off)
  std::uint64_t send_ns = 0;    // sender's clock at encode time
};

/// Stable 32-bit FNV-1a hash of a stream name, never 0. Kept to 32 bits so
/// the value survives a round-trip through JSON doubles in trace exports.
std::uint64_t stream_id_hash(std::string_view stream);

/// Reader coordinator -> writer coordinator when opening a stream.
struct OpenRequest {
  std::string reader_program;
  int reader_size = 0;
};

/// Writer coordinator -> reader coordinator reply: stream shape and the
/// transport tuning the writer side was configured with (both sides must
/// agree on caching/batching, so the writer's config wins).
struct OpenReply {
  std::string writer_program;
  int writer_size = 0;
  std::uint8_t caching = 0;   // xml::CachingLevel
  bool batching = false;
  bool async_writes = false;
};

/// One writer rank's declared variable (with inline payload for scalars,
/// which ride the metadata channel like ADIOS attributes).
struct BlockInfo {
  int writer_rank = 0;
  adios::VarMeta meta;
  std::vector<std::byte> scalar_payload;  // non-empty only for scalars
};

/// Writer coordinator -> reader coordinator: everything written this step.
struct StepAnnounce {
  StepId step = 0;
  std::vector<BlockInfo> blocks;
  std::optional<TraceContext> trace;  // versioned trailer, absent on old frames
  /// Membership epoch the writer planned this step against (trailer v2,
  /// absent on pre-membership frames and when liveness is disabled). A
  /// reader whose cached handshake was exchanged under a different epoch
  /// must re-exchange.
  std::optional<std::uint64_t> membership_epoch;
};

/// One reader rank's selection of a global array.
struct SelectionInfo {
  int reader_rank = 0;
  std::string var;
  adios::Box box;
};

/// One reader rank's request for a writer rank's whole process group.
struct PgRequestInfo {
  int reader_rank = 0;
  int writer_rank = 0;
};

/// Reader -> writer: deploy a Data Conditioning plug-in (mobile codelet
/// source) against a variable, executing at the chosen side. Plug-ins ride
/// inside the ReadRequest so every writer rank installs them at a
/// deterministic point of its SPMD schedule.
struct PluginInstall {
  std::string var;
  std::string source;       // CoD-mini source text
  bool run_at_writer = true;
};

/// Reader coordinator -> writer coordinator: all reader selections.
struct ReadRequest {
  StepId step = 0;
  std::vector<SelectionInfo> selections;
  std::vector<PgRequestInfo> pg_requests;
  std::vector<PluginInstall> plugins;
  std::optional<TraceContext> trace;  // versioned trailer, absent on old frames
  /// Echo of the announce's membership epoch (trailer v2): the collective
  /// agreement point -- the writer adopts it as the epoch its cached plan
  /// is valid for.
  std::optional<std::uint64_t> membership_epoch;
};

/// One transferred piece: a region of a global array (region == the
/// overlap, payload is its dense pack) or a whole local-array block
/// (process-group pattern; region == meta.block).
///
/// Payload ownership is dual. Owned bytes live in `payload` (packed regions
/// on the send path, plug-in output). A `borrowed` view skips the copy:
///  * on the send path a whole-block piece borrows the writer's buffered
///    block, and the bytes flow straight from it into the transport via
///    encode_data_iov (no owner: the block outlives the send);
///  * on the receive path decode_data borrows every piece from the received
///    frame, and `owner` (the frame's lease owner) keeps those bytes valid
///    for as long as the piece lives.
/// Use bytes() to read regardless of mode.
struct DataPiece {
  adios::VarMeta meta;
  adios::Box region;
  std::vector<std::byte> payload;      // owned
  ByteView borrowed;                   // borrowed
  std::shared_ptr<const void> owner;   // keeps `borrowed` valid (receive)

  /// The payload bytes, whichever side owns them.
  ByteView bytes() const {
    return borrowed.empty() ? ByteView(payload) : borrowed;
  }

  /// The payload as a lease: the borrowed bytes with their owner, or the
  /// owned bytes moved into one. Leaves the piece empty.
  ByteLease take_lease() {
    if (borrowed.empty()) return ByteLease(std::move(payload));
    ByteLease out(borrowed, std::move(owner));
    borrowed = {};
    return out;
  }

  /// Copy a borrowed payload into owned storage (needed before handing the
  /// piece to code that mutates or outlives the borrowed buffer), and let
  /// go of the frame it borrowed from.
  void materialize() {
    if (borrowed.empty()) return;
    payload.assign(borrowed.begin(), borrowed.end());
    borrowed = {};
    owner.reset();
  }
};

/// Piece payloads in a data frame start at multiples of this many bytes
/// from the frame start (the encoder pads, the decoder skips), and the mux
/// prefix is padded to a multiple of it, so a frame that a transport
/// received at an aligned address (pool slot, rdma receive buffer, heap
/// entry) delivers pieces readable in place as any element type.
inline constexpr std::size_t kPayloadAlign = 8;

/// Writer rank -> reader rank. One piece per message without batching;
/// all pieces of the (writer, reader, step) triple in one message with it.
struct DataMsg {
  StepId step = 0;
  int writer_rank = 0;
  std::vector<DataPiece> pieces;
  std::optional<TraceContext> trace;  // versioned trailer, absent on old frames
};

/// Writer coordinator -> reader coordinator at close: aggregated writer-
/// side monitoring (Section II.G "transferred to the analytics side").
/// A fixed record of counts and nanosecond sums.
struct MonitorReport {
  std::uint64_t steps = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t handshakes_performed = 0;
  std::uint64_t handshakes_skipped = 0;
  std::uint64_t handshake_ns = 0;
  // Per-phase step attribution, each a sum over phase_steps steps. The
  // writer fills pack/enqueue; transfer/unpack/total are reader-side
  // phases, filled by cluster_phase_report (core/monitor.h).
  std::uint64_t pack_ns = 0;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t transfer_ns = 0;
  std::uint64_t unpack_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t phase_steps = 0;
};

/// MonitorReport's fields in wire order, named as dump_csv writes them.
/// Encode, decode and the CSV dump all walk this one table.
inline constexpr std::pair<const char*, std::uint64_t MonitorReport::*>
    kMonitorReportFields[] = {
        {"steps", &MonitorReport::steps},
        {"bytes_sent", &MonitorReport::bytes_sent},
        {"handshakes_performed", &MonitorReport::handshakes_performed},
        {"handshakes_skipped", &MonitorReport::handshakes_skipped},
        {"handshake_ns", &MonitorReport::handshake_ns},
        {"pack_ns", &MonitorReport::pack_ns},
        {"enqueue_ns", &MonitorReport::enqueue_ns},
        {"transfer_ns", &MonitorReport::transfer_ns},
        {"unpack_ns", &MonitorReport::unpack_ns},
        {"total_ns", &MonitorReport::total_ns},
        {"phase_steps", &MonitorReport::phase_steps},
};

/// One member record inside a MembershipUpdate. `state` mirrors
/// evpath::MemberState (0 alive, 1 left, 2 dead) as a raw byte so the wire
/// layer stays decoupled from the directory's types.
struct MemberInfo {
  int rank = 0;
  std::string contact;
  std::uint64_t incarnation = 0;
  std::uint8_t state = 0;
  std::uint64_t join_epoch = 0;
};

/// Writer coordinator -> reader coordinator, sent immediately before a
/// StepAnnounce whose epoch differs from the previous step's: the
/// membership view behind the new epoch, so the reader coordinator can
/// admit joiners and excise the departed without consulting the directory.
struct MembershipUpdate {
  std::string stream;
  std::uint64_t epoch = 0;
  std::vector<MemberInfo> members;
  std::optional<TraceContext> trace;
};

/// Reader rank -> directory: liveness beat for one member incarnation.
/// Travels as an encoded frame (decoded by the runtime's delivery adapter)
/// so the directory can move out of process without a protocol change.
struct Heartbeat {
  std::string stream;
  int rank = 0;
  std::uint64_t incarnation = 0;
  std::uint64_t send_ns = 0;
  std::optional<TraceContext> trace;
  /// Telemetry piggyback (stats trailer, v3): the sender's program name
  /// and one "flexio-stats-v1" delta line since its previous beat. Both
  /// empty when telemetry publishing is off; pre-v3 frames decode with
  /// both empty (the trailer is skipped by old readers and absent in old
  /// frames). The directory folds these into its cluster view.
  std::string program;
  std::string stats;
};

/// Peek the type tag of an encoded message.
StatusOr<MsgType> peek_type(ByteView raw);

/// Multiplexing frame prefix (shared-link mode): `tag + varint stream_id`,
/// zero-padded to a multiple of kPayloadAlign, prepended to an ordinary
/// protocol frame so many streams can share one
/// link and the receiving registry can route each frame to its stream's
/// inbox. The tag sits outside the MsgType range [1, 10], so a legacy
/// decoder fed a prefixed frame fails loudly in peek_type instead of
/// misparsing it -- and decode_mux treats a frame that starts with a valid
/// MsgType tag as an unprefixed legacy frame (stream_id 0), so
/// pre-multiplexing frames keep parsing (pinned by tests/multiplex_test.cpp).
inline constexpr std::uint8_t kMuxPrefixTag = 0xF5;

/// A demultiplexed frame: the routing key and a view of the inner protocol
/// frame (aliasing the input buffer; zero copies).
struct MuxFrame {
  std::uint64_t stream_id = 0;  // 0 = legacy frame without a prefix
  ByteView inner;
};

/// The prefix bytes for one stream: send them as the first iov fragment (or
/// prepend them) ahead of any encoded protocol frame. stream_id must be
/// non-zero (stream_id_hash never returns 0).
std::vector<std::byte> encode_mux_prefix(std::uint64_t stream_id);

/// Split a possibly-prefixed frame into {stream_id, inner}. Legacy frames
/// (no prefix) pass through with stream_id 0 and inner == raw.
StatusOr<MuxFrame> decode_mux(ByteView raw);

std::vector<std::byte> encode(const OpenRequest& m);
std::vector<std::byte> encode(const OpenReply& m);
std::vector<std::byte> encode(const StepAnnounce& m);
std::vector<std::byte> encode(const ReadRequest& m);
std::vector<std::byte> encode(const DataMsg& m);
/// Scatter-gather encode of a data message: the returned IovMessage frames
/// the exact bytes of encode(m) as owned header slices interleaved with
/// borrowed payload views, so transports can gather piece payloads straight
/// from the writer's buffers without an intermediate flat copy. The pieces'
/// payload buffers must outlive the message.
serial::IovMessage encode_data_iov(const DataMsg& m);
std::vector<std::byte> encode(const PluginInstall& m);
std::vector<std::byte> encode(const MonitorReport& m);
std::vector<std::byte> encode(const MembershipUpdate& m);
std::vector<std::byte> encode(const Heartbeat& m);
/// Close carries the final step id so readers that cache handshakes can
/// tell whether data for earlier steps is still in flight on other links.
std::vector<std::byte> encode_close(StepId last_step);
StatusOr<StepId> decode_close(ByteView raw);

StatusOr<OpenRequest> decode_open_request(ByteView raw);
StatusOr<OpenReply> decode_open_reply(ByteView raw);
StatusOr<StepAnnounce> decode_step_announce(ByteView raw);
StatusOr<ReadRequest> decode_read_request(ByteView raw);
/// Decode a data frame without copying any payload: every piece borrows
/// its bytes from `frame` and shares its owner, so the pieces stay valid
/// after the frame (and its transport link) are gone. A corrupt frame fails
/// with a Status and no piece view reaches past the frame. Counts each
/// piece in flexio.wire.recv_copies_avoided.
StatusOr<DataMsg> decode_data(const ByteLease& frame);
StatusOr<PluginInstall> decode_plugin_install(ByteView raw);
StatusOr<MonitorReport> decode_monitor_report(ByteView raw);
StatusOr<MembershipUpdate> decode_membership_update(ByteView raw);
StatusOr<Heartbeat> decode_heartbeat(ByteView raw);

}  // namespace flexio::wire
