#include "core/wire.h"

#include <climits>

#include "util/metrics.h"
#include "xml/config.h"

namespace flexio::wire {

namespace {

using serial::BufReader;
using serial::BufWriter;

// One increment per data piece decoded as a view into its received frame
// instead of a copy (the receive-side twin of flexio.wire.copies_avoided).
metrics::Counter& recv_copies_avoided_counter() {
  static metrics::Counter& c =
      metrics::counter("flexio.wire.recv_copies_avoided");
  return c;
}

// Zero bytes that bring a frame offset up to the next multiple of
// kPayloadAlign.
std::size_t pad_for(std::size_t offset) {
  return (kPayloadAlign - offset % kPayloadAlign) % kPayloadAlign;
}

void put_pad(BufWriter* w, std::size_t offset) {
  static constexpr std::byte kZeros[kPayloadAlign] = {};
  w->put_raw(kZeros, pad_for(offset));
}

Status skip_pad(BufReader* r) {
  ByteView pad;
  return r->get_view(pad_for(r->position()), &pad);
}

void put_box(BufWriter* w, const adios::Box& box) {
  w->put_varint(box.offset.size());
  for (std::uint64_t o : box.offset) w->put_varint(o);
  for (std::uint64_t c : box.count) w->put_varint(c);
}

Status get_box(BufReader* r, adios::Box* box) {
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_count(&n));
  box->offset.resize(n);
  box->count.resize(n);
  for (auto& o : box->offset) FLEXIO_RETURN_IF_ERROR(r->get_varint(&o));
  for (auto& c : box->count) FLEXIO_RETURN_IF_ERROR(r->get_varint(&c));
  return Status::ok();
}

void put_trace(BufWriter* w, const TraceContext& t) {
  w->put_varint(t.stream_id);
  w->put_i64(t.step);
  w->put_varint(t.span_id);
  w->put_varint(t.send_ns);
}

Status get_trace(BufReader* r, TraceContext* t) {
  FLEXIO_RETURN_IF_ERROR(r->get_varint(&t->stream_id));
  FLEXIO_RETURN_IF_ERROR(r->get_i64(&t->step));
  FLEXIO_RETURN_IF_ERROR(r->get_varint(&t->span_id));
  return r->get_varint(&t->send_ns);
}

// A program size read off the wire: 1 to INT_MAX ranks.
Status get_size(BufReader* r, int* size) {
  std::uint64_t v = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_varint(&v));
  if (v < 1 || v > static_cast<std::uint64_t>(INT_MAX)) {
    return make_error(ErrorCode::kInvalidArgument, "program size out of range");
  }
  *size = static_cast<int>(v);
  return Status::ok();
}

Status expect_type(BufReader* r, MsgType want) {
  std::uint8_t tag = 0;
  FLEXIO_RETURN_IF_ERROR(r->get_u8(&tag));
  if (tag != static_cast<std::uint8_t>(want)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "unexpected message type tag");
  }
  return Status::ok();
}

// Every decoder ends here: a frame is consumed exactly, so bytes past its
// last field make it corrupt.
Status expect_end(const BufReader& r) {
  if (!r.at_end()) {
    return make_error(ErrorCode::kInvalidArgument, "trailing bytes in frame");
  }
  return Status::ok();
}

}  // namespace

std::uint64_t stream_id_hash(std::string_view stream) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  h &= 0xffffffffull;  // JSON-double safe
  return h == 0 ? 1 : h;
}

StatusOr<MsgType> peek_type(ByteView raw) {
  if (raw.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty message");
  }
  const auto tag = static_cast<std::uint8_t>(raw[0]);
  if (tag < static_cast<std::uint8_t>(MsgType::kOpenRequest) ||
      tag > static_cast<std::uint8_t>(MsgType::kMembershipUpdate)) {
    return make_error(ErrorCode::kInvalidArgument, "unknown message type");
  }
  return static_cast<MsgType>(tag);
}

std::vector<std::byte> encode_mux_prefix(std::uint64_t stream_id) {
  BufWriter w;
  w.put_u8(kMuxPrefixTag);
  w.put_varint(stream_id);
  put_pad(&w, w.size());
  return w.take();
}

StatusOr<MuxFrame> decode_mux(ByteView raw) {
  BufReader r{raw};
  std::uint8_t tag = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_u8(&tag));
  if (tag != kMuxPrefixTag) {
    return make_error(ErrorCode::kInvalidArgument, "frame has no mux prefix");
  }
  MuxFrame f;
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&f.stream_id));
  if (f.stream_id == 0) {
    return make_error(ErrorCode::kInvalidArgument, "mux prefix stream_id 0");
  }
  FLEXIO_RETURN_IF_ERROR(skip_pad(&r));
  FLEXIO_RETURN_IF_ERROR(r.get_view(r.remaining(), &f.inner));
  return f;
}

std::vector<std::byte> encode(const OpenRequest& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kOpenRequest));
  w.put_string(m.reader_program);
  w.put_varint(static_cast<std::uint64_t>(m.reader_size));
  return w.take();
}

StatusOr<OpenRequest> decode_open_request(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kOpenRequest));
  OpenRequest m;
  FLEXIO_RETURN_IF_ERROR(r.get_string(&m.reader_program));
  FLEXIO_RETURN_IF_ERROR(get_size(&r, &m.reader_size));
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode(const OpenReply& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kOpenReply));
  w.put_string(m.writer_program);
  w.put_varint(static_cast<std::uint64_t>(m.writer_size));
  w.put_u8(m.caching);
  return w.take();
}

StatusOr<OpenReply> decode_open_reply(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kOpenReply));
  OpenReply m;
  FLEXIO_RETURN_IF_ERROR(r.get_string(&m.writer_program));
  FLEXIO_RETURN_IF_ERROR(get_size(&r, &m.writer_size));
  FLEXIO_RETURN_IF_ERROR(r.get_u8(&m.caching));
  if (m.caching > static_cast<std::uint8_t>(xml::CachingLevel::kAll)) {
    return make_error(ErrorCode::kInvalidArgument, "unknown caching level");
  }
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode(const StepAnnounce& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kStepAnnounce));
  w.put_i64(m.step);
  put_trace(&w, m.trace);
  w.put_varint(m.membership_epoch);
  w.put_varint(m.blocks.size());
  for (const BlockInfo& b : m.blocks) {
    w.put_varint(static_cast<std::uint64_t>(b.writer_rank));
    b.meta.encode(&w);
    w.put_bytes(ByteView(b.scalar_payload));
  }
  return w.take();
}

StatusOr<StepAnnounce> decode_step_announce(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kStepAnnounce));
  StepAnnounce m;
  FLEXIO_RETURN_IF_ERROR(r.get_i64(&m.step));
  FLEXIO_RETURN_IF_ERROR(get_trace(&r, &m.trace));
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&m.membership_epoch));
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_count(&n));
  m.blocks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    BlockInfo b;
    std::uint64_t rank = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&rank));
    b.writer_rank = static_cast<int>(rank);
    auto meta = adios::VarMeta::decode(&r);
    if (!meta.is_ok()) return meta.status();
    b.meta = std::move(meta).value();
    ByteView payload;
    FLEXIO_RETURN_IF_ERROR(r.get_bytes(&payload));
    b.scalar_payload.assign(payload.begin(), payload.end());
    m.blocks.push_back(std::move(b));
  }
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode(const ReadRequest& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReadRequest));
  w.put_i64(m.step);
  put_trace(&w, m.trace);
  w.put_varint(m.membership_epoch);
  w.put_varint(m.selections.size());
  for (const SelectionInfo& s : m.selections) {
    w.put_varint(static_cast<std::uint64_t>(s.reader_rank));
    w.put_string(s.var);
    put_box(&w, s.box);
  }
  w.put_varint(m.pg_requests.size());
  for (const PgRequestInfo& p : m.pg_requests) {
    w.put_varint(static_cast<std::uint64_t>(p.reader_rank));
    w.put_varint(static_cast<std::uint64_t>(p.writer_rank));
  }
  w.put_varint(m.plugins.size());
  for (const PluginInstall& p : m.plugins) {
    w.put_string(p.var);
    w.put_string(p.source);
    w.put_u8(p.run_at_writer ? 1 : 0);
  }
  return w.take();
}

StatusOr<ReadRequest> decode_read_request(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kReadRequest));
  ReadRequest m;
  FLEXIO_RETURN_IF_ERROR(r.get_i64(&m.step));
  FLEXIO_RETURN_IF_ERROR(get_trace(&r, &m.trace));
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&m.membership_epoch));
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_count(&n));
  m.selections.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SelectionInfo s;
    std::uint64_t rank = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&rank));
    s.reader_rank = static_cast<int>(rank);
    FLEXIO_RETURN_IF_ERROR(r.get_string(&s.var));
    FLEXIO_RETURN_IF_ERROR(get_box(&r, &s.box));
    m.selections.push_back(std::move(s));
  }
  FLEXIO_RETURN_IF_ERROR(r.get_count(&n));
  m.pg_requests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PgRequestInfo p;
    std::uint64_t a = 0, b = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&a));
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&b));
    p.reader_rank = static_cast<int>(a);
    p.writer_rank = static_cast<int>(b);
    m.pg_requests.push_back(p);
  }
  FLEXIO_RETURN_IF_ERROR(r.get_count(&n));
  m.plugins.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PluginInstall p;
    FLEXIO_RETURN_IF_ERROR(r.get_string(&p.var));
    FLEXIO_RETURN_IF_ERROR(r.get_string(&p.source));
    std::uint8_t at_writer = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_u8(&at_writer));
    p.run_at_writer = at_writer != 0;
    m.plugins.push_back(std::move(p));
  }
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode(const DataMsg& m) {
  const serial::IovMessage iov = encode_data_iov(m);
  std::vector<std::byte> out;
  out.reserve(iov.total_bytes);
  for (const ByteView frag : iov.frags) {
    out.insert(out.end(), frag.begin(), frag.end());
  }
  return out;
}

serial::IovMessage encode_data_iov(const DataMsg& m) {
  serial::IovBuilder b;
  BufWriter& w = b.header();
  w.put_u8(static_cast<std::uint8_t>(MsgType::kData));
  w.put_i64(m.step);
  w.put_varint(static_cast<std::uint64_t>(m.writer_rank));
  put_trace(&w, m.trace);
  w.put_varint(m.pieces.size());
  // Borrowed payload bytes spliced so far: a payload's wire offset is the
  // header written before it plus these.
  std::size_t spliced = 0;
  for (const DataPiece& p : m.pieces) {
    p.meta.encode(&w);
    put_box(&w, p.region);
    const ByteView payload = p.bytes();
    w.put_varint(payload.size());
    put_pad(&w, w.size() + spliced);
    b.add_borrowed(payload);
    spliced += payload.size();
  }
  return std::move(b).finish();
}

StatusOr<DataMsg> decode_data(const ByteLease& frame) {
  BufReader r{frame.view()};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kData));
  DataMsg m;
  FLEXIO_RETURN_IF_ERROR(r.get_i64(&m.step));
  std::uint64_t rank = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&rank));
  m.writer_rank = static_cast<int>(rank);
  FLEXIO_RETURN_IF_ERROR(get_trace(&r, &m.trace));
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_count(&n));
  m.pieces.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    DataPiece p;
    auto meta = adios::VarMeta::decode(&r);
    if (!meta.is_ok()) return meta.status();
    p.meta = std::move(meta).value();
    FLEXIO_RETURN_IF_ERROR(get_box(&r, &p.region));
    std::uint64_t len = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&len));
    FLEXIO_RETURN_IF_ERROR(skip_pad(&r));
    FLEXIO_RETURN_IF_ERROR(r.get_view(len, &p.borrowed));
    p.owner = frame.owner();
    m.pieces.push_back(std::move(p));
  }
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  if (metrics::enabled()) recv_copies_avoided_counter().add(m.pieces.size());
  return m;
}

std::vector<std::byte> encode(const MonitorReport& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kMonitorReport));
  for (const auto& f : kMonitorReportFields) w.put_u64(m.*f.second);
  return w.take();
}

StatusOr<MonitorReport> decode_monitor_report(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kMonitorReport));
  MonitorReport m;
  for (const auto& f : kMonitorReportFields) {
    FLEXIO_RETURN_IF_ERROR(r.get_u64(&(m.*f.second)));
  }
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode(const MembershipUpdate& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kMembershipUpdate));
  w.put_string(m.stream);
  w.put_varint(m.epoch);
  w.put_varint(m.members.size());
  for (const MemberInfo& mi : m.members) {
    w.put_varint(static_cast<std::uint64_t>(mi.rank));
    w.put_string(mi.contact);
    w.put_varint(mi.incarnation);
    w.put_u8(mi.state);
    w.put_varint(mi.join_epoch);
  }
  return w.take();
}

StatusOr<MembershipUpdate> decode_membership_update(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kMembershipUpdate));
  MembershipUpdate m;
  FLEXIO_RETURN_IF_ERROR(r.get_string(&m.stream));
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&m.epoch));
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_count(&n));
  m.members.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    MemberInfo mi;
    std::uint64_t rank = 0;
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&rank));
    mi.rank = static_cast<int>(rank);
    FLEXIO_RETURN_IF_ERROR(r.get_string(&mi.contact));
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&mi.incarnation));
    FLEXIO_RETURN_IF_ERROR(r.get_u8(&mi.state));
    FLEXIO_RETURN_IF_ERROR(r.get_varint(&mi.join_epoch));
    m.members.push_back(std::move(mi));
  }
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode(const Heartbeat& m) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
  w.put_string(m.stream);
  w.put_varint(static_cast<std::uint64_t>(m.rank));
  w.put_varint(m.incarnation);
  w.put_varint(m.send_ns);
  w.put_string(m.program);
  w.put_string(m.stats);
  return w.take();
}

StatusOr<Heartbeat> decode_heartbeat(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kHeartbeat));
  Heartbeat m;
  FLEXIO_RETURN_IF_ERROR(r.get_string(&m.stream));
  std::uint64_t rank = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&rank));
  m.rank = static_cast<int>(rank);
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&m.incarnation));
  FLEXIO_RETURN_IF_ERROR(r.get_varint(&m.send_ns));
  FLEXIO_RETURN_IF_ERROR(r.get_string(&m.program));
  FLEXIO_RETURN_IF_ERROR(r.get_string(&m.stats));
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return m;
}

std::vector<std::byte> encode_close(StepId last_step) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kClose));
  w.put_i64(last_step);
  return w.take();
}

StatusOr<StepId> decode_close(ByteView raw) {
  BufReader r{raw};
  FLEXIO_RETURN_IF_ERROR(expect_type(&r, MsgType::kClose));
  StepId last = 0;
  FLEXIO_RETURN_IF_ERROR(r.get_i64(&last));
  FLEXIO_RETURN_IF_ERROR(expect_end(r));
  return last;
}

}  // namespace flexio::wire
