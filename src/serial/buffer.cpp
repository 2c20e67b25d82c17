#include "serial/buffer.h"

namespace flexio::serial {

void BufWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void BufWriter::put_string(std::string_view s) {
  put_varint(s.size());
  put_raw(s.data(), s.size());
}

void BufWriter::put_bytes(ByteView bytes) {
  put_varint(bytes.size());
  put_raw(bytes.data(), bytes.size());
}

Status BufReader::get_varint(std::uint64_t* v) {
  std::uint64_t result = 0;
  int shift = 0;
  for (;;) {
    std::uint8_t byte = 0;
    FLEXIO_RETURN_IF_ERROR(get_u8(&byte));
    if (shift >= 64 || (shift == 63 && (byte & 0x7e))) {
      return make_error(ErrorCode::kInvalidArgument, "varint overflow");
    }
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *v = result;
  return Status::ok();
}

Status BufReader::get_count(std::uint64_t* n) {
  FLEXIO_RETURN_IF_ERROR(get_varint(n));
  if (*n > remaining()) {
    return make_error(ErrorCode::kOutOfRange, "element count underrun");
  }
  return Status::ok();
}

Status BufReader::get_string(std::string* s) {
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(get_varint(&n));
  if (n > remaining()) {
    return make_error(ErrorCode::kOutOfRange, "string underrun");
  }
  s->assign(reinterpret_cast<const char*>(data_.data() + pos_),
            static_cast<std::size_t>(n));
  pos_ += n;
  return Status::ok();
}

IovMessage IovBuilder::finish() && {
  IovMessage out;
  out.header = w_.take();
  out.frags.reserve(splits_.size() * 2 + 1);
  const ByteView header(out.header);
  std::size_t prev = 0;
  for (const Split& s : splits_) {
    if (s.header_end > prev) {
      out.frags.push_back(header.subspan(prev, s.header_end - prev));
      prev = s.header_end;
    }
    if (!s.payload.empty()) out.frags.push_back(s.payload);
    out.total_bytes += s.payload.size();
  }
  if (header.size() > prev) {
    out.frags.push_back(header.subspan(prev));
  }
  out.total_bytes += header.size();
  return out;
}

Status BufReader::get_bytes(ByteView* bytes) {
  std::uint64_t n = 0;
  FLEXIO_RETURN_IF_ERROR(get_varint(&n));
  return get_view(static_cast<std::size_t>(n), bytes);
}

}  // namespace flexio::serial
