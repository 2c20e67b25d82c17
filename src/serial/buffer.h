// Low-level byte-buffer encode/decode primitives.
//
// Everything FlexIO puts on a wire or in a file funnels through these two
// classes: handshake/control messages (EVPath layer), the BP-like file
// format (adios layer), and DC plug-in deployment payloads. Layout is
// little-endian, varint-framed, and deliberately simple so it is easy to
// verify in tests.
#pragma once

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace flexio::serial {

/// Append-only encoder into an owned byte vector.
class BufWriter {
 public:
  /// Fixed-width little-endian primitives.
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void put_u16(std::uint16_t v) { put_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_raw(&v, sizeof v); }

  /// LEB128 variable-length unsigned integer.
  void put_varint(std::uint64_t v);

  /// Length-prefixed string.
  void put_string(std::string_view s);

  /// Length-prefixed raw byte blob.
  void put_bytes(ByteView bytes);

  /// Raw bytes without a length prefix (caller knows the size).
  void put_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::size_t size() const { return buf_.size(); }
  ByteView view() const { return ByteView(buf_); }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// One scatter-gather encoded message: `header` owns every byte the
/// encoder produced itself; `frags` lists the full wire order as views
/// alternating between slices of `header` and caller-owned payload
/// buffers. Concatenating the fragments yields exactly the bytes a flat
/// encode would have produced, so transports can either gather the views
/// directly into their own buffers (zero intermediate copy) or coalesce
/// as a fallback. Move-only: the header views in `frags` point into the
/// heap buffer, which travels with the vector on move but not on copy.
struct IovMessage {
  std::vector<std::byte> header;
  std::vector<ByteView> frags;
  std::size_t total_bytes = 0;

  IovMessage() = default;
  IovMessage(IovMessage&&) = default;
  IovMessage& operator=(IovMessage&&) = default;
  IovMessage(const IovMessage&) = delete;
  IovMessage& operator=(const IovMessage&) = delete;
};

/// Builds an IovMessage: header bytes stream through a normal BufWriter;
/// add_borrowed() splices a caller-owned payload into the wire order
/// without copying it. The caller's buffers must stay alive until the
/// finished message has been handed to a transport.
class IovBuilder {
 public:
  /// Encoder for the owned (header) portion of the message.
  BufWriter& header() { return w_; }

  /// Splice `payload` into the wire order at the current header position.
  void add_borrowed(ByteView payload) {
    splits_.push_back(Split{w_.size(), payload});
  }

  /// Assemble the fragment list. Consumes the builder.
  IovMessage finish() &&;

 private:
  struct Split {
    std::size_t header_end;  // header bytes preceding the payload
    ByteView payload;
  };
  BufWriter w_;
  std::vector<Split> splits_;
};

/// Cursor-based decoder over a borrowed byte view. All getters report
/// truncation through Status instead of reading out of bounds.
class BufReader {
 public:
  explicit BufReader(ByteView data) : data_(data) {}

  Status get_u8(std::uint8_t* v) { return get_raw(v, sizeof *v); }
  Status get_u16(std::uint16_t* v) { return get_raw(v, sizeof *v); }
  Status get_u32(std::uint32_t* v) { return get_raw(v, sizeof *v); }
  Status get_u64(std::uint64_t* v) { return get_raw(v, sizeof *v); }
  Status get_i64(std::int64_t* v) {
    std::uint64_t u = 0;
    FLEXIO_RETURN_IF_ERROR(get_u64(&u));
    *v = static_cast<std::int64_t>(u);
    return Status::ok();
  }
  Status get_f64(double* v) { return get_raw(v, sizeof *v); }

  Status get_varint(std::uint64_t* v);
  /// A varint element count, rejected when it exceeds the bytes left (every
  /// element takes at least one), so a corrupt count cannot size a huge
  /// allocation before the element reads fail.
  Status get_count(std::uint64_t* n);
  Status get_string(std::string* s);
  /// Returns a view into the underlying buffer (no copy).
  Status get_bytes(ByteView* bytes);

  // Bounds checks compare against remaining(): a length read off the wire
  // can be near 2^64, and pos_ + n would wrap past the check.
  Status get_raw(void* out, std::size_t n) {
    if (n > remaining()) {
      return make_error(ErrorCode::kOutOfRange, "buffer underrun");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::ok();
  }

  /// Borrow `n` bytes without copying.
  Status get_view(std::size_t n, ByteView* out) {
    if (n > remaining()) {
      return make_error(ErrorCode::kOutOfRange, "buffer underrun");
    }
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::ok();
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }
  Status seek(std::size_t pos) {
    if (pos > data_.size()) {
      return make_error(ErrorCode::kOutOfRange, "seek past end");
    }
    pos_ = pos;
    return Status::ok();
  }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace flexio::serial
