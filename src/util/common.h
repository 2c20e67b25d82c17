// Basic shared definitions for the FlexIO reproduction.
//
// Every module includes this header; keep it tiny and dependency-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>

namespace flexio {

/// Read-only view over raw bytes (wire payloads, array slabs, ...).
using ByteView = std::span<const std::byte>;
/// Mutable view over raw bytes.
using MutableByteView = std::span<std::byte>;

/// Process-global rank of a "process" in an in-process parallel program.
using Rank = int;

/// Logical simulation output step index (ADIOS timestep).
using StepId = std::int64_t;

/// Reinterpret a typed object span as bytes.
template <typename T>
inline ByteView as_bytes_view(std::span<const T> s) {
  return std::as_bytes(s);
}

/// Total bytes of a scatter-gather fragment list.
inline std::size_t total_size(std::span<const ByteView> frags) {
  std::size_t n = 0;
  for (const ByteView f : frags) n += f.size();
  return n;
}

/// Copy `frags` back to back into `dst`, which holds total_size(frags).
inline void gather(std::span<const ByteView> frags, std::byte* dst) {
  for (const ByteView f : frags) {
    if (f.empty()) continue;
    std::memcpy(dst, f.data(), f.size());
    dst += f.size();
  }
}

/// Round `v` up to the next multiple of `align` (align must be a power of 2).
constexpr std::size_t align_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// True when `v` is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

[[noreturn]] inline void fatal(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "FLEXIO FATAL %s:%d: %s\n", file, line, msg);
  std::abort();
}

}  // namespace flexio

/// Always-on invariant check. Used for programmer errors, not data errors:
/// data errors travel through Status.
#define FLEXIO_CHECK(cond)                                   \
  do {                                                       \
    if (!(cond)) ::flexio::fatal(__FILE__, __LINE__, #cond); \
  } while (0)
