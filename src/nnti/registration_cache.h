// Persistent buffer + registration cache for RDMA transfers.
//
// Dynamic buffer allocation and memory registration dominate RDMA costs
// (paper Figure 4), especially for particle codes whose output size changes
// every timestep. Like MPI and Charm++, FlexIO keeps allocated *and
// registered* buffers in a pool and reuses them whenever possible; a
// configurable threshold bounds total memory and triggers reclamation
// (Section II.E).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "nnti/nnti.h"
#include "util/status.h"

namespace flexio::nnti {

/// A pooled, registered buffer. `region` is what remote peers Get from.
struct RegisteredBuffer {
  std::byte* data = nullptr;
  std::size_t capacity = 0;
  std::uint32_t size_class = 0;
  MemRegion region;

  explicit operator bool() const { return data != nullptr; }
};

struct RegistrationCacheStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t hits = 0;           // registration avoided
  std::uint64_t misses = 0;         // no pooled buffer of the right class
  std::uint64_t registrations = 0;  // fresh allocate+register
  std::uint64_t reclamations = 0;   // freed+deregistered over threshold
  std::size_t bytes_held = 0;       // free + in-use
  std::size_t bytes_in_use = 0;     // acquired, not yet released
};

class RegistrationCache {
 public:
  /// `nic` must outlive the cache, or at least its detach(). The cache is
  /// thread-safe. `capacity_bytes` is the reclamation threshold on total
  /// held memory.
  RegistrationCache(Nic* nic, std::size_t capacity_bytes);
  ~RegistrationCache();

  RegistrationCache(const RegistrationCache&) = delete;
  RegistrationCache& operator=(const RegistrationCache&) = delete;

  /// A registered buffer with capacity >= size, reused when possible: a
  /// free buffer of the request's size class, else one of the next class
  /// up (the closest size that fits, paper Section II.E), so sizes that
  /// straddle a class boundary share one registration instead of evicting
  /// each other. Within a class the most recently released buffer is
  /// reused first (it is the most likely to be cache- and TLB-warm).
  StatusOr<RegisteredBuffer> acquire(std::size_t size);

  /// Return a buffer to the pool (kept registered) or reclaim it when the
  /// pool is over threshold (freed and deregistered). After detach() the
  /// buffer is freed instead.
  void release(RegisteredBuffer buffer);

  /// Let go of the NIC: deregister and free every pooled buffer now, and
  /// free (not pool) each buffer still handed out when it is released. For
  /// a cache whose buffers outlive its NIC -- the receive side leases them
  /// past its link's teardown. acquire() fails after detach.
  void detach();

  RegistrationCacheStats stats() const;

  static constexpr std::size_t kMinClassBytes = 256;
  static std::uint32_t class_for(std::size_t size);
  static std::size_t class_capacity(std::uint32_t size_class);

 private:
  /// A pooled free buffer plus its release stamp. Stamps order eviction:
  /// when the pool must shrink, the least recently used free buffer (the
  /// smallest stamp, across all size classes) is deregistered first.
  struct FreeEntry {
    RegisteredBuffer buf;
    std::uint64_t last_use = 0;
  };

  void reclaim_locked(RegisteredBuffer& buf);
  /// Evict LRU free buffers until freeing `needed` more bytes would fit
  /// under the threshold (or nothing free remains).
  void evict_lru_locked(std::size_t needed);

  Nic* nic_;
  std::size_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::vector<std::vector<FreeEntry>> shelves_;
  RegistrationCacheStats stats_;
  std::uint64_t use_clock_ = 0;
};

}  // namespace flexio::nnti
