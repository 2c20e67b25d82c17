// Unidirectional transport links underneath endpoints.
//
// Mirrors EVPath's modular transport architecture: the same Link interface
// is implemented by an in-process queue (reference/testing), the
// FastForward shared-memory channel (intra-node), and the NNTI RDMA
// protocol with receiver-directed Get and registered-buffer reuse
// (inter-node). The bus picks the implementation from the endpoints'
// Locations.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "evpath/message.h"
#include "nnti/nnti.h"
#include "nnti/registration_cache.h"
#include "shm/channel.h"
#include "util/status.h"

namespace flexio::evpath {

/// Per-link transfer counters (feeds FlexIO performance monitoring).
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
};

/// Writer side of a unidirectional link.
class SendLink {
 public:
  virtual ~SendLink() = default;

  /// Send one message: the concatenation of `frags`, which the transport
  /// gathers straight into its own buffer (queue entry, pool slot, eager
  /// frame or registered buffer), so a header plus borrowed payload views
  /// is never flattened first. Fragments must stay valid until the call
  /// returns. `mode` is the pacing described at SendMode.
  virtual Status send(std::span<const ByteView> frags, SendMode mode) = 0;
  Status send(ByteView msg, SendMode mode) {
    return send(std::span<const ByteView>(&msg, 1), mode);
  }

  virtual Status close() = 0;
  virtual TransportKind kind() const = 0;
  virtual LinkStats stats() const = 0;
};

/// Reader side of a unidirectional link.
class RecvLink {
 public:
  virtual ~RecvLink() = default;

  /// Poll for the next message. Returns:
  ///  * ok with *got=true           -- message (or EOS marker) produced
  ///  * ok with *got=false          -- nothing available right now
  virtual Status try_receive(Message* out, bool* got) = 0;
  virtual TransportKind kind() const = 0;
};

/// Tuning for link construction (subset of xml::MethodConfig).
struct LinkOptions {
  std::size_t queue_entries = 64;
  std::size_t queue_payload_bytes = 512;
  std::size_t pool_bytes = 64ull << 20;
  std::size_t rdma_pool_bytes = 256ull << 20;
  /// RDMA messages <= this ride the small-message queue; larger ones use
  /// receiver-directed Get.
  std::size_t rdma_eager_threshold = 4096;
  std::chrono::nanoseconds timeout = std::chrono::seconds(30);
  int max_retries = 3;
};

/// Create a matched (send, recv) pair over an in-process queue.
std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>>
make_inproc_link(std::string peer_name, LinkOptions options);

/// Create a matched pair over a FastForward shared-memory channel.
std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>>
make_shm_link(std::string peer_name, LinkOptions options);

/// Create a matched pair over the NNTI fabric. `sender_nic` and
/// `receiver_nic` are dedicated per-link NICs (pairwise message queues,
/// like NNTI connections). Each side owns a registration cache: the sender
/// stages rendezvous data in its buffers, the receiver Gets into its own
/// and leases them up the stack.
std::pair<std::unique_ptr<SendLink>, std::unique_ptr<RecvLink>>
make_rdma_link(std::string peer_name, LinkOptions options,
               std::shared_ptr<nnti::Nic> sender_nic,
               std::shared_ptr<nnti::Nic> receiver_nic);

}  // namespace flexio::evpath
