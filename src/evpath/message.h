// Message and addressing types for the EVPath-like layer.
#pragma once

#include <string>

#include "util/byte_lease.h"
#include "util/common.h"

namespace flexio::evpath {

/// Placement of an endpoint on the (real or simulated) machine. Transport
/// selection keys off it: same node -> shared memory, different node ->
/// RDMA (paper Section II.B: "intra- vs inter-node transports are
/// automatically configured according to the placements").
struct Location {
  int node = 0;
  int rank = 0;  // slot within its program, for diagnostics

  friend bool operator==(const Location&, const Location&) = default;
};

/// Which low-level transport a link uses.
enum class TransportKind { kInproc, kShm, kRdma };

std::string_view transport_kind_name(TransportKind kind);

/// One received message. `eos` marks the peer's clean close of the link;
/// payload is empty in that case. The payload is a lease over the memory
/// the transport received into (shm pool slot, rdma receive buffer, inproc
/// queue entry, or the copy an shm inline receive makes): building a
/// Message copies nothing more, and the memory returns to its transport
/// when the last copy of the lease drops.
struct Message {
  std::string from;
  ByteLease payload;
  bool eos = false;
};

/// Delivery semantics for sends. What kSync waits for, per transport:
///  * inproc: nothing; the message is in the receiver's queue at return;
///  * shm: the consumer's dequeue of a pool-sized message (an inline-sized
///    one returns at enqueue, its payload already out of the caller's
///    buffers);
///  * rdma: the receiver's Get-completion ack of a rendezvous message (an
///    eager one returns once it sits in the receiver's queue).
enum class SendMode {
  kAsync,  // return once the payload is safely buffered
  kSync,   // return once the receiver has taken the payload (see above)
};

}  // namespace flexio::evpath
