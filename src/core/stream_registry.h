// Many-stream multiplexing: shared endpoints, per-stream demux inboxes,
// and fair credit-gated outbound scheduling (DESIGN.md "Stream
// multiplexing").
//
// Every stream side talks to the transport through a StreamChannel. In the
// default (dedicated) mode the channel is an exact passthrough to a
// per-stream Endpoint named by the `stream|program.rank` convention -- the
// seed behaviour, byte-for-byte. With `shared_links=yes` in the method
// config, all streams of one (program, rank) attach to a single shared
// Endpoint owned by the process-wide StreamRegistry: O(links) connections
// instead of O(streams), which is what lets one runtime host thousands of
// streams without dialing thousands of link pairs.
//
// On the shared path:
//  * every outbound frame is prefixed with wire::kMuxPrefixTag + varint
//    stream_id (wire.h); a frame without the prefix is dropped,
//  * inbound frames are demultiplexed by that prefix into per-stream
//    inboxes; recv is a cooperative pump (one blocked receiver drains the
//    endpoint for everyone and routes by stream id),
//  * outbound frames queue per (destination, stream) and are drained by a
//    registry-wide util::WorkPool under deficit round-robin, so one
//    elephant stream cannot starve mice sharing its link,
//  * each stream holds at most credit_bytes of queued outbound data; a
//    producer that outruns its consumer stalls on its *own* credit, never
//    on another stream's (flexio.stream.{queued_bytes,credits,stalls}).
//
// Lifetime: the registry must outlive every channel it handed out (the
// same contract MessageBus has with its endpoints); Runtime owns one of
// each and destroys the registry first.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "evpath/bus.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/work_pool.h"

namespace flexio {

class SharedEndpoint;
class StreamRegistry;
struct CreditState;

/// Multiplexing knobs, lifted from xml::MethodConfig by the stream classes.
struct MuxOptions {
  bool shared_links = false;
  std::size_t credit_bytes = 4ull << 20;        // per-stream outbound cap
  std::size_t drr_quantum_bytes = 64ull << 10;  // DRR deficit refill
  std::chrono::nanoseconds timeout = std::chrono::seconds(30);
};

/// One stream's handle on the transport. Mirrors the Endpoint surface the
/// stream classes use, so StreamWriter/StreamReader are mode-blind: they
/// compute peer names through peer_name() and never touch the bus directly.
class StreamChannel {
 public:
  ~StreamChannel();
  StreamChannel(const StreamChannel&) = delete;
  StreamChannel& operator=(const StreamChannel&) = delete;

  /// This side's endpoint name (what peers and the directory see).
  const std::string& name() const { return name_; }
  std::uint64_t stream_id() const { return stream_id_; }
  bool shared() const { return shared_ != nullptr; }

  /// The peer endpoint name for (stream, program, rank) under this
  /// channel's mode: `stream|program.rank` dedicated, `mux|program.rank`
  /// shared. Both sides of a stream must run the same mode; the open
  /// handshake checks.
  std::string peer_name(const std::string& stream, const std::string& program,
                        int rank) const;

  /// Send the concatenation of `frags`. Dedicated mode hands the fragments
  /// to the endpoint. Shared mode coalesces the mux prefix and the
  /// fragments into one owned frame, since queued frames outlive the call;
  /// a sync send then blocks on the drainer's completion, an async one
  /// returns once the frame is queued under credit.
  Status send(const std::string& to, std::span<const ByteView> frags,
              evpath::SendMode mode = evpath::SendMode::kAsync);
  Status send(const std::string& to, ByteView msg,
              evpath::SendMode mode = evpath::SendMode::kAsync) {
    return send(to, std::span<const ByteView>(&msg, 1), mode);
  }

  /// Close the outbound link to a peer. Shared mode flushes this stream's
  /// queued frames and then only records the logical close: the underlying
  /// link belongs to every attached stream (closing it would EOS the
  /// link-mates), so it stays open until the shared endpoint itself winds
  /// down. The peer stream observes the close through the protocol's Close
  /// frame, not a transport EOS.
  Status close_to(const std::string& to);

  /// Forget the cached outbound link (respawned peer). Shared mode passes
  /// through: the old link points at dead transport state for every stream.
  void drop_link(const std::string& to);

  Status recv(evpath::Message* out, std::chrono::nanoseconds timeout);
  Status recv_from(const std::string& from, evpath::Message* out,
                   std::chrono::nanoseconds timeout);

  StatusOr<evpath::TransportKind> transport_to(const std::string& to) const;

  /// Wait until this stream's outbound queue is empty, then surface (and
  /// clear) the first asynchronous send failure, if any. Dedicated mode is
  /// a no-op: sends there never queue in the channel.
  Status flush(std::chrono::nanoseconds timeout);

  /// Outbound bytes currently queued in this stream's DRR sub-queues.
  std::size_t queued_bytes() const;

 private:
  friend class StreamRegistry;
  friend class SharedEndpoint;
  StreamChannel() = default;

  std::string name_;
  std::string stream_;
  std::uint64_t stream_id_ = 0;
  MuxOptions opts_;
  StreamRegistry* registry_ = nullptr;
  std::shared_ptr<evpath::Endpoint> own_;   // dedicated mode
  std::shared_ptr<SharedEndpoint> shared_;  // shared mode
  std::vector<std::byte> prefix_;           // encoded mux routing prefix
  std::shared_ptr<CreditState> credit_;
  // Per-stream metric series, resolved once through the bounded-cardinality
  // families (metrics::Family) so 1k streams collapse into *.other. Shared
  // handles: a retired series is freed once its last holder is gone.
  std::shared_ptr<metrics::Gauge> credits_gauge_;
  std::shared_ptr<metrics::Counter> stalls_counter_;
};

/// Process-wide owner of the shared endpoints, their demux state, and the
/// drain pool. One per Runtime.
class StreamRegistry {
 public:
  explicit StreamRegistry(evpath::MessageBus* bus) : bus_(bus) {}
  ~StreamRegistry();
  StreamRegistry(const StreamRegistry&) = delete;
  StreamRegistry& operator=(const StreamRegistry&) = delete;

  /// Attach one stream side. Dedicated mode creates the per-stream
  /// endpoint; shared mode get-or-creates the (program, rank) shared
  /// endpoint (first attach's location and link options win) and registers
  /// the stream's demux inbox. Fails with kAlreadyExists when two distinct
  /// stream names collide on one stream_id_hash (the routing key must be
  /// injective within a process).
  StatusOr<std::shared_ptr<StreamChannel>> attach(
      const std::string& stream, const std::string& program, int rank,
      evpath::Location location, evpath::LinkOptions link_options,
      const MuxOptions& opts);

  /// Live shared endpoints / attached shared streams -- the O(links) vs
  /// O(streams) evidence the many-stream bench gates on.
  std::size_t shared_endpoint_count() const;
  std::size_t attached_stream_count() const;

  /// Naming conventions (pinned by tests/multiplex_test.cpp).
  static std::string dedicated_endpoint_name(const std::string& stream,
                                             const std::string& program,
                                             int rank) {
    return stream + "|" + program + "." + std::to_string(rank);
  }
  static std::string shared_endpoint_name(const std::string& program,
                                          int rank) {
    return "mux|" + program + "." + std::to_string(rank);
  }
  /// Does an endpoint/contact name belong to a shared endpoint? The open
  /// handshake uses this to reject a mode mismatch between the two sides.
  static bool is_shared_name(std::string_view name) {
    return name.rfind("mux|", 0) == 0;
  }

 private:
  friend class StreamChannel;
  friend class SharedEndpoint;

  /// Lazily-created pool whose workers drain the DRR lanes. Never created
  /// in dedicated-only processes.
  util::WorkPool& drain_pool();
  void detach_shared(std::uint64_t stream_id);

  evpath::MessageBus* bus_;
  mutable std::mutex mutex_;
  std::map<std::string, std::weak_ptr<SharedEndpoint>> endpoints_;
  // stream_id -> (stream name, attach refcount): collision detection.
  std::map<std::uint64_t, std::pair<std::string, int>> stream_ids_;
  std::size_t attached_streams_ = 0;
  std::unique_ptr<util::WorkPool> pool_;
};

}  // namespace flexio
