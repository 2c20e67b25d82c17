// Endpoints and the message bus (EVPath process + connection management).
//
// An Endpoint stands in for one process's EVPath stack: it sends to named
// peers and multiplexes receives over all inbound links. The MessageBus is
// the in-process "network": it tracks endpoints by name and, on first
// contact, builds the right link for the pair -- shared memory when both
// endpoints sit on the same (simulated) node, the NNTI RDMA protocol when
// they do not (paper Section II.B: transports are configured automatically
// from placement). Endpoints on the same node *and* same rank slot use the
// trivial in-process transport (inline placement).
//
// Locking (DESIGN.md "Endpoint locking inventory"): the outbound side is
// sharded per link. A reader-writer lock guards the name -> link map
// (shared for lookup and stats scraping, exclusive only to insert or erase
// an entry), and each link carries its own send mutex, so pack-pool tasks
// targeting different readers enqueue concurrently while sends to the same
// destination stay ordered -- the per-link monotone sequence and
// duplicate-frame suppression in link.cpp depend on that order. Teardown
// (drop_link, endpoint destruction) erases the map entry but the entry is
// refcounted: an in-flight send holds it alive and finishes on the
// detached link, so teardown never blocks behind a slow send and a send
// never touches freed link state.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "evpath/link.h"
#include "evpath/message.h"
#include "nnti/nnti.h"
#include "util/backoff.h"
#include "util/status.h"

namespace flexio::evpath {

class MessageBus;

class Endpoint {
 public:
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& name() const { return name_; }
  const Location& location() const { return location_; }

  /// Send to a named endpoint, creating the link on first use. The wire
  /// message is the concatenation of `frags`, which the link gathers
  /// straight into its transport buffer (SendLink::send).
  Status send(const std::string& to, std::span<const ByteView> frags,
              SendMode mode = SendMode::kAsync);
  Status send(const std::string& to, ByteView msg,
              SendMode mode = SendMode::kAsync) {
    return send(to, std::span<const ByteView>(&msg, 1), mode);
  }

  /// Close the outbound link to a peer (delivers EOS on its side).
  Status close_to(const std::string& to);

  /// Forget the cached outbound link to `to` without closing it (no EOS).
  /// The next send reconnects from scratch. Used when a peer respawned
  /// under the same name: the old link points at the dead incarnation's
  /// transport state. No-op if no link was cached. Safe against in-flight
  /// sends: a send already holding the entry finishes on the old link.
  void drop_link(const std::string& to);

  /// Receive the next message from any peer. EOS messages are delivered
  /// once per closed link (out->eos == true), after which the link is
  /// dropped. Times out with kTimeout.
  Status recv(Message* out, std::chrono::nanoseconds timeout);

  /// Receive the next message from one specific peer; messages from other
  /// peers stay queued on their links.
  Status recv_from(const std::string& from, Message* out,
                   std::chrono::nanoseconds timeout);

  /// Transport used to reach a peer; kNotFound before the first send.
  /// Takes only the shared side of the link-map lock: never stalls sends.
  StatusOr<TransportKind> transport_to(const std::string& to) const;

  /// Counters for the outbound link to `to` (zeroes before first send).
  /// Shared map lock + that one link's send mutex: stats scraping (flight
  /// recorder) contends only with sends to the same peer, never the rest.
  LinkStats outbound_stats(const std::string& to) const;

 private:
  friend class MessageBus;
  Endpoint(MessageBus* bus, std::string name, Location location,
           LinkOptions options);

  /// One outbound link plus the mutex serializing every call into it.
  /// SendLink implementations are not internally synchronized (per-link
  /// sequence counters, outstanding-buffer maps, stats); holding `mutex`
  /// across send/close/stats is what makes them safe. Entries are shared
  /// so teardown can erase the map slot while a send is in flight: the
  /// sender's reference keeps the entry (and link) alive until it returns.
  struct LinkEntry {
    std::mutex mutex;
    std::unique_ptr<SendLink> link;
  };

  void attach_recv_link(const std::string& from,
                        std::unique_ptr<RecvLink> link);
  /// Move attached_ into recv_links_; called with recv_mutex_ held.
  void adopt_attached_locked();
  std::shared_ptr<LinkEntry> outbound(const std::string& to) const;
  StatusOr<std::shared_ptr<LinkEntry>> outbound_or_connect(
      const std::string& to);

  MessageBus* bus_;
  std::string name_;
  Location location_;
  LinkOptions options_;

  // map_mutex_ guards the map structure only (shared: lookup; exclusive:
  // insert/erase). connect_mutex_ serializes link *creation* so concurrent
  // first-sends to the same peer dial once -- it is never held during a
  // send, and map_mutex_ is only taken inside it (lock order: connect ->
  // map; nothing takes them the other way around).
  mutable std::shared_mutex map_mutex_;
  std::map<std::string, std::shared_ptr<LinkEntry>> send_links_;
  std::mutex connect_mutex_;

  mutable std::mutex recv_mutex_;
  struct Inbound {
    std::string from;
    std::unique_ptr<RecvLink> link;
  };
  std::vector<Inbound> recv_links_;
  std::size_t rr_cursor_ = 0;  // round-robin fairness across inbound links

  // Links a peer dialed, waiting for the next poll to adopt them. A waiting
  // receiver re-takes recv_mutex_ between spin-yields (and holds it through
  // an rdma Get), so a dialer queued on it can starve for milliseconds;
  // attaching takes only attach_mutex_ (lock order: recv -> attach).
  std::mutex attach_mutex_;
  std::vector<Inbound> attached_;
  std::atomic<bool> has_attached_{false};

  // Idle-recv pacing state, persistent across recv calls so repeated short
  // timed polls (a demux pump slicing one long wait into many recv calls)
  // keep climbing the ladder instead of restarting the spin tier each call.
  // A successful dequeue resets it to the spin tier: a burst arriving after
  // an idle period must not eat a stale max-backoff sleep. Guarded by its
  // own mutex (taken after recv_mutex_ is released, or nested inside it on
  // the dequeue path; never the other way around).
  mutable std::mutex recv_idle_mutex_;
  int recv_spins_ = 0;
  util::Backoff recv_backoff_;
};

class MessageBus {
 public:
  MessageBus() = default;
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Create a named endpoint at a location. Names must be unique among
  /// live endpoints. The bus must outlive all endpoints it created.
  StatusOr<std::shared_ptr<Endpoint>> create_endpoint(
      const std::string& name, Location location, LinkOptions options = {});

  /// The underlying fabric (fault injection for tests).
  nnti::Fabric& fabric() { return fabric_; }

 private:
  friend class Endpoint;

  /// Build a (send, recv) pair between two endpoints and attach the recv
  /// side to the target. Called under the sender's connect_mutex_ (one
  /// dial per peer at a time), never under its link-map lock.
  StatusOr<std::unique_ptr<SendLink>> connect(Endpoint* from,
                                              const std::string& to);
  std::shared_ptr<Endpoint> lookup(const std::string& name);
  void remove(const std::string& name);

  std::mutex mutex_;
  std::map<std::string, std::weak_ptr<Endpoint>> endpoints_;
  nnti::Fabric fabric_;
  std::uint64_t next_link_id_ = 1;
};

}  // namespace flexio::evpath
