// BrunetNode: a structured-overlay node (the paper's P2P routing substrate).
//
// Responsibilities:
//  * greedy ring routing (forward to the connection closest to the packet
//    destination; deliver locally when this node is closest),
//  * self-configuring ring maintenance: bootstrap from seed endpoints,
//    locate the ring position with routed ConnectRequests, stabilize near
//    neighbors by gossiping neighbor lists, grow Kleinberg-style shortcut
//    connections,
//  * the link handshake: each handshake and keepalive tells the peer the
//    endpoint it is seen as (the linker's decentralized STUN),
//  * edge keepalives and failure detection driving ring self-repair.
// NAT traversal (dial rounds, hole punching, relay tunnels, NAT class)
// is the Linker's, in brunet/linker.{hpp,cpp}.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "brunet/linker.hpp"
#include "net/host.hpp"
#include "util/crypto.hpp"

namespace ipop::brunet {

/// Cryptographic node identity: an Ed25519 keypair plus the overlay
/// address derived from its public key (SHA-1 of the key, keeping the
/// paper's 160-bit ring width).  A node addressed this way *owns* its
/// ring position: DHT records, leases, ARP bindings and departure
/// notices it signs are verifiable against the address itself, so
/// nobody can squat another node's identity (netsukuku's ANDNA
/// first-come-first-served ownership model).
struct NodeIdentity {
  util::crypto::KeyPair keys;

  /// Keys drawn from the seeded sim generator (the only sanctioned
  /// entropy source for in-sim key generation).
  static NodeIdentity generate(util::Rng& rng) {
    return NodeIdentity{util::crypto::KeyPair::generate(rng)};
  }
  static NodeIdentity from_seed(std::span<const std::uint8_t> seed) {
    return NodeIdentity{util::crypto::KeyPair::from_seed(seed)};
  }

  Address address() const {
    return Address::from_public_key(keys.public_key());
  }
  bool valid() const { return keys.valid(); }
};

struct NodeConfig {
  TransportAddress::Proto transport = TransportAddress::Proto::kUdp;
  std::uint16_t port = 17001;
  /// Near (ring-neighbor) connections maintained on each side.
  std::size_t near_per_side = 2;
  /// Target number of far/shortcut connections.
  std::size_t shortcut_target = 2;
  Duration maintenance_interval = util::milliseconds(500);
  Duration edge_idle_ping = util::seconds(5);
  Duration edge_timeout = util::seconds(15);
  std::uint8_t default_ttl = 32;
  /// CPU cost charged per received packet (routing is user-level work;
  /// IPOP raises this to its measured per-packet processing cost).
  Duration cpu_per_packet = util::microseconds(20);
};

struct NodeStats {
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_exact = 0;
  std::uint64_t edges_opened = 0;
  std::uint64_t edges_closed = 0;
  /// Seeds dialed through the secondary (non-configured) transport
  /// because their protocol did not match cfg_.transport.
  std::uint64_t bootstrap_cross_proto = 0;
  /// kDeparting notices received from gracefully leaving peers.
  std::uint64_t departures_seen = 0;
  /// Connections evicted by keepalive-miss failure detection (edge
  /// timeout / dead edge), as opposed to graceful departures.
  std::uint64_t keepalive_evictions = 0;
  /// Link-path diagnostics: connect requests delivered to us, link
  /// attempts started / abandoned, locate probes answered.
  std::uint64_t connect_requests = 0;
  std::uint64_t links_started = 0;
  std::uint64_t links_failed = 0;
  std::uint64_t locate_responses = 0;
  // NAT traversal (hole punching + relay fallback).
  /// Punch requests we routed to link targets / received from peers /
  /// answers that made it back to us.
  std::uint64_t punch_requests_sent = 0;
  std::uint64_t punch_requests = 0;
  std::uint64_t punch_responses = 0;
  /// Connections that needed punch assistance (established after the
  /// first dial round while a punch exchange was in flight).
  std::uint64_t links_punched = 0;
  /// Connections established over a relay tunnel.
  std::uint64_t links_relayed = 0;
  /// Link attempts whose candidates all carried the peer's (non-native)
  /// protocol, dialed through the lazily created secondary transport.
  std::uint64_t links_cross_proto = 0;
  /// Relay tunnel endpoints materialized at this node (either side).
  std::uint64_t relay_edges = 0;
  /// Wrapped frames forwarded while acting as the relay, and forwards
  /// dropped for want of a direct edge to the tunnel target.
  std::uint64_t relay_forwarded = 0;
  std::uint64_t relay_drop_no_route = 0;
  /// Bytes copied wrapping outbound tunnel frames: stays 0 while the
  /// per-path headroom budget (buffer-ownership rule 6) holds.
  std::uint64_t relay_wrap_bytes_copied = 0;
  /// Relay tunnels whose carrier died and were swapped onto the
  /// pre-armed backup via instead of re-running the linker.
  std::uint64_t relay_failovers = 0;
  /// kDeparting notices dropped because their signature was invalid,
  /// claimed an address the signing key does not own, or was missing
  /// at a key-addressed node (which signs its own notices, so demands
  /// the same of its peers).
  std::uint64_t departures_rejected = 0;
};

class BrunetNode {
 public:
  using PacketHandler = std::function<void(const Packet&)>;
  using ResponseCallback = std::function<void(std::optional<Packet>)>;

  BrunetNode(net::Host& host, Address addr, NodeConfig cfg = {});
  /// Key-addressed node: the overlay address is derived from the
  /// identity's public key, so this node can sign for its ring position.
  BrunetNode(net::Host& host, const NodeIdentity& identity,
             NodeConfig cfg = {});
  ~BrunetNode();

  BrunetNode(const BrunetNode&) = delete;
  BrunetNode& operator=(const BrunetNode&) = delete;

  /// Bootstrap endpoint (any existing overlay member).
  void add_seed(TransportAddress ta);
  void start();
  /// Leave the overlay: close every edge and stop timers.  An abrupt stop
  /// — peers only find out via keepalive misses (models a crash).
  void stop();
  /// Graceful departure: announce kDeparting to every connection (handing
  /// each side our neighbor list so the ring re-links around the gap
  /// immediately), run the registered departure hooks (the DHT hands off
  /// its records here), then stop().
  void leave();
  bool started() const { return started_; }
  /// Time since start(); resets on restart.  Young nodes have immature
  /// routing state (see Dht's owner-age gate on create).
  util::Duration uptime() const { return host_.loop().now() - started_at_; }
  /// True once this node is attached to the overlay: it has at least one
  /// connection, or it *is* the overlay origin (no seeds configured).
  /// Consumers that must not act on a still-isolated view of the ring —
  /// the DHCP lease prober above all — poll this before trusting
  /// kClosest routing.
  bool joined() const { return seeds_.empty() || table_.size() > 0; }

  // --- churn observers ----------------------------------------------------
  using ConnectionLostHandler = std::function<void(const Address&)>;
  /// Called whenever a connection leaves the table for good — keepalive
  /// eviction, edge close, or a peer's graceful kDeparting notice.  The
  /// DHT uses this to re-replicate records that lost a replica holder;
  /// Brunet-ARP uses it to invalidate bindings owned by the dead peer.
  void add_connection_lost_observer(ConnectionLostHandler h);
  /// Called from leave() after the departure notices go out but while the
  /// node can still route — subsystems hand off state here.
  void add_departure_hook(std::function<void()> hook);

  // --- messaging ---------------------------------------------------------
  /// Originate one routed packet: every application packet leaves through
  /// send() or send_fanout() (request/respond are conveniences over
  /// send), the choke point the security layer sits in front of — IPOP
  /// seals tunnel payloads and the DHT signs records before calling.
  ///
  /// A payload with kHeaderSize bytes of front slack (e.g. a captured tap
  /// frame) is encapsulated in place; otherwise it is copied exactly once
  /// into the wire image.
  void send(const Address& dst, PacketType type, util::Buffer payload,
            RoutingMode mode = RoutingMode::kExact, std::uint32_t msg_id = 0);
  /// One kExact packet per address, every packet sharing the payload's
  /// storage: headers live in per-destination side segments with
  /// headroom for the transport prepends.  All frames are built first,
  /// then each leaves with one edge send, in destination order; UDP edges
  /// are corked across the dispatch, so the whole fan-out crosses the
  /// UDP socket once.  Returns packets accepted for routing or delivered
  /// locally (routing drops are excluded and counted in NodeStats).
  std::size_t send_fanout(std::span<const Address> dsts, PacketType type,
                          util::Buffer payload);
  /// Register the handler for an application packet type (kIpTunnel,
  /// kDhtRequest, kAppData); maintenance types are handled internally.
  void set_handler(PacketType type, PacketHandler handler);
  /// Request/response: fresh msg_id, response matched by id; cb receives
  /// nullopt on timeout.
  void request(Address dst, PacketType type, RoutingMode mode,
               std::vector<std::uint8_t> payload, ResponseCallback cb);
  /// Reply to a received request, echoing its msg_id.
  void respond(const Packet& req, PacketType type, util::Buffer payload);
  void respond(const Packet& req, PacketType type,
               std::vector<std::uint8_t> payload);

  // --- linker ------------------------------------------------------------
  /// Establish a direct connection to `target`, dialing all candidates
  /// (simultaneous-open NAT traversal).  Idempotent while in progress.
  /// `via_hints` names overlay nodes the target says it already holds
  /// edges to — relay candidates if dialing and punching both fail (a
  /// NATed joiner not yet in the ring is unreachable by routed punch
  /// requests, so these hints are the only way to it).
  void connect_to(const Address& target,
                  const std::vector<TransportAddress>& candidates,
                  ConnectionType type,
                  const std::vector<NodeInfo>& via_hints = {}) {
    linker_.connect_to(target, candidates, type, via_hints);
  }
  /// Ask a known overlay address (whose endpoints we do not know) to link
  /// with us: a ConnectRequest is routed to it; the target dials back and
  /// its response gives us its endpoints.  Used by IPOP's traffic-driven
  /// shortcuts (paper Section V.1).
  void request_connection(const Address& target, ConnectionType type);

  // --- identity -----------------------------------------------------------
  /// Attach signing keys to a node whose address is *not* key-derived
  /// (the classic from_ip mapping): records it writes are still signed,
  /// but departure notices stay unsigned since the keys cannot vouch for
  /// the ring position.  Call before start().
  void set_identity(NodeIdentity identity) {
    identity_ = std::move(identity);
  }
  const NodeIdentity& identity() const { return identity_; }
  bool has_identity() const { return identity_.valid(); }
  /// True when the overlay address is derived from the identity's key —
  /// the node can prove ownership of its ring position.
  bool key_addressed() const {
    return has_identity() && identity_.address() == addr_;
  }

  // --- introspection ------------------------------------------------------
  const Address& address() const { return addr_; }
  ConnectionTable& table() { return table_; }
  const ConnectionTable& table() const { return table_; }
  net::Host& host() { return host_; }
  NodeConfig& config() { return cfg_; }
  const NodeStats& stats() const { return stats_; }
  std::uint64_t maintenance_ticks() const { return maintenance_ticks_; }
  /// Local + NAT-observed endpoints, advertised during handshakes.
  std::vector<TransportAddress> local_addresses() const;
  /// What this node has inferred about the NAT in front of it.
  NatClass nat_class() const { return linker_.nat_class(); }
  /// Per-path send headroom (buffer-ownership rule 6): the reallocation
  /// budget left in front of locally built wire images, derived at
  /// edge-establishment time as max(kPacketHeadroom, header + the
  /// costliest live edge's headroom()) so frames bound for tunneling
  /// edges stay zero-copy through every encapsulation layer.
  std::size_t send_headroom() const { return send_headroom_; }
  /// Live relay tunnels keyed by tunnel peer (introspection for tests
  /// and the hostile soak's path audit).
  const Linker::RelayMap& relay_edges() const { return linker_.relay_edges(); }

 private:
  // The linker drives the table, stats, dials and handshake from here.
  friend class Linker;
  struct PendingRequest {
    ResponseCallback cb;
    std::uint64_t timer = 0;
  };

  // Edge plumbing.
  void adopt_edge(const std::shared_ptr<Edge>& edge);
  void on_edge_packet(const std::shared_ptr<Edge>& edge, util::Buffer bytes);
  void process_packet(const std::shared_ptr<Edge>& edge, Packet pkt);
  void on_edge_closed(Edge* edge);

  // Routing.
  struct NextHop {
    const Connection* best = nullptr;
    /// best exists and is strictly closer to the destination than we
    /// are (the greedy-forwarding condition).
    bool have_closer = false;
  };
  /// Greedy next-hop selection shared by route() and send_fanout();
  /// `src` is excluded so a packet never routes back toward its origin.
  NextHop pick_next_hop(const Address& dst, const Address& src) const;
  void route(Packet pkt, bool from_transit);
  void deliver(const Packet& pkt);

  /// Register a pending request: a fresh msg_id whose response (or
  /// nullopt on timeout) goes to `cb`.
  std::uint32_t expect_response(ResponseCallback cb);

  // Link handshake.
  /// Our identity and dialable endpoints, as gossiped to peers.
  NodeInfo self_info() const { return NodeInfo{addr_, local_addresses()}; }
  /// A connection-type byte, then self_info(): the kConnectRequest body
  /// and the head of a link handshake.
  util::ByteWriter typed_self_info(ConnectionType type) const;
  /// Our identity plus where we see the peer: a kLinkRequest, or with
  /// `reply_to` set, the kLinkResponse answering that peer's request.
  void send_link(const std::shared_ptr<Edge>& edge, ConnectionType type,
                 std::optional<Address> reply_to = std::nullopt);
  /// Both handshake directions: record the peer as a connection and, for
  /// a request, answer it.
  void handle_link(const std::shared_ptr<Edge>& edge, const Packet& pkt);
  void handle_edge_ping(const std::shared_ptr<Edge>& edge, const Packet& pkt);
  void handle_departing(const std::shared_ptr<Edge>& edge, const Packet& pkt);

  /// Drop a connection and tell the churn observers about it.
  void evict_connection(const Address& addr);
  void notify_connection_lost(const Address& addr);

  // Ring maintenance.
  void maintenance_tick();
  void bootstrap();
  void send_locate_probe(const std::shared_ptr<Edge>& via);
  void probe_via_seed();
  void stabilize();
  void maintain_shortcuts();
  void trim_connections();
  /// Tell the peer we are dropping this edge (datagram edges have no
  /// transport-level close; without the notice the peer zombie-pings).
  void send_edge_close(const std::shared_ptr<Edge>& edge);
  void keepalive();
  void handle_connect_request(const Packet& pkt);
  void handle_neighbor_query(const Packet& pkt);
  /// A kConnectResponse (the responder's NodeInfo, then its neighbor
  /// list): link to whichever of them should be our near neighbors.
  void on_connect_response(const std::optional<Packet>& resp);
  void consider_candidates(const std::vector<NodeInfo>& infos);
  bool should_be_near(const Address& candidate) const;

  std::vector<NodeInfo> neighbor_infos(std::size_t k) const;
  /// Push our refreshed endpoints to every connection.
  void broadcast_identity();
  /// One packet from us, its wire image shared by every connection's send.
  void send_to_all(PacketType type, std::vector<std::uint8_t> body);
  /// Lazily bring up a transport (bootstrap and the mixed-transport
  /// linker fallback dial whatever protocol the peer offers).
  template <class T>
  T* ensure(std::unique_ptr<T>& transport);
  using EdgeCallback = std::function<void(const std::shared_ptr<Edge>&)>;
  /// Dial `ta` over the transport its protocol names: a datagram edge is
  /// handed to `on_edge` at once, a stream edge once connected (a failed
  /// dial or a stop() before then drops it).  The edge is not adopted
  /// yet.  Returns false, dialing nothing, when `ta` is our own socket.
  bool dial(const TransportAddress& ta, EdgeCallback on_edge);
  /// Re-derive send_headroom_ from the live edge set; called whenever an
  /// edge is adopted or closed.
  void recompute_send_headroom();

  net::Host& host_;
  Address addr_;
  NodeIdentity identity_{};
  NodeConfig cfg_;
  ConnectionTable table_;
  NodeStats stats_;
  bool started_ = false;
  util::TimePoint started_at_{};

  std::unique_ptr<TcpTransport> tcp_;
  std::unique_ptr<UdpTransport> udp_;
  std::vector<TransportAddress> seeds_;
  std::size_t send_headroom_ = util::kPacketHeadroom;
  std::vector<ConnectionLostHandler> conn_lost_observers_;
  std::vector<std::function<void()>> departure_hooks_;

  // Registry of every adopted edge (handshaken or not).  Ownership here
  // guarantees the receive-handler lookup succeeds even for duplicate
  // edges that lost the connection-table race on one side only.
  // Deliberately an ordered map: keepalive and stop() iterate it, and
  // pointer *comparison* order is stable under an ASLR base shift while
  // pointer *hash* order is not — an unordered_map here would make edge
  // close order (and thus the whole event schedule) vary across runs.
  std::map<Edge*, std::shared_ptr<Edge>> edges_;
  std::map<PacketType, PacketHandler> handlers_;
  // Only iterated in stop() to cancel timers (order-insensitive): O(1)
  // lookup wins on the response-correlation path.
  std::unordered_map<std::uint32_t, PendingRequest> pending_requests_;
  std::uint32_t msg_id_counter_ = 1;
  std::uint64_t maintenance_timer_ = 0;
  std::uint64_t maintenance_ticks_ = 0;
  /// Declared last: its retry-timer guard expires before the members
  /// its callbacks touch are gone (timer-lifetime rule).
  Linker linker_{*this};
};

}  // namespace ipop::brunet
