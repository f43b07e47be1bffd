#include "brunet/node.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace ipop::brunet {

namespace {
/// A request with no response by then completes with std::nullopt.
constexpr Duration kRequestTimeout = util::seconds(3);

bool is_edge_local(PacketType t) {
  return static_cast<std::uint8_t>(t) < 10;
}
bool is_response_type(PacketType t) {
  switch (t) {
    case PacketType::kConnectResponse:
    case PacketType::kNeighborReply:
    case PacketType::kPingResponse:
    case PacketType::kPunchResponse:
    case PacketType::kDhtResponse:
      return true;
    default:
      return false;
  }
}
/// The bytes a departure notice's signature covers: the claimed ring
/// address, then the notice body.
std::vector<std::uint8_t> departure_signed_bytes(
    const Address& addr, std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> msg;
  msg.reserve(Address::kBytes + body.size());
  msg.insert(msg.end(), addr.bytes().begin(), addr.bytes().end());
  msg.insert(msg.end(), body.begin(), body.end());
  return msg;
}
}  // namespace

BrunetNode::BrunetNode(net::Host& host, Address addr, NodeConfig cfg)
    : host_(host), addr_(addr), cfg_(cfg), table_(addr) {}

BrunetNode::BrunetNode(net::Host& host, const NodeIdentity& identity,
                       NodeConfig cfg)
    : host_(host),
      addr_(identity.address()),
      identity_(identity),
      cfg_(cfg),
      table_(addr_) {}

BrunetNode::~BrunetNode() { stop(); }

void BrunetNode::add_seed(TransportAddress ta) { seeds_.push_back(ta); }

void BrunetNode::start() {
  if (started_) return;
  started_ = true;
  started_at_ = host_.loop().now();
  if (cfg_.transport == TransportAddress::Proto::kTcp) {
    ensure(tcp_);
  } else {
    ensure(udp_);
  }
  maintenance_tick();
}

void BrunetNode::leave() {
  if (!started_) return;
  // Hand off state (DHT records, ring position) first, while every edge
  // is still fully open: peers close the shared edge as soon as the
  // kDeparting notice arrives, so on stream transports anything queued
  // behind the notice would be discarded with the socket.
  for (auto& hook : departure_hooks_) {
    if (hook) hook();
  }
  // Then tell every peer we are going: one shared wire image carrying our
  // identity and neighbor list, so the two sides of the ring gap can link
  // to each other immediately instead of waiting for keepalive misses and
  // stabilization to rediscover the neighborhood.
  util::ByteWriter w;
  self_info().encode(w);
  encode_node_infos(w, neighbor_infos(cfg_.near_per_side));
  auto body = w.take();
  // A key-addressed node signs the notice over (address || body), so a
  // peer can check the departure really comes from the key that owns the
  // ring position — nobody can forge an eviction for a live node.  The
  // appended pubkey + signature are trailing fields legacy receivers
  // never reach while parsing.
  if (key_addressed()) {
    const auto sig = identity_.keys.sign(departure_signed_bytes(addr_, body));
    const auto& pk = identity_.keys.public_key().bytes;
    body.insert(body.end(), pk.begin(), pk.end());
    body.insert(body.end(), sig.bytes.begin(), sig.bytes.end());
  }
  send_to_all(PacketType::kDeparting, std::move(body));
  stop();
}

void BrunetNode::add_connection_lost_observer(ConnectionLostHandler h) {
  conn_lost_observers_.push_back(std::move(h));
}

void BrunetNode::add_departure_hook(std::function<void()> hook) {
  departure_hooks_.push_back(std::move(hook));
}

void BrunetNode::notify_connection_lost(const Address& addr) {
  for (auto& observer : conn_lost_observers_) {
    if (observer) observer(addr);
  }
}

void BrunetNode::evict_connection(const Address& addr) {
  const Connection* c = table_.find(addr);
  if (c == nullptr) return;
  ++stats_.edges_closed;
  auto edge = c->edge;
  table_.remove(addr);
  if (edge) edge->close();
  notify_connection_lost(addr);
}

void BrunetNode::stop() {
  if (!started_) return;
  started_ = false;
  auto& loop = host_.loop();
  if (maintenance_timer_ != 0) loop.cancel(maintenance_timer_);
  for (auto& [id, pr] : pending_requests_) {
    if (pr.timer != 0) loop.cancel(pr.timer);
  }
  pending_requests_.clear();
  linker_.stop();
  // Close all edges (copy: close mutates the table via callbacks).
  std::vector<std::shared_ptr<Edge>> edges;
  edges.reserve(edges_.size());
  for (auto& [ptr, e] : edges_) edges.push_back(e);
  edges_.clear();
  for (auto& e : edges) {
    if (e) e->close();
  }
  table_.clear();
  send_headroom_ = util::kPacketHeadroom;
  // Tear the transports down: a stopped node's sockets close, so inbound
  // traffic can no longer spawn edges that would dangle across a later
  // restart (start() builds fresh transports).
  udp_.reset();
  tcp_.reset();
}

void BrunetNode::broadcast_identity() {
  util::ByteWriter w;
  self_info().encode(w);
  send_to_all(PacketType::kEdgePing, w.take());
}

void BrunetNode::send_to_all(PacketType type, std::vector<std::uint8_t> body) {
  Packet pkt;
  pkt.type = type;
  pkt.src = addr_;
  pkt.set_payload(std::move(body));
  // One wire buffer, shared by every edge's send.
  const auto wire = pkt.to_wire(send_headroom_);
  table_.for_each([&](const Connection& c) { c.edge->send(wire); });
}

std::vector<TransportAddress> BrunetNode::local_addresses() const {
  std::vector<TransportAddress> out;
  for (std::size_t i = 0; i < host_.stack().interface_count(); ++i) {
    // The tap interface belongs to the *virtual* network; advertising it
    // would invite peers to dial through the tunnel they are building.
    if (host_.stack().interface_name(i).starts_with("tap")) continue;
    const auto ip = host_.stack().interface_ip(i);
    if (ip.is_unspecified()) continue;
    // Advertise every protocol we can accept on — the native transport
    // first, so same-protocol dialing stays preferred — letting
    // mixed-transport peers fall back to whichever we share.
    using P = TransportAddress::Proto;
    for (const P p : {cfg_.transport,
                      cfg_.transport == P::kTcp ? P::kUdp : P::kTcp}) {
      if (p == P::kTcp ? tcp_ != nullptr : udp_ != nullptr) {
        out.push_back({p, ip, cfg_.port});
      }
    }
  }
  for (const auto& obs : linker_.observed()) {
    if (std::ranges::find(out, obs) == out.end()) out.push_back(obs);
  }
  if (out.size() > 8) out.resize(8);
  return out;
}

// ---------------------------------------------------------------------------
// Edge plumbing
// ---------------------------------------------------------------------------

void BrunetNode::adopt_edge(const std::shared_ptr<Edge>& edge) {
  // A datagram dial hands back the transport's existing edge to an
  // endpoint we already hold: nothing to adopt.
  if (!edges_.emplace(edge.get(), edge).second) return;
  edge->touch(host_.loop().now());
  edge->set_receive_handler(
      [this, e = edge.get()](util::Buffer bytes) {
        // Resolve the owning shared_ptr without creating a ref cycle.
        auto it = edges_.find(e);
        if (it != edges_.end()) on_edge_packet(it->second, std::move(bytes));
      });
  edge->set_close_handler([this, e = edge.get()] { on_edge_closed(e); });
  recompute_send_headroom();
}

void BrunetNode::recompute_send_headroom() {
  // Buffer-ownership rule 6: every wire image this node builds carries
  // enough front slack for the costliest live edge — our 48-byte header
  // plus everything that edge (and the layers it rides) prepends.  A
  // node with only base-transport edges keeps the historical 128; one
  // with a relay tunnel grows the budget so tunnel-in-tunnel frames stay
  // zero-copy end to end.
  std::size_t h = util::kPacketHeadroom;
  for (const auto& [ptr, e] : edges_) {
    h = std::max(h, Packet::kHeaderSize + e->headroom());
  }
  send_headroom_ = h;
}

void BrunetNode::on_edge_packet(const std::shared_ptr<Edge>& edge,
                                util::Buffer bytes) {
  if (!started_) return;
  // User-level packet processing competes for the host CPU: this single
  // charge is what turns loaded Planet-Lab routers into seconds of delay.
  host_.cpu().run(cfg_.cpu_per_packet,
                  [this, edge, bytes = std::move(bytes)]() mutable {
                    if (!started_) return;
                    Packet pkt;
                    try {
                      // Header parse only; the payload stays in `bytes`,
                      // now owned by the packet.
                      pkt = Packet::decode(std::move(bytes));
                    } catch (const util::ParseError&) {
                      return;
                    }
                    process_packet(edge, std::move(pkt));
                  });
}

void BrunetNode::process_packet(const std::shared_ptr<Edge>& edge,
                                Packet pkt) {
  if (is_edge_local(pkt.type)) {
    switch (pkt.type) {
      case PacketType::kLinkRequest:
      case PacketType::kLinkResponse:
        handle_link(edge, pkt);
        break;
      case PacketType::kEdgePing:
        handle_edge_ping(edge, pkt);
        break;
      case PacketType::kEdgePong:
        // The peer tells us where it sees us.
        try {
          util::ByteReader r(pkt.payload());
          linker_.record_observed(TransportAddress::decode(r));
        } catch (const util::ParseError&) {
        }
        break;
      case PacketType::kDeparting:
        handle_departing(edge, pkt);
        break;
      case PacketType::kRelayForward:
      case PacketType::kRelayDeliver:
        linker_.handle_relay(edge, std::move(pkt));
        break;
      case PacketType::kEdgeClose:
        // The peer dropped this edge.  Evict now instead of zombie-pinging
        // an endpoint that no longer tracks us (and, if this was our only
        // connection, re-bootstrap on the next maintenance tick).
        if (const Connection* c = table_.find_by_edge(edge.get())) {
          evict_connection(c->addr);
        } else {
          edge->close();
        }
        break;
      default:
        break;
    }
    return;
  }
  route(std::move(pkt), /*from_transit=*/true);
}

void BrunetNode::on_edge_closed(Edge* edge) {
  edges_.erase(edge);
  linker_.on_edge_closed(edge);
  if (const Connection* c = table_.find_by_edge(edge)) {
    const Address addr = c->addr;  // copy: remove() invalidates c
    IPOP_LOG_DEBUG(addr_.short_hex() << ": lost edge to " << addr.short_hex());
    ++stats_.edges_closed;
    table_.remove(addr);
    notify_connection_lost(addr);
  }
  recompute_send_headroom();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

void BrunetNode::send(const Address& dst, PacketType type,
                      util::Buffer payload, RoutingMode mode,
                      std::uint32_t msg_id) {
  Packet pkt;
  pkt.type = type;
  pkt.mode = mode;
  pkt.ttl = cfg_.default_ttl;
  pkt.msg_id = msg_id;
  pkt.src = addr_;
  pkt.dst = dst;
  pkt.set_payload(std::move(payload));
  route(std::move(pkt), /*from_transit=*/false);
}

std::size_t BrunetNode::send_fanout(std::span<const Address> dsts,
                                    PacketType type, util::Buffer payload) {
  // Build every frame before sending any: a deliver() reentering the node
  // may change the table, and the shared_ptr keeps each chosen edge alive.
  std::vector<std::pair<std::shared_ptr<Edge>, util::BufferChain>> frames;
  std::size_t accepted = 0;
  for (const Address& dst : dsts) {
    Packet pkt;
    pkt.type = type;
    pkt.mode = RoutingMode::kExact;
    pkt.ttl = cfg_.default_ttl;
    pkt.src = addr_;
    pkt.dst = dst;
    ++stats_.originated;
    if (dst == addr_) {
      pkt.set_payload(payload.share());
      deliver(pkt);
      ++accepted;
      continue;
    }
    const auto [best, have_closer] = pick_next_hop(dst, pkt.src);
    if (!have_closer) {
      if (best == nullptr) {
        ++stats_.dropped_no_route;
      } else {
        ++stats_.dropped_exact;
      }
      continue;
    }
    // Per-destination header segment in front of the shared payload —
    // the payload's storage is never duplicated across the fan-out.
    frames.emplace_back(best->edge,
                        pkt.wire_chain(payload.share(), send_headroom_));
    ++accepted;
  }
  // Cork the shared UDP socket across the dispatch: every UDP edge's
  // frames leave in one sendmmsg-style socket crossing.  RAII: a
  // throwing edge send must not leave the transport corked forever
  // (staged datagrams would never flush).
  struct CorkGuard {
    UdpTransport* t;
    explicit CorkGuard(UdpTransport* t) : t(t) {
      if (t != nullptr) t->cork();
    }
    ~CorkGuard() {
      if (t != nullptr) t->uncork();
    }
  } cork_guard(udp_.get());
  for (auto& [edge, chain] : frames) edge->send_chain(std::move(chain));
  return accepted;
}

BrunetNode::NextHop BrunetNode::pick_next_hop(const Address& dst,
                                              const Address& src) const {
  // Never route a packet back toward its source: a transit packet only
  // reached us because the sender saw us strictly closer to dst, so the
  // source is never progress.  Crucially this must hold even when
  // dst == src — that is the self-addressed locate probe, and without
  // exclusion the first hop sees the prober in its own table at ring
  // distance zero and bounces the probe straight back, turning ring
  // positioning into a no-op (masked at small N by the stabilize crawl,
  // fatal at 10^3+ where the crawl freezes short of convergence).
  const Connection* best = table_.closest_to(dst, &src);
  return {best,
          best != nullptr && Address::closer(dst, best->addr, addr_)};
}

void BrunetNode::route(Packet pkt, bool from_transit) {
  if (from_transit) {
    if (pkt.hops >= pkt.ttl) {
      ++stats_.dropped_ttl;
      return;
    }
    ++pkt.hops;
  } else {
    ++stats_.originated;
  }

  if (pkt.dst == addr_) {
    deliver(pkt);
    return;
  }
  const auto [best, have_closer] = pick_next_hop(pkt.dst, pkt.src);
  if (!have_closer) {
    if (pkt.mode == RoutingMode::kClosest) {
      deliver(pkt);
    } else if (best == nullptr) {
      ++stats_.dropped_no_route;
    } else {
      ++stats_.dropped_exact;
    }
    return;
  }
  if (from_transit) ++stats_.forwarded;
  // For a transit packet take_wire() is a one-byte in-place hop-count
  // patch and the *same* buffer goes out on the next edge — released by
  // the Packet, so the UDP layer below can prepend its headers into the
  // storage too: forwarding cost is O(1) header work, zero copies.
  best->edge->send(pkt.take_wire(send_headroom_));
}

void BrunetNode::deliver(const Packet& pkt) {
  ++stats_.delivered;
  // Response correlation first.
  if (is_response_type(pkt.type)) {
    auto it = pending_requests_.find(pkt.msg_id);
    if (it != pending_requests_.end()) {
      auto pr = std::move(it->second);
      pending_requests_.erase(it);
      if (pr.timer != 0) host_.loop().cancel(pr.timer);
      if (pr.cb) pr.cb(pkt);
      return;
    }
  }
  switch (pkt.type) {
    case PacketType::kConnectRequest:
      handle_connect_request(pkt);
      return;
    case PacketType::kNeighborQuery:
      handle_neighbor_query(pkt);
      return;
    case PacketType::kPunchRequest:
      linker_.handle_punch_request(pkt);
      return;
    case PacketType::kPing:
      // Echo the payload back.  The response adopts the request's payload
      // bytes; since the request packet is still alive here, the header
      // prepend takes the copy-on-shared path exactly once (ownership
      // rule 2) instead of corrupting the request's wire image.
      respond(pkt, PacketType::kPingResponse, pkt.share_payload());
      return;
    default:
      break;
  }
  auto it = handlers_.find(pkt.type);
  if (it != handlers_.end() && it->second) {
    it->second(pkt);
  }
}

void BrunetNode::set_handler(PacketType type, PacketHandler handler) {
  handlers_[type] = std::move(handler);
}

std::uint32_t BrunetNode::expect_response(ResponseCallback cb) {
  const std::uint32_t id = msg_id_counter_++;
  PendingRequest pr;
  pr.cb = std::move(cb);
  pr.timer = host_.loop().schedule_after(kRequestTimeout, [this, id] {
    auto it = pending_requests_.find(id);
    if (it == pending_requests_.end()) return;
    auto cb2 = std::move(it->second.cb);
    pending_requests_.erase(it);
    if (cb2) cb2(std::nullopt);
  });
  pending_requests_.emplace(id, std::move(pr));
  return id;
}

void BrunetNode::request(Address dst, PacketType type, RoutingMode mode,
                         std::vector<std::uint8_t> payload,
                         ResponseCallback cb) {
  const std::uint32_t id = expect_response(std::move(cb));
  send(dst, type, util::Buffer::wrap(std::move(payload)), mode, id);
}

void BrunetNode::respond(const Packet& req, PacketType type,
                         util::Buffer payload) {
  send(req.src, type, std::move(payload), RoutingMode::kExact, req.msg_id);
}

void BrunetNode::respond(const Packet& req, PacketType type,
                         std::vector<std::uint8_t> payload) {
  respond(req, type, util::Buffer::wrap(std::move(payload)));
}

// ---------------------------------------------------------------------------
// Link handshake
// ---------------------------------------------------------------------------

util::ByteWriter BrunetNode::typed_self_info(ConnectionType type) const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  self_info().encode(w);
  return w;
}

void BrunetNode::send_link(const std::shared_ptr<Edge>& edge,
                           ConnectionType type,
                           std::optional<Address> reply_to) {
  Packet pkt;
  pkt.type = reply_to ? PacketType::kLinkResponse : PacketType::kLinkRequest;
  pkt.src = addr_;
  if (reply_to) pkt.dst = *reply_to;
  auto w = typed_self_info(type);
  edge->remote().encode(w);  // "this is where I believe you are"
  pkt.set_payload(w.take());
  edge->send(pkt.take_wire(send_headroom_));
}

void BrunetNode::handle_link(const std::shared_ptr<Edge>& edge,
                             const Packet& pkt) {
  const bool is_request = pkt.type == PacketType::kLinkRequest;
  ConnectionType type;
  NodeInfo sender;
  TransportAddress my_observed;
  try {
    util::ByteReader r(pkt.payload());
    type = static_cast<ConnectionType>(r.u8());
    sender = NodeInfo::decode(r);
    my_observed = TransportAddress::decode(r);
  } catch (const util::ParseError&) {
    return;
  }
  linker_.record_observed(my_observed);
  const bool peer_requested_near =
      is_request && type == ConnectionType::kStructuredNear;
  const bool punched = linker_.on_link_up(sender.addr, is_request, type);
  table_.add({.addr = sender.addr, .type = type,
              .peer_requested_near = peer_requested_near,
              .punched = punched, .edge = edge, .advertised = sender.addrs});
  ++stats_.edges_opened;
  if (punched) ++stats_.links_punched;
  if (edge->remote().proto == TransportAddress::Proto::kRelay) {
    ++stats_.links_relayed;
  }
  // Identify ourselves back; tell the peer where we see it.
  if (is_request) send_link(edge, type, sender.addr);
  IPOP_LOG_DEBUG(addr_.short_hex() << ": link up with "
                                   << sender.addr.short_hex() << " ("
                                   << connection_type_name(type) << ")");
}

void BrunetNode::handle_edge_ping(const std::shared_ptr<Edge>& edge,
                                  const Packet& pkt) {
  if (!pkt.payload().empty()) {
    try {
      util::ByteReader r(pkt.payload());
      NodeInfo info = NodeInfo::decode(r);
      // Refresh the peer's advertised endpoints (it may have just learned
      // its translated address).
      table_.add({.addr = info.addr, .edge = edge, .advertised = info.addrs});
    } catch (const util::ParseError&) {
    }
  }
  Packet pong;
  pong.type = PacketType::kEdgePong;
  pong.src = addr_;
  pong.dst = pkt.src;
  util::ByteWriter w;
  edge->remote().encode(w);
  pong.set_payload(w.take());
  edge->send(pong.take_wire(send_headroom_));
}

void BrunetNode::handle_departing(const std::shared_ptr<Edge>& edge,
                                  const Packet& pkt) {
  NodeInfo sender;
  std::vector<NodeInfo> neighbors;
  std::size_t body_size = 0;
  bool signed_notice = false;
  try {
    util::ByteReader r(pkt.payload());
    sender = NodeInfo::decode(r);
    neighbors = decode_node_infos(r);
    body_size = pkt.payload().size() - r.remaining();
    // Trailing pubkey(32) + signature(64) from a key-addressed departer.
    // The signature covers (claimed address || body), and the key must
    // *derive* the claimed address — otherwise any node could sign an
    // eviction notice for any ring position with its own perfectly valid
    // key.
    if (r.remaining() == 32 + 64) {
      const util::crypto::PublicKey pk{r.array<32>()};
      const util::crypto::Signature sig{r.array<64>()};
      const auto msg = departure_signed_bytes(
          sender.addr, pkt.payload().subview(0, body_size));
      if (Address::from_public_key(pk) != sender.addr ||
          !util::crypto::verify(pk, msg, sig)) {
        ++stats_.departures_rejected;
        return;
      }
      signed_notice = true;
    }
  } catch (const util::ParseError&) {
    return;
  }
  // A key-addressed ring signs every notice (see leave()), so an
  // unsigned one there can only be forged: an eviction for a live node.
  if (key_addressed() && !signed_notice) {
    ++stats_.departures_rejected;
    return;
  }
  ++stats_.departures_seen;
  IPOP_LOG_DEBUG(addr_.short_hex() << ": peer " << sender.addr.short_hex()
                                   << " is departing gracefully");
  evict_connection(sender.addr);
  edges_.erase(edge.get());
  edge->close();
  // The departed node handed us its neighborhood: link to whoever should
  // now be our ring neighbor so the gap closes without a repair cycle.
  consider_candidates(neighbors);
}

// ---------------------------------------------------------------------------
// Ring maintenance
// ---------------------------------------------------------------------------

void BrunetNode::maintenance_tick() {
  if (!started_) return;
  bootstrap();
  ++maintenance_ticks_;
  if (table_.size() > 0) {
    // Locate while the near set is thin — but also periodically after it
    // fills.  reclassify() marks the table's nearest entries near whether
    // or not they are the *true* ring neighbors, so after a mass join a
    // node can look saturated while sitting in the wrong ring position;
    // stabilize()'s neighbor-of-neighbor window then closes the gap only
    // one position per round.  The routed locate probe jumps straight to
    // the node currently closest to us (greedy over shortcuts), giving
    // O(log n) convergence instead of O(gap).
    if (table_.count(ConnectionType::kStructuredNear) <
            2 * cfg_.near_per_side ||
        maintenance_ticks_ % 4 == 0) {
      if (const Connection* via = table_.closest_to(addr_)) {
        send_locate_probe(via->edge);
      }
    }
    // Partition healing: table-routed probes cannot escape a clique that
    // closed over itself, so periodically inject one through the seed
    // set (see probe_via_seed).  The jittered tick spreads these out, so
    // the seed sees O(n / 16 ticks) probe traffic, each one greedy-routed
    // onward at O(log n) cost.
    if (maintenance_ticks_ % 16 == 0) probe_via_seed();
    stabilize();
    table_.reclassify(cfg_.near_per_side);
    maintain_shortcuts();
    trim_connections();
  }
  keepalive();
  // Jittered periodic tick keeps nodes from synchronizing.
  const double jitter = 0.9 + 0.2 * host_.stack().rng().uniform();
  const auto interval = util::Duration{static_cast<std::int64_t>(
      static_cast<double>(cfg_.maintenance_interval.count()) * jitter)};
  maintenance_timer_ =
      host_.loop().schedule_after(interval, [this] { maintenance_tick(); });
}

template <class T>
T* BrunetNode::ensure(std::unique_ptr<T>& transport) {
  if (transport == nullptr) {
    transport = std::make_unique<T>(host_, cfg_.port);
    transport->set_inbound_handler(
        [this](std::shared_ptr<Edge> e) { adopt_edge(e); });
  }
  return transport.get();
}

bool BrunetNode::dial(const TransportAddress& ta, EdgeCallback on_edge) {
  // A NATed node advertises its private endpoints too; our copy of that
  // private address is our *own* socket (every private LAN looks alike)
  // — dialing it would handshake with ourselves.
  if (host_.stack().is_local_ip(ta.ip) && ta.port == cfg_.port) return false;
  if (ta.proto == TransportAddress::Proto::kUdp) {
    on_edge(ensure(udp_)->edge_to(ta.ip, ta.port));
  } else {
    ensure(tcp_)->connect(
        ta.ip, ta.port,
        [this, on_edge = std::move(on_edge)](std::shared_ptr<Edge> edge) {
          if (edge == nullptr || !started_) return;
          on_edge(edge);
        });
  }
  return true;
}

void BrunetNode::bootstrap() {
  if (table_.size() > 0 || seeds_.empty()) return;
  for (const auto& seed : seeds_) {
    // A seed whose protocol differs from our configured transport is still
    // dialable: dial() brings up the matching transport lazily (a UDP
    // node handed only TCP seeds must not spin forever).
    const bool dialed = dial(seed, [this](const std::shared_ptr<Edge>& edge) {
      adopt_edge(edge);
      send_link(edge, ConnectionType::kLeaf);
    });
    if (dialed && seed.proto != cfg_.transport) ++stats_.bootstrap_cross_proto;
  }
}

// Route one locate probe through a bootstrap seed instead of our own
// table.  A mass join can strand small cliques whose connection tables
// point only at each other: every table-routed probe then circulates
// inside the clique and the partition is stable forever.  The seed set is
// the one rendezvous all partitions share, so a probe injected there is
// routed within the seed's partition and lands at our true ring
// neighbor, whose dial-back merges the components.
void BrunetNode::probe_via_seed() {
  if (seeds_.empty()) return;
  auto& rng = host_.stack().rng();
  const auto pick =
      static_cast<std::size_t>(rng.uniform_int(0, seeds_.size() - 1));
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    // Cross-protocol seeds are as good a rendezvous as native ones.
    const bool dialed = dial(seeds_[(pick + i) % seeds_.size()],
                             [this](const std::shared_ptr<Edge>& edge) {
                               adopt_edge(edge);
                               send_locate_probe(edge);
                             });
    if (dialed) return;
  }
}

void BrunetNode::send_locate_probe(const std::shared_ptr<Edge>& via) {
  const std::uint32_t id =
      expect_response([this](std::optional<Packet> resp) {
        if (resp) ++stats_.locate_responses;
        on_connect_response(resp);
      });

  // Routed toward our own address; first hop is forced outward so the
  // packet reaches the node currently closest to our ring position.
  Packet pkt;
  pkt.type = PacketType::kConnectRequest;
  pkt.mode = RoutingMode::kClosest;
  pkt.ttl = cfg_.default_ttl;
  pkt.hops = 1;
  pkt.msg_id = id;
  pkt.src = addr_;
  pkt.dst = addr_;
  auto w = typed_self_info(ConnectionType::kStructuredNear);
  // Reachable-via hints: until we are ring-linked, a responder can reach
  // us neither by routed punch request (exact routing drops at our
  // would-be neighbor) nor by dialing our NATed endpoints — but it can
  // tunnel a link request through any node we already hold an edge to
  // (the bootstrap seed, at minimum).
  encode_node_infos(w, linker_.direct_edge_hints());
  pkt.set_payload(w.take());
  ++stats_.originated;
  via->send(pkt.take_wire(send_headroom_));
}

void BrunetNode::handle_connect_request(const Packet& pkt) {
  ConnectionType type;
  NodeInfo requester;
  std::vector<NodeInfo> via_hints;
  try {
    util::ByteReader r(pkt.payload());
    type = static_cast<ConnectionType>(r.u8());
    requester = NodeInfo::decode(r);
    // Optional trailing reachable-via hint list (locate probes from
    // NATed joiners; requests from older senders simply end here).
    if (r.remaining() > 0) via_hints = decode_node_infos(r);
  } catch (const util::ParseError&) {
    return;
  }
  ++stats_.connect_requests;
  connect_to(requester.addr, requester.addrs, type, via_hints);
  // Answer with our identity and our current neighborhood so the joiner
  // discovers its true ring neighbors (double-width window, matching
  // handle_neighbor_query, so a misplaced joiner reaches further per
  // round).
  util::ByteWriter w;
  self_info().encode(w);
  encode_node_infos(w, neighbor_infos(2 * cfg_.near_per_side));
  respond(pkt, PacketType::kConnectResponse, w.take());
}

void BrunetNode::stabilize() {
  for (bool left : {false, true}) {
    const Connection* c = left ? table_.left_neighbor() : table_.right_neighbor();
    if (c == nullptr) continue;
    request(c->addr, PacketType::kNeighborQuery, RoutingMode::kExact,
            {}, [this](std::optional<Packet> resp) {
              if (!resp) return;
              try {
                util::ByteReader r(resp->payload());
                consider_candidates(decode_node_infos(r));
              } catch (const util::ParseError&) {
              }
            });
  }
}

void BrunetNode::handle_neighbor_query(const Packet& pkt) {
  util::ByteWriter w;
  // Self goes first: it is the one entry the querier cannot learn
  // elsewhere, so the 255-entry clamp must never be able to cut it.
  // Answer with twice the near window: a repairing querier whose true
  // neighbor sits just outside our own near set still discovers it, which
  // doubles the per-round repair reach after correlated joins.
  auto infos = neighbor_infos(2 * cfg_.near_per_side);
  infos.insert(infos.begin(), self_info());
  encode_node_infos(w, infos);
  respond(pkt, PacketType::kNeighborReply, w.take());
}

std::vector<NodeInfo> BrunetNode::neighbor_infos(std::size_t k) const {
  std::vector<NodeInfo> out;
  auto add = [&](const Connection& c) {
    for (const auto& existing : out) {
      if (existing.addr == c.addr) return;
    }
    NodeInfo info;
    info.addr = c.addr;
    info.addrs = c.advertised;
    // The endpoint we actually talk to is dialable for cone NATs; gossip
    // it alongside whatever the peer advertised.  A relayed neighbor's
    // live endpoint is a tunnel pseudo-address — meaningless to anyone
    // else, so only its advertised set goes out.
    const auto live = c.edge->remote();
    if (live.proto != TransportAddress::Proto::kRelay &&
        std::find(info.addrs.begin(), info.addrs.end(), live) ==
            info.addrs.end()) {
      info.addrs.push_back(live);
    }
    out.push_back(std::move(info));
  };
  table_.for_each_left(k, add);
  table_.for_each_right(k, add);
  return out;
}

void BrunetNode::on_connect_response(const std::optional<Packet>& resp) {
  if (!resp) return;
  try {
    // The responder first, then its neighborhood.
    util::ByteReader r(resp->payload());
    std::vector<NodeInfo> infos{NodeInfo::decode(r)};
    for (auto& info : decode_node_infos(r)) infos.push_back(std::move(info));
    consider_candidates(infos);
  } catch (const util::ParseError&) {
  }
}

void BrunetNode::consider_candidates(const std::vector<NodeInfo>& infos) {
  for (const auto& info : infos) {
    if (info.addr == addr_ || table_.contains(info.addr)) continue;
    if (should_be_near(info.addr)) {
      connect_to(info.addr, info.addrs, ConnectionType::kStructuredNear);
    }
  }
}

bool BrunetNode::should_be_near(const Address& candidate) const {
  const auto right_d = Address::directed_distance(addr_, candidate);
  const auto left_d = Address::directed_distance(candidate, addr_);
  std::size_t closer_right = 0;
  std::size_t closer_left = 0;
  table_.for_each([&](const Connection& c) {
    if (compare_bytes(Address::directed_distance(addr_, c.addr), right_d) < 0) {
      ++closer_right;
    }
    if (compare_bytes(Address::directed_distance(c.addr, addr_), left_d) < 0) {
      ++closer_left;
    }
  });
  return closer_right < cfg_.near_per_side || closer_left < cfg_.near_per_side;
}

void BrunetNode::maintain_shortcuts() {
  if (table_.count(ConnectionType::kStructuredFar) >= cfg_.shortcut_target) {
    return;
  }
  if (table_.size() < 2) return;  // too small for shortcuts to matter
  // Kleinberg-flavoured target: distance ~ 2^bit with bit uniform, giving
  // a 1/d density over the ring.
  auto& rng = host_.stack().rng();
  const int bit = static_cast<int>(rng.uniform_int(16, 158));
  request(addr_.offset_by_pow2(bit), PacketType::kConnectRequest,
          RoutingMode::kClosest,
          typed_self_info(ConnectionType::kStructuredFar).take(),
          [this](std::optional<Packet> resp) { on_connect_response(resp); });
}

void BrunetNode::request_connection(const Address& target,
                                    ConnectionType type) {
  if (!started_ || target == addr_ || table_.contains(target)) return;
  request(target, PacketType::kConnectRequest, RoutingMode::kExact,
          typed_self_info(type).take(),
          [this, type](std::optional<Packet> resp) {
            if (!resp) return;
            try {
              util::ByteReader r(resp->payload());
              NodeInfo peer = NodeInfo::decode(r);
              connect_to(peer.addr, peer.addrs, type);
            } catch (const util::ParseError&) {
            }
          });
}

void BrunetNode::trim_connections() {
  // A mature node keeps: its near connections, up to shortcut_target far
  // links, and any link the peer requested as near.  Everything else is
  // join-time debris; closing it keeps the overlay sparse so routing is
  // genuinely multi-hop at scale (as in the real Brunet deployments).
  if (table_.count(ConnectionType::kStructuredNear) <
      2 * cfg_.near_per_side) {
    return;  // ring not saturated yet: keep everything
  }
  // Copy candidates by value: removals below reshuffle the table.
  struct Victim {
    Address addr;
    std::shared_ptr<Edge> edge;
  };
  std::vector<Victim> trimmable;
  table_.for_each([&](const Connection& c) {
    if (c.type == ConnectionType::kStructuredNear) return;
    if (c.type == ConnectionType::kTrafficShortcut) return;
    if (c.peer_requested_near) return;
    if (linker_.carries_tunnel(c.edge)) return;
    trimmable.push_back({c.addr, c.edge});
  });
  if (trimmable.size() <= cfg_.shortcut_target) return;
  std::ranges::sort(trimmable, {}, [](const Victim& v) {
    return v.edge->last_received();
  });
  const std::size_t excess = trimmable.size() - cfg_.shortcut_target;
  for (std::size_t i = 0; i < excess; ++i) {
    table_.remove(trimmable[i].addr);
    ++stats_.edges_closed;
    send_edge_close(trimmable[i].edge);
    trimmable[i].edge->close();
  }
}

void BrunetNode::send_edge_close(const std::shared_ptr<Edge>& edge) {
  if (edge == nullptr || !edge->is_up()) return;
  Packet bye;
  bye.type = PacketType::kEdgeClose;
  bye.src = addr_;
  edge->send(bye.take_wire(send_headroom_));
}

void BrunetNode::keepalive() {
  const auto now = host_.loop().now();
  std::vector<Address> dead;
  std::vector<std::shared_ptr<Edge>> to_ping;
  table_.for_each([&](const Connection& c) {
    const auto idle = now - c.edge->last_received();
    if (!c.edge->is_up() || idle > cfg_.edge_timeout) {
      dead.push_back(c.addr);
    } else if (idle > cfg_.edge_idle_ping) {
      to_ping.push_back(c.edge);
    }
  });
  for (const auto& addr : dead) {
    ++stats_.keepalive_evictions;
    // Eviction notifies the churn observers: the DHT re-replicates
    // records the dead peer was holding copies of.
    evict_connection(addr);
  }
  for (auto& edge : to_ping) {
    Packet ping;
    ping.type = PacketType::kEdgePing;
    ping.src = addr_;
    edge->send(ping.take_wire(send_headroom_));
  }
  // Reap stale edges that are not the table's edge for any connection
  // (half-open handshakes and losing duplicates).
  std::vector<std::shared_ptr<Edge>> stale;
  for (auto& [ptr, e] : edges_) {
    if (table_.find_by_edge(ptr) != nullptr) continue;
    if (now - e->last_received() > cfg_.edge_timeout) stale.push_back(e);
  }
  // edges_ is keyed by pointer, so the reap order above is heap-address
  // order.  The close notices below hit the wire back-to-back; sort by
  // remote endpoint so the emission order is partition-invariant (the
  // cross-shard digest contract) instead of allocator-dependent.
  std::ranges::sort(stale, {}, [](const auto& e) { return e->remote(); });
  for (auto& e : stale) {
    edges_.erase(e.get());
    send_edge_close(e);
    e->close();
  }
}

}  // namespace ipop::brunet
