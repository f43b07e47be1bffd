#include "brunet/node.hpp"

#include <algorithm>

#include "brunet/relay_edge.hpp"
#include "util/logging.hpp"

namespace ipop::brunet {

namespace {
/// A request with no response by then completes with std::nullopt.
constexpr Duration kRequestTimeout = util::seconds(3);
/// Dial rounds per link attempt, and the pause between rounds.
constexpr int kLinkAttempts = 6;
constexpr Duration kLinkRetry = util::milliseconds(400);

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
/// A live edge that is not itself a relay tunnel.  Relays are picked
/// from, and forward over, direct edges only: that keeps tunnels one
/// layer deep (no wrap-in-wrap recursion between mutually relaying nodes).
bool is_direct(const std::shared_ptr<Edge>& e) {
  return e != nullptr && e->is_up() &&
         e->remote().proto != TransportAddress::Proto::kRelay;
}
}  // namespace

const char* nat_class_name(NatClass c) {
  switch (c) {
    case NatClass::kUnknown: return "unknown";
    case NatClass::kOpen: return "open";
    case NatClass::kCone: return "cone";
    case NatClass::kSymmetric: return "symmetric";
  }
  return "?";
}

void NodeInfo::encode(util::ByteWriter& w) const {
  w.bytes(std::span<const std::uint8_t>(addr.bytes().data(), Address::kBytes));
  w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(addrs.size(), 8)));
  for (std::size_t i = 0; i < addrs.size() && i < 8; ++i) {
    addrs[i].encode(w);
  }
}

NodeInfo NodeInfo::decode(util::ByteReader& r) {
  NodeInfo info;
  Address::Bytes b{};
  auto raw = r.bytes(Address::kBytes);
  std::copy(raw.begin(), raw.end(), b.begin());
  info.addr = Address(b);
  const std::uint8_t n = r.u8();
  for (std::uint8_t i = 0; i < n; ++i) {
    info.addrs.push_back(TransportAddress::decode(r));
  }
  return info;
}

std::size_t encode_node_infos(util::ByteWriter& w,
                              std::span<const NodeInfo> infos) {
  const std::size_t n = std::min<std::size_t>(infos.size(), 255);
  w.u8(static_cast<std::uint8_t>(n));
  for (std::size_t i = 0; i < n; ++i) infos[i].encode(w);
  return n;
}

std::vector<NodeInfo> decode_node_infos(util::ByteReader& r) {
  const std::uint8_t n = r.u8();
  std::vector<NodeInfo> infos;
  infos.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i) infos.push_back(NodeInfo::decode(r));
  return infos;
}

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
    ensure_tcp();
  } else {
    ensure_udp();
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
  Packet notice;
  notice.type = PacketType::kDeparting;
  notice.src = addr_;
  util::ByteWriter w;
  NodeInfo{addr_, local_addresses()}.encode(w);
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
  notice.set_payload(std::move(body));
  const auto wire = notice.to_wire(send_headroom_);
  table_.for_each([&](const Connection& c) { c.edge->send(wire); });
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
  for (auto& [addr, attempt] : linking_) {
    if (attempt.timer != 0) loop.cancel(attempt.timer);
  }
  linking_.clear();
  // Close all edges (copy: close mutates the table via callbacks).
  std::vector<std::shared_ptr<Edge>> edges;
  edges.reserve(edges_.size());
  for (auto& [ptr, e] : edges_) edges.push_back(e);
  edges_.clear();
  relay_edges_.clear();
  relay_via_activity_.clear();
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

void BrunetNode::record_observed(const TransportAddress& ta) {
  // A relay tunnel's pseudo-endpoint says nothing about our NAT and must
  // never be advertised as dialable.
  if (ta.proto == TransportAddress::Proto::kRelay) return;
  if (host_.stack().is_local_ip(ta.ip)) {
    // Peers see our packets untranslated: no NAT in front of us (at
    // least toward them).
    if (nat_class_ == NatClass::kUnknown) nat_class_ = NatClass::kOpen;
    return;
  }
  // A symmetric NAT mints a fresh mapping per peer, so its observed set
  // would grow with the peer count; eight entries are plenty for both
  // the classification (two suffice) and the gossip clamp.
  if (observed_.size() >= 8) return;
  if (!observed_.insert(ta).second) return;
  // Self-classification (decentralized STUN): one stable external
  // mapping per protocol reads as cone; two distinct external ports on
  // the same external IP and protocol mean per-destination mappings —
  // symmetric.  Symmetric is sticky (extra cone-looking observations
  // never downgrade it).
  std::size_t same_proto_ip = 0;
  for (const auto& o : observed_) {
    if (o.proto == ta.proto && o.ip == ta.ip) ++same_proto_ip;
  }
  if (same_proto_ip >= 2) {
    nat_class_ = NatClass::kSymmetric;
  } else if (nat_class_ != NatClass::kSymmetric) {
    nat_class_ = NatClass::kCone;
  }
  IPOP_LOG_DEBUG(addr_.short_hex() << ": learned translated address "
                                   << ta.to_string() << " (nat: "
                                   << nat_class_name(nat_class_) << ")");
  // Our advertised endpoints changed: refresh every peer's view so gossip
  // carries the dialable (translated) endpoint, not just the private one.
  broadcast_identity();
}

void BrunetNode::broadcast_identity() {
  Packet ping;
  ping.type = PacketType::kEdgePing;
  ping.src = addr_;
  util::ByteWriter w;
  NodeInfo{addr_, local_addresses()}.encode(w);
  ping.set_payload(w.take());
  // One wire buffer, shared by every edge's send.
  const auto wire = ping.to_wire(send_headroom_);
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
    if (cfg_.transport == TransportAddress::Proto::kTcp) {
      if (tcp_ != nullptr) out.push_back({TransportAddress::Proto::kTcp, ip,
                                          cfg_.port});
      if (udp_ != nullptr) out.push_back({TransportAddress::Proto::kUdp, ip,
                                          cfg_.port});
    } else {
      if (udp_ != nullptr) out.push_back({TransportAddress::Proto::kUdp, ip,
                                          cfg_.port});
      if (tcp_ != nullptr) out.push_back({TransportAddress::Proto::kTcp, ip,
                                          cfg_.port});
    }
  }
  for (const auto& obs : observed_) {
    if (std::find(out.begin(), out.end(), obs) == out.end()) {
      out.push_back(obs);
    }
  }
  if (out.size() > 8) out.resize(8);
  return out;
}

std::optional<Address> BrunetNode::right_neighbor() const {
  const Connection* c = table_.right_neighbor();
  if (c == nullptr) return std::nullopt;
  return c->addr;
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
        handle_edge_pong(edge, pkt);
        break;
      case PacketType::kDeparting:
        handle_departing(edge, pkt);
        break;
      case PacketType::kRelayForward:
        handle_relay_forward(edge, std::move(pkt));
        break;
      case PacketType::kRelayDeliver:
        handle_relay_deliver(edge, pkt);
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
  relay_via_activity_.erase(edge);
  // A tunnel is only as alive as its carrier — but a tunnel with a
  // pre-armed backup relay swaps onto the backup's direct edge first
  // (failover) and only dies when no backup can carry it.  Each close
  // re-enters here for the tunnel itself, one level deep — a relay's via
  // is always direct.
  std::vector<std::shared_ptr<RelayEdge>> dead_tunnels;
  for (auto it = relay_edges_.begin(); it != relay_edges_.end();) {
    if (it->second.get() == edge) {
      it = relay_edges_.erase(it);
    } else if (it->second->via().get() == edge) {
      if (failover_relay(it->second)) {
        ++it;
      } else {
        dead_tunnels.push_back(it->second);
        it = relay_edges_.erase(it);
      }
    } else {
      ++it;
    }
  }
  for (auto& re : dead_tunnels) re->close();
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
      handle_punch_request(pkt);
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
  const std::uint32_t id = next_msg_id();
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

void BrunetNode::send_link(const std::shared_ptr<Edge>& edge,
                           ConnectionType type,
                           std::optional<Address> reply_to) {
  Packet pkt;
  pkt.type = reply_to ? PacketType::kLinkResponse : PacketType::kLinkRequest;
  pkt.src = addr_;
  if (reply_to) pkt.dst = *reply_to;
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  NodeInfo{addr_, local_addresses()}.encode(w);
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
  record_observed(my_observed);
  Connection conn;
  conn.addr = sender.addr;
  conn.edge = edge;
  conn.advertised = sender.addrs;
  conn.peer_requested_near =
      is_request && type == ConnectionType::kStructuredNear;
  if (auto link = linking_.find(sender.addr); link != linking_.end()) {
    // With a punch exchange in flight, a link that needed more than the
    // first dial round was opened by the hole punch.  The response to
    // our own dial answers the round that sent it, so that takes round
    // 2; a peer's request arriving after our round 1 is the punched
    // simultaneous open.
    conn.punched = link->second.punch_sent &&
                   link->second.round >= (is_request ? 1 : 2);
    if (!is_request) type = link->second.type;
    if (link->second.timer != 0) host_.loop().cancel(link->second.timer);
    linking_.erase(link);
  }
  conn.type = type;
  table_.add(conn);
  ++stats_.edges_opened;
  if (conn.punched) ++stats_.links_punched;
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
      Connection conn;
      conn.addr = info.addr;
      conn.edge = edge;
      conn.advertised = info.addrs;
      table_.add(conn);
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

void BrunetNode::handle_edge_pong(const std::shared_ptr<Edge>& /*edge*/,
                                  const Packet& pkt) {
  try {
    util::ByteReader r(pkt.payload());
    record_observed(TransportAddress::decode(r));
  } catch (const util::ParseError&) {
  }
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
      util::crypto::PublicKey pk;
      auto pk_bytes = r.bytes(32);
      std::copy(pk_bytes.begin(), pk_bytes.end(), pk.bytes.begin());
      util::crypto::Signature sig;
      auto sig_bytes = r.bytes(64);
      std::copy(sig_bytes.begin(), sig_bytes.end(), sig.bytes.begin());
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
// Linker (connection establishment, NAT traversal)
// ---------------------------------------------------------------------------

namespace {
/// Merge dialable candidates into an attempt: relay pseudo-addresses are
/// never dialable, and same-protocol endpoints are preferred — only a
/// peer offering none falls back to its own protocol (the bootstrap
/// cross-proto rule, now applied to every ring link).  Returns true when
/// the merge had to fall back.
bool merge_candidates(std::vector<TransportAddress>& into,
                      const std::vector<TransportAddress>& candidates,
                      TransportAddress::Proto native) {
  bool have_native = false;
  for (const auto& ta : candidates) {
    if (ta.proto == native) {
      have_native = true;
      break;
    }
  }
  for (const auto& ta : candidates) {
    if (ta.proto == TransportAddress::Proto::kRelay) continue;
    if (have_native && ta.proto != native) continue;
    if (std::find(into.begin(), into.end(), ta) == into.end()) {
      into.push_back(ta);
    }
  }
  return !have_native && !candidates.empty();
}
}  // namespace

void BrunetNode::connect_to(const Address& target,
                            const std::vector<TransportAddress>& candidates,
                            ConnectionType type,
                            const std::vector<NodeInfo>& via_hints) {
  if (!started_ || target == addr_) return;
  if (const Connection* existing = table_.find(target)) {
    // Already connected: upgrade the classification if needed.
    Connection upgrade;
    upgrade.addr = target;
    upgrade.edge = existing->edge;
    upgrade.type = type;
    table_.add(upgrade);
    return;
  }
  auto merge_hints = [](LinkAttempt& a, const std::vector<NodeInfo>& hints) {
    for (const auto& h : hints) {
      const bool known = std::any_of(
          a.relay_candidates.begin(), a.relay_candidates.end(),
          [&](const NodeInfo& r) { return r.addr == h.addr; });
      if (!known) a.relay_candidates.push_back(h);
    }
  };
  auto [it, inserted] = linking_.try_emplace(target);
  if (!inserted) {
    // Attempt already running — still fold in fresh relay hints (a
    // re-probing joiner may have gained reachable neighbors since).
    merge_hints(it->second, via_hints);
    return;
  }
  ++stats_.links_started;
  LinkAttempt& attempt = it->second;
  attempt.type = type;
  attempt.attempts_left = kLinkAttempts;
  merge_hints(attempt, via_hints);
  if (merge_candidates(attempt.candidates, candidates, cfg_.transport)) {
    ++stats_.links_cross_proto;
  }
  if (attempt.candidates.empty()) {
    linking_.erase(it);
    return;
  }
  link_retry_tick(target);
  // Rendezvous through the overlay: tell the target to dial us back so
  // both NATs see outbound traffic (simultaneous open, Section III-D) —
  // and to report its NAT class and neighbors (our relay candidates).
  // Needs a routable table; a joining node's first links skip it.
  if (table_.size() > 0 && linking_.find(target) != linking_.end()) {
    send_punch_request(target);
  }
}

void BrunetNode::link_retry_tick(Address target) {
  auto it = linking_.find(target);
  if (it == linking_.end() || !started_) return;
  LinkAttempt& attempt = it->second;
  attempt.timer = 0;
  if (table_.contains(target)) {
    linking_.erase(it);
    return;
  }
  if (attempt.attempts_left-- <= 0) {
    // Dialing is spent.  Before giving up, tunnel the handshake through
    // a mutual neighbor: symmetric↔symmetric pairs can never punch, and
    // an exhausted cone pair gets one relay try too.
    if (!attempt.relay_tried && start_relay(target, attempt)) {
      attempt.relay_tried = true;
      attempt.attempts_left = 2;  // rounds for the handshake over the tunnel
      attempt.timer = host_.loop().schedule_after(
          kLinkRetry, [this, alive = alive_.guard(), target] {
            if (!alive) return;
            link_retry_tick(target);
          });
      return;
    }
    IPOP_LOG_DEBUG(addr_.short_hex() << ": link to " << target.short_hex()
                                     << " failed (no response)");
    ++stats_.links_failed;
    linking_.erase(it);
    return;
  }
  ++attempt.round;
  const ConnectionType type = attempt.type;
  for (const auto& ta : attempt.candidates) {
    dial(ta, [this, target, type](const std::shared_ptr<Edge>& edge) {
      // A stream dial completes later: the link may have come up over
      // another edge meanwhile.
      if (linking_.find(target) == linking_.end() &&
          table_.contains(target)) {
        edge->close();  // race: already linked elsewhere
        return;
      }
      adopt_edge(edge);
      send_link(edge, type);
    });
  }
  // Per-NAT-type pacing: against a symmetric endpoint every retry lands
  // on a fresh mapping, so rapid-fire probing burns attempts without
  // widening coverage — stretch the interval linearly instead and give
  // the punched dial-back time to arrive.
  Duration delay = kLinkRetry;
  if (nat_class_ == NatClass::kSymmetric ||
      attempt.peer_nat == NatClass::kSymmetric) {
    delay = kLinkRetry * attempt.round;
  }
  attempt.timer = host_.loop().schedule_after(
      delay, [this, alive = alive_.guard(), target] {
        if (!alive) return;
        link_retry_tick(target);
      });
}

// ---------------------------------------------------------------------------
// NAT traversal: hole punching + relay fallback
// ---------------------------------------------------------------------------

void BrunetNode::send_punch_request(const Address& target) {
  auto it = linking_.find(target);
  if (it == linking_.end()) return;
  it->second.punch_sent = true;
  ++stats_.punch_requests_sent;
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(it->second.type));
  w.u8(static_cast<std::uint8_t>(nat_class_));
  NodeInfo{addr_, local_addresses()}.encode(w);
  request(target, PacketType::kPunchRequest, RoutingMode::kExact, w.take(),
          [this, target](std::optional<Packet> resp) {
            on_punch_response(target, std::move(resp));
          });
}

void BrunetNode::handle_punch_request(const Packet& pkt) {
  ConnectionType type;
  NatClass requester_nat;
  NodeInfo requester;
  try {
    util::ByteReader r(pkt.payload());
    type = static_cast<ConnectionType>(r.u8());
    requester_nat = static_cast<NatClass>(r.u8());
    requester = NodeInfo::decode(r);
  } catch (const util::ParseError&) {
    return;
  }
  ++stats_.punch_requests;
  // Dial back: our outbound probes open our NAT toward the requester
  // while its own probes open the reverse path — whichever direction a
  // NAT admits first brings the edge up.  Idempotent via linking_, which
  // also terminates the request ping-pong (our connect_to's punch
  // request finds the requester already linking toward us).
  connect_to(requester.addr, requester.addrs, type);
  if (auto it = linking_.find(requester.addr); it != linking_.end()) {
    it->second.peer_nat = requester_nat;
  }
  // Answer with our NAT class and neighbors: if neither side's probes
  // land, the requester picks its relay from this set.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(nat_class_));
  NodeInfo{addr_, local_addresses()}.encode(w);
  encode_node_infos(w, neighbor_infos(cfg_.near_per_side));
  respond(pkt, PacketType::kPunchResponse, w.take());
}

void BrunetNode::on_punch_response(const Address& target,
                                   std::optional<Packet> resp) {
  if (!resp) return;
  ++stats_.punch_responses;
  NatClass peer_nat;
  NodeInfo peer;
  std::vector<NodeInfo> relays;
  try {
    util::ByteReader r(resp->payload());
    peer_nat = static_cast<NatClass>(r.u8());
    peer = NodeInfo::decode(r);
    relays = decode_node_infos(r);
  } catch (const util::ParseError&) {
    return;
  }
  auto it = linking_.find(target);
  if (it == linking_.end()) return;  // already linked (or given up)
  LinkAttempt& attempt = it->second;
  attempt.peer_nat = peer_nat;
  attempt.relay_candidates = std::move(relays);
  merge_candidates(attempt.candidates, peer.addrs, cfg_.transport);
  if (nat_class_ == NatClass::kSymmetric &&
      peer_nat == NatClass::kSymmetric) {
    // Hopeless pairing: both sides mint per-destination mappings, so no
    // advertised endpoint will ever match a probe.  Skip the remaining
    // dial rounds and relay now.
    if (attempt.timer != 0) {
      host_.loop().cancel(attempt.timer);
      attempt.timer = 0;
    }
    attempt.attempts_left = 0;
    link_retry_tick(target);
  }
}

bool BrunetNode::start_relay(const Address& target, LinkAttempt& attempt) {
  if (auto existing = relay_edges_.find(target);
      existing != relay_edges_.end() && existing->second->is_up()) {
    send_link(existing->second, attempt.type);
    return true;
  }
  // Pick the relay R: a node adjacent to the target (its neighbor set
  // from the punch response) that we hold a *direct* edge to — relays
  // only forward over non-relay edges, which bounds tunnel nesting at
  // one layer.  Deterministic min-address pick; the runner-up is armed
  // as the failover backup so a dying carrier swaps vias instead of
  // re-running the linker.
  const Connection* via = nullptr;
  const Connection* backup = nullptr;
  for (const auto& info : attempt.relay_candidates) {
    if (info.addr == addr_ || info.addr == target) continue;
    const Connection* c = table_.find(info.addr);
    if (c == nullptr || !is_direct(c->edge)) continue;
    if (via == nullptr || c->addr < via->addr) {
      backup = via;
      via = c;
    } else if (backup == nullptr || c->addr < backup->addr) {
      backup = c;
    }
  }
  if (via == nullptr) {
    // No punch response made it back (or no mutual neighbor): fall back
    // to our direct connection ring-closest to the target, which on a
    // converging ring is very likely the target's neighbor.
    table_.for_each([&](const Connection& c) {
      if (c.addr == target || !is_direct(c.edge)) return;
      if (via == nullptr || Address::closer(target, c.addr, via->addr)) {
        backup = via;
        via = &c;
      } else if (backup == nullptr ||
                 Address::closer(target, c.addr, backup->addr)) {
        backup = &c;
      }
    });
  }
  if (via == nullptr) return false;
  IPOP_LOG_DEBUG(addr_.short_hex() << ": relaying link to "
                                   << target.short_hex() << " via "
                                   << via->addr.short_hex());
  auto re = std::make_shared<RelayEdge>(addr_, target, via->addr, via->edge,
                                        &stats_.relay_wrap_bytes_copied);
  if (backup != nullptr) re->arm_backup(backup->addr);
  adopt_edge(re);
  relay_edges_[target] = re;
  ++stats_.relay_edges;
  send_link(re, attempt.type);
  return true;
}

bool BrunetNode::failover_relay(const std::shared_ptr<RelayEdge>& re) {
  const Address& backup = re->backup_relay();
  if (backup == Address{}) return false;
  const Connection* c = table_.find(backup);
  if (c == nullptr || !is_direct(c->edge)) return false;
  IPOP_LOG_DEBUG(addr_.short_hex()
                 << ": relay to " << re->peer().short_hex()
                 << " failing over via " << backup.short_hex());
  re->swap_via(c->edge, c->addr);
  ++stats_.relay_failovers;
  return true;
}

void BrunetNode::handle_relay_forward(const std::shared_ptr<Edge>& edge,
                                      Packet pkt) {
  if (pkt.hops >= pkt.ttl) {
    ++stats_.relay_drop_no_route;
    return;
  }
  ++pkt.hops;
  const Connection* c = table_.find(pkt.dst);
  if (c == nullptr || !is_direct(c->edge)) {
    ++stats_.relay_drop_no_route;
    return;
  }
  ++stats_.relay_forwarded;
  const auto now = host_.loop().now();
  relay_via_activity_[edge.get()] = now;
  relay_via_activity_[c->edge.get()] = now;
  // The relay's forward is a one-byte type patch on the arriving wire
  // image (plus the hop-count patch take_wire() always does): the same
  // buffer goes out on the direct edge to the tunnel target — zero bytes
  // copied, zero bytes allocated here.
  auto wire = pkt.take_wire();
  wire.patch_u8(0, static_cast<std::uint8_t>(PacketType::kRelayDeliver));
  c->edge->send(std::move(wire));
}

void BrunetNode::handle_relay_deliver(const std::shared_ptr<Edge>& edge,
                                      const Packet& pkt) {
  if (pkt.dst != addr_) return;  // misdelivered wrapper
  std::shared_ptr<RelayEdge> re;
  if (auto it = relay_edges_.find(pkt.src);
      it != relay_edges_.end() && it->second->is_up()) {
    re = it->second;
    // Opportunistic backup arming (the responder-side mirror of the
    // initiator's link-time pick): a wrapped frame arriving over a
    // different direct edge proves that edge's owner can also relay for
    // this peer — e.g. after the peer failed over, its frames come
    // through the new relay before our old carrier even times out.
    if (edge.get() != re->via().get()) {
      if (const Connection* rc = table_.find_by_edge(edge.get())) {
        re->arm_backup(rc->addr);
      }
    }
  } else {
    // First wrapped frame from this tunnel peer: materialize our end of
    // the tunnel over the edge it arrived on (the relay's direct edge to
    // us), so the handshake — and everything after — has a real Edge to
    // ride.
    Address relay_addr;
    if (const Connection* rc = table_.find_by_edge(edge.get())) {
      relay_addr = rc->addr;
    }
    re = std::make_shared<RelayEdge>(addr_, pkt.src, relay_addr, edge,
                                     &stats_.relay_wrap_bytes_copied);
    adopt_edge(re);
    relay_edges_[pkt.src] = re;
    ++stats_.relay_edges;
  }
  // The inner frame shares the wrapper's storage: unwrapping is a
  // 48-byte offset, not a copy — and refunds exactly the headroom the
  // next node on a reply path would need.
  re->deliver_inner(host_.loop().now(), pkt.share_payload());
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
      locate_ring_position();
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

UdpTransport* BrunetNode::ensure_udp() {
  if (udp_ == nullptr) {
    udp_ = std::make_unique<UdpTransport>(host_, cfg_.port);
    udp_->set_inbound_handler(
        [this](std::shared_ptr<Edge> e) { adopt_edge(e); });
  }
  return udp_.get();
}

TcpTransport* BrunetNode::ensure_tcp() {
  if (tcp_ == nullptr) {
    tcp_ = std::make_unique<TcpTransport>(host_, cfg_.port);
    tcp_->set_inbound_handler(
        [this](std::shared_ptr<Edge> e) { adopt_edge(e); });
  }
  return tcp_.get();
}

bool BrunetNode::dial(const TransportAddress& ta, EdgeCallback on_edge) {
  // A NATed node advertises its private endpoints too; our copy of that
  // private address is our *own* socket (every private LAN looks alike)
  // — dialing it would handshake with ourselves.
  if (host_.stack().is_local_ip(ta.ip) && ta.port == cfg_.port) return false;
  if (ta.proto == TransportAddress::Proto::kUdp) {
    on_edge(ensure_udp()->edge_to(ta.ip, ta.port));
  } else {
    ensure_tcp()->connect(
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

void BrunetNode::locate_ring_position() {
  const Connection* via = table_.closest_to(addr_);
  if (via == nullptr) return;
  send_locate_probe(via->edge);
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
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ConnectionType::kStructuredNear));
  NodeInfo{addr_, local_addresses()}.encode(w);
  // Reachable-via hints: until we are ring-linked, a responder can reach
  // us neither by routed punch request (exact routing drops at our
  // would-be neighbor) nor by dialing our NATed endpoints — but it can
  // tunnel a link request through any node we already hold an edge to
  // (the bootstrap seed, at minimum).
  encode_node_infos(w, direct_edge_hints());
  pkt.set_payload(w.take());
  ++stats_.originated;
  via->send(pkt.take_wire(send_headroom_));
}

std::vector<NodeInfo> BrunetNode::direct_edge_hints() const {
  std::vector<NodeInfo> hints;
  hints.reserve(4);
  table_.for_each([&](const Connection& c) {
    if (hints.size() >= 4 || !is_direct(c.edge)) return;
    hints.push_back(NodeInfo{c.addr, {}});
  });
  return hints;
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
  NodeInfo{addr_, local_addresses()}.encode(w);
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
  std::vector<NodeInfo> infos{NodeInfo{addr_, local_addresses()}};
  for (auto& info : neighbor_infos(2 * cfg_.near_per_side)) {
    infos.push_back(std::move(info));
  }
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
  Address target = addr_.offset_by_pow2(bit);
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ConnectionType::kStructuredFar));
  NodeInfo{addr_, local_addresses()}.encode(w);
  request(target, PacketType::kConnectRequest, RoutingMode::kClosest, w.take(),
          [this](std::optional<Packet> resp) { on_connect_response(resp); });
}

void BrunetNode::request_connection(const Address& target,
                                    ConnectionType type) {
  if (!started_ || target == addr_ || table_.contains(target)) return;
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  NodeInfo{addr_, local_addresses()}.encode(w);
  request(target, PacketType::kConnectRequest, RoutingMode::kExact, w.take(),
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
  const auto now = host_.loop().now();
  auto carries_tunnel = [&](const std::shared_ptr<Edge>& e) {
    // Our own tunnels' carriers are load-bearing however the connection
    // is classified...
    for (const auto& [peer, re] : relay_edges_) {
      if (re->via() == e) return true;
    }
    // ...and so are edges recently forwarding someone *else's* tunnel
    // through us (we are their R; cutting the edge cuts their link).
    auto a = relay_via_activity_.find(e.get());
    return a != relay_via_activity_.end() && now - a->second < cfg_.edge_timeout;
  };
  table_.for_each([&](const Connection& c) {
    if (c.type == ConnectionType::kStructuredNear) return;
    if (c.type == ConnectionType::kTrafficShortcut) return;
    if (c.peer_requested_near) return;
    if (carries_tunnel(c.edge)) return;
    trimmable.push_back({c.addr, c.edge});
  });
  if (trimmable.size() <= cfg_.shortcut_target) return;
  std::sort(trimmable.begin(), trimmable.end(),
            [](const Victim& a, const Victim& b) {
              return a.edge->last_received() < b.edge->last_received();
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
  std::sort(stale.begin(), stale.end(),
            [](const std::shared_ptr<Edge>& a, const std::shared_ptr<Edge>& b) {
              return a->remote() < b->remote();
            });
  for (auto& e : stale) {
    edges_.erase(e.get());
    send_edge_close(e);
    e->close();
  }
}

}  // namespace ipop::brunet
