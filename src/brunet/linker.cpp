#include "brunet/linker.hpp"

#include <algorithm>
#include <functional>

#include "brunet/node.hpp"
#include "brunet/relay_edge.hpp"
#include "util/logging.hpp"

namespace ipop::brunet {

namespace {
/// Dial rounds per link attempt, and the pause between rounds.
constexpr int kLinkAttempts = 6;
constexpr Duration kLinkRetry = util::milliseconds(400);

/// A live edge that is not itself a relay tunnel.  Relays are picked
/// from, and forward over, direct edges only: that keeps tunnels one
/// layer deep (no wrap-in-wrap recursion between mutually relaying nodes).
bool is_direct(const std::shared_ptr<Edge>& e) {
  return e != nullptr && e->is_up() &&
         e->remote().proto != TransportAddress::Proto::kRelay;
}

/// Merge dialable candidates into an attempt: relay pseudo-addresses are
/// never dialable, and same-protocol endpoints are preferred — only a
/// peer offering none falls back to its own protocol (the bootstrap
/// cross-proto rule, now applied to every ring link).  Returns true when
/// the merge had to fall back.
bool merge_candidates(std::vector<TransportAddress>& into,
                      const std::vector<TransportAddress>& candidates,
                      TransportAddress::Proto native) {
  const bool have_native = std::any_of(
      candidates.begin(), candidates.end(),
      [&](const TransportAddress& ta) { return ta.proto == native; });
  for (const auto& ta : candidates) {
    if (ta.proto == TransportAddress::Proto::kRelay) continue;
    if (have_native && ta.proto != native) continue;
    if (std::ranges::find(into, ta) == into.end()) into.push_back(ta);
  }
  return !have_native && !candidates.empty();
}

/// Merge relay hints into an attempt's relay candidates, one per address.
void merge_hints(std::vector<NodeInfo>& into,
                 const std::vector<NodeInfo>& hints) {
  for (const auto& h : hints) {
    if (std::none_of(into.begin(), into.end(),
                     [&](const NodeInfo& r) { return r.addr == h.addr; })) {
      into.push_back(h);
    }
  }
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
  w.bytes(addr.bytes());
  const std::size_t n = std::min<std::size_t>(addrs.size(), 8);
  w.u8(static_cast<std::uint8_t>(n));
  for (std::size_t i = 0; i < n; ++i) addrs[i].encode(w);
}

NodeInfo NodeInfo::decode(util::ByteReader& r) {
  NodeInfo info{Address(r.array<Address::kBytes>()), {}};
  for (std::uint8_t n = r.u8(); n > 0; --n) {
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

void Linker::connect_to(const Address& target,
                        const std::vector<TransportAddress>& candidates,
                        ConnectionType type,
                        const std::vector<NodeInfo>& via_hints) {
  if (!node_.started_ || target == node_.addr_) return;
  if (const Connection* existing = node_.table_.find(target)) {
    // Already connected: upgrade the classification if needed.
    node_.table_.add({.addr = target, .type = type,
                      .edge = existing->edge, .advertised = {}});
    return;
  }
  auto [it, inserted] = linking_.try_emplace(target);
  LinkAttempt& attempt = it->second;
  // A running attempt still folds in fresh relay hints (a re-probing
  // joiner may have gained reachable neighbors since).
  merge_hints(attempt.relay_candidates, via_hints);
  if (!inserted) return;
  ++node_.stats_.links_started;
  attempt.type = type;
  attempt.attempts_left = kLinkAttempts;
  if (merge_candidates(attempt.candidates, candidates, node_.cfg_.transport)) {
    ++node_.stats_.links_cross_proto;
  }
  if (attempt.candidates.empty()) {
    linking_.erase(it);
    return;
  }
  retry_tick(target);
  // Rendezvous through the overlay: the target dials us back so both
  // NATs see outbound traffic (simultaneous open, Section III-D), and
  // reports its NAT class and neighbors (our relay candidates).  Needs a
  // routable table; a joining node's first links skip it.
  if (node_.table_.size() > 0) send_punch_request(target);
}

void Linker::retry_tick(Address target) {
  auto it = linking_.find(target);
  if (it == linking_.end() || !node_.started_) return;
  LinkAttempt& attempt = it->second;
  attempt.timer = 0;
  if (node_.table_.contains(target)) {
    linking_.erase(it);
    return;
  }
  Duration delay = kLinkRetry;
  if (attempt.attempts_left-- <= 0) {
    // Dialing is spent.  Before giving up, tunnel the handshake through
    // a mutual neighbor: symmetric↔symmetric pairs can never punch, and
    // an exhausted cone pair gets one relay try too.
    if (attempt.relay_tried || !start_relay(target, attempt)) {
      IPOP_LOG_DEBUG(node_.addr_.short_hex()
                     << ": link to " << target.short_hex()
                     << " failed (no response)");
      ++node_.stats_.links_failed;
      linking_.erase(it);
      return;
    }
    attempt.relay_tried = true;
    attempt.attempts_left = 2;  // rounds for the handshake over the tunnel
  } else {
    ++attempt.round;
    const ConnectionType type = attempt.type;
    for (const auto& ta : attempt.candidates) {
      node_.dial(ta, [this, target, type](const std::shared_ptr<Edge>& edge) {
        // A stream dial completes later: the link may have come up over
        // another edge meanwhile.
        if (linking_.find(target) == linking_.end() &&
            node_.table_.contains(target)) {
          edge->close();  // race: already linked elsewhere
          return;
        }
        node_.adopt_edge(edge);
        node_.send_link(edge, type);
      });
    }
    // Per-NAT-type pacing: against a symmetric endpoint every retry lands
    // on a fresh mapping, so rapid-fire probing burns attempts without
    // widening coverage — stretch the interval linearly instead and give
    // the punched dial-back time to arrive.
    if (nat_class_ == NatClass::kSymmetric ||
        attempt.peer_nat == NatClass::kSymmetric) {
      delay = kLinkRetry * attempt.round;
    }
  }
  attempt.timer = node_.host_.loop().schedule_after(
      delay, [this, alive = alive_.guard(), target] {
        if (!alive) return;
        retry_tick(target);
      });
}

bool Linker::on_link_up(const Address& peer, bool is_request,
                        ConnectionType& type) {
  auto link = linking_.find(peer);
  if (link == linking_.end()) return false;
  const LinkAttempt& attempt = link->second;
  // With a punch exchange in flight, a link that needed more than the
  // first dial round was opened by the hole punch.  Our own dial's
  // response answers the round that sent it, so counts from round 2; a
  // peer's request after our round 1 is the punched simultaneous open.
  const bool punched =
      attempt.punch_sent && attempt.round >= (is_request ? 1 : 2);
  if (!is_request) type = attempt.type;
  if (attempt.timer != 0) node_.host_.loop().cancel(attempt.timer);
  linking_.erase(link);
  return punched;
}

void Linker::stop() {
  for (auto& [addr, attempt] : linking_) {
    if (attempt.timer != 0) node_.host_.loop().cancel(attempt.timer);
  }
  linking_.clear();
  relay_edges_.clear();
  relay_via_activity_.clear();
}

void Linker::record_observed(const TransportAddress& ta) {
  // A relay tunnel's pseudo-endpoint says nothing about our NAT and must
  // never be advertised as dialable.
  if (ta.proto == TransportAddress::Proto::kRelay) return;
  if (node_.host_.stack().is_local_ip(ta.ip)) {
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
  IPOP_LOG_DEBUG(node_.addr_.short_hex()
                 << ": learned translated address " << ta.to_string()
                 << " (nat: " << nat_class_name(nat_class_) << ")");
  // Our advertised endpoints changed: refresh every peer's view so gossip
  // carries the dialable (translated) endpoint, not just the private one.
  node_.broadcast_identity();
}

std::vector<NodeInfo> Linker::direct_edge_hints() const {
  std::vector<NodeInfo> hints;
  hints.reserve(4);
  node_.table_.for_each([&](const Connection& c) {
    if (hints.size() >= 4 || !is_direct(c.edge)) return;
    hints.push_back(NodeInfo{c.addr, {}});
  });
  return hints;
}

void Linker::send_punch_request(const Address& target) {
  auto it = linking_.find(target);
  if (it == linking_.end()) return;
  it->second.punch_sent = true;
  ++node_.stats_.punch_requests_sent;
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(it->second.type));
  w.u8(static_cast<std::uint8_t>(nat_class_));
  node_.self_info().encode(w);
  node_.request(target, PacketType::kPunchRequest, RoutingMode::kExact,
                w.take(), [this, target](std::optional<Packet> resp) {
                  on_punch_response(target, std::move(resp));
                });
}

void Linker::handle_punch_request(const Packet& pkt) {
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
  ++node_.stats_.punch_requests;
  // Dial back: our outbound probes open our NAT toward the requester
  // while its own probes open the reverse path — whichever direction a
  // NAT admits first brings the edge up.  Idempotent via linking_, which
  // also terminates the request ping-pong (our connect_to's punch
  // request finds the requester already linking toward us).
  connect_to(requester.addr, requester.addrs, type, {});
  if (auto it = linking_.find(requester.addr); it != linking_.end()) {
    it->second.peer_nat = requester_nat;
  }
  // Answer with our NAT class and neighbors: if neither side's probes
  // land, the requester picks its relay from this set.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(nat_class_));
  node_.self_info().encode(w);
  encode_node_infos(w, node_.neighbor_infos(node_.cfg_.near_per_side));
  node_.respond(pkt, PacketType::kPunchResponse, w.take());
}

void Linker::on_punch_response(const Address& target,
                               std::optional<Packet> resp) {
  if (!resp) return;
  ++node_.stats_.punch_responses;
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
  merge_candidates(attempt.candidates, peer.addrs, node_.cfg_.transport);
  if (nat_class_ == NatClass::kSymmetric &&
      peer_nat == NatClass::kSymmetric) {
    // Hopeless pairing: both sides mint per-destination mappings, so no
    // advertised endpoint will ever match a probe.  Skip the remaining
    // dial rounds and relay now (retry_tick resets the timer id).
    if (attempt.timer != 0) node_.host_.loop().cancel(attempt.timer);
    attempt.attempts_left = 0;
    retry_tick(target);
  }
}

bool Linker::start_relay(const Address& target, LinkAttempt& attempt) {
  if (auto existing = relay_edges_.find(target);
      existing != relay_edges_.end() && existing->second->is_up()) {
    node_.send_link(existing->second, attempt.type);
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
  auto rank = [&](const Connection* c, auto better) {
    if (c == nullptr || c->addr == target || !is_direct(c->edge)) return;
    if (via == nullptr || better(c->addr, via->addr)) {
      backup = via;
      via = c;
    } else if (backup == nullptr || better(c->addr, backup->addr)) {
      backup = c;
    }
  };
  for (const auto& info : attempt.relay_candidates) {
    rank(node_.table_.find(info.addr), std::less<Address>{});
  }
  if (via == nullptr) {
    // No punch response made it back (or no mutual neighbor): fall back
    // to our direct connection ring-closest to the target, which on a
    // converging ring is very likely the target's neighbor.
    auto ring_closer = [&](const Address& a, const Address& b) {
      return Address::closer(target, a, b);
    };
    node_.table_.for_each([&](const Connection& c) { rank(&c, ring_closer); });
  }
  if (via == nullptr) return false;
  IPOP_LOG_DEBUG(node_.addr_.short_hex() << ": relaying link to "
                                         << target.short_hex() << " via "
                                         << via->addr.short_hex());
  auto re = open_tunnel(target, via->addr, via->edge);
  if (backup != nullptr) re->arm_backup(backup->addr);
  node_.send_link(re, attempt.type);
  return true;
}

std::shared_ptr<RelayEdge> Linker::open_tunnel(const Address& peer,
                                               const Address& relay,
                                               std::shared_ptr<Edge> via) {
  auto re = std::make_shared<RelayEdge>(node_.addr_, peer, relay,
                                        std::move(via),
                                        &node_.stats_.relay_wrap_bytes_copied);
  node_.adopt_edge(re);
  relay_edges_[peer] = re;
  ++node_.stats_.relay_edges;
  return re;
}

bool Linker::failover_relay(const std::shared_ptr<RelayEdge>& re) {
  const Address& backup = re->backup_relay();
  if (backup == Address{}) return false;
  const Connection* c = node_.table_.find(backup);
  if (c == nullptr || !is_direct(c->edge)) return false;
  IPOP_LOG_DEBUG(node_.addr_.short_hex()
                 << ": relay to " << re->peer().short_hex()
                 << " failing over via " << backup.short_hex());
  re->swap_via(c->edge, c->addr);
  ++node_.stats_.relay_failovers;
  return true;
}

void Linker::on_edge_closed(Edge* edge) {
  relay_via_activity_.erase(edge);
  // A tunnel is only as alive as its carrier — but a tunnel with a
  // pre-armed backup relay swaps onto the backup's direct edge first
  // (failover) and only dies when no backup can carry it.  Each close
  // re-enters the node for the tunnel itself, one level deep — a relay's
  // via is always direct.
  std::vector<std::shared_ptr<RelayEdge>> dead_tunnels;
  for (auto it = relay_edges_.begin(); it != relay_edges_.end();) {
    if (it->second.get() == edge) {
      it = relay_edges_.erase(it);
    } else if (it->second->via().get() == edge &&
               !failover_relay(it->second)) {
      dead_tunnels.push_back(it->second);
      it = relay_edges_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& re : dead_tunnels) re->close();
}

bool Linker::carries_tunnel(const std::shared_ptr<Edge>& e) const {
  // Our own tunnels' carriers are load-bearing however the connection is
  // classified...
  for (const auto& [peer, re] : relay_edges_) {
    if (re->via() == e) return true;
  }
  // ...and so are edges recently forwarding someone *else's* tunnel
  // through us (we are their R; cutting the edge cuts their link).
  auto a = relay_via_activity_.find(e.get());
  return a != relay_via_activity_.end() &&
         node_.host_.loop().now() - a->second < node_.cfg_.edge_timeout;
}

void Linker::handle_relay(const std::shared_ptr<Edge>& edge, Packet pkt) {
  if (pkt.type == PacketType::kRelayDeliver) {
    relay_deliver(edge, pkt);
    return;
  }
  // kRelayForward: we are the relay R.
  if (pkt.hops >= pkt.ttl) {
    ++node_.stats_.relay_drop_no_route;
    return;
  }
  ++pkt.hops;
  const Connection* c = node_.table_.find(pkt.dst);
  if (c == nullptr || !is_direct(c->edge)) {
    ++node_.stats_.relay_drop_no_route;
    return;
  }
  ++node_.stats_.relay_forwarded;
  const auto now = node_.host_.loop().now();
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

void Linker::relay_deliver(const std::shared_ptr<Edge>& edge,
                           const Packet& pkt) {
  if (pkt.dst != node_.addr_) return;  // misdelivered wrapper
  // The relay: the node whose direct edge carried the wrapper to us.
  const Connection* rc = node_.table_.find_by_edge(edge.get());
  const Address relay = rc != nullptr ? rc->addr : Address{};
  std::shared_ptr<RelayEdge> re;
  if (auto it = relay_edges_.find(pkt.src);
      it != relay_edges_.end() && it->second->is_up()) {
    re = it->second;
    // Opportunistic backup arming (the responder-side mirror of the
    // initiator's link-time pick): a wrapped frame arriving over a
    // different direct edge proves that edge's owner can also relay for
    // this peer — e.g. after the peer failed over, its frames come
    // through the new relay before our old carrier even times out.
    if (rc != nullptr && edge != re->via()) re->arm_backup(relay);
  } else {
    // First wrapped frame from this tunnel peer: materialize our end of
    // the tunnel over the edge it arrived on (the relay's direct edge to
    // us), so the handshake — and everything after — has a real Edge to
    // ride.
    re = open_tunnel(pkt.src, relay, edge);
  }
  // The inner frame shares the wrapper's storage: unwrapping is a
  // 48-byte offset, not a copy — and refunds exactly the headroom the
  // next node on a reply path would need.
  re->deliver_inner(node_.host_.loop().now(), pkt.share_payload());
}

}  // namespace ipop::brunet
