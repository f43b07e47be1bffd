#include "net/stack.hpp"

#include <algorithm>

#include "net/l4_patch.hpp"
#include "util/logging.hpp"

namespace ipop::net {

namespace {
std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}
std::uint64_t g_mac_counter = 1;

/// The connected-route subnet for an interface address — single
/// definition shared by add_interface() and set_interface_ip() so the
/// route added at construction and the one retracted/re-added on
/// re-addressing can never drift apart.
Ipv4Prefix connected_prefix(Ipv4Address ip, int prefix_len) {
  return Ipv4Prefix{
      Ipv4Address(ip.value &
                  (prefix_len == 0 ? 0u : ~0u << (32 - prefix_len))),
      prefix_len};
}
std::uint64_t g_stack_uid = 1;

/// ARP requests sent for one next hop before its queued packets drop.
constexpr int kArpAttempts = 3;
constexpr Duration kArpRetryInterval = util::seconds(1);
}  // namespace

Stack::Stack(sim::EventLoop& loop, std::string host_name, StackConfig cfg)
    : loop_(&loop),
      name_(std::move(host_name)),
      uid_(g_stack_uid++),
      cfg_(cfg),
      rng_(cfg.seed != 0 ? cfg.seed : hash_name(name_)) {}

Stack::~Stack() {
  // Break handler-capture reference cycles: a socket whose on_readable /
  // receive handler captures a shared_ptr to itself (a common fixture and
  // app idiom) would otherwise never be destroyed.  Detach clears those
  // std::functions and unhooks the socket from this dying stack.
  for (auto& w : udp_created_) {
    if (auto s = w.lock()) s->detach();
  }
  for (auto& w : tcp_created_) {
    if (auto s = w.lock()) s->detach();
  }
  for (auto& w : listeners_created_) {
    if (auto l = w.lock()) l->detach();
  }
}

std::size_t Stack::add_interface(const InterfaceConfig& icfg,
                                 sim::LinkEnd* link) {
  auto iface = std::make_unique<Interface>();
  iface->cfg = icfg;
  if (iface->cfg.mac == MacAddress{}) {
    iface->cfg.mac = MacAddress::from_index(g_mac_counter++);
  }
  iface->link = link;
  const std::size_t idx = ifaces_.size();
  if (link != nullptr) {
    link->set_receiver(
        [this, idx](sim::Frame f) { on_frame(idx, std::move(f)); });
  }
  ifaces_.push_back(std::move(iface));
  // Connected route for the interface subnet.
  if (!icfg.ip.is_unspecified()) {
    add_route(connected_prefix(icfg.ip, icfg.prefix_len), idx);
  }
  return idx;
}

void Stack::set_interface_ip(std::size_t iface, Ipv4Address ip) {
  auto& cfg = ifaces_[iface]->cfg;
  if (cfg.ip == ip) return;
  // Retract the old address's connected route (a lost DHCP lease must
  // stop being answered for, not linger as a stale /32).
  if (!cfg.ip.is_unspecified()) {
    const auto old_subnet = connected_prefix(cfg.ip, cfg.prefix_len);
    std::erase_if(routes_, [&](const Route& r) {
      return r.iface == iface && !r.gateway.has_value() &&
             r.prefix.network == old_subnet.network &&
             r.prefix.length == old_subnet.length;
    });
  }
  cfg.ip = ip;
  // Connected route for the (possibly late-assigned) interface subnet —
  // the DHCP-over-DHT path brings interfaces up unnumbered and addresses
  // them once the lease lands.
  if (!ip.is_unspecified()) {
    add_route(connected_prefix(ip, cfg.prefix_len), iface);
  }
}

std::optional<std::size_t> Stack::interface_by_name(
    const std::string& name) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    if (ifaces_[i]->cfg.name == name) return i;
  }
  return std::nullopt;
}

void Stack::add_route(Ipv4Prefix prefix, std::size_t iface,
                      std::optional<Ipv4Address> gateway, int metric) {
  routes_.push_back(Route{prefix, iface, gateway, metric});
}

void Stack::add_static_arp(std::size_t iface, Ipv4Address ip, MacAddress mac) {
  ifaces_[iface]->arp_table[ip] = mac;
}

void Stack::add_ip_alias(std::size_t iface, Ipv4Address ip) {
  auto& aliases = ifaces_[iface]->aliases;
  if (std::find(aliases.begin(), aliases.end(), ip) == aliases.end()) {
    aliases.push_back(ip);
  }
}

void Stack::remove_ip_alias(std::size_t iface, Ipv4Address ip) {
  auto& aliases = ifaces_[iface]->aliases;
  aliases.erase(std::remove(aliases.begin(), aliases.end(), ip),
                aliases.end());
}

bool Stack::is_local_ip(Ipv4Address ip) const {
  for (const auto& iface : ifaces_) {
    if (iface->cfg.ip == ip) return true;
    for (const auto& alias : iface->aliases) {
      if (alias == ip) return true;
    }
  }
  return false;
}

Ipv4Address Stack::source_ip_for(Ipv4Address dst) const {
  const Route* r = lookup_route(dst);
  if (r == nullptr) return Ipv4Address{};
  return ifaces_[r->iface]->cfg.ip;
}

const Route* Stack::lookup_route(Ipv4Address dst) const {
  const Route* best = nullptr;
  for (const auto& r : routes_) {
    if (!r.prefix.contains(dst)) continue;
    if (best == nullptr || r.prefix.length > best->prefix.length ||
        (r.prefix.length == best->prefix.length && r.metric < best->metric)) {
      best = &r;
    }
  }
  return best;
}

// --------------------------------------------------------------------------
// Receive pipeline
// --------------------------------------------------------------------------

void Stack::on_frame(std::size_t iface, sim::Frame frame) {
  // Kernel receive-path traversal cost.
  loop_->schedule_after(cfg_.per_packet_delay,
                       [this, alive = alive_.guard(), iface,
                        frame = std::move(frame)]() mutable {
                         if (!alive) return;
                         process_frame(iface, std::move(frame));
                       });
}

void Stack::process_frame(std::size_t iface, sim::Frame frame) {
  EthernetView eth;
  try {
    eth = EthernetView::parse(frame.view());
  } catch (const util::ParseError&) {
    ++counters_.dropped_parse;
    return;
  }
  Interface& ifc = *ifaces_[iface];
  if (!eth.dst.is_broadcast() && eth.dst != ifc.cfg.mac) {
    return;  // not addressed to us
  }
  switch (eth.type) {
    case EtherType::kArp:
      handle_arp(iface, eth.payload);
      break;
    case EtherType::kIpv4:
      // Hand the frame buffer itself to the IP layer: the 14 stripped
      // Ethernet bytes become headroom and the stored payload bytes are
      // never copied again on this host.
      frame.drop_front(EthernetView::kHeaderSize);
      handle_ip(iface, std::move(frame));
      break;
    default:
      break;
  }
}

void Stack::handle_arp(std::size_t iface,
                       std::span<const std::uint8_t> bytes) {
  ArpMessage msg;
  try {
    msg = ArpMessage::decode(bytes);
  } catch (const util::ParseError&) {
    ++counters_.dropped_parse;
    return;
  }
  Interface& ifc = *ifaces_[iface];
  if (!msg.sender_ip.is_unspecified()) {
    ifc.arp_table[msg.sender_ip] = msg.sender_mac;
    // Flush any packets queued on this resolution.
    auto pending = ifc.arp_pending.find(msg.sender_ip);
    if (pending != ifc.arp_pending.end()) {
      if (pending->second.timer != 0) loop_->cancel(pending->second.timer);
      auto queue = std::move(pending->second.queue);
      ifc.arp_pending.erase(pending);
      for (auto& pkt : queue) {
        emit_ip(iface, msg.sender_mac, std::move(pkt));
      }
    }
  }
  if (msg.op == ArpOp::kRequest && msg.target_ip == ifc.cfg.ip) {
    ArpMessage reply;
    reply.op = ArpOp::kReply;
    reply.sender_mac = ifc.cfg.mac;
    reply.sender_ip = ifc.cfg.ip;
    reply.target_mac = msg.sender_mac;
    reply.target_ip = msg.sender_ip;
    emit_frame(iface, frame_onto(util::Buffer::wrap(reply.encode()),
                                 msg.sender_mac, ifc.cfg.mac, EtherType::kArp));
  }
}

void Stack::handle_ip(std::size_t iface, util::Buffer bytes) {
  Ipv4Packet pkt;
  try {
    pkt = Ipv4Packet::decode(std::move(bytes));
  } catch (const util::ParseError&) {
    ++counters_.dropped_parse;
    return;
  }
  ++counters_.ip_rx;
  // The pre-zero-copy kernel copied the packet out of the receive ring
  // on every traversal.
  copy_at_crossing(pkt.payload, util::kPacketHeadroom);
  if (prerouting_ && !prerouting_(pkt, iface)) {
    ++counters_.dropped_hook;
    return;
  }
  if (is_local_ip(pkt.hdr.dst) || pkt.hdr.dst.is_broadcast()) {
    deliver_local(iface, std::move(pkt));
  } else if (forwarding_) {
    forward_packet(iface, std::move(pkt));
  }
  // Hosts silently drop transit packets when forwarding is disabled.
}

void Stack::forward_packet(std::size_t iface, Ipv4Packet pkt) {
  if (pkt.hdr.ttl <= 1) {
    ++counters_.dropped_ttl;
    send_icmp_error(pkt, IcmpType::kTimeExceeded, 0);
    return;
  }
  pkt.hdr.ttl -= 1;
  const Route* route = lookup_route(pkt.hdr.dst);
  if (route == nullptr) {
    ++counters_.dropped_no_route;
    send_icmp_error(pkt, IcmpType::kDestUnreachable, 0);
    return;
  }
  if (forward_ && !forward_(pkt, iface, route->iface)) {
    ++counters_.dropped_hook;
    return;
  }
  ++counters_.forwarded;
  const Ipv4Address next_hop = route->gateway.value_or(pkt.hdr.dst);
  if (postrouting_ && !postrouting_(pkt, route->iface)) {
    ++counters_.dropped_hook;
    return;
  }
  const std::size_t egress_mtu = ifaces_[route->iface]->cfg.mtu;
  if (pkt.total_length() > egress_mtu) {
    ++counters_.dropped_mtu;
    // Frag needed: report the next-hop MTU (RFC 1191) so the sender's
    // path-MTU discovery can react with a correctly sized segment.
    send_icmp_error(pkt, IcmpType::kDestUnreachable, 4,
                    static_cast<std::uint16_t>(
                        std::min<std::size_t>(egress_mtu, 65535)));
    return;
  }
  resolve_and_send(route->iface, next_hop, std::move(pkt));
}

// --------------------------------------------------------------------------
// Send pipeline
// --------------------------------------------------------------------------

void Stack::send_ip(Ipv4Packet pkt) {
  if (pkt.hdr.id == 0) pkt.hdr.id = next_ip_id_++;
  // Loopback: destination is one of our own addresses.
  if (is_local_ip(pkt.hdr.dst)) {
    if (pkt.hdr.src.is_unspecified()) pkt.hdr.src = pkt.hdr.dst;
    ++counters_.ip_tx;
    loop_->schedule_after(cfg_.per_packet_delay,
                         [this, alive = alive_.guard(),
                          pkt = std::move(pkt)]() mutable {
                           if (!alive) return;
                           deliver_local(0, std::move(pkt));
                         });
    return;
  }
  const Route* route = lookup_route(pkt.hdr.dst);
  if (route == nullptr) {
    ++counters_.dropped_no_route;
    return;
  }
  if (pkt.hdr.src.is_unspecified()) {
    pkt.hdr.src = ifaces_[route->iface]->cfg.ip;
  }
  ++counters_.ip_tx;
  const Ipv4Address next_hop = route->gateway.value_or(pkt.hdr.dst);
  if (postrouting_ && !postrouting_(pkt, route->iface)) {
    ++counters_.dropped_hook;
    return;
  }
  if (pkt.total_length() > ifaces_[route->iface]->cfg.mtu) {
    ++counters_.dropped_mtu;
    return;
  }
  resolve_and_send(route->iface, next_hop, std::move(pkt));
}

void Stack::resolve_and_send(std::size_t iface, Ipv4Address next_hop,
                             Ipv4Packet pkt) {
  Interface& ifc = *ifaces_[iface];
  if (next_hop.is_broadcast()) {
    emit_ip(iface, MacAddress::broadcast(), std::move(pkt));
    return;
  }
  auto arp = ifc.arp_table.find(next_hop);
  if (arp != ifc.arp_table.end()) {
    emit_ip(iface, arp->second, std::move(pkt));
    return;
  }
  // Queue behind an ARP resolution.
  PendingArp& pending = ifc.arp_pending[next_hop];
  pending.queue.push_back(std::move(pkt));
  if (pending.timer == 0) {
    pending.attempts = 0;
    send_arp_request(iface, next_hop);
    pending.timer = loop_->schedule_after(
        kArpRetryInterval,
        [this, iface, next_hop] { arp_retry(iface, next_hop); });
  }
}

void Stack::arp_retry(std::size_t iface, Ipv4Address target) {
  Interface& ifc = *ifaces_[iface];
  auto it = ifc.arp_pending.find(target);
  if (it == ifc.arp_pending.end()) return;
  PendingArp& pending = it->second;
  if (++pending.attempts >= kArpAttempts) {
    counters_.dropped_arp_fail += pending.queue.size();
    ifc.arp_pending.erase(it);
    return;
  }
  send_arp_request(iface, target);
  pending.timer = loop_->schedule_after(
      kArpRetryInterval, [this, iface, target] { arp_retry(iface, target); });
}

void Stack::send_arp_request(std::size_t iface, Ipv4Address target) {
  Interface& ifc = *ifaces_[iface];
  ArpMessage req;
  req.op = ArpOp::kRequest;
  req.sender_mac = ifc.cfg.mac;
  req.sender_ip = ifc.cfg.ip;
  req.target_ip = target;
  emit_frame(iface, frame_onto(util::Buffer::wrap(req.encode()),
                               MacAddress::broadcast(), ifc.cfg.mac,
                               EtherType::kArp));
}

void Stack::copy_at_crossing(util::Buffer& payload, std::size_t headroom) {
  if (!cfg_.copy_at_stack_crossing) return;
  counters_.payload_bytes_copied += payload.size();
  // lint:allow(zero-copy): copy_at_stack_crossing ablation mode — the copy IS the experiment
  payload = payload.clone(headroom);
}

void Stack::emit_ip(std::size_t iface, MacAddress dst, Ipv4Packet pkt) {
  Interface& ifc = *ifaces_[iface];
  // The pre-zero-copy kernel serialized the packet into a fresh frame on
  // every transmit.
  copy_at_crossing(pkt.payload, util::kPacketHeadroom);
  if (!pkt.wire_in_place(EthernetView::kHeaderSize)) {
    // Shared or cramped storage: the header prepend reallocates once.
    counters_.payload_bytes_copied += pkt.payload.size();
  }
  // The IP header lands in the payload buffer's headroom, the Ethernet
  // header in front of that; locally generated and forwarded packets
  // alike leave without their payload ever moving.  Freshly allocated
  // storage carries util::kPacketHeadroom spare front bytes, so when the
  // frame pops out of a tap device IPOP can strip this Ethernet header
  // and prepend the Brunet tunnel header into the same storage.
  emit_frame(iface,
             frame_onto(pkt.take_wire(), dst, ifc.cfg.mac, EtherType::kIpv4));
}

void Stack::emit_frame(std::size_t iface, util::Buffer frame) {
  // Kernel transmit-path traversal cost.  The interface is re-looked-up
  // inside the callback (by index, behind the liveness guard) because the
  // event can outlive both the Interface object and the whole Stack.
  loop_->schedule_after(cfg_.per_packet_delay,
                       [this, alive = alive_.guard(), iface,
                        raw = std::move(frame)]() mutable {
                         if (!alive) return;
                         Interface& ifc = *ifaces_[iface];
                         if (ifc.link != nullptr) ifc.link->send(std::move(raw));
                       });
}

// --------------------------------------------------------------------------
// Local delivery
// --------------------------------------------------------------------------

void Stack::deliver_local(std::size_t iface, Ipv4Packet pkt) {
  (void)iface;
  switch (pkt.hdr.proto) {
    case IpProto::kIcmp:
      deliver_icmp(std::move(pkt));
      break;
    case IpProto::kUdp:
      deliver_udp(std::move(pkt));
      break;
    case IpProto::kTcp:
      deliver_tcp(pkt);
      break;
  }
}

void Stack::deliver_icmp(Ipv4Packet pkt) {
  IcmpView msg;
  try {
    msg = IcmpView::parse(pkt.payload.view());
  } catch (const util::ParseError&) {
    ++counters_.dropped_parse;
    return;
  }
  switch (msg.type) {
    case IcmpType::kEchoRequest: {
      ++counters_.icmp_echo_replied;
      // Kernel-style echo: the reply reuses the request's buffer — flip
      // the type byte in place and fix the checksum incrementally
      // (RFC 1624) instead of re-encoding the payload.
      Ipv4Packet out;
      out.hdr.proto = IpProto::kIcmp;
      out.hdr.src = pkt.hdr.dst;
      out.hdr.dst = pkt.hdr.src;
      out.payload = std::move(pkt.payload);
      if (out.payload.use_count() > 1) {
        // Shared storage (e.g. a flooded frame): copy-on-write.
        counters_.payload_bytes_copied += out.payload.size();
        // lint:allow(zero-copy): explicit COW before an in-place patch of shared storage (counted)
        out.payload = out.payload.clone(util::kPacketHeadroom);
      }
      const std::uint16_t old_word = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(IcmpType::kEchoRequest) << 8 | msg.code);
      const std::uint16_t new_word = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(IcmpType::kEchoReply) << 8 | msg.code);
      const std::uint16_t old_csum =
          util::load_u16(out.payload.data() + IcmpView::kChecksumOffset);
      out.payload.patch_u8(IcmpView::kTypeOffset,
                           static_cast<std::uint8_t>(IcmpType::kEchoReply));
      out.payload.patch_u16(IcmpView::kChecksumOffset,
                            checksum_update(old_csum, old_word, new_word));
      send_ip(std::move(out));
      break;
    }
    case IcmpType::kEchoReply:
      if (echo_reply_handler_) echo_reply_handler_(pkt.hdr.src, msg);
      break;
    case IcmpType::kDestUnreachable:
    case IcmpType::kTimeExceeded:
      ++counters_.icmp_errors_delivered;
      if (msg.type == IcmpType::kDestUnreachable && msg.code == 4) {
        // Frag needed: kernel-style path-MTU discovery.  Map the quoted
        // original packet back to the TCP connection that sent it and
        // let it shrink its MSS (msg.seq carries the next-hop MTU).
        if (auto quote = icmp_error_quote(pkt);
            quote && quote->proto == IpProto::kTcp) {
          auto it = tcp_socks_.find(TcpKey{quote->src_ip, quote->src.port,
                                           quote->dst_ip, quote->dst.port});
          if (it != tcp_socks_.end()) {
            auto sock = it->second;  // keep alive across state changes
            sock->handle_frag_needed(msg.seq);
          }
        }
      }
      if (icmp_error_handler_) {
        // Invoke a copy: the handler may replace itself (net::Traceroute
        // restores the displaced handler from inside its last callback),
        // and reassigning the member would destroy the executing closure.
        auto handler = icmp_error_handler_;
        handler(pkt.hdr.src, msg);
      }
      break;
  }
}

void Stack::send_echo_request(Ipv4Address dst, std::uint16_t id,
                              std::uint16_t seq, util::Buffer body) {
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kIcmp;
  pkt.hdr.dst = dst;
  pkt.payload =
      icmp_onto(std::move(body), IcmpType::kEchoRequest, 0, id, seq);
  send_ip(std::move(pkt));
}

void Stack::send_icmp_error(const Ipv4Packet& original, IcmpType type,
                            std::uint8_t code, std::uint16_t info) {
  // Never generate errors about ICMP errors.
  if (original.hdr.proto == IpProto::kIcmp) {
    try {
      auto m = IcmpView::parse(original.payload.view());
      if (!m.is_echo()) return;
    } catch (const util::ParseError&) {
      return;
    }
  }
  // Quote the original header + 8 payload bytes, per RFC 792.  The
  // header (carrying the original total-length field) is re-serialized
  // directly into the quote: the payload beyond 8 bytes is never copied.
  const std::size_t quote_payload =
      std::min<std::size_t>(original.payload.size(), 8);
  auto quoted = util::Buffer::allocate(Ipv4Header::kSize + quote_payload,
                                       util::kPacketHeadroom);
  Ipv4Packet::encode_header(quoted.data(), original.hdr,
                            original.total_length());
  // lint:allow(zero-copy): ICMP error builder quotes <= 8 payload bytes (RFC 792), control plane
  std::copy_n(original.payload.begin(), quote_payload,
              quoted.data() + Ipv4Header::kSize);
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kIcmp;
  pkt.hdr.dst = original.hdr.src;
  // The second header word's low half (the echo `seq` slot) carries the
  // error's auxiliary info — the next-hop MTU for frag-needed.
  pkt.payload = icmp_onto(std::move(quoted), type, code, 0, info);
  ++counters_.icmp_errors_sent;
  send_ip(std::move(pkt));
}

void Stack::deliver_udp(Ipv4Packet pkt) {
  UdpView dgram;
  try {
    dgram = UdpView::parse(pkt.payload.view());
  } catch (const util::ParseError&) {
    ++counters_.dropped_parse;
    return;
  }
  // A nonzero checksum is validated against the pseudo-header; 0 means
  // "not computed" and is accepted (RFC 768).
  if (dgram.checksum != 0 &&
      transport_checksum(pkt.hdr.src, pkt.hdr.dst, IpProto::kUdp,
                         pkt.payload.view(0, dgram.length)) != 0) {
    ++counters_.dropped_checksum;
    return;
  }
  auto it = udp_socks_.find(dgram.dst_port);
  if (it == udp_socks_.end()) {
    send_icmp_error(pkt, IcmpType::kDestUnreachable, 3);  // port unreachable
    return;
  }
  auto sock = it->second;  // keep alive: the handler may close the socket
  const Ipv4Address src = pkt.hdr.src;
  const std::uint16_t sport = dgram.src_port;
  // Delivery is a sub-buffer share of the received frame: drop the UDP
  // header (and any padding past the length field) without copying.
  util::Buffer data = std::move(pkt.payload);
  data.drop_back(data.size() - dgram.length);
  data.drop_front(UdpView::kHeaderSize);
  sock->deliver(src, sport, std::move(data));
}

void Stack::deliver_tcp(const Ipv4Packet& pkt) {
  // The segment is verified and parsed in place: its payload view aliases
  // the received frame, which outlives this call.
  TcpView seg;
  try {
    seg = TcpView::parse(pkt.payload.view(), pkt.hdr.src, pkt.hdr.dst);
  } catch (const util::ParseError&) {
    ++counters_.dropped_parse;
    return;
  }
  const TcpKey key{pkt.hdr.dst, seg.dst_port, pkt.hdr.src, seg.src_port};
  auto it = tcp_socks_.find(key);
  if (it != tcp_socks_.end()) {
    auto sock = it->second;  // keep alive across potential unregister
    sock->on_segment(seg, pkt.payload);
    return;
  }
  auto lit = tcp_listeners_.find(seg.dst_port);
  if (lit != tcp_listeners_.end() && seg.flags.syn && !seg.flags.ack) {
    lit->second->handle_syn(pkt.hdr.dst, seg, pkt.hdr.src);
    return;
  }
  if (!seg.flags.rst) send_tcp_rst_for(pkt, seg);
}

void Stack::send_tcp_rst_for(const Ipv4Packet& pkt, const TcpView& seg) {
  TcpSegment rst;
  rst.src_port = seg.dst_port;
  rst.dst_port = seg.src_port;
  rst.flags.rst = true;
  if (seg.flags.ack) {
    rst.seq = seg.ack;
  } else {
    rst.flags.ack = true;
    rst.seq = 0;
    rst.ack = seg.seq + static_cast<std::uint32_t>(seg.payload.size()) +
              (seg.flags.syn ? 1 : 0) + (seg.flags.fin ? 1 : 0);
  }
  Ipv4Packet out;
  out.hdr.proto = IpProto::kTcp;
  out.hdr.src = pkt.hdr.dst;
  out.hdr.dst = pkt.hdr.src;
  out.payload = rst.encode_gather(out.hdr.src, out.hdr.dst,
                                  util::kPacketHeadroom, kNoPayload, 0, 0);
  send_ip(std::move(out));
}

// --------------------------------------------------------------------------
// Socket management
// --------------------------------------------------------------------------

std::uint16_t Stack::alloc_ephemeral_port(bool tcp) {
  for (int tries = 0; tries < 65536; ++tries) {
    std::uint16_t p = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 32768;
    if (p < 32768) continue;
    if (tcp) {
      bool used = tcp_listeners_.count(p) > 0;
      for (const auto& [key, sock] : tcp_socks_) {
        if (key.local_port == p) {
          used = true;
          break;
        }
      }
      if (!used) return p;
    } else {
      if (udp_socks_.count(p) == 0) return p;
    }
  }
  return 0;
}

std::shared_ptr<UdpSocket> Stack::udp_bind(std::uint16_t port) {
  if (port == 0) port = alloc_ephemeral_port(/*tcp=*/false);
  if (port == 0 || udp_socks_.count(port) > 0) return nullptr;
  auto sock = std::shared_ptr<UdpSocket>(new UdpSocket(this, port));
  udp_socks_[port] = sock;
  remember(udp_created_, sock);
  return sock;
}

void Stack::udp_unregister(std::uint16_t port) { udp_socks_.erase(port); }

std::shared_ptr<TcpSocket> Stack::tcp_connect(Ipv4Address dst,
                                              std::uint16_t port,
                                              TcpConfig cfg) {
  const Route* route = lookup_route(dst);
  if (route == nullptr) return nullptr;
  const std::size_t mtu = ifaces_[route->iface]->cfg.mtu;
  cfg.mss = std::min(cfg.mss, mtu - Ipv4Header::kSize - TcpSegment::kHeaderSize);
  const std::uint16_t sport = alloc_ephemeral_port(/*tcp=*/true);
  const Ipv4Address src = ifaces_[route->iface]->cfg.ip;
  auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(this, cfg));
  tcp_register(TcpKey{src, sport, dst, port}, sock);
  sock->start_connect(dst, port, src, sport);
  return sock;
}

std::shared_ptr<TcpListener> Stack::tcp_listen(std::uint16_t port,
                                               TcpConfig cfg) {
  if (port == 0 || tcp_listeners_.count(port) > 0) return nullptr;
  auto listener = std::shared_ptr<TcpListener>(new TcpListener(this, port, cfg));
  tcp_listeners_[port] = listener;
  remember(listeners_created_, listener);
  return listener;
}

void Stack::tcp_register(const TcpKey& key, std::shared_ptr<TcpSocket> sock) {
  remember(tcp_created_, sock);
  tcp_socks_[key] = std::move(sock);
}

void Stack::tcp_unregister(const TcpKey& key) { tcp_socks_.erase(key); }

// --------------------------------------------------------------------------
// UdpSocket
// --------------------------------------------------------------------------

void UdpSocket::send_to(Ipv4Address dst, std::uint16_t dst_port,
                        util::Buffer data) {
  if (stack_ == nullptr) return;
  ++stack_->counters_.udp_send_calls;
  emit_datagram(dst, dst_port, util::BufferChain(std::move(data)));
}

void UdpSocket::send_to(Ipv4Address dst, std::uint16_t dst_port,
                        util::BufferChain data) {
  if (stack_ == nullptr) return;
  ++stack_->counters_.udp_send_calls;
  emit_datagram(dst, dst_port, std::move(data));
}

std::size_t UdpSocket::send_batch(std::span<UdpSendItem> items) {
  // A batch issued against a closed socket (or one whose stack died and
  // detached it) is dropped wholesale — never touch a dead stack.
  if (stack_ == nullptr) return 0;
  ++stack_->counters_.udp_send_calls;
  std::size_t sent = 0;
  for (UdpSendItem& item : items) {
    if (stack_ == nullptr) break;  // defensive: closed mid-batch
    emit_datagram(item.dst, item.dst_port, std::move(item.payload));
    ++sent;
  }
  return sent;
}

void UdpSocket::emit_datagram(Ipv4Address dst, std::uint16_t dst_port,
                              util::BufferChain payload) {
  const std::size_t payload_len = payload.size();
  util::Buffer data;
  if (payload.segments() > 1) {
    // Scatter-gather datagram build: header + every chain segment come
    // together in one NIC-style gather pass into fresh storage (with
    // headroom for the IP/Ethernet prepends downstream).  Attributed to
    // payload_bytes_gathered — DMA descriptor work, not a CPU copy on
    // the send path — except under the copy_at_stack_crossing ablation,
    // where it is exactly the historical kernel copy.
    data = util::Buffer::allocate(UdpView::kHeaderSize + payload_len,
                                  util::kPacketHeadroom);
    UdpView::write_header(data.data(), port_, dst_port, payload_len);
    payload.gather(0, data.writable().subspan(UdpView::kHeaderSize));
    if (stack_->cfg_.copy_at_stack_crossing) {
      stack_->counters_.payload_bytes_copied += payload_len;
    } else {
      stack_->counters_.payload_bytes_gathered += payload_len;
    }
  } else {
    if (payload.segments() == 1) data = payload.segment(0).share();
    payload.clear();
    stack_->copy_at_crossing(data, util::kPacketHeadroom);  // user -> kernel
    if (!(data.use_count() == 1 &&
          data.headroom() >= UdpView::kHeaderSize)) {
      stack_->counters_.payload_bytes_copied += data.size();
    }
    // The 8-byte header lands in the user buffer's headroom: the send
    // crosses into the simulated kernel without copying the payload (the
    // copy the paper's Section V.2 proposes eliminating).
    auto slot = data.grow_front(UdpView::kHeaderSize);
    UdpView::write_header(slot.data(), port_, dst_port, payload_len);
  }
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.dst = dst;
  pkt.payload = std::move(data);
  ++tx_;
  stack_->send_ip(std::move(pkt));
}

void UdpSocket::deliver(Ipv4Address src, std::uint16_t src_port,
                        util::Buffer data) {
  ++rx_;
  if (!buf_handler_) return;
  if (stack_ != nullptr) stack_->copy_at_crossing(data, 0);  // kernel -> user
  buf_handler_(src, src_port, std::move(data));
}

void UdpSocket::close() {
  if (stack_ == nullptr) return;
  stack_->udp_unregister(port_);
  detach();
}

}  // namespace ipop::net
