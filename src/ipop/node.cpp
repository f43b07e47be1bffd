#include "ipop/node.hpp"

#include "net/arp.hpp"
#include "util/logging.hpp"

namespace ipop::core {

IpopNode::IpopNode(net::Host& host, IpopConfig cfg)
    : host_(host), cfg_(std::move(cfg)) {
  // Full self-configuration implies DHT-backed resolution: with no
  // preassigned IP the overlay address cannot be SHA1(IP), so the
  // IP -> node binding must live in Brunet-ARP.
  if (cfg_.use_dhcp) cfg_.use_brunet_arp = true;
  tap_ = std::make_unique<TapDevice>(host_, cfg_.tap);
  // The overlay node's per-packet CPU charge is IPOP's processing cost:
  // every forwarded tunnel packet costs this much at every overlay hop.
  cfg_.overlay.cpu_per_packet = cfg_.cpu_per_packet;
  // Every node carries an Ed25519 identity; keys come from the seeded
  // sim generator, so a run's whole keyspace replays deterministically.
  const auto identity = brunet::NodeIdentity::generate(host_.stack().rng());
  if (cfg_.use_dhcp) {
    // Self-configuring mode is key-addressed: the ring position derives
    // from the public key, so leases / ARP bindings are hijack-proof and
    // departure notices must be signed.
    overlay_ =
        std::make_unique<brunet::BrunetNode>(host_, identity, cfg_.overlay);
  } else {
    // Classic mapping keeps the paper's SHA1(IP) address; the identity
    // still signs DHT records and encrypts tunneled payloads.
    overlay_ = std::make_unique<brunet::BrunetNode>(
        host_, brunet::Address::from_ip(cfg_.tap.ip), cfg_.overlay);
    overlay_->set_identity(identity);
  }
  sealer_ = std::make_unique<brunet::FrameSealer>(identity.keys);
  dht_ = std::make_unique<brunet::Dht>(*overlay_, cfg_.dht);
  if (cfg_.use_brunet_arp) {
    brunet_arp_ = std::make_unique<BrunetArp>(*overlay_, *dht_,
                                              cfg_.brunet_arp);
  }
  if (cfg_.use_dhcp) {
    dhcp_ = std::make_unique<DhcpClient>(*overlay_, *dht_, cfg_.dhcp);
    dhcp_->set_lease_lost_handler([this](net::Ipv4Address) {
      // The address was re-leased elsewhere: stop answering for it and
      // reconfigure from scratch.
      release_address();
      if (started_) acquire_lease();
    });
  }
  shortcuts_ = std::make_unique<ShortcutManager>(*overlay_, cfg_.shortcuts);

  tap_->set_frame_handler(
      [this](util::Buffer f) { on_tap_frame(std::move(f)); });
  overlay_->set_handler(brunet::PacketType::kIpTunnel,
                        [this](const brunet::Packet& pkt) {
                          on_tunnel_packet(pkt);
                        });
}

IpopNode::~IpopNode() { stop(); }

void IpopNode::start() {
  if (started_) return;
  started_ = true;
  overlay_->start();
  if (cfg_.use_dhcp) {
    acquire_lease();
  } else if (brunet_arp_ != nullptr) {
    brunet_arp_->register_ip(cfg_.tap.ip);
  }
}

void IpopNode::acquire_lease() {
  dhcp_->acquire([this](std::optional<net::Ipv4Address> ip) {
    if (!started_) return;
    if (!ip) {
      // A probe round can exhaust itself on create() timeouts during
      // churn turbulence; a live node must not stay unnumbered forever,
      // so back off and re-probe (earlier timeouts may now succeed).
      IPOP_LOG_WARN(host_.name()
                    << ": virtual-IP acquisition failed; retrying");
      reacquire_timer_ = host_.loop().schedule_after(
          util::seconds(10), [this] {
            reacquire_timer_ = 0;
            if (started_ && !self_configured()) acquire_lease();
          });
      return;
    }
    on_lease(*ip);
  });
}

void IpopNode::on_lease(net::Ipv4Address vip) {
  cfg_.tap.ip = vip;
  tap_->configure_ip(vip);
  brunet_arp_->register_ip(vip);
  IPOP_LOG_DEBUG(host_.name() << ": self-configured as " << vip.to_string());
  if (on_configured_) on_configured_(vip);
}

void IpopNode::release_address() {
  if (brunet_arp_ != nullptr && !cfg_.tap.ip.is_unspecified()) {
    brunet_arp_->unregister_ip(cfg_.tap.ip);
  }
  cfg_.tap.ip = net::Ipv4Address{};
  // Unnumbering also retracts the /32 connected route.
  tap_->configure_ip(net::Ipv4Address{});
}

void IpopNode::stop() {
  if (!started_) return;
  started_ = false;
  if (reacquire_timer_ != 0) {
    host_.loop().cancel(reacquire_timer_);
    reacquire_timer_ = 0;
  }
  if (dhcp_ != nullptr) {
    dhcp_->release();
    // The lease dies with the renewals: stop answering for the address
    // now, or a long-crashed node would rejoin claiming self_configured
    // with an IP that may have been re-leased in the meantime.
    release_address();
  }
  overlay_->stop();
}

void IpopNode::leave() {
  if (!started_) return;
  started_ = false;
  if (reacquire_timer_ != 0) {
    host_.loop().cancel(reacquire_timer_);
    reacquire_timer_ = 0;
  }
  // Stop renewing and answering for the address first, then let the
  // overlay's graceful departure run the DHT handoff (our lease and ARP
  // records ride to the neighbors); overlay_->leave() ends in stop(), so
  // the edges drop afterwards.
  if (dhcp_ != nullptr) {
    dhcp_->release();
    release_address();
  }
  overlay_->leave();
}

void IpopNode::route_for(net::Ipv4Address vip) {
  if (brunet_arp_ == nullptr) {
    IPOP_LOG_WARN("route_for(" << vip.to_string()
                               << ") requires Brunet-ARP mode");
    return;
  }
  extra_ips_.insert(vip);
  if (auto idx = host_.stack().interface_by_name(cfg_.tap.name)) {
    host_.stack().add_ip_alias(*idx, vip);
  }
  brunet_arp_->register_ip(vip);
}

void IpopNode::unroute_for(net::Ipv4Address vip) {
  extra_ips_.erase(vip);
  if (auto idx = host_.stack().interface_by_name(cfg_.tap.name)) {
    host_.stack().remove_ip_alias(*idx, vip);
  }
  if (brunet_arp_ != nullptr) brunet_arp_->unregister_ip(vip);
}

bool IpopNode::routes_for(net::Ipv4Address ip) const {
  return ip == cfg_.tap.ip || extra_ips_.count(ip) > 0;
}

// ---------------------------------------------------------------------------
// Outbound: tap -> overlay
// ---------------------------------------------------------------------------

void IpopNode::on_tap_frame(util::Buffer frame) {
  if (!started_) return;
  ++metrics_.frames_captured;
  // User-level capture cost: serial CPU work plus pipelined wakeup latency.
  host_.cpu().run(cfg_.cpu_per_packet,
                  [this, alive = alive_.guard(),
                   frame = std::move(frame)]() mutable {
                    if (!alive) return;
                    host_.loop().schedule_after(
                        cfg_.sched_latency,
                        [this, alive, frame = std::move(frame)]() mutable {
                          if (!alive) return;
                          if (started_) process_captured(std::move(frame));
                        });
                  });
}

void IpopNode::process_captured(util::Buffer frame) {
  // Parse the headers as views into the captured frame; the payload bytes
  // are never copied on the capture path.
  net::EthernetView eth;
  try {
    eth = net::EthernetView::parse(frame.view());
  } catch (const util::ParseError&) {
    ++metrics_.dropped_parse;
    return;
  }
  switch (eth.type) {
    case net::EtherType::kArp: {
      // The static gateway entry normally prevents ARP from reaching us;
      // contain any stray request by answering locally with the gateway
      // MAC (defense in depth, as in the prototype).
      ++metrics_.arp_contained;
      try {
        auto req = net::ArpMessage::decode(eth.payload);
        if (req.op != net::ArpOp::kRequest) return;
        net::ArpMessage reply;
        reply.op = net::ArpOp::kReply;
        reply.sender_mac = tap_->gateway_mac();
        reply.sender_ip = req.target_ip;
        reply.target_mac = req.sender_mac;
        reply.target_ip = req.sender_ip;
        tap_->write_frame(net::frame_onto(util::Buffer::wrap(reply.encode()),
                                          req.sender_mac, tap_->gateway_mac(),
                                          net::EtherType::kArp));
      } catch (const util::ParseError&) {
      }
      return;
    }
    case net::EtherType::kIpv4:
      break;
    default:
      ++metrics_.dropped_non_ip;  // non-IP traffic stays inside the host
      return;
  }

  net::Ipv4View ip;
  try {
    ip = net::Ipv4View::parse(eth.payload);
  } catch (const util::ParseError&) {
    ++metrics_.dropped_parse;
    return;
  }
  if (!cfg_.tap.subnet.contains(ip.hdr.dst)) {
    ++metrics_.dropped_non_ip;  // not on the virtual network
    return;
  }
  // Figure-3 encapsulation, zero-copy: strip the Ethernet header (the 14
  // bytes become headroom) and trim link padding; the Brunet header is
  // later prepended into that headroom by Packet::to_wire().
  const std::size_t ip_len = net::Ipv4Header::kSize + ip.payload.size();
  frame.drop_front(net::EthernetView::kHeaderSize);
  frame.drop_back(frame.size() - ip_len);
  tunnel(ip.hdr.dst, std::move(frame));
}

void IpopNode::tunnel(net::Ipv4Address dst_ip, util::Buffer ip_bytes) {
  auto send_to = [this](const brunet::Address& addr,
                        const util::crypto::PublicKey* peer_key,
                        util::Buffer bytes) {
    ++metrics_.packets_tunneled;
    shortcuts_->note_packet(addr);
    if (peer_key != nullptr) {
      // End-to-end seal on the still-exclusive capture buffer: encrypt in
      // place, sign, prepend the seal header into the per-path headroom.
      bytes = sealer_->seal(std::move(bytes), *peer_key, addr,
                            overlay_->send_headroom());
      ++metrics_.packets_sealed;
    } else {
      ++metrics_.packets_clear;
    }
    overlay_->send(addr, brunet::PacketType::kIpTunnel, std::move(bytes));
  };

  if (!cfg_.use_brunet_arp) {
    // Classic IPOP: the destination node *is* SHA1(destination IP) — an
    // address with no key behind it, so these frames go in the clear.
    send_to(brunet::Address::from_ip(dst_ip), nullptr, std::move(ip_bytes));
    return;
  }
  brunet_arp_->resolve(
      dst_ip, [this, send_to, ip_bytes = std::move(ip_bytes)](
                  std::optional<ArpBinding> binding) mutable {
        if (!binding) {
          ++metrics_.dropped_unresolved;
          return;
        }
        send_to(binding->addr, &binding->key, std::move(ip_bytes));
      });
}

// ---------------------------------------------------------------------------
// Inbound: overlay -> tap
// ---------------------------------------------------------------------------

void IpopNode::on_tunnel_packet(const brunet::Packet& pkt) {
  // The overlay node already charged the per-packet CPU cost on receive;
  // only the injection latency remains.  Unwrapping the tunneled IP packet
  // is a sub-buffer share, not a copy.
  auto bytes = pkt.share_payload();
  // Brunet-ARP mode accepts only sealed frames (a cleartext one fails
  // open()); the classic SHA1(IP) mode has no peer keys and is the only
  // cleartext mode.
  if (brunet_arp_ != nullptr) {
    // Buffer-ownership rule 7: once routing delivered the packet here the
    // payload bytes are exclusively ours, so the in-place decrypt through
    // this shared-refcount handle is sanctioned.
    auto plain =
        sealer_->open(std::move(bytes.assume_exclusive()), overlay_->address());
    if (!plain) {
      ++metrics_.dropped_seal_reject;
      return;
    }
    bytes = std::move(*plain);
  }
  host_.loop().schedule_after(cfg_.sched_latency,
                              [this, alive = alive_.guard(),
                               bytes = std::move(bytes)]() mutable {
                                if (!alive) return;
                                if (started_) inject(std::move(bytes));
                              });
}

void IpopNode::inject(util::Buffer ip_bytes) {
  net::Ipv4View ip;
  try {
    ip = net::Ipv4View::parse(ip_bytes.view());
  } catch (const util::ParseError&) {
    ++metrics_.dropped_parse;
    return;
  }
  if (!routes_for(ip.hdr.dst)) {
    ++metrics_.dropped_not_ours;
    return;
  }
  // Rebuild the Ethernet frame exactly as the paper describes: source is
  // the gateway's ARP-entry MAC, destination is the host's tap MAC.  The
  // header lands in the headroom left by the consumed Brunet header, so
  // injection does not copy the packet either.
  ++metrics_.packets_injected;
  tap_->write_frame(net::frame_onto(std::move(ip_bytes), tap_->kernel_mac(),
                                    tap_->gateway_mac(),
                                    net::EtherType::kIpv4));
}

}  // namespace ipop::core
