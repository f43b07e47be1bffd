#include "net/nat.hpp"

#include "net/icmp.hpp"
#include "net/l4_patch.hpp"
#include "net/tcp_wire.hpp"
#include "net/udp.hpp"
#include "util/logging.hpp"

namespace ipop::net {

const char* nat_type_name(NatType t) {
  switch (t) {
    case NatType::kFullCone: return "full-cone";
    case NatType::kRestrictedCone: return "restricted-cone";
    case NatType::kPortRestrictedCone: return "port-restricted-cone";
    case NatType::kSymmetric: return "symmetric";
  }
  return "?";
}

NatBox::NatBox(sim::EventLoop& loop, std::string name, NatType type,
               StackConfig scfg, NatConfig ncfg)
    : name_(std::move(name)),
      stack_(loop, name_, scfg),
      type_(type),
      ncfg_(ncfg),
      next_ext_port_(ncfg.first_ext_port),
      sweeper_(loop, ncfg.sweep_interval, [this](util::TimePoint now) {
        expire_idle(now);
        return !mappings_.empty();
      }) {
  stack_.set_forwarding(true);
  stack_.set_prerouting_hook([this](Ipv4Packet& pkt, std::size_t in_iface) {
    if (in_iface == 1) return dnat(pkt, in_iface);
    return true;
  });
  stack_.set_postrouting_hook([this](Ipv4Packet& pkt, std::size_t out_iface) {
    if (out_iface == 1 && !stack_.is_local_ip(pkt.hdr.src)) {
      return snat(pkt, out_iface);
    }
    return true;
  });
}

NatBox::~NatBox() = default;

void NatBox::expire_idle(util::TimePoint now) {
  for (auto it = mappings_.begin(); it != mappings_.end();) {
    if (it->second.flow.expired(now, it->first.proto, ncfg_.timeouts)) {
      IPOP_LOG_DEBUG(name_ << ": expired mapping "
                           << it->second.inside.ip.to_string() << ":"
                           << it->second.inside.port << " (ext port "
                           << it->second.ext_port << ", "
                           << ct_tcp_state_name(it->second.flow.tcp) << ")");
      by_ext_port_.erase({it->first.proto, it->second.ext_port});
      --ext_ports_in_use_[it->first.proto];
      it = mappings_.erase(it);
      ++stats_.mappings_expired;
    } else {
      ++it;
    }
  }
}

CtTcpState NatBox::tcp_state_of(std::uint16_t ext_port) const {
  auto it = by_ext_port_.find({IpProto::kTcp, ext_port});
  if (it == by_ext_port_.end()) return CtTcpState::kNone;
  return mappings_.at(it->second).flow.tcp;
}

void NatBox::add_port_forward(IpProto proto, std::uint16_t ext_port,
                              L4Endpoint inside) {
  forwards_[{proto, ext_port}] = inside;
}

std::uint16_t NatBox::alloc_ext_port(IpProto proto) {
  // Exhaustion fast path: without it, every packet of every unmapped
  // flow would re-scan the full port range once the space fills up.
  const std::size_t capacity = 65536u - ncfg_.first_ext_port;
  if (ext_ports_in_use_[proto] >= capacity) return 0;
  // Wrap within [first_ext_port, 65535], skipping ports whose mapping is
  // still live — a reclaimed port becomes allocatable again once its
  // mapping expires, and a wrapped counter can never alias a live one.
  for (int tries = 0; tries < 65536; ++tries) {
    // Invariant: next_ext_port_ stays in [first_ext_port, 65535] (the
    // wrap below resets it before the next read).
    const std::uint16_t p = next_ext_port_++;
    if (next_ext_port_ == 0) next_ext_port_ = ncfg_.first_ext_port;
    if (forwards_.find({proto, p}) != forwards_.end()) continue;
    if (by_ext_port_.find({proto, p}) == by_ext_port_.end()) return p;
  }
  return 0;
}

void NatBox::rewrite(Ipv4Packet& pkt, std::optional<Endpoint> new_src,
                     std::optional<Endpoint> new_dst) {
  stats_.rewrite_bytes_copied +=
      patch_l4_endpoints(pkt, std::move(new_src), std::move(new_dst));
}

void NatBox::track_tcp(Mapping& m, const Ipv4Packet& pkt, bool from_inside) {
  if (auto flags = tcp_flags_of(pkt)) {
    m.flow.on_tcp_flags(*flags, from_inside);
  }
}

NatBox::Mapping* NatBox::find_or_create(IpProto proto, const Endpoint& inside,
                                        const Endpoint& dst) {
  MapKey key{proto, inside, std::nullopt};
  if (type_ == NatType::kSymmetric) key.dst = dst;
  auto it = mappings_.find(key);
  if (it == mappings_.end()) {
    const std::uint16_t ext = alloc_ext_port(proto);
    if (ext == 0) {
      ++stats_.dropped_port_exhausted;
      return nullptr;
    }
    Mapping m;
    m.ext_port = ext;
    m.inside = inside;
    it = mappings_.emplace(key, std::move(m)).first;
    by_ext_port_[{proto, ext}] = key;
    ++ext_ports_in_use_[proto];
    sweeper_.ensure_armed();
    ++stats_.mappings_created;
    IPOP_LOG_DEBUG(name_ << ": new " << nat_type_name(type_) << " mapping "
                         << inside.ip.to_string() << ":" << inside.port
                         << " -> ext port " << it->second.ext_port);
  }
  it->second.flow.last_used = stack_.loop().now();
  return &it->second;
}

bool NatBox::snat(Ipv4Packet& pkt, std::size_t /*out_iface*/) {
  if (pkt.hdr.proto == IpProto::kIcmp) {
    if (auto q = icmp_error_quote(pkt)) return snat_icmp_error(pkt, *q);
  }
  auto eps = l4_endpoints_of(pkt);
  if (!eps) return false;  // untranslatable protocol: drop
  auto& [src, dst] = *eps;
  // A forwarded inside endpoint keeps its pinned external port so peers
  // see one consistent address in both directions (no dynamic mapping).
  for (const auto& [key, fwd_inside] : forwards_) {
    if (key.first == pkt.hdr.proto && fwd_inside == src) {
      try {
        rewrite(pkt, Endpoint{external_ip(), key.second}, std::nullopt);
      } catch (const util::ParseError&) {
        return false;
      }
      ++stats_.translated_out;
      return true;
    }
  }
  Mapping* m = find_or_create(pkt.hdr.proto, src, dst);
  if (m == nullptr) return false;  // external port space exhausted
  m->contacted.insert(dst);
  track_tcp(*m, pkt, /*from_inside=*/true);
  try {
    rewrite(pkt, Endpoint{external_ip(), m->ext_port}, std::nullopt);
  } catch (const util::ParseError&) {
    return false;
  }
  ++stats_.translated_out;
  return true;
}

bool NatBox::inbound_allowed(const Mapping& m, const Endpoint& remote,
                             IpProto proto) const {
  // ICMP echo has no remote port: the "port" slot carries the *local*
  // query identifier, so filtering can only be per remote IP (this is how
  // real NATs track ICMP queries).
  const bool ip_only = proto == IpProto::kIcmp;
  switch (type_) {
    case NatType::kFullCone:
      return true;
    case NatType::kRestrictedCone:
      for (const auto& c : m.contacted) {
        if (c.ip == remote.ip) return true;
      }
      return false;
    case NatType::kPortRestrictedCone:
    case NatType::kSymmetric:
      // Symmetric filtering reduces to port-restricted *within* the
      // per-destination mapping: only the exact destination was recorded.
      if (ip_only) {
        for (const auto& c : m.contacted) {
          if (c.ip == remote.ip) return true;
        }
        return false;
      }
      return m.contacted.count(remote) > 0;
  }
  return false;
}

bool NatBox::dnat(Ipv4Packet& pkt, std::size_t /*in_iface*/) {
  if (!stack_.is_local_ip(pkt.hdr.dst)) return true;  // not for our ext IP
  if (pkt.hdr.proto == IpProto::kIcmp) {
    if (auto q = icmp_error_quote(pkt)) return dnat_icmp_error(pkt, *q);
  }
  auto eps = l4_endpoints_of(pkt);
  if (!eps) return false;
  auto& [remote, ext] = *eps;
  auto fwd = forwards_.find({pkt.hdr.proto, ext.port});
  if (fwd != forwards_.end()) {
    try {
      rewrite(pkt, std::nullopt, fwd->second);
    } catch (const util::ParseError&) {
      return false;
    }
    ++stats_.port_forwarded_in;
    ++stats_.translated_in;
    return true;
  }
  auto key_it = by_ext_port_.find({pkt.hdr.proto, ext.port});
  if (key_it == by_ext_port_.end()) {
    ++stats_.blocked_in;
    return false;
  }
  Mapping& m = mappings_.at(key_it->second);
  if (!inbound_allowed(m, remote, pkt.hdr.proto)) {
    ++stats_.blocked_in;
    IPOP_LOG_DEBUG(name_ << ": blocked inbound from " << remote.ip.to_string()
                         << ":" << remote.port << " to ext port " << ext.port);
    return false;
  }
  try {
    rewrite(pkt, std::nullopt, m.inside);
  } catch (const util::ParseError&) {
    return false;
  }
  track_tcp(m, pkt, /*from_inside=*/false);
  m.flow.last_used = stack_.loop().now();
  ++stats_.translated_in;
  return true;
}

bool NatBox::dnat_icmp_error(Ipv4Packet& pkt, const IcmpQuoteView& q) {
  // The quote is the outbound packet as it left this box post-SNAT: its
  // source must be one of our external endpoints.  Match it back to the
  // mapping by external port.  Unlike regular inbound traffic the error
  // may legitimately come from *any* address on the path (an intermediate
  // router), so the related-flow admission skips the per-type address
  // filtering — this is what conntrack's RELATED state does.
  if (q.src_ip != external_ip()) {
    ++stats_.icmp_errors_orphaned;
    return false;
  }
  auto key_it = by_ext_port_.find({q.proto, q.src.port});
  if (key_it == by_ext_port_.end()) {
    ++stats_.icmp_errors_orphaned;
    return false;
  }
  Mapping& m = mappings_.at(key_it->second);
  // The quoted packet must be one the inside host actually sent: an
  // off-path forger who guessed a live external port still cannot name a
  // destination this mapping never contacted.  (For the symmetric type
  // this also pins the per-destination mapping.)  A quoted echo carries
  // the *rewritten* query id in its port slot, so — like inbound_allowed
  // — ICMP can only match per destination IP.
  bool contacted = false;
  if (q.proto == IpProto::kIcmp) {
    for (const auto& c : m.contacted) {
      if (c.ip == q.dst.ip) {
        contacted = true;
        break;
      }
    }
  } else {
    contacted = m.contacted.count(q.dst) > 0;
  }
  if (!contacted) {
    ++stats_.icmp_errors_orphaned;
    return false;
  }
  stats_.rewrite_bytes_copied += patch_icmp_quote_endpoint(
      pkt, q, /*src_side=*/true, m.inside,
      /*new_outer_src=*/std::nullopt, /*new_outer_dst=*/m.inside.ip);
  ++stats_.icmp_errors_translated_in;
  IPOP_LOG_DEBUG(name_ << ": translated inbound ICMP error for ext port "
                       << q.src.port << " back to "
                       << m.inside.ip.to_string() << ":" << m.inside.port);
  return true;
}

bool NatBox::snat_icmp_error(Ipv4Packet& pkt, const IcmpQuoteView& q) {
  // An inside host reporting on an inbound (post-DNAT) packet: the quote's
  // destination is the inside endpoint; restore the external view before
  // the error leaves.
  MapKey key{q.proto, q.dst, std::nullopt};
  if (type_ == NatType::kSymmetric) key.dst = q.src;
  auto it = mappings_.find(key);
  if (it == mappings_.end()) {
    ++stats_.icmp_errors_orphaned;
    return false;
  }
  const Endpoint ext{external_ip(), it->second.ext_port};
  stats_.rewrite_bytes_copied += patch_icmp_quote_endpoint(
      pkt, q, /*src_side=*/false, ext,
      /*new_outer_src=*/external_ip(), /*new_outer_dst=*/std::nullopt);
  ++stats_.icmp_errors_translated_out;
  return true;
}

}  // namespace ipop::net
