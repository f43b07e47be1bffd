// NAT middlebox implementing the four NAT types of RFC 3489 (STUN).
//
// The paper's NAT-traversal argument (Section III-D) rests on two observed
// facts: (1) every NAT lets responses from (B,pb) back in after an
// outbound packet to (B,pb); (2) all but the symmetric type keep one
// external port per internal (IP,port) regardless of destination.  This
// middlebox reproduces those behaviours exactly, so Brunet's decentralized
// traversal (translated-address discovery + simultaneous dialing) can be
// demonstrated and property-tested against every NAT type.
//
// Translations patch ports/ids and checksums in place in the packet's
// shared buffer (net/l4_patch.hpp) — a forwarded packet crosses the box
// with zero payload copies.  Mapping lifetime is connection-tracked
// (net/conntrack.hpp): UDP and ICMP age on idle timers, TCP follows the
// observed SYN/FIN/RST lifecycle — short budgets for half-open and
// closing flows, a long one for established connections — and a periodic
// sweep reclaims dead entries together with their external ports, so a
// long-lived box neither grows without bound nor wraps its port counter
// into stale by-external-port state.
//
// ICMP errors generated beyond the box (TTL exceeded, port unreachable,
// frag needed) are translated back to the inside host by parsing the
// quoted original packet out of the error, matching it to a live mapping
// and rewriting both the outer header and the embedded quote in place —
// traceroute and path-MTU discovery work across the NAT.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "net/conntrack.hpp"
#include "net/l4_patch.hpp"
#include "net/stack.hpp"

namespace ipop::net {

enum class NatType {
  kFullCone,
  kRestrictedCone,
  kPortRestrictedCone,
  kSymmetric,
};

const char* nat_type_name(NatType t);

struct NatConfig {
  /// Per-protocol / per-TCP-state mapping lifetimes.  A mapping idle past
  /// its budget is reclaimed together with its external port.
  ConntrackTimeouts timeouts;
  /// Cadence of the reclamation sweep.
  util::Duration sweep_interval = util::seconds(10);
  /// First external port handed out; allocation wraps within
  /// [first_ext_port, 65535], skipping ports still mapped.
  std::uint16_t first_ext_port = 1024;
};

struct NatStats {
  std::uint64_t mappings_created = 0;
  std::uint64_t mappings_expired = 0;
  std::uint64_t translated_out = 0;
  std::uint64_t translated_in = 0;
  std::uint64_t blocked_in = 0;
  std::uint64_t dropped_port_exhausted = 0;
  /// Inbound packets admitted by a static port-forward pinhole.
  std::uint64_t port_forwarded_in = 0;
  /// ICMP errors whose embedded quote matched a live mapping and was
  /// rewritten back to the inside (in) / out to the public side (out).
  std::uint64_t icmp_errors_translated_in = 0;
  std::uint64_t icmp_errors_translated_out = 0;
  /// ICMP errors quoting no live mapping (dropped).
  std::uint64_t icmp_errors_orphaned = 0;
  /// Payload bytes copied by rewrites: 0 on the unicast fast path (ports
  /// are patched in place); copy-on-write on shared storage counts here.
  std::uint64_t rewrite_bytes_copied = 0;
};

/// Two-interface NAT router.  Interface 0 must be the inside (private)
/// side, interface 1 the outside (public) side; attach them via the
/// topology helpers before starting traffic.
class NatBox {
 public:
  NatBox(sim::EventLoop& loop, std::string name, NatType type,
         StackConfig scfg = {}, NatConfig ncfg = {});
  ~NatBox();

  NatBox(const NatBox&) = delete;
  NatBox& operator=(const NatBox&) = delete;

  Stack& stack() { return stack_; }
  /// Re-home onto a shard loop (engine planning).
  void rebind(sim::EventLoop& loop) {
    stack_.rebind(loop);
    sweeper_.rebind(loop);
  }
  NatType type() const { return type_; }
  const NatStats& stats() const { return stats_; }
  const NatConfig& config() const { return ncfg_; }
  const std::string& name() const { return name_; }

  /// The external address used for translations (outside interface IP).
  Ipv4Address external_ip() const { return stack_.interface_ip(1); }

  /// Static port forward (the home-router "DMZ pinhole"): inbound
  /// traffic to external `ext_port` is rewritten to `inside`
  /// unconditionally — no prior outbound packet and no per-type address
  /// filtering — and outbound traffic from `inside` leaves from the same
  /// external port.  This is how a NATed overlay bootstrap node is made
  /// reachable; the pinhole behaves full-cone for that port regardless
  /// of the box's configured type.
  void add_port_forward(IpProto proto, std::uint16_t ext_port,
                        L4Endpoint inside);

  /// Live translation entries (bounded by the conntrack sweep).
  std::size_t mapping_count() const { return mappings_.size(); }
  /// Tracked TCP state of the mapping holding `ext_port`, for tests and
  /// introspection; kNone for unmapped ports and non-TCP mappings.
  CtTcpState tcp_state_of(std::uint16_t ext_port) const;
  /// Drop mappings idle past their conntrack budget, releasing their
  /// external ports.  Runs on a periodic timer; exposed for tests.
  void expire_idle(util::TimePoint now);

 private:
  // (ip, port); for ICMP echo, port is the echo identifier.
  using Endpoint = L4Endpoint;
  struct MapKey {
    IpProto proto;
    Endpoint inside;
    // Populated only for symmetric NAT: one mapping per destination.
    std::optional<Endpoint> dst;
    auto operator<=>(const MapKey&) const = default;
  };
  struct Mapping {
    std::uint16_t ext_port = 0;
    Endpoint inside;
    // Destinations this internal endpoint has sent to (for the cone
    // filtering rules).
    std::set<Endpoint> contacted;
    // TCP lifecycle + last-used time; drives per-state expiry.
    CtFlow flow;
  };

  bool snat(Ipv4Packet& pkt, std::size_t out_iface);
  bool dnat(Ipv4Packet& pkt, std::size_t in_iface);
  /// Translate an ICMP error crossing inward (outer dst = external IP):
  /// match the quoted source endpoint to a mapping by external port and
  /// rewrite outer dst + embedded quote back to the inside endpoint.
  bool dnat_icmp_error(Ipv4Packet& pkt, const IcmpQuoteView& q);
  /// Translate an ICMP error crossing outward (an inside host reporting
  /// on an inbound flow): rewrite outer src + embedded quoted destination
  /// to the external endpoint.
  bool snat_icmp_error(Ipv4Packet& pkt, const IcmpQuoteView& q);
  bool inbound_allowed(const Mapping& m, const Endpoint& remote,
                       IpProto proto) const;
  /// nullptr when the external port space is exhausted.
  Mapping* find_or_create(IpProto proto, const Endpoint& inside,
                          const Endpoint& dst);
  /// 0 when every port in [first_ext_port, 65535] is in use.
  std::uint16_t alloc_ext_port(IpProto proto);
  /// Advance the mapping's TCP state machine off the packet's flags.
  void track_tcp(Mapping& m, const Ipv4Packet& pkt, bool from_inside);

  /// Rewrite source or destination endpoint in place (ports/ids patched
  /// in the shared buffer, checksums updated incrementally).
  void rewrite(Ipv4Packet& pkt, std::optional<Endpoint> new_src,
               std::optional<Endpoint> new_dst);

  std::string name_;
  Stack stack_;
  NatType type_;
  NatConfig ncfg_;
  NatStats stats_;
  /// Port forwards never interact with the dynamic mapping state: dnat
  /// consults them before conntrack, snat restores the forwarded source
  /// before creating a mapping, and alloc_ext_port skips their ports.
  std::map<std::pair<IpProto, std::uint16_t>, Endpoint> forwards_;
  std::map<MapKey, Mapping> mappings_;
  std::map<std::pair<IpProto, std::uint16_t>, MapKey> by_ext_port_;
  std::map<IpProto, std::size_t> ext_ports_in_use_;
  std::uint16_t next_ext_port_;
  CtSweepTimer sweeper_;
};

}  // namespace ipop::net
