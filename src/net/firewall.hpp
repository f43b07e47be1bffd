// Stateful site firewall.
//
// Recreates the paper's testbed policy (Figure 4): VFW and LFW block all
// unsolicited inbound traffic except SSH (port 22) from one designated
// host, and LFW additionally restricts *outbound* connections to a single
// peer.  Admitted flows create connection-tracking state (shared with the
// NAT box, net/conntrack.hpp): return traffic matching that state is
// admitted, TCP entries follow the observed SYN/FIN/RST lifecycle with
// per-state timeouts, ICMP errors quoting a tracked flow are admitted as
// related traffic, and an idle sweep bounds the table.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/conntrack.hpp"
#include "net/l4_patch.hpp"
#include "net/stack.hpp"

namespace ipop::net {

struct FirewallRule {
  std::optional<IpProto> proto;        // empty: any
  std::optional<Ipv4Prefix> src;       // empty: any source
  std::optional<Ipv4Prefix> dst;       // empty: any destination
  std::optional<std::uint16_t> dst_port;

  bool matches(IpProto p, Ipv4Address s, std::uint16_t /*sp*/, Ipv4Address d,
               std::uint16_t dp) const {
    if (proto && *proto != p) return false;
    if (src && !src->contains(s)) return false;
    if (dst && !dst->contains(d)) return false;
    if (dst_port && *dst_port != dp) return false;
    return true;
  }
};

enum class FwAction { kAllow, kDeny };

struct FirewallConfig {
  /// Per-protocol / per-TCP-state conntrack entry lifetimes.
  ConntrackTimeouts timeouts;
  /// Cadence of the expiry sweep (armed lazily with the first entry).
  util::Duration sweep_interval = util::seconds(10);
};

struct FirewallStats {
  std::uint64_t allowed_out = 0;
  std::uint64_t allowed_in_established = 0;
  std::uint64_t allowed_in_rule = 0;
  /// ICMP errors admitted because their quote matched a tracked flow.
  std::uint64_t allowed_related = 0;
  std::uint64_t blocked_in = 0;
  std::uint64_t blocked_out = 0;
  /// Conntrack entries reclaimed by the idle sweep.
  std::uint64_t conntrack_expired = 0;
};

/// Shorthand for FirewallStats (the name the docs and roadmap use).
using FwStats = FirewallStats;

/// Two-interface stateful firewall router: interface 0 = inside,
/// interface 1 = outside.
class Firewall {
 public:
  Firewall(sim::EventLoop& loop, std::string name, StackConfig scfg = {},
           FirewallConfig fwcfg = {});
  ~Firewall();

  Firewall(const Firewall&) = delete;
  Firewall& operator=(const Firewall&) = delete;

  Stack& stack() { return stack_; }
  /// Re-home onto a shard loop (engine planning).
  void rebind(sim::EventLoop& loop) {
    stack_.rebind(loop);
    sweeper_.rebind(loop);
  }
  const std::string& name() const { return name_; }
  const FirewallStats& stats() const { return stats_; }
  const FirewallConfig& config() const { return fwcfg_; }

  /// Live conntrack entries (bounded by the idle sweep).
  std::size_t conntrack_count() const { return conntrack_.size(); }
  /// Drop entries idle past their conntrack budget.  Runs on a periodic
  /// timer; exposed for tests.
  void expire_idle(util::TimePoint now);

  /// Permit unsolicited inbound traffic matching the rule.  (Replies to
  /// tracked outbound flows are always admitted; everything else is
  /// denied unless a rule matches.)
  void allow_inbound(FirewallRule rule) {
    inbound_rules_.push_back(std::move(rule));
  }

  /// Outbound policy is an ordered chain: first matching rule wins, the
  /// default action applies otherwise.  This expresses the paper's LFW
  /// ("only outgoing *TCP* to F3") as
  ///   allow(tcp, dst=F3); deny(tcp); default allow.
  void add_outbound_rule(FwAction action, FirewallRule rule) {
    outbound_chain_.push_back({action, std::move(rule)});
  }
  void set_outbound_default(FwAction action) { outbound_default_ = action; }

 private:
  struct FlowKey {
    IpProto proto;
    Ipv4Address a_ip;
    std::uint16_t a_port;
    Ipv4Address b_ip;
    std::uint16_t b_port;
    auto operator<=>(const FlowKey&) const = default;

    FlowKey reversed() const { return {proto, b_ip, b_port, a_ip, a_port}; }
  };

  bool filter(const Ipv4Packet& pkt, std::size_t in_if, std::size_t out_if);
  /// Related-flow admission: an ICMP error is let through when its quoted
  /// original packet belongs to a tracked flow (in either orientation).
  bool filter_icmp_error(const Ipv4Packet& pkt, bool outbound);
  /// Track one admitted packet on an existing entry: refresh last-used,
  /// advance the TCP state machine.
  void note_tracked(CtFlow& flow, const Ipv4Packet& pkt, bool from_originator);
  CtFlow& track_new(const FlowKey& key);
  static std::optional<FlowKey> flow_of(const Ipv4Packet& pkt);

  std::string name_;
  Stack stack_;
  FirewallConfig fwcfg_;
  FwAction outbound_default_ = FwAction::kAllow;
  std::vector<FirewallRule> inbound_rules_;
  std::vector<std::pair<FwAction, FirewallRule>> outbound_chain_;
  /// Keyed in originator orientation: `a` is whoever sent the packet
  /// that created the entry.
  std::map<FlowKey, CtFlow> conntrack_;
  FirewallStats stats_;
  CtSweepTimer sweeper_;
};

}  // namespace ipop::net
