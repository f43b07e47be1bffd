// Learning Ethernet switch.
//
// Recreates the paper's LAN segments (the ACIS private LAN holding F1, F2,
// F4 and the campus public segment).  The switch learns source MACs per
// port, forwards unicast to the learned port and floods unknown/broadcast
// destinations, with a small per-frame forwarding latency.
//
// For the scale harness the switch can additionally run EVPN-style ARP
// suppression: endpoints register their IP→(MAC, port) binding at attach
// time, broadcast ARP requests for registered IPs are answered by the
// switch itself on the ingress port, and the MAC table is pre-seeded so
// unknown-unicast floods never happen.  Without this, N nodes resolving
// each other on one segment cost O(N²) flooded frames — fatal at 10^4
// ports.  Off by default: the small paper topologies exercise the real
// flood-and-learn behavior.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/link.hpp"
#include "util/lifetime.hpp"

namespace ipop::sim {

class Switch {
 public:
  Switch(EventLoop& loop, std::string name,
         Duration forwarding_delay = util::microseconds(5))
      : loop_(&loop), name_(std::move(name)), delay_(forwarding_delay) {}

  /// Re-home onto a shard loop (engine planning; before any frame flows).
  void rebind(EventLoop& loop) { loop_ = &loop; }

  /// Attach a link end as a switch port; the switch takes over its receive
  /// handler.  Returns the port index.
  std::size_t attach(LinkEnd& end);

  std::size_t ports() const { return ports_.size(); }
  std::uint64_t frames_forwarded() const { return forwarded_; }
  std::uint64_t arp_suppressed() const { return arp_suppressed_; }
  const std::string& name() const { return name_; }

  /// Turn proxy-ARP / flood suppression on; replays already-registered
  /// endpoints into the MAC table.
  void set_arp_suppression(bool on);
  /// Register an endpoint's IPv4→(MAC, port) binding (host byte order).
  /// Consulted only while suppression is on.
  void register_endpoint(std::uint32_t ipv4,
                         const std::array<std::uint8_t, 6>& mac,
                         std::size_t port);

 private:
  using MacKey = std::uint64_t;  // 48-bit MAC packed into 64 bits
  static MacKey mac_key(const Frame& f, std::size_t offset);
  static bool is_broadcast(const Frame& f);

  void handle_frame(std::size_t in_port, Frame frame);
  /// True when the frame was a broadcast ARP request for a registered IP
  /// and a proxy reply has been scheduled on the ingress port.
  bool try_suppress_arp(std::size_t in_port, const Frame& f);

  struct Endpoint {
    std::array<std::uint8_t, 6> mac;
    std::size_t port;
  };

  EventLoop* loop_;
  std::string name_;
  Duration delay_;
  std::vector<LinkEnd*> ports_;
  std::unordered_map<MacKey, std::size_t> mac_table_;
  std::unordered_map<std::uint32_t, Endpoint> arp_registry_;
  bool suppress_arp_ = false;
  std::uint64_t forwarded_ = 0;
  std::uint64_t arp_suppressed_ = 0;
  // Declared last: forwarding-delay events may still be queued when a
  // Switch is destroyed; their lambdas carry a guard, not a bare `this`.
  util::AliveToken alive_;
};

}  // namespace ipop::sim
