// IpopNode — the paper's primary contribution (Section III).
//
// One IpopNode per host glues three things together:
//
//   tap device  <-->  user-level IPOP process  <-->  Brunet overlay
//
// Outbound: Ethernet frames the kernel writes to tap0 are captured; ARP is
// contained locally; the IPv4 payload is extracted, the destination
// virtual IP resolved to an overlay address (SHA1(ip) classically, or via
// the Brunet-ARP DHT), and the packet tunneled through the P2P overlay
// (Figure 3 encapsulation).  Inbound: a tunneled IP packet is unwrapped,
// rebuilt into an Ethernet frame (src = fictitious gateway MAC, dst = tap
// MAC) and written back to the tap, where the kernel stack delivers it to
// unmodified applications.
//
// User-level processing is modeled with two calibrated knobs per packet:
// a serial CPU occupancy (bounds throughput) and a scheduling latency
// (bounds RTT); both scale with host load.  These reproduce the paper's
// 6-10 ms single-hop overhead and its 20-30 % LAN throughput ratio, as
// well as the Planet-Lab collapse at load > 10 (Sections IV-B and IV-D).
#pragma once

#include <memory>
#include <optional>
#include <set>

#include "brunet/dht.hpp"
#include "brunet/node.hpp"
#include "brunet/secure.hpp"
#include "ipop/brunet_arp.hpp"
#include "ipop/dhcp.hpp"
#include "ipop/shortcuts.hpp"
#include "ipop/tap.hpp"
#include "util/lifetime.hpp"

namespace ipop::core {

struct IpopConfig {
  TapConfig tap;
  brunet::NodeConfig overlay;
  /// Serial CPU occupancy per captured/forwarded packet (user-level
  /// processing: Mono runtime, encapsulation, copies).
  util::Duration cpu_per_packet = util::microseconds(240);
  /// Additional pipelined latency per crossing (process wakeups, tap
  /// scheduling, double kernel-stack traversal).
  util::Duration sched_latency = util::microseconds(1330);
  /// Resolve IP -> overlay address via the Brunet-ARP DHT instead of the
  /// static SHA1 mapping (enables multi-IP routing and migration).
  bool use_brunet_arp = false;
  BrunetArpConfig brunet_arp;
  /// DHT tuning (replication factor, TTLs, retry budgets).
  brunet::DhtConfig dht;
  ShortcutConfig shortcuts;
  /// Full self-configuration: boot with *no* preassigned virtual IP
  /// (tap.ip unset), claim a lease from the pool via DHCP-over-the-DHT,
  /// and address the tap once it lands.  Implies use_brunet_arp (the
  /// overlay address is no longer SHA1(IP), so resolution must go through
  /// the DHT).
  bool use_dhcp = false;
  DhcpConfig dhcp;
};

struct IpopMetrics {
  std::uint64_t frames_captured = 0;
  std::uint64_t packets_tunneled = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t arp_contained = 0;
  std::uint64_t dropped_non_ip = 0;
  std::uint64_t dropped_parse = 0;
  std::uint64_t dropped_unresolved = 0;
  std::uint64_t dropped_not_ours = 0;
  /// Tunnel payloads encrypted + signed before leaving (Brunet-ARP mode),
  /// vs. sent in the clear (the classic SHA1(IP) mapping, which has no
  /// peer keys).
  std::uint64_t packets_sealed = 0;
  std::uint64_t packets_clear = 0;
  /// Inbound frames FrameSealer::open refused in Brunet-ARP mode (bad
  /// signature, frame bound to another destination, truncated header,
  /// or a cleartext frame).
  std::uint64_t dropped_seal_reject = 0;
};

class IpopNode {
 public:
  /// The overlay address is SHA1(virtual IP), per the paper.
  IpopNode(net::Host& host, IpopConfig cfg);
  ~IpopNode();

  IpopNode(const IpopNode&) = delete;
  IpopNode& operator=(const IpopNode&) = delete;

  void add_seed(brunet::TransportAddress ta) { overlay_->add_seed(ta); }
  void start();
  /// Abrupt stop (models a crash: peers discover via keepalive misses).
  void stop();
  /// Graceful departure: the overlay announces kDeparting and the DHT
  /// hands its records (including our lease and ARP bindings) to the ring
  /// neighbors before edges drop.
  void leave();

  /// Route for an additional virtual IP (a VM hosted here).  Requires
  /// Brunet-ARP mode; the binding is published to the DHT and the host
  /// kernel will accept injected packets for it.
  void route_for(net::Ipv4Address vip);
  /// Stop routing for a migrated-away IP.
  void unroute_for(net::Ipv4Address vip);

  /// The node's virtual IP: preassigned, or 0.0.0.0 in DHCP mode until
  /// the lease lands (see self_configured()).
  net::Ipv4Address virtual_ip() const { return cfg_.tap.ip; }
  /// DHCP mode: true once a lease is held and the tap is addressed.
  bool self_configured() const {
    return !cfg_.use_dhcp || !cfg_.tap.ip.is_unspecified();
  }
  /// DHCP mode: invoked (possibly repeatedly, after lease loss and
  /// re-acquisition) every time the node finishes self-configuring.
  void set_configured_handler(std::function<void(net::Ipv4Address)> h) {
    on_configured_ = std::move(h);
  }
  brunet::BrunetNode& overlay() { return *overlay_; }
  /// The node's end-to-end crypto pipeline (per-peer DH keys, in-place
  /// seal/open).  Its Stats expose the zero-copy counter the bench gate
  /// pins.
  brunet::FrameSealer& sealer() { return *sealer_; }
  TapDevice& tap() { return *tap_; }
  brunet::Dht& dht() { return *dht_; }
  BrunetArp* brunet_arp() { return brunet_arp_.get(); }
  DhcpClient* dhcp() { return dhcp_.get(); }
  ShortcutManager& shortcuts() { return *shortcuts_; }
  const IpopMetrics& metrics() const { return metrics_; }
  net::Host& host() { return host_; }

 private:
  void on_tap_frame(util::Buffer frame);
  void process_captured(util::Buffer frame);
  void tunnel(net::Ipv4Address dst_ip, util::Buffer ip_bytes);
  void on_tunnel_packet(const brunet::Packet& pkt);
  void inject(util::Buffer ip_bytes);
  bool routes_for(net::Ipv4Address ip) const;
  void acquire_lease();
  void on_lease(net::Ipv4Address vip);
  /// Dropping the lease always retracts the ARP registration and
  /// unnumbers the tap (one definition, so no teardown path can forget a
  /// step and leave the node answering for an address it no longer owns).
  void release_address();

  net::Host& host_;
  IpopConfig cfg_;
  std::unique_ptr<TapDevice> tap_;
  std::unique_ptr<brunet::BrunetNode> overlay_;
  std::unique_ptr<brunet::FrameSealer> sealer_;
  std::unique_ptr<brunet::Dht> dht_;
  std::unique_ptr<BrunetArp> brunet_arp_;
  std::unique_ptr<DhcpClient> dhcp_;
  std::unique_ptr<ShortcutManager> shortcuts_;
  std::function<void(net::Ipv4Address)> on_configured_;
  std::set<net::Ipv4Address> extra_ips_;
  IpopMetrics metrics_;
  std::uint64_t reacquire_timer_ = 0;  // DHCP: backoff after a failed acquire
  bool started_ = false;
  // Declared last: capture/injection latency events may still be queued
  // when the node dies; their lambdas carry a guard, not a bare `this`.
  util::AliveToken alive_;
};

}  // namespace ipop::core
