// Simulated kernel TCP/IP stack for one host.
//
// Binds network interfaces (LinkEnds) to the protocol implementations:
// ARP resolution with request queueing, longest-prefix-match routing, ICMP
// echo (kernel-style auto-reply), UDP/TCP socket demultiplexing, IP
// forwarding with netfilter-flavoured hooks (PREROUTING / FORWARD /
// POSTROUTING) that the NAT box and stateful firewall plug into.
//
// Each packet pays a configurable per-traversal processing delay.  IPOP's
// tunneled packets traverse a stack twice per host (virtual interface +
// physical interface), which the paper identifies as the dominant LAN
// overhead (Section IV-B) and proposes eliminating (Section V.2); the
// ablation bench toggles exactly this knob.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/socket.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "sim/event_loop.hpp"
#include "sim/link.hpp"
#include "util/lifetime.hpp"
#include "util/random.hpp"

namespace ipop::net {

struct InterfaceConfig {
  std::string name = "eth0";
  Ipv4Address ip;
  int prefix_len = 24;
  std::size_t mtu = 1500;
  /// Zero MAC means "allocate automatically".
  MacAddress mac{};
};

struct Route {
  Ipv4Prefix prefix;
  std::size_t iface = 0;
  std::optional<Ipv4Address> gateway;  // empty: directly connected
  int metric = 0;
};

struct StackConfig {
  /// Simulated kernel processing cost per packet per stack traversal
  /// (applied once on send and once on receive).
  Duration per_packet_delay = util::microseconds(25);
  std::uint64_t seed = 0;  // 0: derive from host name
  /// Ablation toggle (paper Section V.2): when true the stack deep-copies
  /// the packet payload at every stack crossing — socket send, IP
  /// receive, frame emission, socket delivery — reproducing the copying
  /// kernel path whose elimination the paper proposes.  When false (the
  /// default) the pipeline is zero-copy and `payload_bytes_copied` stays
  /// at 0 on unicast forwarding paths.
  bool copy_at_stack_crossing = false;
};

struct StackCounters {
  std::uint64_t ip_rx = 0;
  std::uint64_t ip_tx = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_parse = 0;
  std::uint64_t dropped_checksum = 0;
  std::uint64_t dropped_hook = 0;
  std::uint64_t dropped_mtu = 0;
  std::uint64_t dropped_arp_fail = 0;
  std::uint64_t icmp_echo_replied = 0;
  /// ICMP errors this stack generated (TTL exceeded, port/frag
  /// unreachable) and errors delivered to the local error handler —
  /// traceroute and PMTU-style scenarios read these.
  std::uint64_t icmp_errors_sent = 0;
  std::uint64_t icmp_errors_delivered = 0;
  /// Payload bytes memcpy'd by this stack: 0 on the default zero-copy
  /// path; the copy_at_stack_crossing ablation and shared-storage
  /// reallocations account here.
  std::uint64_t payload_bytes_copied = 0;
  /// Payload bytes assembled by the scatter-gather walk at datagram /
  /// segment build time — the simulated NIC's DMA descriptor pass over a
  /// BufferChain, deliberately kept apart from payload_bytes_copied (no
  /// CPU memcpy on the host's critical path).
  std::uint64_t payload_bytes_gathered = 0;
  /// UDP socket-API crossings ("syscalls"): one per send_to, one per
  /// send_batch regardless of batch size.  datagrams_sent /
  /// udp_send_calls is the sends-per-syscall amortization the
  /// sendmmsg-style batch API buys.
  std::uint64_t udp_send_calls = 0;
};

class Stack {
 public:
  Stack(sim::EventLoop& loop, std::string host_name, StackConfig cfg = {});
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // --- configuration -----------------------------------------------------
  /// Attach an interface backed by a link end; returns the interface index.
  std::size_t add_interface(const InterfaceConfig& cfg, sim::LinkEnd* link);
  std::size_t interface_count() const { return ifaces_.size(); }
  Ipv4Address interface_ip(std::size_t idx) const { return ifaces_[idx]->cfg.ip; }
  MacAddress interface_mac(std::size_t idx) const { return ifaces_[idx]->cfg.mac; }
  const std::string& interface_name(std::size_t idx) const {
    return ifaces_[idx]->cfg.name;
  }
  std::optional<std::size_t> interface_by_name(const std::string& name) const;
  /// Re-address an interface after attach (self-configuration: the tap
  /// comes up unnumbered and gets its IP once the DHCP lease is claimed).
  /// Adds the connected route for the new subnet.
  void set_interface_ip(std::size_t iface, Ipv4Address ip);

  void add_route(Ipv4Prefix prefix, std::size_t iface,
                 std::optional<Ipv4Address> gateway = {}, int metric = 0);
  void add_static_arp(std::size_t iface, Ipv4Address ip, MacAddress mac);
  /// Secondary address on an interface (used by IPOP nodes that route for
  /// several virtual IPs, e.g. VMs they host).
  void add_ip_alias(std::size_t iface, Ipv4Address ip);
  void remove_ip_alias(std::size_t iface, Ipv4Address ip);
  void set_forwarding(bool enabled) { forwarding_ = enabled; }

  /// PREROUTING: runs before the local-delivery decision; may rewrite the
  /// packet (NAT DNAT).  Return false to drop.
  using PreroutingHook = std::function<bool(Ipv4Packet&, std::size_t in_if)>;
  /// FORWARD: filter for transit packets (stateful firewall).
  using ForwardHook =
      std::function<bool(const Ipv4Packet&, std::size_t in_if, std::size_t out_if)>;
  /// POSTROUTING: runs just before emission of forwarded *and* locally
  /// generated packets; may rewrite (NAT SNAT).
  using PostroutingHook = std::function<bool(Ipv4Packet&, std::size_t out_if)>;
  void set_prerouting_hook(PreroutingHook h) { prerouting_ = std::move(h); }
  void set_forward_hook(ForwardHook h) { forward_ = std::move(h); }
  void set_postrouting_hook(PostroutingHook h) { postrouting_ = std::move(h); }

  // --- raw IP ------------------------------------------------------------
  /// Route and transmit a locally generated packet (fills src if 0).
  void send_ip(Ipv4Packet pkt);

  // --- ICMP echo ---------------------------------------------------------
  /// The ICMP header is prepended into `body`'s headroom (icmp_onto).
  void send_echo_request(Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                         util::Buffer body = {});
  /// Receives echo *replies* addressed to this host.  The view aliases the
  /// received packet and is valid only for the duration of the call.
  using EchoReplyHandler =
      std::function<void(Ipv4Address src, const IcmpView&)>;
  void set_echo_reply_handler(EchoReplyHandler h) {
    echo_reply_handler_ = std::move(h);
  }
  /// Receives ICMP errors (dest unreachable / time exceeded); the view is
  /// valid only for the duration of the call.
  using IcmpErrorHandler =
      std::function<void(Ipv4Address src, const IcmpView&)>;
  void set_icmp_error_handler(IcmpErrorHandler h) {
    icmp_error_handler_ = std::move(h);
  }
  /// Current handler — lets a tool (net::Traceroute) take the slot over
  /// temporarily and restore it when done.
  IcmpErrorHandler icmp_error_handler() const { return icmp_error_handler_; }

  // --- sockets -----------------------------------------------------------
  /// Bind a UDP socket; port 0 picks an ephemeral port.  Returns nullptr if
  /// the port is taken.
  std::shared_ptr<UdpSocket> udp_bind(std::uint16_t port = 0);
  std::shared_ptr<TcpSocket> tcp_connect(Ipv4Address dst, std::uint16_t port,
                                         TcpConfig cfg = {});
  std::shared_ptr<TcpListener> tcp_listen(std::uint16_t port,
                                          TcpConfig cfg = {});

  // --- introspection -----------------------------------------------------
  sim::EventLoop& loop() { return *loop_; }
  /// Re-home onto a shard loop (engine planning).  Must happen before any
  /// traffic: a pending ARP-retry timer would be stranded on the old loop.
  void rebind(sim::EventLoop& loop) { loop_ = &loop; }
  const std::string& name() const { return name_; }
  /// Process-unique stack identity (never reused, unlike the address of a
  /// destroyed Stack); used to key per-stack registries safely.
  std::uint64_t uid() const { return uid_; }
  const StackCounters& counters() const { return counters_; }
  const StackConfig& config() const { return cfg_; }
  util::Rng& rng() { return rng_; }
  /// True if `ip` is one of this stack's interface addresses.
  bool is_local_ip(Ipv4Address ip) const;
  /// Source address selection for a destination (egress interface IP).
  Ipv4Address source_ip_for(Ipv4Address dst) const;

 private:
  friend class UdpSocket;
  friend class TcpSocket;
  friend class TcpListener;

  struct PendingArp {
    std::deque<Ipv4Packet> queue;
    int attempts = 0;
    std::uint64_t timer = 0;
  };

  struct Interface {
    InterfaceConfig cfg;
    sim::LinkEnd* link = nullptr;
    std::vector<Ipv4Address> aliases;
    std::unordered_map<Ipv4Address, MacAddress> arp_table;
    std::unordered_map<Ipv4Address, PendingArp> arp_pending;
  };

  struct TcpKey {
    Ipv4Address local_ip;
    std::uint16_t local_port;
    Ipv4Address remote_ip;
    std::uint16_t remote_port;
    bool operator==(const TcpKey&) const = default;
  };
  struct TcpKeyHash {
    std::size_t operator()(const TcpKey& k) const noexcept {
      std::size_t h = std::hash<Ipv4Address>{}(k.local_ip);
      h = h * 1315423911u ^ k.local_port;
      h = h * 1315423911u ^ std::hash<Ipv4Address>{}(k.remote_ip);
      h = h * 1315423911u ^ k.remote_port;
      return h;
    }
  };

  // Frame/packet pipeline.  Received frames are adopted, not copied: the
  // frame buffer becomes the Ipv4Packet's payload storage and the reply /
  // forward path prepends fresh headers into the recovered headroom.
  void on_frame(std::size_t iface, sim::Frame frame);
  void process_frame(std::size_t iface, sim::Frame frame);
  void handle_arp(std::size_t iface, std::span<const std::uint8_t> bytes);
  void handle_ip(std::size_t iface, util::Buffer bytes);
  void deliver_local(std::size_t iface, Ipv4Packet pkt);
  void forward_packet(std::size_t iface, Ipv4Packet pkt);
  /// Serialize headers into the payload buffer's headroom and hand the
  /// frame to the link (the transmit-side stack traversal).
  void emit_ip(std::size_t iface, MacAddress dst, Ipv4Packet pkt);
  void emit_frame(std::size_t iface, util::Buffer frame);
  /// The copy_at_stack_crossing ablation: under it, replace `payload`
  /// with a counted deep copy (the historical kernel copy at a stack
  /// crossing); otherwise leave it shared.
  void copy_at_crossing(util::Buffer& payload, std::size_t headroom);
  void resolve_and_send(std::size_t iface, Ipv4Address next_hop,
                        Ipv4Packet pkt);
  void send_arp_request(std::size_t iface, Ipv4Address target);
  void arp_retry(std::size_t iface, Ipv4Address target);

  const Route* lookup_route(Ipv4Address dst) const;
  /// `info` lands in the second header word's low 16 bits — the RFC 1191
  /// next-hop-MTU slot for frag-needed (code 4) errors, 0 otherwise.
  void send_icmp_error(const Ipv4Packet& original, IcmpType type,
                       std::uint8_t code, std::uint16_t info = 0);

  // Transport demux.
  void deliver_icmp(Ipv4Packet pkt);
  void deliver_udp(Ipv4Packet pkt);
  void deliver_tcp(const Ipv4Packet& pkt);
  void send_tcp_rst_for(const Ipv4Packet& pkt, const TcpView& seg);

  std::uint16_t alloc_ephemeral_port(bool tcp);
  void tcp_register(const TcpKey& key, std::shared_ptr<TcpSocket> sock);
  void tcp_unregister(const TcpKey& key);
  void udp_unregister(std::uint16_t port);

  /// Every socket/listener ever created on this stack, weakly held (the
  /// live maps above only cover *open* ones).  ~Stack walks these and
  /// detaches survivors — clearing user callbacks that capture shared
  /// pointers back to the socket — so handler-capture reference cycles
  /// cannot outlive the stack (LeakSanitizer runs clean over the tests).
  template <typename T>
  static void remember(std::vector<std::weak_ptr<T>>& reg,
                       const std::shared_ptr<T>& sock) {
    if (reg.size() >= 32 && reg.size() % 32 == 0) {
      std::erase_if(reg, [](const auto& w) { return w.expired(); });
    }
    reg.push_back(sock);
  }

  sim::EventLoop* loop_;
  std::string name_;
  std::uint64_t uid_;
  StackConfig cfg_;
  util::Rng rng_;
  bool forwarding_ = false;

  std::vector<std::unique_ptr<Interface>> ifaces_;
  std::vector<Route> routes_;
  std::uint16_t next_ip_id_ = 1;
  std::uint16_t next_ephemeral_ = 32768;

  PreroutingHook prerouting_;
  ForwardHook forward_;
  PostroutingHook postrouting_;

  std::unordered_map<std::uint16_t, std::shared_ptr<UdpSocket>> udp_socks_;
  std::unordered_map<TcpKey, std::shared_ptr<TcpSocket>, TcpKeyHash> tcp_socks_;
  std::unordered_map<std::uint16_t, std::shared_ptr<TcpListener>> tcp_listeners_;
  std::vector<std::weak_ptr<UdpSocket>> udp_created_;
  std::vector<std::weak_ptr<TcpSocket>> tcp_created_;
  std::vector<std::weak_ptr<TcpListener>> listeners_created_;

  EchoReplyHandler echo_reply_handler_;
  IcmpErrorHandler icmp_error_handler_;
  StackCounters counters_;
  // Declared last: per-packet-delay events (receive, loopback, transmit)
  // still sit in the loop when a Stack is torn down mid-traffic; their
  // lambdas carry a guard from this token instead of a bare `this`.
  util::AliveToken alive_;
};

}  // namespace ipop::net
