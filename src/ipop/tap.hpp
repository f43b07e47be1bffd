// Simulated "tap" virtual network interface (paper Section III-A).
//
// A tap device has two faces: the kernel face appears as a network
// interface (`tap0`) inside the host's stack, and the user face is a
// character-device-like handle from which a user-level process (IPOP)
// reads and writes raw Ethernet frames.  We model the pair as a zero-loss,
// microsecond-latency link whose far end belongs to the IPOP process.
//
// ARP containment: the virtual subnet is routed through a fictitious
// gateway with a static ARP entry, so the kernel never broadcasts ARP on
// the virtual network — every frame IPOP sees is unicast IP addressed to
// the gateway MAC, exactly as the paper describes.
#pragma once

#include <functional>
#include <vector>

#include "net/host.hpp"
#include "sim/link.hpp"

namespace ipop::core {

struct TapConfig {
  std::string name = "tap0";
  /// This host's address on the virtual network.
  net::Ipv4Address ip;
  /// The virtual address space (paper uses 172.16.0.0/16).
  net::Ipv4Prefix subnet = net::Ipv4Prefix{net::Ipv4Address(172, 16, 0, 0), 16};
  /// Fictitious gateway that "routes for" the whole virtual space.
  net::Ipv4Address gateway = net::Ipv4Address(172, 16, 255, 254);
  /// Lower than Ethernet so the encapsulated packet fits the physical MTU.
  std::size_t mtu = 1200;
};

class TapDevice {
 public:
  /// Frames cross the tap as shared buffers.  Kernel-emitted frames carry
  /// util::kPacketHeadroom spare front bytes, so IPOP can strip the
  /// Ethernet header and prepend the Brunet tunnel header in place.
  using FrameHandler = std::function<void(util::Buffer)>;

  TapDevice(net::Host& host, const TapConfig& cfg);

  /// User face: frames the kernel emitted on tap0 arrive here.
  void set_frame_handler(FrameHandler h) { handler_ = std::move(h); }
  /// User face: inject a frame into the kernel as if received on tap0.
  void write_frame(util::Buffer frame);
  /// Assign (or re-assign) the tap's virtual IP after construction — the
  /// self-configuration path: the device comes up unnumbered
  /// (cfg.ip = 0.0.0.0) and is addressed once the DHCP-over-DHT lease is
  /// claimed.  The gateway route/ARP containment set up at construction
  /// are address-independent and stay in place.
  void configure_ip(net::Ipv4Address ip);

  const TapConfig& config() const { return cfg_; }
  net::MacAddress kernel_mac() const { return kernel_mac_; }
  net::MacAddress gateway_mac() const { return gateway_mac_; }
  net::Host& host() { return host_; }

 private:
  net::Host& host_;
  TapConfig cfg_;
  sim::Link link_;
  net::MacAddress kernel_mac_;
  net::MacAddress gateway_mac_;
  FrameHandler handler_;
};

}  // namespace ipop::core
