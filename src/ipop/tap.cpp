#include "ipop/tap.hpp"

namespace ipop::core {

namespace {
/// Kernel <-> user-process crossing latency per frame.
constexpr util::Duration kCrossingDelay = util::microseconds(5);

sim::LinkConfig tap_link_config() {
  sim::LinkConfig lcfg;
  lcfg.delay = kCrossingDelay;
  lcfg.bandwidth_bps = 0;  // memory copy: no serialization delay
  lcfg.queue_bytes = 1 << 20;
  return lcfg;
}
}  // namespace

TapDevice::TapDevice(net::Host& host, const TapConfig& cfg)
    : host_(host),
      cfg_(cfg),
      link_(host.loop(), tap_link_config(), util::Rng(cfg.ip.value),
            cfg.name) {
  // Kernel face: register tap0 as an interface.  A /32 avoids a broad
  // connected route; the whole virtual subnet is instead routed through
  // the fictitious gateway so all frames carry its MAC (ARP containment).
  net::InterfaceConfig icfg;
  icfg.name = cfg_.name;
  icfg.ip = cfg_.ip;
  icfg.prefix_len = 32;
  icfg.mtu = cfg_.mtu;
  const std::size_t idx = host_.stack().add_interface(icfg, &link_.end_a());
  kernel_mac_ = host_.stack().interface_mac(idx);

  gateway_mac_ = net::MacAddress{{0x02, 0xCA, 0xFE, 0x00, 0x00, 0x01}};
  host_.stack().add_static_arp(idx, cfg_.gateway, gateway_mac_);
  host_.stack().add_route(cfg_.subnet, idx, cfg_.gateway);

  // User face.
  link_.end_b().set_receiver([this](sim::Frame frame) {
    if (handler_) handler_(std::move(frame));
  });
}

void TapDevice::write_frame(util::Buffer frame) {
  link_.end_b().send(std::move(frame));
}

void TapDevice::configure_ip(net::Ipv4Address ip) {
  cfg_.ip = ip;
  if (auto idx = host_.stack().interface_by_name(cfg_.name)) {
    host_.stack().set_interface_ip(*idx, ip);
  }
}

}  // namespace ipop::core
