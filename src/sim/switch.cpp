#include "sim/switch.hpp"

namespace ipop::sim {

std::size_t Switch::attach(LinkEnd& end) {
  const std::size_t port = ports_.size();
  ports_.push_back(&end);
  end.set_receiver(
      [this, port](Frame frame) { handle_frame(port, std::move(frame)); });
  return port;
}

Switch::MacKey Switch::mac_key(const Frame& f, std::size_t offset) {
  MacKey key = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    key = (key << 8) | f[offset + i];
  }
  return key;
}

bool Switch::is_broadcast(const Frame& f) {
  for (std::size_t i = 0; i < 6; ++i) {
    if (f[i] != 0xFF) return false;
  }
  return true;
}

void Switch::set_arp_suppression(bool on) {
  suppress_arp_ = on;
  if (!on) return;
  for (const auto& [ip, ep] : arp_registry_) {
    MacKey key = 0;
    for (std::size_t i = 0; i < 6; ++i) key = (key << 8) | ep.mac[i];
    mac_table_[key] = ep.port;
  }
}

void Switch::register_endpoint(std::uint32_t ipv4,
                               const std::array<std::uint8_t, 6>& mac,
                               std::size_t port) {
  arp_registry_[ipv4] = Endpoint{mac, port};
  if (suppress_arp_) {
    MacKey key = 0;
    for (std::size_t i = 0; i < 6; ++i) key = (key << 8) | mac[i];
    mac_table_[key] = port;
  }
}

bool Switch::try_suppress_arp(std::size_t in_port, const Frame& f) {
  // Raw-offset parse (the sim layer must not depend on net/ codecs):
  // Ethernet type at 12, then the ARP body — htype 14, ptype 16, hlen 18,
  // plen 19, oper 20, sha 22, spa 28, tha 32, tpa 38.
  if (f.size() < 42) return false;
  if (f[12] != 0x08 || f[13] != 0x06) return false;  // not ARP
  if (f[14] != 0x00 || f[15] != 0x01) return false;  // not Ethernet
  if (f[16] != 0x08 || f[17] != 0x00) return false;  // not IPv4
  if (f[18] != 6 || f[19] != 4) return false;
  if (f[20] != 0x00 || f[21] != 0x01) return false;  // not a request
  std::uint32_t target_ip = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    target_ip = (target_ip << 8) | f[38 + i];
  }
  const auto it = arp_registry_.find(target_ip);
  if (it == arp_registry_.end()) return false;  // unknown: flood normally
  const Endpoint& ep = it->second;

  // Proxy reply: owner's binding, unicast back to the requester.
  auto reply = util::Buffer::allocate(42, 0);
  std::uint8_t* r = reply.data();
  for (std::size_t i = 0; i < 6; ++i) r[i] = f[6 + i];  // eth dst = requester
  for (std::size_t i = 0; i < 6; ++i) r[6 + i] = ep.mac[i];
  r[12] = 0x08; r[13] = 0x06;
  r[14] = 0x00; r[15] = 0x01;  // htype: Ethernet
  r[16] = 0x08; r[17] = 0x00;  // ptype: IPv4
  r[18] = 6; r[19] = 4;
  r[20] = 0x00; r[21] = 0x02;  // oper: reply
  for (std::size_t i = 0; i < 6; ++i) r[22 + i] = ep.mac[i];  // sha
  for (std::size_t i = 0; i < 4; ++i) r[28 + i] = f[38 + i];  // spa = asked IP
  for (std::size_t i = 0; i < 6; ++i) r[32 + i] = f[22 + i];  // tha
  for (std::size_t i = 0; i < 4; ++i) r[38 + i] = f[28 + i];  // tpa
  ++arp_suppressed_;
  loop_->schedule_after(delay_,
                       [this, alive = alive_.guard(), in_port,
                        reply = std::move(reply)]() mutable {
                         if (!alive) return;
                         ports_[in_port]->send(std::move(reply));
                       });
  return true;
}

void Switch::handle_frame(std::size_t in_port, Frame frame) {
  if (frame.size() < 14) return;  // runt frame: drop

  mac_table_[mac_key(frame, 6)] = in_port;  // learn source

  auto forward = [this](std::size_t port, Frame f) {
    loop_->schedule_after(delay_, [this, alive = alive_.guard(), port,
                                  f = std::move(f)]() mutable {
      if (!alive) return;
      ports_[port]->send(std::move(f));
    });
  };

  if (!is_broadcast(frame)) {
    auto it = mac_table_.find(mac_key(frame, 0));
    if (it != mac_table_.end()) {
      if (it->second != in_port) {
        ++forwarded_;
        forward(it->second, std::move(frame));
      }
      return;
    }
  }
  if (suppress_arp_ && try_suppress_arp(in_port, frame)) return;
  // Broadcast or unknown unicast: flood all other ports.
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p == in_port) continue;
    forward(p, frame);
  }
}

}  // namespace ipop::sim
