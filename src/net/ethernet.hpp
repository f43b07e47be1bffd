// Ethernet II framing and MAC addresses.
//
// IPOP operates on layer-2 frames: the kernel writes Ethernet frames to the
// tap device, IPOP extracts the IP payload and contains ARP locally (paper
// Section III-A).  The host stack, the switch-facing NICs and the tap glue
// share one wire codec: EthernetView parses a frame in place and
// frame_onto prepends the header into a buffer's headroom.
#pragma once

#include <array>
#include <cstdint>

#include "util/buffer.hpp"
#include "util/bytes.hpp"

namespace ipop::net {

struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  static MacAddress broadcast() {
    return MacAddress{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}};
  }
  /// Locally administered unicast MAC derived from a small integer;
  /// the simulator allocates NIC MACs from a global counter.
  static MacAddress from_index(std::uint64_t index);

  bool is_broadcast() const { return *this == broadcast(); }

  friend bool operator==(const MacAddress&, const MacAddress&) = default;
  friend auto operator<=>(const MacAddress&, const MacAddress&) = default;
};

enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
};

/// Zero-copy parsed Ethernet header: `payload` aliases the input view.
struct EthernetView {
  MacAddress dst;
  MacAddress src;
  EtherType type = EtherType::kIpv4;
  util::BufferView payload;

  static constexpr std::size_t kHeaderSize = 14;

  /// Throws util::ParseError on truncated input.
  static EthernetView parse(util::BufferView frame);
};

/// Frame `payload` by prepending an Ethernet II header — in place when the
/// buffer's headroom and unique ownership allow, with one reallocation
/// otherwise.  This is how IPOP injects tunneled IP packets back into the
/// kernel without copying them.
util::Buffer frame_onto(util::Buffer payload, const MacAddress& dst,
                        const MacAddress& src, EtherType type);

}  // namespace ipop::net

template <>
struct std::hash<ipop::net::MacAddress> {
  std::size_t operator()(const ipop::net::MacAddress& m) const noexcept {
    std::size_t h = 0;
    for (auto b : m.octets) h = h * 131 + b;
    return h;
  }
};
