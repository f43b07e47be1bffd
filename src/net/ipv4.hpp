// IPv4 addresses, prefixes, header codec and the Internet checksum.
//
// IPOP tunnels complete IPv4 packets through the overlay (paper Figure 3):
// the encapsulated payload is exactly the bytes this codec produces.  The
// same codec drives the simulated kernel stacks, routers, NATs and
// firewalls of the physical substrate.  One wire representation:
// Ipv4View parses a packet in place, Ipv4Packet::decode adopts a received
// buffer, and take_wire() writes the header into the payload's headroom.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/buffer.hpp"
#include "util/bytes.hpp"

namespace ipop::net {

struct Ipv4Address {
  std::uint32_t value = 0;  // host byte order

  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t v) : value(v) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value(static_cast<std::uint32_t>(a) << 24 |
              static_cast<std::uint32_t>(b) << 16 |
              static_cast<std::uint32_t>(c) << 8 | d) {}

  /// Parse dotted-quad; throws util::ParseError on malformed input.
  static Ipv4Address parse(std::string_view text);

  std::string to_string() const;
  bool is_broadcast() const { return value == 0xFFFFFFFFu; }
  bool is_unspecified() const { return value == 0; }

  friend bool operator==(const Ipv4Address&, const Ipv4Address&) = default;
  friend auto operator<=>(const Ipv4Address&, const Ipv4Address&) = default;
};

struct Ipv4Prefix {
  Ipv4Address network;
  int length = 0;  // 0..32

  static Ipv4Prefix parse(std::string_view cidr);  // "a.b.c.d/len"

  std::uint32_t mask() const {
    return length == 0 ? 0u : ~0u << (32 - length);
  }
  bool contains(Ipv4Address a) const {
    return (a.value & mask()) == (network.value & mask());
  }

  friend bool operator==(const Ipv4Prefix&, const Ipv4Prefix&) = default;
};

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t id = 0;
  std::uint8_t ttl = 64;
  IpProto proto = IpProto::kUdp;
  Ipv4Address src;
  Ipv4Address dst;

  static constexpr std::size_t kSize = 20;  // no options supported
};

struct Ipv4Packet {
  Ipv4Header hdr;
  /// L4 payload as a shared buffer: the receive path adopts the arriving
  /// frame's storage, middlebox hooks patch fields in place, and the
  /// transmit path prepends the IP header into the buffer's headroom —
  /// zero payload copies through the simulated kernel.
  util::Buffer payload;

  std::size_t total_length() const { return Ipv4Header::kSize + payload.size(); }

  /// Write the 20-byte header (with computed checksum) for a packet of
  /// `total_len` bytes into a pre-sized slot — the single definition of
  /// the header wire format, shared by take_wire() and the ICMP error
  /// path's truncated RFC 792 quote.
  static void encode_header(std::uint8_t* out, const Ipv4Header& hdr,
                            std::size_t total_len);
  /// Consume `payload` and return the wire image: the 20-byte header is
  /// written into the buffer's headroom — zero-copy when the storage is
  /// uniquely referenced and roomy, one reallocation otherwise.
  util::Buffer take_wire();
  /// True when take_wire() (followed by an Ethernet prepend of
  /// `link_headroom` more bytes) will reuse headroom instead of
  /// reallocating — the stacks' bytes-copied accounting.
  bool wire_in_place(std::size_t link_headroom = 0) const {
    return payload.use_count() == 1 &&
           payload.headroom() >= Ipv4Header::kSize + link_headroom;
  }
  /// Zero-copy decode: adopts `bytes` as the payload's backing store (the
  /// 20 header bytes and any link padding become head/tailroom).  Throws
  /// util::ParseError like Ipv4View::parse.
  static Ipv4Packet decode(util::Buffer bytes);
};

/// Zero-copy parsed IPv4 packet: `payload` aliases the input view (and is
/// trimmed to the header's total-length field, dropping link padding).
/// Used on the IPOP fast path, where the packet bytes are tunneled onward
/// verbatim and an owning copy would be pure waste.
struct Ipv4View {
  Ipv4Header hdr;
  util::BufferView payload;

  /// Validates version/IHL/fragmentation/total-length/header checksum;
  /// throws util::ParseError on malformed input.
  static Ipv4View parse(util::BufferView bytes);
};

/// RFC 1071 Internet checksum over `data` (16-bit one's complement sum).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Transport checksum with the IPv4 pseudo-header (used by TCP; UDP may
/// legally use 0 = "no checksum" over IPv4, which the simulator does).
/// The pseudo-header words are summed straight into the accumulator, so
/// the segment is read in place, never staged.
std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst,
                                 IpProto proto,
                                 std::span<const std::uint8_t> segment);

/// Incremental Internet-checksum update (RFC 1624 eqn. 3): the checksum
/// after one 16-bit word of the covered data changes from `old_word` to
/// `new_word`.  Lets NAT rewrite ports/addresses without re-summing the
/// payload.
std::uint16_t checksum_update(std::uint16_t csum, std::uint16_t old_word,
                              std::uint16_t new_word);

}  // namespace ipop::net

template <>
struct std::hash<ipop::net::Ipv4Address> {
  std::size_t operator()(const ipop::net::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value);
  }
};
