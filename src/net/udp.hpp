// UDP header codec.
//
// Brunet's UDP transport mode (the configuration that wins the paper's WAN
// throughput comparison, Table III) and the NAT hole-punching protocol both
// ride on these datagrams.  One wire representation: UdpView parses a
// datagram in place and write_header lays the header into a buffer's
// headroom in front of the payload.
#pragma once

#include <cstdint>

#include "net/ipv4.hpp"

namespace ipop::net {

/// Zero-copy parsed UDP header: `payload` aliases the input view (trimmed
/// to the length field).  Structural checks only — middleboxes reading
/// ports must not drop on checksums they do not own; endpoint delivery
/// (Stack::deliver_udp) validates a nonzero checksum with
/// transport_checksum.  Field offsets are exposed so NAT can patch
/// ports/checksum in place.
struct UdpView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;    // header + payload bytes on the wire
  std::uint16_t checksum = 0;  // 0: not computed
  util::BufferView payload;

  static constexpr std::size_t kHeaderSize = 8;
  static constexpr std::size_t kSrcPortOffset = 0;
  static constexpr std::size_t kDstPortOffset = 2;
  static constexpr std::size_t kLengthOffset = 4;
  static constexpr std::size_t kChecksumOffset = 6;

  /// Throws util::ParseError on truncation or a bad length field.
  static UdpView parse(util::BufferView bytes);

  /// Write the 8-byte header into a pre-sized slot (typically the
  /// grow_front() slot in front of the payload).  The checksum is emitted
  /// as 0 ("not computed"), which is legal for UDP over IPv4; frame
  /// integrity in the simulator is structural.
  static void write_header(std::uint8_t* out, std::uint16_t src_port,
                           std::uint16_t dst_port, std::size_t payload_len);
};

}  // namespace ipop::net
