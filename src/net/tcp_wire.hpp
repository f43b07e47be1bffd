// TCP segment codec (header + flags + checksum).
//
// Wire format only; connection state, sliding windows and Reno congestion
// control live in net/tcp.hpp.  Brunet's TCP transport mode and every
// application stream (ttcp, SSH-like exec, NFS, MPI) serialize through
// this codec — including the tunneled case where a complete inner TCP
// segment becomes the payload of an IPOP-encapsulated packet.  One wire
// representation: TcpSegment::encode_gather builds a segment (control
// segments gather zero bytes) and TcpView parses one in place.
#pragma once

#include <cstdint>

#include "net/ipv4.hpp"
#include "util/buffer_chain.hpp"

namespace ipop::net {

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;

  std::uint8_t encode() const {
    return static_cast<std::uint8_t>((fin ? 0x01 : 0) | (syn ? 0x02 : 0) |
                                     (rst ? 0x04 : 0) | (psh ? 0x08 : 0) |
                                     (ack ? 0x10 : 0));
  }
  static TcpFlags decode(std::uint8_t bits) {
    TcpFlags f;
    f.fin = bits & 0x01;
    f.syn = bits & 0x02;
    f.rst = bits & 0x04;
    f.psh = bits & 0x08;
    f.ack = bits & 0x10;
    return f;
  }
};

/// Header fields of a segment to send.  The payload never lives here: it
/// is gathered out of the send queue straight into the wire image.
struct TcpSegment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 0;

  static constexpr std::size_t kHeaderSize = 20;  // no options

  /// Scatter-gather encode: the payload bytes are gathered straight out
  /// of [offset, offset+len) of `queue` into a fresh wire image with
  /// `headroom` spare front bytes, so the IP and Ethernet headers prepend
  /// downstream without copying.  The pseudo-header checksum covers the
  /// gathered bytes.  Control segments gather zero bytes from kNoPayload.
  util::Buffer encode_gather(Ipv4Address src_ip, Ipv4Address dst_ip,
                             std::size_t headroom,
                             const util::BufferChain& queue,
                             std::size_t offset, std::size_t len) const;
};

/// The empty queue control segments (SYN, ACK, FIN, RST) gather from.
/// Shared and read-only: constructing a BufferChain allocates.
extern const util::BufferChain kNoPayload;

/// Zero-copy parsed TCP header: `payload` aliases the input view.  Field
/// offsets are exposed so NAT can patch ports/checksum in place.
struct TcpView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 0;
  std::uint16_t checksum = 0;
  util::BufferView payload;

  static constexpr std::size_t kSrcPortOffset = 0;
  static constexpr std::size_t kDstPortOffset = 2;
  static constexpr std::size_t kChecksumOffset = 16;

  /// Structural parse only — what middleboxes reading ports need: they
  /// must not drop on a checksum the endpoints own.  Throws
  /// util::ParseError on truncation or a bad data offset.
  static TcpView parse(util::BufferView bytes);
  /// Endpoint parse: verifies the pseudo-header checksum, then parses in
  /// place.  Throws util::ParseError on a checksum failure as well.
  static TcpView parse(util::BufferView bytes, Ipv4Address src_ip,
                       Ipv4Address dst_ip);
};

/// Modular 32-bit sequence comparisons (RFC 793 style).
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}
constexpr bool seq_ge(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) >= 0;
}

}  // namespace ipop::net
