// ICMP codec: echo request/reply plus the error types the stack generates.
//
// The paper's Table I and Figure 5 are built from ICMP round-trip times
// ("ping"), so echo handling is a first-class citizen of the simulated
// kernel stack.  One wire representation: IcmpView parses a message in
// place and icmp_onto prepends the header into a body's headroom.
#pragma once

#include <cstdint>

#include "net/ipv4.hpp"

namespace ipop::net {

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

/// Zero-copy parsed ICMP message: `payload` aliases the input view.  Lets
/// middleboxes (NAT, firewall) peek at echo ids without owning copies.
/// Field offsets are exposed for in-place patching (NAT id rewrite, the
/// kernel echo reply's type flip).
struct IcmpView {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  /// Echo identifier / sequence.  For error messages `id` is unused and
  /// `seq` carries the error's auxiliary info (see icmp_onto).
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
  /// Echo payload, or the original IP header + 8 bytes for errors.
  util::BufferView payload;

  static constexpr std::size_t kTypeOffset = 0;
  static constexpr std::size_t kCodeOffset = 1;
  static constexpr std::size_t kChecksumOffset = 2;
  static constexpr std::size_t kIdOffset = 4;
  static constexpr std::size_t kSeqOffset = 6;
  static constexpr std::size_t kHeaderSize = 8;
  /// Where the quoted original IPv4 packet (header + 8 payload bytes,
  /// RFC 792) starts inside an error message.
  static constexpr std::size_t kQuoteOffset = kHeaderSize;

  /// Throws util::ParseError on truncation or bad checksum.
  static IcmpView parse(util::BufferView bytes);
  /// Structural parse only (no checksum validation) — what middleboxes
  /// classifying or rewriting transit traffic need: they must not drop
  /// on (or re-sum) a checksum the endpoints own.
  static IcmpView parse_headers(util::BufferView bytes);

  bool is_echo() const {
    return type == IcmpType::kEchoRequest || type == IcmpType::kEchoReply;
  }
  bool is_error() const {
    return type == IcmpType::kDestUnreachable || type == IcmpType::kTimeExceeded;
  }
};

/// Make `body` (echo payload, or the quoted original IP header + 8 bytes
/// for errors) an ICMP message: the 8-byte header is prepended into the
/// buffer's headroom — in place when the storage is uniquely owned and
/// roomy, one reallocation otherwise — and the checksum is summed over
/// header and body.  `seq` is the second header word's low 16 bits: the
/// echo sequence, or an error's auxiliary info (the RFC 1191 next-hop MTU
/// for frag-needed).
util::Buffer icmp_onto(util::Buffer body, IcmpType type, std::uint8_t code,
                       std::uint16_t id, std::uint16_t seq);

}  // namespace ipop::net
