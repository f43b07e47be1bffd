// Test-side builders for wire images, layered on the production header
// writers (UdpView::write_header, TcpSegment::encode_gather).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/tcp_wire.hpp"
#include "net/udp.hpp"
#include "util/buffer.hpp"

namespace ipop::test {

/// `bytes` in a fresh buffer with packet headroom, the way an application
/// allocates a payload it hands to a socket.
inline util::Buffer buf(const std::vector<std::uint8_t>& bytes) {
  return util::Buffer::copy_of(bytes, util::kPacketHeadroom);
}

/// UDP header + `payload`, checksum 0 ("not computed").
inline util::Buffer udp_wire(std::uint16_t src_port, std::uint16_t dst_port,
                             const std::vector<std::uint8_t>& payload) {
  auto d = util::Buffer::allocate(net::UdpView::kHeaderSize + payload.size(),
                                  util::kPacketHeadroom);
  net::UdpView::write_header(d.data(), src_port, dst_port, payload.size());
  std::copy(payload.begin(), payload.end(),
            d.data() + net::UdpView::kHeaderSize);
  return d;
}

/// The same datagram with a real pseudo-header checksum for src -> dst (a
/// computed 0 goes on the wire as 0xFFFF, RFC 768).
inline util::Buffer udp_wire(std::uint16_t src_port, std::uint16_t dst_port,
                             const std::vector<std::uint8_t>& payload,
                             net::Ipv4Address src, net::Ipv4Address dst) {
  auto d = udp_wire(src_port, dst_port, payload);
  const std::uint16_t csum =
      net::transport_checksum(src, dst, net::IpProto::kUdp, d.as_span());
  d.patch_u16(net::UdpView::kChecksumOffset, csum == 0 ? 0xFFFF : csum);
  return d;
}

/// TCP segment `hdr` carrying `payload`, checksummed for src -> dst.
inline util::Buffer tcp_wire(const net::TcpSegment& hdr,
                             const std::vector<std::uint8_t>& payload,
                             net::Ipv4Address src, net::Ipv4Address dst) {
  const util::BufferChain data(buf(payload));
  return hdr.encode_gather(src, dst, util::kPacketHeadroom, data, 0,
                           data.size());
}

}  // namespace ipop::test
