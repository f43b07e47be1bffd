#include "net/udp.hpp"

namespace ipop::net {

void UdpView::write_header(std::uint8_t* out, std::uint16_t src_port,
                           std::uint16_t dst_port, std::size_t payload_len) {
  util::store_u16(out + kSrcPortOffset, src_port);
  util::store_u16(out + kDstPortOffset, dst_port);
  util::store_u16(out + kLengthOffset,
                  static_cast<std::uint16_t>(kHeaderSize + payload_len));
  // Checksum: not computed (legal for IPv4).
  util::store_u16(out + kChecksumOffset, 0);
}

UdpView UdpView::parse(util::BufferView bytes) {
  util::ByteReader r(bytes);
  UdpView v;
  v.src_port = r.u16();
  v.dst_port = r.u16();
  v.length = r.u16();
  if (v.length < kHeaderSize || v.length > bytes.size()) {
    throw util::ParseError("bad UDP length");
  }
  v.checksum = r.u16();
  v.payload = bytes.subview(kHeaderSize, v.length - kHeaderSize);
  return v;
}

}  // namespace ipop::net
