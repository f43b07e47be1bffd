#include "net/tcp_wire.hpp"

namespace ipop::net {

const util::BufferChain kNoPayload;

util::Buffer TcpSegment::encode_gather(Ipv4Address src_ip, Ipv4Address dst_ip,
                                       std::size_t headroom,
                                       const util::BufferChain& queue,
                                       std::size_t offset,
                                       std::size_t len) const {
  auto buf = util::Buffer::allocate(kHeaderSize + len, headroom);
  std::uint8_t* p = buf.data();
  util::store_u16(p, src_port);
  util::store_u16(p + 2, dst_port);
  util::store_u32(p + 4, seq);
  util::store_u32(p + 8, ack);
  p[12] = 5 << 4;  // data offset 5 words, no options
  p[13] = flags.encode();
  util::store_u16(p + 14, window);
  util::store_u16(p + TcpView::kChecksumOffset, 0);  // placeholder
  util::store_u16(p + 18, 0);                        // urgent pointer
  queue.gather(offset, buf.writable().subspan(kHeaderSize));
  util::store_u16(p + TcpView::kChecksumOffset,
                  transport_checksum(src_ip, dst_ip, IpProto::kTcp,
                                     buf.as_span()));
  return buf;
}

TcpView TcpView::parse(util::BufferView bytes) {
  util::ByteReader r(bytes);
  TcpView v;
  v.src_port = r.u16();
  v.dst_port = r.u16();
  v.seq = r.u32();
  v.ack = r.u32();
  const std::uint8_t offset_words = r.u8() >> 4;
  if (offset_words < 5) throw util::ParseError("bad TCP data offset");
  v.flags = TcpFlags::decode(r.u8());
  v.window = r.u16();
  v.checksum = r.u16();
  r.u16();  // urgent pointer ignored
  const std::size_t header_len = static_cast<std::size_t>(offset_words) * 4;
  if (header_len > bytes.size()) throw util::ParseError("TCP header too long");
  if (header_len > TcpSegment::kHeaderSize) {
    r.skip(header_len - TcpSegment::kHeaderSize);
  }
  v.payload = r.rest_view();
  return v;
}

TcpView TcpView::parse(util::BufferView bytes, Ipv4Address src_ip,
                       Ipv4Address dst_ip) {
  if (transport_checksum(src_ip, dst_ip, IpProto::kTcp, bytes) != 0) {
    throw util::ParseError("bad TCP checksum");
  }
  return parse(bytes);
}

}  // namespace ipop::net
