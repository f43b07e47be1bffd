#include "net/icmp.hpp"

namespace ipop::net {

util::Buffer icmp_onto(util::Buffer body, IcmpType type, std::uint8_t code,
                       std::uint16_t id, std::uint16_t seq) {
  auto slot = body.grow_front(IcmpView::kHeaderSize);
  std::uint8_t* p = slot.data();
  p[IcmpView::kTypeOffset] = static_cast<std::uint8_t>(type);
  p[IcmpView::kCodeOffset] = code;
  util::store_u16(p + IcmpView::kChecksumOffset, 0);  // placeholder
  util::store_u16(p + IcmpView::kIdOffset, id);
  util::store_u16(p + IcmpView::kSeqOffset, seq);
  util::store_u16(p + IcmpView::kChecksumOffset,
                  internet_checksum(body.as_span()));
  return body;
}

IcmpView IcmpView::parse_headers(util::BufferView bytes) {
  util::ByteReader r(bytes);
  IcmpView m;
  m.type = static_cast<IcmpType>(r.u8());
  m.code = r.u8();
  r.u16();  // checksum: validated by parse(), not here
  m.id = r.u16();
  m.seq = r.u16();
  m.payload = r.rest_view();
  return m;
}

IcmpView IcmpView::parse(util::BufferView bytes) {
  if (internet_checksum(bytes) != 0) {
    throw util::ParseError("bad ICMP checksum");
  }
  return parse_headers(bytes);
}

}  // namespace ipop::net
