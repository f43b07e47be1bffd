#include "net/ethernet.hpp"

#include <algorithm>

namespace ipop::net {

MacAddress MacAddress::from_index(std::uint64_t index) {
  // 0x02 prefix: locally administered, unicast.
  MacAddress m;
  m.octets[0] = 0x02;
  m.octets[1] = 0x1b;
  for (int i = 0; i < 4; ++i) {
    m.octets[2 + i] = static_cast<std::uint8_t>(index >> (8 * (3 - i)));
  }
  return m;
}

namespace {
void write_header(std::uint8_t* out, const MacAddress& dst,
                  const MacAddress& src, EtherType type) {
  std::copy(dst.octets.begin(), dst.octets.end(), out);
  std::copy(src.octets.begin(), src.octets.end(), out + 6);
  const auto t = static_cast<std::uint16_t>(type);
  out[12] = static_cast<std::uint8_t>(t >> 8);
  out[13] = static_cast<std::uint8_t>(t);
}
}  // namespace

EthernetView EthernetView::parse(util::BufferView frame) {
  util::ByteReader r(frame);
  EthernetView v;
  auto d = r.bytes(6);
  std::copy(d.begin(), d.end(), v.dst.octets.begin());
  auto s = r.bytes(6);
  std::copy(s.begin(), s.end(), v.src.octets.begin());
  v.type = static_cast<EtherType>(r.u16());
  v.payload = r.rest_view();
  return v;
}

util::Buffer frame_onto(util::Buffer payload, const MacAddress& dst,
                        const MacAddress& src, EtherType type) {
  auto slot = payload.grow_front(EthernetView::kHeaderSize);
  write_header(slot.data(), dst, src, type);
  return payload;
}

}  // namespace ipop::net
