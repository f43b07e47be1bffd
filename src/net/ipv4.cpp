#include "net/ipv4.hpp"

#include <charconv>
#include <cstdio>

namespace ipop::net {

Ipv4Address Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  int parts = 0;
  std::size_t pos = 0;
  while (parts < 4) {
    std::size_t dot = text.find('.', pos);
    std::string_view part = (dot == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, dot - pos);
    unsigned octet = 256;
    auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), octet);
    if (ec != std::errc{} || ptr != part.data() + part.size() || octet > 255) {
      throw util::ParseError("bad IPv4 address: " + std::string(text));
    }
    value = (value << 8) | octet;
    ++parts;
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  if (parts != 4) {
    throw util::ParseError("bad IPv4 address: " + std::string(text));
  }
  return Ipv4Address(value);
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", value >> 24,
                (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF);
  return buf;
}

Ipv4Prefix Ipv4Prefix::parse(std::string_view cidr) {
  std::size_t slash = cidr.find('/');
  if (slash == std::string_view::npos) {
    throw util::ParseError("bad CIDR (no slash): " + std::string(cidr));
  }
  Ipv4Prefix p;
  p.network = Ipv4Address::parse(cidr.substr(0, slash));
  auto lenpart = cidr.substr(slash + 1);
  int len = -1;
  auto [ptr, ec] =
      std::from_chars(lenpart.data(), lenpart.data() + lenpart.size(), len);
  if (ec != std::errc{} || ptr != lenpart.data() + lenpart.size() || len < 0 ||
      len > 32) {
    throw util::ParseError("bad CIDR length: " + std::string(cidr));
  }
  p.length = len;
  return p;
}

namespace {

/// Add `data` to a one's-complement accumulator as big-endian 16-bit words
/// (an odd trailing byte is padded with zero).  The single word-sum shared
/// by internet_checksum and transport_checksum.
std::uint32_t sum_words(std::uint32_t sum, std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i] << 8) | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  return sum;
}

std::uint16_t fold_complement(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold_complement(sum_words(0, data));
}

std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst,
                                 IpProto proto,
                                 std::span<const std::uint8_t> segment) {
  // Pseudo-header (src, dst, zero|proto, length) as 16-bit words.  Its
  // length is even, so summing it apart leaves the segment's word
  // alignment, and therefore the checksum, unchanged.
  std::uint32_t sum = (src.value >> 16) + (src.value & 0xFFFF) +
                      (dst.value >> 16) + (dst.value & 0xFFFF) +
                      static_cast<std::uint8_t>(proto) +
                      static_cast<std::uint16_t>(segment.size());
  return fold_complement(sum_words(sum, segment));
}

std::uint16_t checksum_update(std::uint16_t csum, std::uint16_t old_word,
                              std::uint16_t new_word) {
  // HC' = ~(~HC + ~m + m'), folded back to 16 bits.
  std::uint32_t sum = static_cast<std::uint16_t>(~csum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

void Ipv4Packet::encode_header(std::uint8_t* out, const Ipv4Header& hdr,
                               std::size_t total_len) {
  out[0] = 0x45;  // version 4, IHL 5 (no options)
  out[1] = hdr.tos;
  util::store_u16(out + 2, static_cast<std::uint16_t>(total_len));
  util::store_u16(out + 4, hdr.id);
  util::store_u16(out + 6, 0x4000);  // DF, fragment offset 0
  out[8] = hdr.ttl;
  out[9] = static_cast<std::uint8_t>(hdr.proto);
  util::store_u16(out + 10, 0);  // checksum placeholder
  util::store_u32(out + 12, hdr.src.value);
  util::store_u32(out + 16, hdr.dst.value);
  util::store_u16(out + 10, internet_checksum(std::span<const std::uint8_t>(
                                out, Ipv4Header::kSize)));
}

util::Buffer Ipv4Packet::take_wire() {
  util::Buffer wire = std::move(payload);
  const std::size_t total = Ipv4Header::kSize + wire.size();
  auto slot = wire.grow_front(Ipv4Header::kSize);
  encode_header(slot.data(), hdr, total);
  return wire;
}

Ipv4View Ipv4View::parse(util::BufferView bytes) {
  util::ByteReader r(bytes);
  Ipv4View p;
  const std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4) throw util::ParseError("not IPv4");
  const std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0x0F) * 4;
  if (ihl != Ipv4Header::kSize) {
    throw util::ParseError("IPv4 options unsupported");
  }
  p.hdr.tos = r.u8();
  const std::uint16_t total_len = r.u16();
  if (total_len < Ipv4Header::kSize || total_len > bytes.size()) {
    throw util::ParseError("bad IPv4 total length");
  }
  p.hdr.id = r.u16();
  const std::uint16_t frag = r.u16();
  if ((frag & 0x1FFF) != 0 || (frag & 0x2000) != 0) {
    throw util::ParseError("IPv4 fragmentation unsupported");
  }
  p.hdr.ttl = r.u8();
  p.hdr.proto = static_cast<IpProto>(r.u8());
  r.u16();  // checksum validated over the raw header below
  p.hdr.src = Ipv4Address(r.u32());
  p.hdr.dst = Ipv4Address(r.u32());
  if (internet_checksum(bytes.subview(0, Ipv4Header::kSize)) != 0) {
    throw util::ParseError("bad IPv4 header checksum");
  }
  p.payload = r.view_bytes(total_len - Ipv4Header::kSize);
  return p;
}

Ipv4Packet Ipv4Packet::decode(util::Buffer bytes) {
  Ipv4View v = Ipv4View::parse(bytes.view());
  Ipv4Packet p;
  p.hdr = v.hdr;
  // Trim link padding off the back, turn the consumed header into
  // headroom, and adopt the storage: no payload bytes move.
  bytes.drop_back(bytes.size() - Ipv4Header::kSize - v.payload.size());
  bytes.drop_front(Ipv4Header::kSize);
  p.payload = std::move(bytes);
  return p;
}

}  // namespace ipop::net
