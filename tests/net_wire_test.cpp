// Unit tests for the wire-format codecs: Ethernet, ARP, IPv4, ICMP, UDP, TCP.
#include <gtest/gtest.h>

#include <array>
#include <span>

#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/tcp_wire.hpp"
#include "net/udp.hpp"
#include "util/random.hpp"
#include "wire_builders.hpp"

namespace ipop::net {
namespace {

using test::buf;
using test::tcp_wire;
using test::udp_wire;

TEST(MacTest, Broadcast) {
  MacAddress m{{0x02, 0x1b, 0x00, 0x00, 0x00, 0x05}};
  EXPECT_FALSE(m.is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
}

TEST(MacTest, FromIndexUnique) {
  EXPECT_NE(MacAddress::from_index(1), MacAddress::from_index(2));
  // Locally administered unicast: low bits of first octet are 0b10.
  EXPECT_EQ(MacAddress::from_index(7).octets[0] & 0x03, 0x02);
}

TEST(EthernetTest, RoundTrip) {
  const auto dst = MacAddress::from_index(1);
  const auto src = MacAddress::from_index(2);
  const auto frame = frame_onto(buf({1, 2, 3, 4}), dst, src, EtherType::kArp);
  EXPECT_EQ(frame.size(), EthernetView::kHeaderSize + 4);
  auto g = EthernetView::parse(frame.view());
  EXPECT_EQ(g.dst, dst);
  EXPECT_EQ(g.src, src);
  EXPECT_EQ(g.type, EtherType::kArp);
  EXPECT_EQ(g.payload, buf({1, 2, 3, 4}).view());
}

TEST(EthernetTest, TruncatedThrows) {
  std::vector<std::uint8_t> short_frame(10, 0);
  EXPECT_THROW(EthernetView::parse(short_frame), util::ParseError);
}

TEST(Ipv4AddressTest, ParseFormat) {
  auto a = Ipv4Address::parse("172.16.0.2");
  EXPECT_EQ(a.to_string(), "172.16.0.2");
  EXPECT_EQ(a.value, 0xAC100002u);
  EXPECT_EQ(Ipv4Address(172, 16, 0, 2), a);
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Address::parse("256.1.1.1"), util::ParseError);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), util::ParseError);
  EXPECT_THROW(Ipv4Address::parse("a.b.c.d"), util::ParseError);
  EXPECT_THROW(Ipv4Address::parse(""), util::ParseError);
}

TEST(Ipv4PrefixTest, ContainsAndMask) {
  auto p = Ipv4Prefix::parse("172.16.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Address::parse("172.16.255.1")));
  EXPECT_FALSE(p.contains(Ipv4Address::parse("172.17.0.1")));
  auto all = Ipv4Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(Ipv4Address::parse("8.8.8.8")));
  auto host = Ipv4Prefix::parse("10.0.0.1/32");
  EXPECT_TRUE(host.contains(Ipv4Address::parse("10.0.0.1")));
  EXPECT_FALSE(host.contains(Ipv4Address::parse("10.0.0.2")));
}

TEST(Ipv4PrefixTest, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0"), util::ParseError);
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0/33"), util::ParseError);
}

TEST(ChecksumTest, KnownVector) {
  // Example from RFC 1071 discussions.
  std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(ChecksumTest, OddLength) {
  // Odd trailing byte is padded with zero: 0x0102 + 0x0300 = 0x0402.
  std::vector<std::uint8_t> data{0x01, 0x02, 0x03};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0x0402));
}

TEST(Ipv4PacketTest, RoundTrip) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  p.hdr.proto = IpProto::kUdp;
  p.hdr.ttl = 31;
  p.payload = buf({9, 9, 9});
  auto wire = p.take_wire();
  EXPECT_EQ(wire.size(), Ipv4Header::kSize + 3);
  EXPECT_EQ(Ipv4View::parse(wire.view()).payload, buf({9, 9, 9}).view());
  auto q = Ipv4Packet::decode(std::move(wire));
  EXPECT_EQ(q.hdr.src, Ipv4Address::parse("10.0.0.1"));
  EXPECT_EQ(q.hdr.dst, Ipv4Address::parse("10.0.0.2"));
  EXPECT_EQ(q.hdr.proto, IpProto::kUdp);
  EXPECT_EQ(q.hdr.ttl, 31);
  EXPECT_EQ(q.payload.view(), buf({9, 9, 9}).view());
}

TEST(Ipv4PacketTest, CorruptedHeaderChecksumRejected) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  auto wire = p.take_wire();
  wire[8] ^= 0xFF;  // flip the TTL
  EXPECT_THROW(Ipv4View::parse(wire.view()), util::ParseError);
  EXPECT_THROW(Ipv4Packet::decode(std::move(wire)), util::ParseError);
}

TEST(Ipv4PacketTest, BadLengthRejected) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  p.payload = buf({1, 2, 3, 4});
  auto wire = p.take_wire();
  wire.drop_back(2);  // truncate below total_length
  EXPECT_THROW(Ipv4View::parse(wire.view()), util::ParseError);
  EXPECT_THROW(Ipv4Packet::decode(std::move(wire)), util::ParseError);
}

TEST(ArpTest, RoundTrip) {
  ArpMessage m;
  m.op = ArpOp::kRequest;
  m.sender_mac = MacAddress::from_index(3);
  m.sender_ip = Ipv4Address::parse("10.0.0.3");
  m.target_ip = Ipv4Address::parse("10.0.0.9");
  auto bytes = m.encode();
  EXPECT_EQ(bytes.size(), 28u);
  auto g = ArpMessage::decode(bytes);
  EXPECT_EQ(g.op, ArpOp::kRequest);
  EXPECT_EQ(g.sender_mac, m.sender_mac);
  EXPECT_EQ(g.sender_ip, m.sender_ip);
  EXPECT_EQ(g.target_ip, m.target_ip);
}

TEST(IcmpTest, EchoRoundTrip) {
  const auto wire =
      icmp_onto(buf({0xDE, 0xAD}), IcmpType::kEchoRequest, 0, 0x1234, 7);
  EXPECT_EQ(wire.size(), IcmpView::kHeaderSize + 2);
  auto g = IcmpView::parse(wire.view());
  EXPECT_EQ(g.type, IcmpType::kEchoRequest);
  EXPECT_EQ(g.id, 0x1234);
  EXPECT_EQ(g.seq, 7);
  EXPECT_EQ(g.payload, buf({0xDE, 0xAD}).view());
  EXPECT_TRUE(g.is_echo());
}

TEST(IcmpTest, HeaderWriterReallocatesOnlyWithoutHeadroom) {
  // Into headroom: the body's storage becomes the message.
  auto body = buf({1, 2, 3});
  const std::uint8_t* body_bytes = body.data();
  const auto in_place =
      icmp_onto(std::move(body), IcmpType::kEchoRequest, 0, 1, 1);
  EXPECT_EQ(in_place.data() + IcmpView::kHeaderSize, body_bytes);
  // No headroom (an empty body): one reallocation, same wire bytes.
  const auto empty =
      icmp_onto(util::Buffer{}, IcmpType::kDestUnreachable, 4, 0, 1400);
  auto g = IcmpView::parse(empty.view());
  EXPECT_EQ(g.code, 4);
  EXPECT_EQ(g.seq, 1400);
  EXPECT_TRUE(g.payload.empty());
  EXPECT_TRUE(g.is_error());
}

TEST(IcmpTest, ChecksumValidated) {
  auto wire = icmp_onto(util::Buffer{}, IcmpType::kEchoReply, 0, 0, 0);
  wire[4] ^= 0x01;
  EXPECT_THROW(IcmpView::parse(wire.view()), util::ParseError);
  // Middleboxes' structural parse does not judge the checksum.
  EXPECT_EQ(IcmpView::parse_headers(wire.view()).id, 0x0100);
}

TEST(UdpTest, RoundTrip) {
  const auto wire = udp_wire(1111, 53, {5, 6, 7, 8, 9});
  auto g = UdpView::parse(wire.view());
  EXPECT_EQ(g.src_port, 1111);
  EXPECT_EQ(g.dst_port, 53);
  EXPECT_EQ(g.length, UdpView::kHeaderSize + 5);
  EXPECT_EQ(g.payload, buf({5, 6, 7, 8, 9}).view());
}

TEST(UdpTest, BadLengthRejected) {
  std::vector<std::uint8_t> short_header(6, 0);
  EXPECT_THROW(UdpView::parse(short_header), util::ParseError);
  auto wire = udp_wire(0, 0, {1, 2, 3});
  wire[4] = 0;
  wire[5] = 2;  // length < header size
  EXPECT_THROW(UdpView::parse(wire.view()), util::ParseError);
  wire[5] = 12;  // length past the end of the datagram
  EXPECT_THROW(UdpView::parse(wire.view()), util::ParseError);
}

TEST(UdpTest, NonzeroChecksumCoversPayloadAndPseudoHeader) {
  // Stack::deliver_udp validates a nonzero checksum by re-summing the
  // datagram with its pseudo-header: a sound datagram sums to 0.
  const auto src = Ipv4Address::parse("10.0.0.1");
  const auto dst = Ipv4Address::parse("10.0.0.2");
  auto wire = udp_wire(1111, 53, {5, 6, 7}, src, dst);
  EXPECT_NE(UdpView::parse(wire.view()).checksum, 0);
  EXPECT_EQ(transport_checksum(src, dst, IpProto::kUdp, wire.as_span()), 0);
  // A flipped payload bit no longer matches the checksum...
  wire[10] ^= 0x01;
  EXPECT_NE(transport_checksum(src, dst, IpProto::kUdp, wire.as_span()), 0);
  wire[10] ^= 0x01;
  // ...and neither does a wrong pseudo-header (different source address).
  EXPECT_NE(transport_checksum(Ipv4Address::parse("9.9.9.9"), dst,
                               IpProto::kUdp, wire.as_span()),
            0);
}

TEST(UdpTest, HeaderWriterEmitsZeroChecksum) {
  // RFC 768: checksum 0 = "no checksum"; Stack::deliver_udp delivers such
  // datagrams unvalidated (LanFixture.UdpBadChecksumDroppedGoodChecksumDelivered).
  const auto wire = udp_wire(1, 2, {0xFF, 0x00, 0xFF});
  EXPECT_EQ(wire[6], 0);
  EXPECT_EQ(wire[7], 0);
  EXPECT_EQ(UdpView::parse(wire.view()).checksum, 0);
}

TEST(ChecksumTest, IncrementalUpdateMatchesRecompute) {
  // checksum_update (RFC 1624) must agree with a full re-sum after a
  // 16-bit word substitution.
  std::vector<std::uint8_t> data{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC};
  const std::uint16_t before = internet_checksum(data);
  const std::uint16_t old_word = 0x5678;
  const std::uint16_t new_word = 0xCAFE;
  data[2] = 0xCA;
  data[3] = 0xFE;
  EXPECT_EQ(checksum_update(before, old_word, new_word),
            internet_checksum(data));
  // Identity substitution is a no-op.
  EXPECT_EQ(checksum_update(before, old_word, old_word), before);
}

TEST(TcpWireTest, RoundTripWithChecksum) {
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  TcpSegment s;
  s.src_port = 4000;
  s.dst_port = 80;
  s.seq = 0xAABBCCDD;
  s.ack = 0x11223344;
  s.flags.syn = true;
  s.flags.ack = true;
  s.window = 8192;
  const auto wire = tcp_wire(s, {1, 2, 3}, src, dst);
  auto g = TcpView::parse(wire.view(), src, dst);
  EXPECT_EQ(g.src_port, 4000);
  EXPECT_EQ(g.dst_port, 80);
  EXPECT_EQ(g.seq, 0xAABBCCDDu);
  EXPECT_EQ(g.ack, 0x11223344u);
  EXPECT_TRUE(g.flags.syn);
  EXPECT_TRUE(g.flags.ack);
  EXPECT_FALSE(g.flags.fin);
  EXPECT_EQ(g.window, 8192);
  EXPECT_EQ(g.payload, buf({1, 2, 3}).view());
  // The endpoint parse aliases the segment: no payload bytes moved.
  EXPECT_EQ(g.payload.data(), wire.data() + TcpSegment::kHeaderSize);
}

TEST(TcpWireTest, ChecksumCoversPseudoHeader) {
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  auto wire = tcp_wire(TcpSegment{}, {}, src, dst);
  // Parsing with different addresses must fail the pseudo-header checksum.
  EXPECT_THROW(
      TcpView::parse(wire.view(), Ipv4Address::parse("9.9.9.9"), dst),
      util::ParseError);
  // A corrupted segment fails it too; the structural parse (NAT,
  // conntrack) does not judge the checksum.
  wire[TcpView::kChecksumOffset] ^= 0x5A;
  EXPECT_THROW(TcpView::parse(wire.view(), src, dst), util::ParseError);
  EXPECT_NO_THROW(TcpView::parse(wire.view()));
}

TEST(TcpWireTest, TruncatedOrBadOffsetThrows) {
  std::vector<std::uint8_t> short_header(12, 0);
  EXPECT_THROW(TcpView::parse(short_header), util::ParseError);
  auto wire = tcp_wire(TcpSegment{}, {}, Ipv4Address{}, Ipv4Address{});
  wire[12] = 4 << 4;  // data offset below the 5-word minimum
  EXPECT_THROW(TcpView::parse(wire.view()), util::ParseError);
  wire[12] = 6 << 4;  // options past the end of the segment
  EXPECT_THROW(TcpView::parse(wire.view()), util::ParseError);
}

/// transport_checksum as it was first written: the pseudo-header staged
/// in front of a copy of the segment, then one internet_checksum pass.
/// The reference the in-place sum must match bit for bit.
std::uint16_t staged_transport_checksum(Ipv4Address src, Ipv4Address dst,
                                        IpProto proto,
                                        std::span<const std::uint8_t> seg) {
  util::ByteWriter w(12 + seg.size());
  w.u32(src.value);
  w.u32(dst.value);
  w.u8(0);
  w.u8(static_cast<std::uint8_t>(proto));
  w.u16(static_cast<std::uint16_t>(seg.size()));
  w.bytes(seg);
  return internet_checksum(w.data());
}

TEST(ChecksumTest, TransportChecksumMatchesStagedPseudoHeader) {
  util::Rng rng(20060603);
  const IpProto protos[] = {IpProto::kTcp, IpProto::kUdp, IpProto::kIcmp};
  for (int trial = 0; trial < 400; ++trial) {
    // Lengths 0..1500, odd and even, with the edges always covered.
    const auto len = static_cast<std::size_t>(
        trial < 4 ? std::array<int, 4>{0, 1, 1499, 1500}[trial]
                  : rng.uniform_int(0, 1500));
    std::vector<std::uint8_t> seg(len);
    for (auto& b : seg) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const Ipv4Address src(static_cast<std::uint32_t>(rng()));
    const Ipv4Address dst(static_cast<std::uint32_t>(rng()));
    const IpProto proto = protos[trial % 3];
    const std::uint16_t got = transport_checksum(src, dst, proto, seg);
    ASSERT_EQ(got, staged_transport_checksum(src, dst, proto, seg))
        << "trial " << trial << " len " << len;
    // A segment carrying its own checksum verifies to 0 against the same
    // pseudo-header and not against a mismatched one.
    if (len >= 2) {
      seg[0] = seg[1] = 0;
      const std::uint16_t c = transport_checksum(src, dst, proto, seg);
      seg[0] = static_cast<std::uint8_t>(c >> 8);
      seg[1] = static_cast<std::uint8_t>(c);
      EXPECT_EQ(transport_checksum(src, dst, proto, seg), 0);
      const Ipv4Address other(dst.value ^ 0x00010000u);
      EXPECT_NE(transport_checksum(src, other, proto, seg), 0);
      EXPECT_EQ(transport_checksum(src, other, proto, seg),
                staged_transport_checksum(src, other, proto, seg));
    }
  }
}

TEST(TcpWireTest, FlagsEncodeDecode) {
  TcpFlags f;
  f.syn = f.fin = f.psh = true;
  auto g = TcpFlags::decode(f.encode());
  EXPECT_TRUE(g.syn);
  EXPECT_TRUE(g.fin);
  EXPECT_TRUE(g.psh);
  EXPECT_FALSE(g.ack);
  EXPECT_FALSE(g.rst);
}

TEST(TcpWireTest, SequenceComparisonsWrap) {
  EXPECT_TRUE(seq_lt(0xFFFFFFF0u, 0x10u));  // wraps forward
  EXPECT_TRUE(seq_gt(0x10u, 0xFFFFFFF0u));
  EXPECT_TRUE(seq_le(5u, 5u));
  EXPECT_TRUE(seq_ge(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

}  // namespace
}  // namespace ipop::net
