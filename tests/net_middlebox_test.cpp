// NAT (all four RFC 3489 types) — behaviour matrix, conntrack-driven
// mapping lifetime (TCP SYN/FIN/RST lifecycle), in-place rewriting, ICMP
// error translation (traceroute through the NAT) — stateful firewall
// (bounded conntrack, related-flow admission), and the Figure-4 testbed's
// reachability policy.
#include <gtest/gtest.h>

#include "net/icmp.hpp"
#include "net/l4_patch.hpp"
#include "net/ping.hpp"
#include "net/topology.hpp"
#include "net/traceroute.hpp"
#include "net/udp.hpp"
#include "wire_builders.hpp"

namespace ipop::net {
namespace {

using test::buf;
using test::tcp_wire;
using test::udp_wire;

using util::milliseconds;
using util::seconds;

Ipv4Address ip(const char* s) { return Ipv4Address::parse(s); }

// ---------------------------------------------------------------------------
// NAT behaviour matrix.
//
// inside (10.0.0.2) -- NAT -- outside subnet (8.0.0.0/24) with two public
// hosts pub1 (8.0.0.10) and pub2 (8.0.0.20).
// ---------------------------------------------------------------------------
struct NatFixture : ::testing::TestWithParam<NatType> {
  Network net{21};
  Host* inside = nullptr;
  Host* pub1 = nullptr;
  Host* pub2 = nullptr;
  NatBox* nat = nullptr;

  void SetUp() override {
    inside = &net.add_host("inside");
    pub1 = &net.add_host("pub1");
    pub2 = &net.add_host("pub2");
    nat = &net.add_nat("nat", GetParam());
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    auto& sw = net.add_switch("outside");
    net.connect(inside->stack(), {"eth0", ip("10.0.0.2"), 24}, nat->stack(),
                {"in", ip("10.0.0.1"), 24}, link);
    net.connect_to_switch(nat->stack(), {"out", ip("8.0.0.1"), 24}, sw, link);
    net.connect_to_switch(pub1->stack(), {"eth0", ip("8.0.0.10"), 24}, sw, link);
    net.connect_to_switch(pub2->stack(), {"eth0", ip("8.0.0.20"), 24}, sw, link);
    inside->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0, ip("10.0.0.1"));
  }

  struct Echo {
    Ipv4Address src;
    std::uint16_t src_port;
    std::vector<std::uint8_t> data;
  };
};

INSTANTIATE_TEST_SUITE_P(AllNatTypes, NatFixture,
                         ::testing::Values(NatType::kFullCone,
                                           NatType::kRestrictedCone,
                                           NatType::kPortRestrictedCone,
                                           NatType::kSymmetric),
                         [](const auto& info) {
                           std::string n = nat_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(NatFixture, OutboundUdpIsTranslatedAndRepliesReturn) {
  auto server = pub1->stack().udp_bind(7000);
  Ipv4Address seen_src;
  std::uint16_t seen_port = 0;
  server->set_receive_handler(
      [&](Ipv4Address src, std::uint16_t sport, util::Buffer d) {
        seen_src = src;
        seen_port = sport;
        server->send_to(src, sport, std::move(d));
      });
  auto client = inside->stack().udp_bind(5555);
  std::vector<std::uint8_t> reply;
  client->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer d) {
        reply = d.to_vector();
      });
  client->send_to(ip("8.0.0.10"), 7000, buf({1, 2, 3}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(seen_src, ip("8.0.0.1"));  // translated to the NAT's external IP
  EXPECT_NE(seen_port, 5555);          // translated port
  EXPECT_EQ(reply, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(nat->stats().mappings_created, 1u);
}

TEST_P(NatFixture, ThirdPartyInboundFollowsNatTypeRules) {
  // inside contacts pub1 only; then pub2 tries to reach the mapped port.
  auto server = pub1->stack().udp_bind(7000);
  std::uint16_t mapped_port = 0;
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t sport, util::Buffer) {
        mapped_port = sport;
      });
  auto client = inside->stack().udp_bind(5555);
  int inside_got = 0;
  client->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {
        ++inside_got;
      });
  client->send_to(ip("8.0.0.10"), 7000, buf({1}));
  net.loop().run_until(seconds(1));
  ASSERT_NE(mapped_port, 0);

  // pub2 (different IP, some port) sends to the mapping.
  auto probe = pub2->stack().udp_bind(9000);
  probe->send_to(ip("8.0.0.1"), mapped_port, buf({0x77}));
  net.loop().run_until(seconds(2));

  const bool should_pass = GetParam() == NatType::kFullCone;
  EXPECT_EQ(inside_got > 0, should_pass)
      << "NAT type " << nat_type_name(GetParam());
}

TEST_P(NatFixture, SameHostDifferentPortFollowsNatTypeRules) {
  // inside contacts pub1:7000; pub1 then replies from port 7001.
  auto server = pub1->stack().udp_bind(7000);
  std::uint16_t mapped_port = 0;
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t sport, util::Buffer) {
        mapped_port = sport;
      });
  auto client = inside->stack().udp_bind(5555);
  int inside_got = 0;
  client->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {
        ++inside_got;
      });
  client->send_to(ip("8.0.0.10"), 7000, buf({1}));
  net.loop().run_until(seconds(1));
  ASSERT_NE(mapped_port, 0);

  auto other_port = pub1->stack().udp_bind(7001);
  other_port->send_to(ip("8.0.0.1"), mapped_port, buf({0x55}));
  net.loop().run_until(seconds(2));

  const bool should_pass = GetParam() == NatType::kFullCone ||
                           GetParam() == NatType::kRestrictedCone;
  EXPECT_EQ(inside_got > 0, should_pass)
      << "NAT type " << nat_type_name(GetParam());
}

TEST_P(NatFixture, ConePreservesMappingAcrossDestinations) {
  // The property Brunet traversal relies on: for non-symmetric NATs the
  // same internal endpoint maps to the same external port regardless of
  // destination.
  std::uint16_t port_seen_by_1 = 0, port_seen_by_2 = 0;
  auto s1 = pub1->stack().udp_bind(7000);
  s1->set_receive_handler([&](Ipv4Address, std::uint16_t sport,
                              util::Buffer) { port_seen_by_1 = sport; });
  auto s2 = pub2->stack().udp_bind(7000);
  s2->set_receive_handler([&](Ipv4Address, std::uint16_t sport,
                              util::Buffer) { port_seen_by_2 = sport; });
  auto client = inside->stack().udp_bind(5555);
  client->send_to(ip("8.0.0.10"), 7000, buf({1}));
  client->send_to(ip("8.0.0.20"), 7000, buf({1}));
  net.loop().run_until(seconds(2));
  ASSERT_NE(port_seen_by_1, 0);
  ASSERT_NE(port_seen_by_2, 0);
  if (GetParam() == NatType::kSymmetric) {
    EXPECT_NE(port_seen_by_1, port_seen_by_2);
  } else {
    EXPECT_EQ(port_seen_by_1, port_seen_by_2);
  }
}

TEST_P(NatFixture, TcpThroughNatWorksOutbound) {
  auto listener = pub1->stack().tcp_listen(80);
  std::vector<std::uint8_t> got;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    s->on_readable = [&, sp] {
      auto chunk = sp->receive(4096);
      got.insert(got.end(), chunk.begin(), chunk.end());
    };
  });
  auto client = inside->stack().tcp_connect(ip("8.0.0.10"), 80);
  ASSERT_NE(client, nullptr);
  client->on_connected = [&] {
    client->send(util::Buffer::copy_of(std::vector<std::uint8_t>{9, 8, 7}));
  };
  net.loop().run_until(seconds(5));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST_P(NatFixture, UnsolicitedInboundToUnmappedPortBlocked) {
  auto probe = pub2->stack().udp_bind(9000);
  const auto blocked_before = nat->stats().blocked_in;
  probe->send_to(ip("8.0.0.1"), 40000, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(nat->stats().blocked_in, blocked_before + 1);
}

TEST_P(NatFixture, PingThroughNat) {
  Pinger pinger(inside->stack());
  Pinger::Options opts;
  opts.count = 3;
  opts.interval = milliseconds(10);
  opts.timeout = milliseconds(500);
  PingResult res;
  pinger.run(ip("8.0.0.10"), opts, [&](PingResult r) { res = std::move(r); });
  net.loop().run_until(seconds(5));
  EXPECT_EQ(res.received, 3);
}

// ---------------------------------------------------------------------------
// NAT mapping lifetime: idle expiry and external-port reclamation
// ---------------------------------------------------------------------------
struct NatLifetimeFixture : ::testing::Test {
  Network net{22};
  Host* inside = nullptr;
  Host* outside = nullptr;
  NatBox* nat = nullptr;

  void SetUp() override {
    inside = &net.add_host("inside");
    outside = &net.add_host("outside");
    NatConfig ncfg;
    ncfg.timeouts.udp_idle = seconds(5);
    ncfg.sweep_interval = seconds(1);
    // Two allocatable ports before the counter wraps: 65534, 65535.
    ncfg.first_ext_port = 65534;
    nat = &net.add_nat("nat", NatType::kPortRestrictedCone, {}, ncfg);
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    net.connect(inside->stack(), {"eth0", ip("10.0.0.2"), 24}, nat->stack(),
                {"in", ip("10.0.0.1"), 24}, link);
    net.connect(nat->stack(), {"out", ip("8.0.0.1"), 24}, outside->stack(),
                {"eth0", ip("8.0.0.2"), 24}, link);
    inside->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0,
                              ip("10.0.0.1"));
  }
};

TEST_F(NatLifetimeFixture, IdleMappingsExpireAndBlockInbound) {
  auto server = outside->stack().udp_bind(7000);
  std::uint16_t mapped_port = 0;
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t sport, util::Buffer) {
        mapped_port = sport;
      });
  auto client = inside->stack().udp_bind(5555);
  client->send_to(ip("8.0.0.2"), 7000, buf({1}));
  net.loop().run_until(seconds(1));
  ASSERT_NE(mapped_port, 0);
  EXPECT_EQ(nat->mapping_count(), 1u);

  // No traffic for longer than the idle timeout: the sweep reclaims the
  // mapping (a long-lived box does not accumulate one entry per flow
  // forever).
  net.loop().run_until(seconds(10));
  EXPECT_EQ(nat->mapping_count(), 0u);
  EXPECT_GE(nat->stats().mappings_expired, 1u);

  // The reclaimed external port no longer routes inside.
  auto probe = outside->stack().udp_bind(9000);
  const auto blocked_before = nat->stats().blocked_in;
  probe->send_to(ip("8.0.0.1"), mapped_port, buf({2}));
  net.loop().run_until(seconds(12));
  EXPECT_EQ(nat->stats().blocked_in, blocked_before + 1);
}

TEST_F(NatLifetimeFixture, TrafficRefreshesMappings) {
  auto server = outside->stack().udp_bind(7000);
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {});
  auto client = inside->stack().udp_bind(5555);
  // Send every 2 s for 20 s: always inside the 5 s idle timeout.
  for (int i = 0; i < 10; ++i) {
    client->send_to(ip("8.0.0.2"), 7000, buf({1}));
    net.loop().run_until(net.loop().now() + seconds(2));
  }
  EXPECT_EQ(nat->mapping_count(), 1u);
  EXPECT_EQ(nat->stats().mappings_expired, 0u);
  EXPECT_EQ(nat->stats().mappings_created, 1u);
}

TEST_F(NatLifetimeFixture, ExternalPortWrapReusesExpiredPortsCleanly) {
  // Regression for the port-wrap bug: next_ext_port_ used to increment
  // forever, so past 64k mappings the counter wrapped into ports whose
  // by_ext_port_ entries still pointed at old mappings.  With two
  // allocatable ports (65534, 65535), flows A and B take both; after
  // they expire, flows C and D must get the *same* ports, and inbound
  // traffic must reach C/D — not the stale A/B state.
  auto server = outside->stack().udp_bind(7000);
  std::vector<std::uint16_t> seen_ports;
  server->set_receive_handler(
      [&](Ipv4Address src, std::uint16_t sport, util::Buffer d) {
        seen_ports.push_back(sport);
        server->send_to(src, sport, std::move(d));  // echo
      });
  auto a = inside->stack().udp_bind(5001);
  auto b = inside->stack().udp_bind(5002);
  a->send_to(ip("8.0.0.2"), 7000, buf({1}));
  b->send_to(ip("8.0.0.2"), 7000, buf({1}));
  net.loop().run_until(seconds(1));
  ASSERT_EQ(seen_ports.size(), 2u);
  EXPECT_EQ(nat->stats().mappings_created, 2u);

  // A third concurrent flow finds the port space exhausted and is
  // dropped, not silently aliased onto a live mapping.
  auto c = inside->stack().udp_bind(5003);
  c->send_to(ip("8.0.0.2"), 7000, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(seen_ports.size(), 2u);
  EXPECT_GE(nat->stats().dropped_port_exhausted, 1u);

  // Let A and B expire, then open two fresh flows from different inside
  // ports: the wrapped counter must hand out the reclaimed ports again.
  net.loop().run_until(seconds(10));
  ASSERT_EQ(nat->mapping_count(), 0u);
  seen_ports.clear();
  int d_replies = 0, e_replies = 0;
  auto d = inside->stack().udp_bind(6001);
  auto e = inside->stack().udp_bind(6002);
  d->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {
        ++d_replies;
      });
  e->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {
        ++e_replies;
      });
  d->send_to(ip("8.0.0.2"), 7000, buf({2}));
  e->send_to(ip("8.0.0.2"), 7000, buf({2}));
  net.loop().run_until(seconds(12));
  ASSERT_EQ(seen_ports.size(), 2u);
  // Reused external ports from the reclaimed pair...
  for (auto p : seen_ports) EXPECT_GE(p, 65534);
  // ...and the echoes came back to the *new* flows (no stale
  // by_ext_port_ collision sending them to 5001/5002).
  EXPECT_EQ(d_replies, 1);
  EXPECT_EQ(e_replies, 1);
}

// ---------------------------------------------------------------------------
// In-place NAT rewrite (zero-copy, refcount-verified)
// ---------------------------------------------------------------------------

TEST(L4PatchTest, UdpRewritePatchesInPlaceAndFixesChecksum) {
  const auto src = ip("10.0.0.2");
  const auto dst = ip("8.0.0.10");
  const auto ext = ip("8.0.0.1");
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.src = src;
  pkt.hdr.dst = dst;
  pkt.payload = udp_wire(5555, 7000, {1, 2, 3, 4, 5, 6, 7}, src, dst);

  const std::uint8_t* storage = pkt.payload.data();
  const std::size_t copied =
      patch_l4_endpoints(pkt, L4Endpoint{ext, 62001}, std::nullopt);
  // Uniquely owned: patched in place, zero bytes copied.
  EXPECT_EQ(copied, 0u);
  EXPECT_EQ(pkt.payload.data(), storage);
  EXPECT_EQ(pkt.hdr.src, ext);
  // The incrementally updated checksum validates against the new
  // pseudo-header, and the ports/payload read back correctly.
  EXPECT_EQ(
      transport_checksum(ext, dst, IpProto::kUdp, pkt.payload.as_span()), 0);
  auto g = UdpView::parse(pkt.payload.view());
  EXPECT_NE(g.checksum, 0);
  EXPECT_EQ(g.src_port, 62001);
  EXPECT_EQ(g.dst_port, 7000);
  EXPECT_EQ(g.payload, buf({1, 2, 3, 4, 5, 6, 7}).view());
}

TEST(L4PatchTest, UdpZeroChecksumStaysZero) {
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.src = ip("10.0.0.2");
  pkt.hdr.dst = ip("8.0.0.10");
  pkt.payload = udp_wire(5555, 7000, {9, 9});  // checksum 0 = none
  patch_l4_endpoints(pkt, L4Endpoint{ip("8.0.0.1"), 60000}, std::nullopt);
  auto v = UdpView::parse(pkt.payload.view());
  EXPECT_EQ(v.src_port, 60000);
  EXPECT_EQ(v.checksum, 0);  // "no checksum" is preserved per RFC 768
}

TEST(L4PatchTest, TcpRewriteKeepsChecksumValid) {
  const auto src = ip("10.0.0.2");
  const auto dst = ip("8.0.0.10");
  const auto ext = ip("8.0.0.1");
  TcpSegment seg;
  seg.src_port = 44000;
  seg.dst_port = 80;
  seg.seq = 1234;
  seg.flags.psh = true;
  seg.flags.ack = true;
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kTcp;
  pkt.hdr.src = src;
  pkt.hdr.dst = dst;
  pkt.payload = tcp_wire(seg, {0xDE, 0xAD, 0xBE, 0xEF}, src, dst);

  const std::uint8_t* storage = pkt.payload.data();
  EXPECT_EQ(patch_l4_endpoints(pkt, L4Endpoint{ext, 62002}, std::nullopt), 0u);
  EXPECT_EQ(pkt.payload.data(), storage);
  // The endpoint parse re-validates the pseudo-header checksum end to end.
  auto g = TcpView::parse(pkt.payload.view(), ext, dst);
  EXPECT_EQ(g.src_port, 62002);
  EXPECT_EQ(g.payload, buf({0xDE, 0xAD, 0xBE, 0xEF}).view());
}

TEST(L4PatchTest, IcmpIdRewriteKeepsChecksumValid) {
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kIcmp;
  pkt.hdr.src = ip("10.0.0.2");
  pkt.hdr.dst = ip("8.0.0.10");
  pkt.payload = icmp_onto(buf({1, 2, 3}), IcmpType::kEchoRequest, 0, 77, 3);
  EXPECT_EQ(
      patch_l4_endpoints(pkt, L4Endpoint{ip("8.0.0.1"), 4242}, std::nullopt),
      0u);
  auto g = IcmpView::parse(pkt.payload.view());  // validates checksum
  EXPECT_EQ(g.id, 4242);
  EXPECT_EQ(g.seq, 3);
}

TEST(L4PatchTest, SharedStorageTriggersCopyOnWrite) {
  // Like buffer_test's shared-prepend case: a rewrite on shared storage
  // must not corrupt the bytes another holder still reads.
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.src = ip("10.0.0.2");
  pkt.hdr.dst = ip("8.0.0.10");
  pkt.payload = udp_wire(5555, 7000, {42, 43, 44});
  util::Buffer other = pkt.payload.share();  // e.g. a flooded sibling
  ASSERT_EQ(pkt.payload.use_count(), 2);

  const std::size_t copied =
      patch_l4_endpoints(pkt, L4Endpoint{ip("8.0.0.1"), 60001}, std::nullopt);
  EXPECT_EQ(copied, other.size());        // copy-on-write, counted
  EXPECT_NE(pkt.payload.data(), other.data());
  EXPECT_TRUE(pkt.payload.unique());
  // The sibling still reads the original port...
  EXPECT_EQ(UdpView::parse(other.view()).src_port, 5555);
  // ...while the packet carries the rewrite.
  EXPECT_EQ(UdpView::parse(pkt.payload.view()).src_port, 60001);
}

TEST_F(NatLifetimeFixture, ForwardedPacketCrossesNatWithZeroCopies) {
  // The tentpole's acceptance criterion at test granularity: after ARP
  // and mapping warm-up, a NAT-translated forward moves zero payload
  // bytes — header prepends reuse headroom, the port rewrite patches the
  // shared buffer in place.
  auto server = outside->stack().udp_bind(7000);
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {});
  auto client = inside->stack().udp_bind(5555);
  auto payload = util::Buffer::allocate(1000, util::kPacketHeadroom);
  client->send_to(ip("8.0.0.2"), 7000, payload.clone(util::kPacketHeadroom));
  net.loop().run_until(seconds(1));

  const auto nat_before = nat->stack().counters().payload_bytes_copied;
  const auto fwd_before = nat->stack().counters().forwarded;
  for (int i = 0; i < 50; ++i) {
    client->send_to(ip("8.0.0.2"), 7000,
                    payload.clone(util::kPacketHeadroom));
  }
  net.loop().run_until(seconds(2));
  EXPECT_EQ(nat->stack().counters().forwarded, fwd_before + 50);
  EXPECT_EQ(nat->stack().counters().payload_bytes_copied, nat_before);
  EXPECT_EQ(nat->stats().rewrite_bytes_copied, 0u);
  EXPECT_EQ(server->datagrams_received(), 51u);
}

// ---------------------------------------------------------------------------
// ICMP error-quote rewriting (unit level)
// ---------------------------------------------------------------------------

// An ICMP error as a router on the path would emit it: quoting the
// original packet's IP header plus its first `quote_l4` payload bytes.
Ipv4Packet make_icmp_error(const Ipv4Packet& original, IcmpType type,
                           std::uint8_t code, Ipv4Address router_ip) {
  const std::size_t quote_l4 =
      std::min<std::size_t>(original.payload.size(), 8);
  auto quoted = util::Buffer::allocate(Ipv4Header::kSize + quote_l4,
                                       util::kPacketHeadroom);
  Ipv4Packet::encode_header(quoted.data(), original.hdr,
                            original.total_length());
  std::copy_n(original.payload.begin(), quote_l4,
              quoted.data() + Ipv4Header::kSize);
  Ipv4Packet err;
  err.hdr.proto = IpProto::kIcmp;
  err.hdr.src = router_ip;
  err.hdr.dst = original.hdr.src;
  err.payload = icmp_onto(std::move(quoted), type, code, 0, 0);
  return err;
}

Ipv4Packet make_udp_packet(Ipv4Address src, std::uint16_t sport,
                           Ipv4Address dst, std::uint16_t dport,
                           bool with_checksum) {
  // Empty payload: the 8-byte UDP header is quoted in full, so the quoted
  // transport checksum can be re-validated end to end after the patch.
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.src = src;
  pkt.hdr.dst = dst;
  pkt.payload = with_checksum ? udp_wire(sport, dport, {}, src, dst)
                              : udp_wire(sport, dport, {});
  return pkt;
}

TEST(IcmpQuotePatchTest, RewritesQuoteInPlaceAndFixesAllChecksums) {
  const auto inside = ip("10.0.0.2");
  const auto ext = ip("8.0.0.1");
  const auto far = ip("9.0.0.2");
  // The translated (post-SNAT) probe a router beyond the NAT saw.
  Ipv4Packet translated = make_udp_packet(ext, 62001, far, 33434,
                                          /*with_checksum=*/true);
  Ipv4Packet err =
      make_icmp_error(translated, IcmpType::kTimeExceeded, 0, ip("8.0.0.2"));

  auto q = icmp_error_quote(err);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->proto, IpProto::kUdp);
  EXPECT_EQ(q->src.ip, ext);
  EXPECT_EQ(q->src.port, 62001);
  EXPECT_EQ(q->dst.ip, far);
  EXPECT_EQ(q->dst.port, 33434);

  // Translate the quote back to the inside endpoint, as dnat does.
  const std::uint8_t* storage = err.payload.data();
  const std::size_t copied = patch_icmp_quote_endpoint(
      err, *q, /*src_side=*/true, L4Endpoint{inside, 5555}, std::nullopt,
      inside);
  EXPECT_EQ(copied, 0u);
  EXPECT_EQ(err.payload.data(), storage);  // patched in place
  EXPECT_EQ(err.hdr.dst, inside);

  // Outer ICMP checksum revalidates over the rewritten quote.
  EXPECT_NO_THROW(IcmpView::parse(err.payload.view()));
  // The embedded quote now reads as the pre-SNAT packet...
  auto q2 = parse_ipv4_quote(err.payload.view(), IcmpView::kQuoteOffset);
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(q2->src.ip, inside);
  EXPECT_EQ(q2->src.port, 5555);
  EXPECT_EQ(q2->dst.ip, far);
  // ...its quoted IP header checksum is valid...
  EXPECT_EQ(internet_checksum(err.payload.view(IcmpView::kQuoteOffset,
                                               Ipv4Header::kSize)),
            0);
  // ...and the quoted UDP checksum validates against the new
  // pseudo-header (the quote carries the full 8-byte datagram here).
  EXPECT_EQ(transport_checksum(inside, far, IpProto::kUdp,
                               err.payload.view(
                                   IcmpView::kQuoteOffset + Ipv4Header::kSize,
                                   8)),
            0);
}

TEST(IcmpQuotePatchTest, ZeroUdpChecksumInQuoteStaysZero) {
  // RFC 768: checksum 0 means "not computed"; an RFC 1624 incremental
  // update of 0 would fabricate a garbage nonzero sum.
  const auto ext = ip("8.0.0.1");
  const auto far = ip("9.0.0.2");
  Ipv4Packet translated = make_udp_packet(ext, 62001, far, 33434,
                                          /*with_checksum=*/false);
  Ipv4Packet err =
      make_icmp_error(translated, IcmpType::kTimeExceeded, 0, ip("8.0.0.2"));
  auto q = icmp_error_quote(err);
  ASSERT_TRUE(q.has_value());
  patch_icmp_quote_endpoint(err, *q, /*src_side=*/true,
                            L4Endpoint{ip("10.0.0.2"), 5555}, std::nullopt,
                            ip("10.0.0.2"));
  const std::size_t csum_off =
      IcmpView::kQuoteOffset + Ipv4Header::kSize + UdpView::kChecksumOffset;
  EXPECT_EQ(util::load_u16(err.payload.data() + csum_off), 0);
  // The outer ICMP checksum still validates.
  EXPECT_NO_THROW(IcmpView::parse(err.payload.view()));
}

TEST(IcmpQuotePatchTest, SharedStorageTriggersCopyOnWrite) {
  Ipv4Packet translated = make_udp_packet(ip("8.0.0.1"), 62001, ip("9.0.0.2"),
                                          33434, /*with_checksum=*/true);
  Ipv4Packet err =
      make_icmp_error(translated, IcmpType::kTimeExceeded, 0, ip("8.0.0.2"));
  util::Buffer other = err.payload.share();
  auto q = icmp_error_quote(err);
  ASSERT_TRUE(q.has_value());
  const std::size_t copied = patch_icmp_quote_endpoint(
      err, *q, /*src_side=*/true, L4Endpoint{ip("10.0.0.2"), 5555},
      std::nullopt, ip("10.0.0.2"));
  EXPECT_EQ(copied, other.size());
  EXPECT_NE(err.payload.data(), other.data());
  // The sibling still reads the original external endpoint.
  auto orig = parse_ipv4_quote(other.view(), IcmpView::kQuoteOffset);
  ASSERT_TRUE(orig.has_value());
  EXPECT_EQ(orig->src.port, 62001);
}

// ---------------------------------------------------------------------------
// Traceroute through the NAT: TTL-exceeded and port-unreachable errors
// generated beyond the box are translated back hop by hop.
//
// inside (10.0.0.2) -- NAT (10.0.0.1 / 8.0.0.1) -- r1 (8.0.0.2 / 9.0.0.1)
//   -- outside (9.0.0.2)
// ---------------------------------------------------------------------------
struct TracerouteFixture : ::testing::TestWithParam<NatType> {
  Network net{23};
  Host* inside = nullptr;
  Host* r1 = nullptr;
  Host* outside = nullptr;
  NatBox* nat = nullptr;

  void SetUp() override {
    inside = &net.add_host("inside");
    r1 = &net.add_router("r1");
    outside = &net.add_host("outside");
    nat = &net.add_nat("nat", GetParam());
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    net.connect(inside->stack(), {"eth0", ip("10.0.0.2"), 24}, nat->stack(),
                {"in", ip("10.0.0.1"), 24}, link);
    net.connect(nat->stack(), {"out", ip("8.0.0.1"), 24}, r1->stack(),
                {"eth0", ip("8.0.0.2"), 24}, link);
    net.connect(r1->stack(), {"eth1", ip("9.0.0.1"), 24}, outside->stack(),
                {"eth0", ip("9.0.0.2"), 24}, link);
    inside->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0,
                              ip("10.0.0.1"));
    nat->stack().add_route(Ipv4Prefix::parse("9.0.0.0/24"), 1, ip("8.0.0.2"));
    outside->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0,
                               ip("9.0.0.1"));
  }
};

INSTANTIATE_TEST_SUITE_P(AllNatTypes, TracerouteFixture,
                         ::testing::Values(NatType::kFullCone,
                                           NatType::kRestrictedCone,
                                           NatType::kPortRestrictedCone,
                                           NatType::kSymmetric),
                         [](const auto& info) {
                           std::string n = nat_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(TracerouteFixture, EveryHopAnswersThroughTheNat) {
  Traceroute tr(inside->stack());
  Traceroute::Options opts;
  opts.max_ttl = 8;
  opts.probe_timeout = seconds(1);
  TracerouteResult res;
  bool done = false;
  tr.run(ip("9.0.0.2"), opts, [&](TracerouteResult r) {
    res = std::move(r);
    done = true;
  });
  net.loop().run_until(seconds(20));
  ASSERT_TRUE(done);
  ASSERT_EQ(res.hops.size(), 3u) << "NAT type " << nat_type_name(GetParam());
  // Hop 1: the NAT itself (error generated before translation).
  EXPECT_FALSE(res.hops[0].timed_out);
  EXPECT_EQ(res.hops[0].from, ip("10.0.0.1"));
  // Hop 2: the router beyond the NAT — only reachable via quote rewrite.
  EXPECT_FALSE(res.hops[1].timed_out);
  EXPECT_EQ(res.hops[1].from, ip("8.0.0.2"));
  // Hop 3: the destination's port-unreachable, equally translated.
  EXPECT_TRUE(res.reached);
  EXPECT_EQ(res.hops[2].from, ip("9.0.0.2"));
  // Two errors originated beyond the box and were rewritten in place.
  EXPECT_EQ(nat->stats().icmp_errors_translated_in, 2u);
  EXPECT_EQ(nat->stats().rewrite_bytes_copied, 0u);
  EXPECT_GE(inside->stack().counters().icmp_errors_delivered, 3u);
}

TEST_P(TracerouteFixture, EchoFlowErrorsAreTranslatedToo) {
  // Ping-flavoured traceroute: a TTL-limited echo request dies beyond
  // the NAT.  The error quotes the echo with the *rewritten* query id in
  // its port slot, so the related-flow match must go per destination IP
  // (like inbound_allowed) — matching the recorded inside id would
  // orphan every echo-flow error.
  int errors = 0;
  inside->stack().set_icmp_error_handler(
      [&](Ipv4Address, const IcmpView&) { ++errors; });
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kIcmp;
  pkt.hdr.ttl = 2;  // expires at r1, one hop beyond the NAT
  pkt.hdr.dst = ip("9.0.0.2");
  pkt.payload =
      icmp_onto(buf({1, 2, 3, 4}), IcmpType::kEchoRequest, 0, 321, 1);
  inside->stack().send_ip(std::move(pkt));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(nat->stats().icmp_errors_translated_in, 1u);
  EXPECT_EQ(nat->stats().icmp_errors_orphaned, 0u);
}

TEST_P(TracerouteFixture, RestoresDisplacedIcmpErrorHandler) {
  // A tool that takes the stack's single error-handler slot over must
  // hand it back: the application's PMTU/unreachable handling would
  // otherwise go silent after the first trace.
  int app_errors = 0;
  inside->stack().set_icmp_error_handler(
      [&](Ipv4Address, const IcmpView&) { ++app_errors; });
  Traceroute tr(inside->stack());
  bool done = false;
  tr.run(ip("9.0.0.2"), {}, [&](TracerouteResult) { done = true; });
  net.loop().run_until(seconds(20));
  ASSERT_TRUE(done);
  EXPECT_EQ(app_errors, 0);  // suppressed while the trace owned the slot

  // A fresh unreachable (closed port beyond the NAT) lands in the
  // restored application handler.
  Ipv4Packet probe;
  probe.hdr.proto = IpProto::kUdp;
  probe.hdr.dst = ip("9.0.0.2");
  probe.payload = udp_wire(50000, 9998, {});
  inside->stack().send_ip(std::move(probe));
  net.loop().run_until(seconds(25));
  EXPECT_EQ(app_errors, 1);
}

TEST_P(TracerouteFixture, OrphanIcmpErrorsAreDropped) {
  // An error quoting a flow this NAT never translated must not cross.
  Ipv4Packet translated = make_udp_packet(ip("8.0.0.1"), 40000, ip("9.0.0.2"),
                                          33434, /*with_checksum=*/true);
  Ipv4Packet err =
      make_icmp_error(translated, IcmpType::kTimeExceeded, 0, ip("9.0.0.2"));
  err.hdr.src = Ipv4Address{};  // filled by send_ip
  outside->stack().send_ip(std::move(err));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(nat->stats().icmp_errors_orphaned, 1u);
  EXPECT_EQ(inside->stack().counters().icmp_errors_delivered, 0u);
}

// ---------------------------------------------------------------------------
// TCP lifecycle-aware NAT mappings
// ---------------------------------------------------------------------------
struct NatTcpFixture : ::testing::Test {
  Network net{24};
  Host* inside = nullptr;
  Host* outside = nullptr;
  NatBox* nat = nullptr;
  std::shared_ptr<TcpListener> listener;
  std::shared_ptr<TcpSocket> server;
  std::uint16_t ext_port = 0;

  void SetUp() override {
    inside = &net.add_host("inside");
    outside = &net.add_host("outside");
    NatConfig ncfg;
    ncfg.sweep_interval = seconds(1);
    ncfg.timeouts.tcp_time_wait = seconds(5);
    ncfg.timeouts.tcp_closed = seconds(2);
    // A single allocatable TCP/UDP external port: teardown must release
    // it before any new flow can map.
    ncfg.first_ext_port = 65535;
    nat = &net.add_nat("nat", NatType::kPortRestrictedCone, {}, ncfg);
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    net.connect(inside->stack(), {"eth0", ip("10.0.0.2"), 24}, nat->stack(),
                {"in", ip("10.0.0.1"), 24}, link);
    net.connect(nat->stack(), {"out", ip("8.0.0.1"), 24}, outside->stack(),
                {"eth0", ip("8.0.0.2"), 24}, link);
    inside->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0,
                              ip("10.0.0.1"));
    listener = outside->stack().tcp_listen(80);
    listener->set_accept_handler([this](std::shared_ptr<TcpSocket> s) {
      server = s;
      ext_port = s->remote_port();  // the NAT's external port
    });
  }
};

TEST_F(NatTcpFixture, EstablishedMappingOutlivesUdpIdleTimer) {
  auto client = inside->stack().tcp_connect(ip("8.0.0.2"), 80);
  ASSERT_NE(client, nullptr);
  bool connected = false;
  client->on_connected = [&] { connected = true; };
  net.loop().run_until(seconds(2));
  ASSERT_TRUE(connected);
  ASSERT_NE(ext_port, 0);
  EXPECT_EQ(nat->tcp_state_of(ext_port), CtTcpState::kEstablished);

  // Idle far past the 60 s one-size timer that used to kill TCP flows.
  net.loop().run_until(seconds(120));
  EXPECT_EQ(nat->mapping_count(), 1u);
  EXPECT_EQ(nat->stats().mappings_expired, 0u);
  EXPECT_EQ(nat->tcp_state_of(ext_port), CtTcpState::kEstablished);

  // The flow still carries data both ways after the long idle.
  std::vector<std::uint8_t> got;
  server->on_readable = [&] {
    auto chunk = server->receive(4096);
    got.insert(got.end(), chunk.begin(), chunk.end());
  };
  client->send(util::Buffer::copy_of(std::vector<std::uint8_t>{1, 2, 3}));
  net.loop().run_until(seconds(125));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(NatTcpFixture, FinTeardownReclaimsPortWithinTimeWait) {
  auto client = inside->stack().tcp_connect(ip("8.0.0.2"), 80);
  ASSERT_NE(client, nullptr);
  net.loop().run_until(seconds(2));
  ASSERT_NE(ext_port, 0);
  ASSERT_EQ(nat->mapping_count(), 1u);

  // Graceful close from both ends: FIN out, FIN-ACK back.
  server->on_readable = [this] {
    if (server->eof()) server->close();
  };
  client->close();
  net.loop().run_until(seconds(4));
  EXPECT_EQ(nat->tcp_state_of(ext_port), CtTcpState::kTimeWait);
  EXPECT_EQ(nat->mapping_count(), 1u);  // TIME_WAIT holds the port briefly

  // Reclaimed within the TIME_WAIT budget (5 s) + one sweep, far below
  // the established timeout — and the external port is usable again.
  net.loop().run_until(seconds(12));
  EXPECT_EQ(nat->mapping_count(), 0u);
  EXPECT_GE(nat->stats().mappings_expired, 1u);

  server.reset();
  ext_port = 0;
  auto client2 = inside->stack().tcp_connect(ip("8.0.0.2"), 80);
  ASSERT_NE(client2, nullptr);
  bool connected2 = false;
  client2->on_connected = [&] { connected2 = true; };
  net.loop().run_until(seconds(20));
  EXPECT_TRUE(connected2);
  EXPECT_EQ(ext_port, 65535);  // the reclaimed port, handed out again
  EXPECT_EQ(nat->stats().dropped_port_exhausted, 0u);
}

TEST_F(NatTcpFixture, RstTeardownReclaimsPortEarly) {
  auto client = inside->stack().tcp_connect(ip("8.0.0.2"), 80);
  ASSERT_NE(client, nullptr);
  net.loop().run_until(seconds(2));
  ASSERT_EQ(nat->mapping_count(), 1u);

  client->abort();  // RST crosses the NAT
  net.loop().run_until(seconds(3));
  EXPECT_EQ(nat->tcp_state_of(ext_port), CtTcpState::kClosed);
  // Reclaimed within the CLOSED budget (2 s) + one sweep.
  net.loop().run_until(seconds(7));
  EXPECT_EQ(nat->mapping_count(), 0u);
  EXPECT_GE(nat->stats().mappings_expired, 1u);
}

TEST_F(NatTcpFixture, ForgedIcmpErrorQuotingUncontactedDestinationDropped) {
  // An off-path forger who guessed the live external port still cannot
  // name a destination the mapping never contacted.
  auto server_sock = outside->stack().udp_bind(7000);
  server_sock->set_receive_handler(
      [](Ipv4Address, std::uint16_t, util::Buffer) {});
  auto client = inside->stack().udp_bind(5555);
  client->send_to(ip("8.0.0.2"), 7000, buf({1}));
  net.loop().run_until(seconds(1));
  ASSERT_EQ(nat->mapping_count(), 1u);  // ext port 65535

  Ipv4Packet forged_quote = make_udp_packet(
      ip("8.0.0.1"), 65535, ip("9.9.9.9"), 1234, /*with_checksum=*/true);
  Ipv4Packet err = make_icmp_error(forged_quote, IcmpType::kDestUnreachable,
                                   3, ip("8.0.0.2"));
  outside->stack().send_ip(std::move(err));
  net.loop().run_until(seconds(3));
  EXPECT_GE(nat->stats().icmp_errors_orphaned, 1u);
  EXPECT_EQ(inside->stack().counters().icmp_errors_delivered, 0u);
}

TEST_F(NatTcpFixture, ZeroUdpChecksumSurvivesNatRewrite) {
  // Regression (RFC 768): a checksum-0 datagram crossing the NAT must
  // arrive with checksum 0, not an incremental update of 0.  The socket
  // path emits checksum-0 datagrams; sniff the wire at the receiver.
  auto server_sock = outside->stack().udp_bind(7000);
  int received = 0;
  server_sock->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {
        ++received;
      });
  std::vector<std::uint16_t> seen_checksums;
  outside->stack().set_prerouting_hook(
      [&](Ipv4Packet& pkt, std::size_t) {
        if (pkt.hdr.proto == IpProto::kUdp) {
          seen_checksums.push_back(UdpView::parse(pkt.payload.view()).checksum);
        }
        return true;
      });
  auto client = inside->stack().udp_bind(5555);
  client->send_to(ip("8.0.0.2"), 7000, buf({1, 2, 3}));
  net.loop().run_until(seconds(2));
  ASSERT_EQ(received, 1);
  ASSERT_EQ(seen_checksums.size(), 1u);
  EXPECT_EQ(seen_checksums[0], 0);  // "no checksum" preserved end to end

  // And a datagram carrying a real checksum still validates post-rewrite.
  Ipv4Packet pkt =
      make_udp_packet(ip("10.0.0.2"), 5555, ip("8.0.0.2"), 7000,
                      /*with_checksum=*/true);
  inside->stack().send_ip(std::move(pkt));
  net.loop().run_until(seconds(4));
  ASSERT_EQ(seen_checksums.size(), 2u);
  EXPECT_NE(seen_checksums[1], 0);
  EXPECT_EQ(received, 2);  // receiver validated the updated checksum
}
struct FirewallFixture : ::testing::Test {
  Network net{31};
  Host* in_host = nullptr;
  Host* out_host = nullptr;
  Firewall* fw = nullptr;

  void SetUp() override {
    in_host = &net.add_host("in");
    out_host = &net.add_host("out");
    fw = &net.add_firewall("fw");
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    net.connect(in_host->stack(), {"eth0", ip("192.168.0.2"), 24}, fw->stack(),
                {"in", ip("192.168.0.1"), 24}, link);
    net.connect(fw->stack(), {"out", ip("8.1.0.1"), 24}, out_host->stack(),
                {"eth0", ip("8.1.0.2"), 24}, link);
    in_host->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0,
                               ip("192.168.0.1"));
    out_host->stack().add_route(Ipv4Prefix::parse("192.168.0.0/24"), 0,
                                ip("8.1.0.1"));
  }
};

TEST_F(FirewallFixture, OutboundAllowedRepliesTracked) {
  auto server = out_host->stack().udp_bind(5000);
  server->set_receive_handler(
      [&](Ipv4Address src, std::uint16_t sport, util::Buffer d) {
        server->send_to(src, sport, std::move(d));
      });
  auto client = in_host->stack().udp_bind(0);
  int got = 0;
  client->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++got; });
  client->send_to(ip("8.1.0.2"), 5000, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(got, 1);
  EXPECT_GE(fw->stats().allowed_in_established, 1u);
}

TEST_F(FirewallFixture, UnsolicitedInboundBlocked) {
  auto server = in_host->stack().udp_bind(5000);
  int got = 0;
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++got; });
  auto probe = out_host->stack().udp_bind(0);
  probe->send_to(ip("192.168.0.2"), 5000, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(got, 0);
  EXPECT_GE(fw->stats().blocked_in, 1u);
}

TEST_F(FirewallFixture, InboundRulePuncturesFirewall) {
  FirewallRule ssh;
  ssh.proto = IpProto::kTcp;
  ssh.dst_port = 22;
  fw->allow_inbound(ssh);
  auto listener = in_host->stack().tcp_listen(22);
  bool accepted = false;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket>) { accepted = true; });
  auto client = out_host->stack().tcp_connect(ip("192.168.0.2"), 22);
  net.loop().run_until(seconds(5));
  EXPECT_TRUE(accepted);
  // But a different port stays closed.
  bool connected80 = false;
  auto c80 = out_host->stack().tcp_connect(ip("192.168.0.2"), 80,
                                           TcpConfig{.syn_retries = 2});
  c80->on_connected = [&] { connected80 = true; };
  net.loop().run_until(seconds(60));
  EXPECT_FALSE(connected80);
}

TEST_F(FirewallFixture, OutboundDefaultDenyWithAllowList) {
  fw->set_outbound_default(FwAction::kDeny);
  FirewallRule to5000;
  to5000.proto = IpProto::kUdp;
  to5000.dst_port = 5000;
  fw->add_outbound_rule(FwAction::kAllow, to5000);
  auto s5000 = out_host->stack().udp_bind(5000);
  auto s6000 = out_host->stack().udp_bind(6000);
  int got5000 = 0, got6000 = 0;
  s5000->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++got5000; });
  s6000->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++got6000; });
  auto client = in_host->stack().udp_bind(0);
  client->send_to(ip("8.1.0.2"), 5000, buf({1}));
  client->send_to(ip("8.1.0.2"), 6000, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(got5000, 1);
  EXPECT_EQ(got6000, 0);
  EXPECT_GE(fw->stats().blocked_out, 1u);
}

// ---------------------------------------------------------------------------
// Firewall conntrack: bounded state, TCP lifecycle, related-flow admission
// ---------------------------------------------------------------------------
struct FirewallConntrackFixture : ::testing::Test {
  Network net{32};
  Host* in_host = nullptr;
  Host* out_host = nullptr;
  Firewall* fw = nullptr;

  void SetUp() override {
    in_host = &net.add_host("in");
    out_host = &net.add_host("out");
    FirewallConfig fwcfg;
    fwcfg.timeouts.udp_idle = seconds(3);
    fwcfg.timeouts.tcp_time_wait = seconds(3);
    fwcfg.sweep_interval = seconds(1);
    fw = &net.add_firewall("fw", {}, fwcfg);
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    net.connect(in_host->stack(), {"eth0", ip("192.168.0.2"), 24}, fw->stack(),
                {"in", ip("192.168.0.1"), 24}, link);
    net.connect(fw->stack(), {"out", ip("8.1.0.1"), 24}, out_host->stack(),
                {"eth0", ip("8.1.0.2"), 24}, link);
    in_host->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0,
                               ip("192.168.0.1"));
    out_host->stack().add_route(Ipv4Prefix::parse("192.168.0.0/24"), 0,
                                ip("8.1.0.1"));
  }
};

TEST_F(FirewallConntrackFixture, IdleEntriesExpireAndTableStaysBounded) {
  // Regression: conntrack_ used to grow without bound — no entry ever
  // expired, so a long-lived firewall accumulated one entry per flow
  // forever.
  auto server = out_host->stack().udp_bind(5000);
  server->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) {});
  auto client = in_host->stack().udp_bind(6000);
  client->send_to(ip("8.1.0.2"), 5000, buf({1}));
  net.loop().run_until(seconds(1));
  EXPECT_EQ(fw->conntrack_count(), 1u);

  // Idle past the UDP budget: the sweep reclaims the entry.
  net.loop().run_until(seconds(10));
  EXPECT_EQ(fw->conntrack_count(), 0u);
  const FwStats& st = fw->stats();
  EXPECT_GE(st.conntrack_expired, 1u);

  // A late "reply" no longer matches established state.
  const auto blocked_before = fw->stats().blocked_in;
  server->send_to(ip("192.168.0.2"), 6000, buf({2}));
  net.loop().run_until(seconds(12));
  EXPECT_EQ(fw->stats().blocked_in, blocked_before + 1);
}

TEST_F(FirewallConntrackFixture, TcpEntryFollowsLifecycleNotIdleTimer) {
  auto listener = in_host->stack().tcp_listen(22);
  std::shared_ptr<TcpSocket> server;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket> s) { server = std::move(s); });
  FirewallRule ssh;
  ssh.proto = IpProto::kTcp;
  ssh.dst_port = 22;
  fw->allow_inbound(ssh);

  auto client = out_host->stack().tcp_connect(ip("192.168.0.2"), 22);
  ASSERT_NE(client, nullptr);
  net.loop().run_until(seconds(2));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(fw->conntrack_count(), 1u);

  // Established TCP outlives the (short) UDP idle budget.
  net.loop().run_until(seconds(20));
  EXPECT_EQ(fw->conntrack_count(), 1u);

  // FIN/FIN-ACK teardown: the entry dies within the TIME_WAIT budget.
  server->on_readable = [&] {
    if (server->eof()) server->close();
  };
  client->close();
  net.loop().run_until(seconds(22));
  net.loop().run_until(seconds(30));
  EXPECT_EQ(fw->conntrack_count(), 0u);
  EXPECT_GE(fw->stats().conntrack_expired, 1u);
}

TEST_F(FirewallConntrackFixture, FreshSynNeverRidesATrackedEntry) {
  // Regression: an inbound SYN matching a tracked tuple used to bypass
  // the inbound rule chain and even *restart* the entry's lifecycle — a
  // renewable hole through a default-deny firewall.
  auto listener = out_host->stack().tcp_listen(5000);
  std::shared_ptr<TcpSocket> server;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket> s) { server = std::move(s); });
  auto client = in_host->stack().tcp_connect(ip("8.1.0.2"), 5000);
  ASSERT_NE(client, nullptr);
  net.loop().run_until(seconds(2));
  ASSERT_NE(server, nullptr);
  const std::uint16_t client_port = client->local_port();
  ASSERT_EQ(fw->conntrack_count(), 1u);

  auto send_bare_syn = [&] {
    TcpSegment syn;
    syn.src_port = 5000;
    syn.dst_port = client_port;
    syn.seq = 777;
    syn.flags.syn = true;
    syn.window = 65535;
    Ipv4Packet pkt;
    pkt.hdr.proto = IpProto::kTcp;
    pkt.hdr.src = ip("8.1.0.2");
    pkt.hdr.dst = ip("192.168.0.2");
    pkt.payload = tcp_wire(syn, {}, pkt.hdr.src, pkt.hdr.dst);
    out_host->stack().send_ip(std::move(pkt));
  };

  // On the live flow: the SYN is invalid — blocked, state untouched.
  const auto blocked_live = fw->stats().blocked_in;
  send_bare_syn();
  net.loop().run_until(seconds(3));
  EXPECT_EQ(fw->stats().blocked_in, blocked_live + 1);
  EXPECT_EQ(fw->conntrack_count(), 1u);

  // After teardown (entry dying in TIME_WAIT): the SYN drops the dead
  // entry and must then pass the inbound chain — which has no rule.
  server->on_readable = [&] {
    if (server->eof()) server->close();
  };
  client->close();
  net.loop().run_until(seconds(4));
  const auto blocked_dead = fw->stats().blocked_in;
  send_bare_syn();
  net.loop().run_until(seconds(5));
  EXPECT_EQ(fw->stats().blocked_in, blocked_dead + 1);
  EXPECT_EQ(fw->conntrack_count(), 0u);  // not resurrected
}

TEST_F(FirewallConntrackFixture, RelatedIcmpErrorAdmittedForTrackedFlow) {
  // The inside host probes a closed UDP port; the destination's
  // port-unreachable is inbound at the firewall and carries no tracked
  // 5-tuple of its own — it must pass on the strength of its quote.
  auto client = in_host->stack().udp_bind(6000);
  client->send_to(ip("8.1.0.2"), 9999, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_GE(fw->stats().allowed_related, 1u);
  EXPECT_EQ(in_host->stack().counters().icmp_errors_delivered, 1u);
}

TEST_F(FirewallConntrackFixture, UnrelatedIcmpErrorBlocked) {
  // An error quoting a flow the firewall never saw is dropped.
  Ipv4Packet quoted = make_udp_packet(ip("192.168.0.2"), 1234, ip("8.1.0.2"),
                                      9999, /*with_checksum=*/true);
  Ipv4Packet err =
      make_icmp_error(quoted, IcmpType::kDestUnreachable, 3, ip("8.1.0.2"));
  const auto blocked_before = fw->stats().blocked_in;
  out_host->stack().send_ip(std::move(err));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(fw->stats().blocked_in, blocked_before + 1);
  EXPECT_EQ(in_host->stack().counters().icmp_errors_delivered, 0u);
}

// ---------------------------------------------------------------------------
// Figure-4 testbed reachability
// ---------------------------------------------------------------------------
struct Fig4Fixture : ::testing::Test {
  Fig4Testbed tb = build_fig4();

  int ping_once(Host& from, Ipv4Address to) {
    Pinger pinger(from.stack());
    Pinger::Options opts;
    opts.count = 3;
    opts.interval = milliseconds(50);
    opts.timeout = seconds(1);
    int received = -1;
    pinger.run(to, opts, [&](PingResult r) { received = r.received; });
    tb.net->loop().run_until(tb.net->loop().now() + seconds(10));
    return received;
  }
};

TEST_F(Fig4Fixture, LanPingF2toF4) {
  EXPECT_EQ(ping_once(*tb.f2, tb.f4_lan_ip), 3);
}

TEST_F(Fig4Fixture, LanRttMatchesPaperBallpark) {
  Pinger pinger(tb.f2->stack());
  Pinger::Options opts;
  opts.count = 100;
  opts.interval = milliseconds(10);
  opts.timeout = seconds(1);
  PingResult res;
  pinger.run(tb.f4_lan_ip, opts, [&](PingResult r) { res = std::move(r); });
  tb.net->loop().run_until(seconds(30));
  ASSERT_EQ(res.received, 100);
  // Paper Table I physical LAN RTT: 0.625-0.898 ms.
  EXPECT_GT(res.rtts_ms.mean(), 0.3);
  EXPECT_LT(res.rtts_ms.mean(), 1.2);
}

TEST_F(Fig4Fixture, WanPingF4toV1MatchesPaperBallpark) {
  Pinger pinger(tb.f4->stack());
  Pinger::Options opts;
  opts.count = 100;
  opts.interval = milliseconds(20);
  opts.timeout = seconds(2);
  PingResult res;
  pinger.run(tb.v1_ip, opts, [&](PingResult r) { res = std::move(r); });
  tb.net->loop().run_until(seconds(60));
  // V1 is firewalled: ICMP echo from F4 creates state outbound... but the
  // request is *inbound* at VFW, so it must be blocked.
  EXPECT_EQ(res.received, 0);
}

TEST_F(Fig4Fixture, V1CanPingOutToF4) {
  Pinger pinger(tb.v1->stack());
  Pinger::Options opts;
  opts.count = 100;
  opts.interval = milliseconds(20);
  opts.timeout = seconds(2);
  PingResult res;
  pinger.run(tb.f4_pub_ip, opts, [&](PingResult r) { res = std::move(r); });
  tb.net->loop().run_until(seconds(60));
  ASSERT_EQ(res.received, 100);
  // Paper Table I physical WAN RTT: 34.5-38.8 ms.
  EXPECT_GT(res.rtts_ms.mean(), 30.0);
  EXPECT_LT(res.rtts_ms.mean(), 42.0);
}

TEST_F(Fig4Fixture, F2BehindNatCanReachPublicF3) {
  EXPECT_EQ(ping_once(*tb.f2, tb.f3_ip), 3);
}

TEST_F(Fig4Fixture, OutsideCannotReachNattedF2) {
  EXPECT_EQ(ping_once(*tb.f3, tb.f2_ip), 0);
}

TEST_F(Fig4Fixture, F3CanSshIntoV1AndL1) {
  for (Host* target : {tb.v1, tb.l1}) {
    auto listener = target->stack().tcp_listen(22);
    bool accepted = false;
    listener->set_accept_handler(
        [&](std::shared_ptr<TcpSocket>) { accepted = true; });
    auto client = tb.f3->stack().tcp_connect(
        target->stack().interface_ip(0), 22);
    tb.net->loop().run_until(tb.net->loop().now() + seconds(10));
    EXPECT_TRUE(accepted) << target->name();
  }
}

TEST_F(Fig4Fixture, F4CannotSshIntoV1) {
  auto listener = tb.v1->stack().tcp_listen(22);
  bool accepted = false;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket>) { accepted = true; });
  auto client =
      tb.f4->stack().tcp_connect(tb.v1_ip, 22, TcpConfig{.syn_retries = 2});
  tb.net->loop().run_until(seconds(60));
  EXPECT_FALSE(accepted);
}

TEST_F(Fig4Fixture, L1OutboundRestrictedToF3) {
  // L1 -> F3 allowed.
  auto l3 = tb.f3->stack().tcp_listen(7777);
  bool to_f3 = false;
  l3->set_accept_handler([&](std::shared_ptr<TcpSocket>) { to_f3 = true; });
  auto c1 = tb.l1->stack().tcp_connect(tb.f3_ip, 7777);
  // L1 -> F4 blocked by LFW outbound policy.
  auto l4 = tb.f4->stack().tcp_listen(7777);
  bool to_f4 = false;
  l4->set_accept_handler([&](std::shared_ptr<TcpSocket>) { to_f4 = true; });
  auto c2 = tb.l1->stack().tcp_connect(tb.f4_pub_ip, 7777,
                                       TcpConfig{.syn_retries = 2});
  tb.net->loop().run_until(seconds(60));
  EXPECT_TRUE(to_f3);
  EXPECT_FALSE(to_f4);
}

}  // namespace
}  // namespace ipop::net
