// Integration tests for the host stack: ARP, ICMP echo, UDP sockets,
// routing/forwarding, TTL, MTU, ping tool.
#include <gtest/gtest.h>

#include "net/ping.hpp"
#include "net/topology.hpp"
#include "wire_builders.hpp"

namespace ipop::net {
namespace {

using test::buf;
using test::tcp_wire;
using test::udp_wire;

using util::milliseconds;
using util::seconds;

Ipv4Address ip(const char* s) { return Ipv4Address::parse(s); }

/// Two hosts on one switch.
struct LanFixture : ::testing::Test {
  Network net{1};
  Host* a = nullptr;
  Host* b = nullptr;

  void SetUp() override {
    auto& sw = net.add_switch("sw");
    a = &net.add_host("a");
    b = &net.add_host("b");
    sim::LinkConfig lan;
    lan.delay = util::microseconds(50);
    net.connect_to_switch(a->stack(), {"eth0", ip("10.0.0.1"), 24}, sw, lan);
    net.connect_to_switch(b->stack(), {"eth0", ip("10.0.0.2"), 24}, sw, lan);
  }
};

TEST_F(LanFixture, ArpResolutionThenEcho) {
  int replies = 0;
  a->stack().set_echo_reply_handler(
      [&](Ipv4Address src, const IcmpView&) {
        EXPECT_EQ(src, ip("10.0.0.2"));
        ++replies;
      });
  a->stack().send_echo_request(ip("10.0.0.2"), 1, 1);
  net.loop().run_until(seconds(2));
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(b->stack().counters().icmp_echo_replied, 1u);
}

TEST_F(LanFixture, SecondEchoSkipsArp) {
  int replies = 0;
  a->stack().set_echo_reply_handler(
      [&](Ipv4Address, const IcmpView&) { ++replies; });
  a->stack().send_echo_request(ip("10.0.0.2"), 1, 1);
  net.loop().run_until(seconds(1));
  const auto t0 = net.loop().now();
  a->stack().send_echo_request(ip("10.0.0.2"), 1, 2);
  net.loop().run_until(t0 + milliseconds(100));
  EXPECT_EQ(replies, 2);
}

TEST_F(LanFixture, ArpForUnknownHostFailsAfterRetries) {
  a->stack().send_echo_request(ip("10.0.0.99"), 1, 1);
  net.loop().run_until(seconds(10));
  EXPECT_EQ(a->stack().counters().dropped_arp_fail, 1u);
}

TEST_F(LanFixture, UdpDelivery) {
  auto rx = b->stack().udp_bind(5000);
  ASSERT_NE(rx, nullptr);
  util::Buffer got;
  Ipv4Address got_src;
  std::uint16_t got_port = 0;
  rx->set_receive_handler(
      [&](Ipv4Address src, std::uint16_t sport, util::Buffer d) {
        got_src = src;
        got_port = sport;
        got = std::move(d);
      });
  auto tx = a->stack().udp_bind(0);
  ASSERT_NE(tx, nullptr);
  EXPECT_GE(tx->port(), 32768);
  tx->send_to(ip("10.0.0.2"), 5000, buf({1, 2, 3}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(got.view(), buf({1, 2, 3}).view());
  EXPECT_EQ(got_src, ip("10.0.0.1"));
  EXPECT_EQ(got_port, tx->port());
}

TEST_F(LanFixture, UdpBidirectional) {
  auto sa = a->stack().udp_bind(1000);
  auto sb = b->stack().udp_bind(2000);
  int a_got = 0, b_got = 0;
  sa->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++a_got; });
  sb->set_receive_handler(
      [&](Ipv4Address src, std::uint16_t sport, util::Buffer) {
        ++b_got;
        sb->send_to(src, sport, buf({42}));
      });
  sa->send_to(ip("10.0.0.2"), 2000, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a_got, 1);
}

TEST_F(LanFixture, UdpToClosedPortTriggersIcmpUnreachable) {
  int errors = 0;
  a->stack().set_icmp_error_handler(
      [&](Ipv4Address, const IcmpView& msg) {
        EXPECT_EQ(msg.type, IcmpType::kDestUnreachable);
        EXPECT_EQ(msg.code, 3);
        ++errors;
      });
  auto tx = a->stack().udp_bind(0);
  tx->send_to(ip("10.0.0.2"), 4444, buf({1}));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(errors, 1);
}

TEST_F(LanFixture, UdpBadChecksumDroppedGoodChecksumDelivered) {
  auto rx = b->stack().udp_bind(5000);
  int got = 0;
  rx->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++got; });
  auto send = [&](util::Buffer datagram) {
    Ipv4Packet pkt;
    pkt.hdr.proto = IpProto::kUdp;
    pkt.hdr.src = ip("10.0.0.1");
    pkt.hdr.dst = ip("10.0.0.2");
    pkt.payload = std::move(datagram);
    a->stack().send_ip(std::move(pkt));
  };

  // A datagram with a valid pseudo-header checksum is delivered.
  send(udp_wire(4000, 5000, {1, 2, 3}, ip("10.0.0.1"), ip("10.0.0.2")));
  net.loop().run_until(seconds(1));
  EXPECT_EQ(got, 1);

  // The same datagram with a corrupted nonzero checksum is dropped and
  // counted — it must not be silently accepted as it used to be.
  auto bad = udp_wire(4000, 5000, {1, 2, 3}, ip("10.0.0.1"), ip("10.0.0.2"));
  bad[6] ^= 0x5A;
  const auto dropped_before = b->stack().counters().dropped_checksum;
  send(std::move(bad));
  net.loop().run_until(seconds(2));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(b->stack().counters().dropped_checksum, dropped_before + 1);

  // Checksum 0 means "not computed" (RFC 768): delivered unvalidated,
  // even though the bytes would not sum to a valid checksum.
  const auto zero = udp_wire(4000, 5000, {0xFF, 0x00, 0xFF});
  ASSERT_NE(transport_checksum(ip("10.0.0.1"), ip("10.0.0.2"), IpProto::kUdp,
                               zero.as_span()),
            0);
  send(zero.share());
  net.loop().run_until(seconds(3));
  EXPECT_EQ(got, 2);
  EXPECT_EQ(b->stack().counters().dropped_checksum, dropped_before + 1);
}

TEST_F(LanFixture, TcpChecksumFailuresDroppedBeforeSocketOrListener) {
  auto listener = b->stack().tcp_listen(80);
  std::shared_ptr<TcpSocket> server;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket> s) { server = std::move(s); });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  net.loop().run_until(seconds(1));
  ASSERT_NE(server, nullptr);

  auto inject = [&](util::Buffer segment) {
    Ipv4Packet pkt;
    pkt.hdr.proto = IpProto::kTcp;
    pkt.hdr.src = ip("10.0.0.1");
    pkt.hdr.dst = ip("10.0.0.2");
    pkt.payload = std::move(segment);
    a->stack().send_ip(std::move(pkt));
    net.loop().run_until(net.loop().now() + milliseconds(100));
  };
  const StackCounters& c = b->stack().counters();
  const auto tx0 = c.ip_tx;
  const auto received0 = server->stats().segments_received;
  auto dropped = c.dropped_parse;

  // A data segment on the open connection and a SYN for the listener.
  TcpSegment data;
  data.src_port = client->local_port();
  data.dst_port = 80;
  data.seq = 12345;
  data.flags.ack = true;
  TcpSegment syn;
  syn.src_port = 40000;
  syn.dst_port = 80;
  syn.flags.syn = true;
  for (const TcpSegment& hdr : {data, syn}) {
    auto corrupted = tcp_wire(hdr, {1, 2, 3}, ip("10.0.0.1"), ip("10.0.0.2"));
    corrupted[TcpView::kChecksumOffset] ^= 0x5A;
    inject(std::move(corrupted));
    EXPECT_EQ(c.dropped_parse, ++dropped);
    // Sound bytes, but summed over a pseudo-header with the wrong dst.
    inject(tcp_wire(hdr, {1, 2, 3}, ip("10.0.0.1"), ip("10.0.0.3")));
    EXPECT_EQ(c.dropped_parse, ++dropped);
  }
  // Neither reached the socket or the listener: nothing was answered.
  EXPECT_EQ(server->stats().segments_received, received0);
  EXPECT_EQ(c.ip_tx, tx0);

  // Control: the same SYN, soundly summed, reaches the listener, which
  // answers with a SYN-ACK.
  inject(tcp_wire(syn, {}, ip("10.0.0.1"), ip("10.0.0.2")));
  EXPECT_EQ(c.dropped_parse, dropped);
  EXPECT_GT(c.ip_tx, tx0);
}

TEST_F(LanFixture, DuplicateUdpBindRejected) {
  auto s1 = a->stack().udp_bind(7000);
  auto s2 = a->stack().udp_bind(7000);
  EXPECT_NE(s1, nullptr);
  EXPECT_EQ(s2, nullptr);
  s1->close();
  auto s3 = a->stack().udp_bind(7000);
  EXPECT_NE(s3, nullptr);
}

TEST_F(LanFixture, LoopbackDelivery) {
  auto rx = a->stack().udp_bind(6000);
  int got = 0;
  rx->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++got; });
  auto tx = a->stack().udp_bind(0);
  tx->send_to(ip("10.0.0.1"), 6000, buf({1}));
  net.loop().run_until(seconds(1));
  EXPECT_EQ(got, 1);
}

TEST_F(LanFixture, PingToolCollectsStats) {
  Pinger pinger(a->stack());
  Pinger::Options opts;
  opts.count = 20;
  opts.interval = milliseconds(10);
  opts.timeout = milliseconds(500);
  PingResult result;
  bool done = false;
  pinger.run(ip("10.0.0.2"), opts, [&](PingResult r) {
    result = std::move(r);
    done = true;
  });
  net.loop().run_until(seconds(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(result.sent, 20);
  EXPECT_EQ(result.received, 20);
  EXPECT_EQ(result.loss_fraction(), 0.0);
  // LAN RTT should be sub-millisecond with defaults.
  EXPECT_GT(result.rtts_ms.mean(), 0.0);
  EXPECT_LT(result.rtts_ms.mean(), 1.0);
}

/// a -- r1 -- r2 -- b  (two routers in line)
struct RoutedFixture : ::testing::Test {
  Network net{2};
  Host* a = nullptr;
  Host* b = nullptr;
  Host* r1 = nullptr;
  Host* r2 = nullptr;

  void SetUp() override {
    a = &net.add_host("a");
    b = &net.add_host("b");
    r1 = &net.add_router("r1");
    r2 = &net.add_router("r2");
    sim::LinkConfig link;
    link.delay = milliseconds(1);
    net.connect(a->stack(), {"eth0", ip("10.1.0.1"), 24}, r1->stack(),
                {"west", ip("10.1.0.254"), 24}, link);
    net.connect(r1->stack(), {"east", ip("10.2.0.1"), 24}, r2->stack(),
                {"west", ip("10.2.0.2"), 24}, link);
    net.connect(r2->stack(), {"east", ip("10.3.0.254"), 24}, b->stack(),
                {"eth0", ip("10.3.0.1"), 24}, link);
    a->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0, ip("10.1.0.254"));
    b->stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0, ip("10.3.0.254"));
    r1->stack().add_route(Ipv4Prefix::parse("10.3.0.0/24"), 1, ip("10.2.0.2"));
    r2->stack().add_route(Ipv4Prefix::parse("10.1.0.0/24"), 0, ip("10.2.0.1"));
  }
};

TEST_F(RoutedFixture, EndToEndEchoAcrossRouters) {
  int replies = 0;
  a->stack().set_echo_reply_handler(
      [&](Ipv4Address, const IcmpView&) { ++replies; });
  a->stack().send_echo_request(ip("10.3.0.1"), 9, 1);
  net.loop().run_until(seconds(5));
  EXPECT_EQ(replies, 1);
  EXPECT_GE(r1->stack().counters().forwarded, 2u);  // request + reply
  EXPECT_GE(r2->stack().counters().forwarded, 2u);
}

TEST_F(RoutedFixture, RttReflectsLinkDelays) {
  Pinger pinger(a->stack());
  Pinger::Options opts;
  opts.count = 5;
  opts.interval = milliseconds(50);
  opts.timeout = milliseconds(500);
  PingResult result;
  pinger.run(ip("10.3.0.1"), opts, [&](PingResult r) { result = std::move(r); });
  net.loop().run_until(seconds(5));
  ASSERT_EQ(result.received, 5);
  // 3 links x 1 ms each way = 6 ms, plus processing.
  EXPECT_GT(result.rtts_ms.mean(), 6.0);
  EXPECT_LT(result.rtts_ms.mean(), 8.0);
}

TEST_F(RoutedFixture, TtlExpiryGeneratesTimeExceeded) {
  int time_exceeded = 0;
  a->stack().set_icmp_error_handler(
      [&](Ipv4Address src, const IcmpView& msg) {
        if (msg.type == IcmpType::kTimeExceeded) {
          EXPECT_EQ(src, ip("10.2.0.2"));  // expired at r2
          ++time_exceeded;
        }
      });
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kIcmp;
  pkt.hdr.dst = ip("10.3.0.1");
  pkt.hdr.ttl = 2;  // dies at the second router
  pkt.payload = icmp_onto(util::Buffer{}, IcmpType::kEchoRequest, 0, 5, 0);
  a->stack().send_ip(std::move(pkt));
  net.loop().run_until(seconds(5));
  EXPECT_EQ(time_exceeded, 1);
}

TEST_F(RoutedFixture, NoRouteGeneratesDestUnreachable) {
  int unreachable = 0;
  a->stack().set_icmp_error_handler(
      [&](Ipv4Address, const IcmpView& msg) {
        if (msg.type == IcmpType::kDestUnreachable) ++unreachable;
      });
  a->stack().send_echo_request(ip("99.99.99.99"), 1, 1);
  net.loop().run_until(seconds(5));
  EXPECT_EQ(unreachable, 1);
}

TEST_F(RoutedFixture, MtuExceededDropsPacket) {
  // Shrink r1's east MTU below the packet size.
  // (Interfaces cannot be reconfigured; send an oversized packet instead
  // by using a payload larger than the 1500 default on a's interface.)
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.dst = ip("10.3.0.1");
  pkt.payload = udp_wire(1, 2, std::vector<std::uint8_t>(2000, 0xAA));
  const auto before = a->stack().counters().dropped_mtu;
  a->stack().send_ip(std::move(pkt));
  net.loop().run_until(seconds(1));
  EXPECT_EQ(a->stack().counters().dropped_mtu, before + 1);
}

TEST(StackRoutingTest, LongestPrefixMatchWins) {
  Network net{3};
  Host& h = net.add_host("h");
  Host& r = net.add_router("r");
  sim::LinkConfig link;
  net.connect(h.stack(), {"eth0", ip("10.0.0.1"), 24}, r.stack(),
              {"a", ip("10.0.0.2"), 24}, link);
  net.connect(h.stack(), {"eth1", ip("10.9.0.1"), 24}, r.stack(),
              {"b", ip("10.9.0.2"), 24}, link);
  // Default via eth0 but a /8 via eth1: /8 is longer than /0.
  h.stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0, ip("10.0.0.2"));
  h.stack().add_route(Ipv4Prefix::parse("44.0.0.0/8"), 1, ip("10.9.0.2"));
  EXPECT_EQ(h.stack().source_ip_for(ip("44.1.2.3")), ip("10.9.0.1"));
  EXPECT_EQ(h.stack().source_ip_for(ip("45.1.2.3")), ip("10.0.0.1"));
  EXPECT_EQ(h.stack().source_ip_for(ip("10.0.0.9")), ip("10.0.0.1"));
}

TEST(StackRoutingTest, InterfaceLookupByName) {
  Network net{4};
  Host& h = net.add_host("h");
  sim::LinkConfig link;
  Host& r = net.add_router("r");
  net.connect(h.stack(), {"tap0", ip("172.16.0.1"), 16}, r.stack(),
              {"x", ip("172.16.0.2"), 16}, link);
  ASSERT_TRUE(h.stack().interface_by_name("tap0").has_value());
  EXPECT_EQ(*h.stack().interface_by_name("tap0"), 0u);
  EXPECT_FALSE(h.stack().interface_by_name("eth7").has_value());
}

// --- sendmmsg-style UDP batch ------------------------------------------------

TEST_F(LanFixture, UdpBatchSharesPayloadAcrossDatagrams) {
  auto rx1 = b->stack().udp_bind(7001);
  auto rx2 = b->stack().udp_bind(7002);
  auto rx3 = b->stack().udp_bind(7003);
  std::vector<std::vector<std::uint8_t>> got;
  auto handler = [&](Ipv4Address, std::uint16_t, util::Buffer data) {
    got.push_back(data.to_vector());
  };
  rx1->set_receive_handler(handler);
  rx2->set_receive_handler(handler);
  rx3->set_receive_handler(handler);

  auto tx = a->stack().udp_bind(5000);
  // One shared payload buffer; each datagram gets its own 4-byte header
  // segment in front of it.
  auto payload = util::Buffer::copy_of(std::vector<std::uint8_t>(1000, 0x5A));
  std::vector<UdpSendItem> items;
  for (std::uint16_t i = 0; i < 3; ++i) {
    util::BufferChain chain;
    chain.append(util::Buffer::copy_of(std::vector<std::uint8_t>(4, i)));
    chain.append(payload.share());
    items.push_back(UdpSendItem{ip("10.0.0.2"),
                                static_cast<std::uint16_t>(7001 + i),
                                std::move(chain)});
  }
  const auto& c = a->stack().counters();
  const auto calls_before = c.udp_send_calls;
  const auto copied_before = c.payload_bytes_copied;
  EXPECT_EQ(tx->send_batch(items), 3u);
  // One socket-API crossing for the whole batch, zero CPU payload
  // copies; the bytes came together in the NIC-style gather pass.
  EXPECT_EQ(c.udp_send_calls - calls_before, 1u);
  EXPECT_EQ(c.payload_bytes_copied - copied_before, 0u);
  EXPECT_EQ(c.payload_bytes_gathered, 3u * 1004u);

  net.loop().run_until(seconds(1));
  ASSERT_EQ(got.size(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> expect(4, i);
    expect.insert(expect.end(), 1000, 0x5A);
    EXPECT_EQ(got[i], expect);
  }
}

TEST_F(LanFixture, BatchAgainstClosedSocketIsDroppedSafely) {
  auto tx = a->stack().udp_bind(5000);
  std::vector<UdpSendItem> items;
  items.push_back(UdpSendItem{
      ip("10.0.0.2"), 7001,
      util::BufferChain(util::Buffer::copy_of(std::vector<std::uint8_t>(8, 1)))});
  tx->close();
  // A batch pending across teardown must not touch the dead stack.
  EXPECT_EQ(tx->send_batch(items), 0u);
  EXPECT_EQ(tx->datagrams_sent(), 0u);
}

TEST_F(LanFixture, ReceiverClosedWhileBatchInFlightDoesNotDeliver) {
  auto rx = b->stack().udp_bind(7001);
  int delivered = 0;
  rx->set_receive_handler(
      [&](Ipv4Address, std::uint16_t, util::Buffer) { ++delivered; });
  auto tx = a->stack().udp_bind(5000);
  std::vector<UdpSendItem> items;
  for (int i = 0; i < 3; ++i) {
    items.push_back(UdpSendItem{
        ip("10.0.0.2"), 7001,
        util::BufferChain(
            util::Buffer::copy_of(std::vector<std::uint8_t>(16, 0x2)))});
  }
  EXPECT_EQ(tx->send_batch(items), 3u);
  // The datagrams are in flight; the receiver goes away before they
  // land.  The demux must drop them (port unreachable), never invoke
  // the dead socket's handler.
  rx->close();
  net.loop().run_until(seconds(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx->datagrams_received(), 0u);
}

}  // namespace
}  // namespace ipop::net
