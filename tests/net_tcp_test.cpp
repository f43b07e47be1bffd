// TCP tests: handshake, transfer integrity, congestion behaviour, loss
// recovery, window limits, teardown, resets.
#include <gtest/gtest.h>

#include <numeric>

#include "net/framed_stream.hpp"
#include "net/topology.hpp"
#include "net/ttcp.hpp"

namespace ipop::net {
namespace {

using util::milliseconds;
using util::seconds;

Ipv4Address ip(const char* s) { return Ipv4Address::parse(s); }

/// Two hosts joined by a configurable point-to-point link.
struct TcpFixture : ::testing::Test {
  Network net{11};
  Host* a = nullptr;
  Host* b = nullptr;
  sim::Link* link = nullptr;

  void wire(sim::LinkConfig cfg) {
    a = &net.add_host("a");
    b = &net.add_host("b");
    link = &net.connect(a->stack(), {"eth0", ip("10.0.0.1"), 24}, b->stack(),
                        {"eth0", ip("10.0.0.2"), 24}, cfg);
  }

  static sim::LinkConfig lan() {
    sim::LinkConfig cfg;
    cfg.delay = util::microseconds(100);
    cfg.bandwidth_bps = 100e6;
    return cfg;
  }
};

TEST_F(TcpFixture, HandshakeAndCallbacks) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  ASSERT_NE(listener, nullptr);
  std::shared_ptr<TcpSocket> server;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket> s) { server = std::move(s); });
  bool connected = false;
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  ASSERT_NE(client, nullptr);
  client->on_connected = [&] { connected = true; };
  net.loop().run_until(seconds(2));
  EXPECT_TRUE(connected);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(server->remote_port(), client->local_port());
}

TEST_F(TcpFixture, SmallTransferArrivesIntact) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  std::vector<std::uint8_t> received;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    s->on_readable = [&received, sp] {
      auto chunk = sp->receive(4096);
      received.insert(received.end(), chunk.begin(), chunk.end());
    };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  std::vector<std::uint8_t> msg(300);
  std::iota(msg.begin(), msg.end(), 0);
  client->on_connected = [&] { client->send(util::Buffer::copy_of(msg)); };
  net.loop().run_until(seconds(2));
  EXPECT_EQ(received, msg);
}

TEST_F(TcpFixture, BulkTransferIntegrityAndCompletion) {
  wire(lan());
  constexpr std::size_t kTotal = 2 * 1024 * 1024;
  auto listener = b->stack().tcp_listen(80);
  std::size_t received = 0;
  std::uint64_t checksum = 0;
  bool server_eof = false;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    s->on_readable = [&, sp] {
      while (true) {
        auto chunk = sp->receive(65536);
        if (chunk.empty()) break;
        for (auto byte : chunk) checksum += byte;
        received += chunk.size();
      }
      if (sp->eof()) server_eof = true;
    };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  std::size_t queued = 0;
  std::uint64_t sent_checksum = 0;
  auto pump = [&] {
    while (queued < kTotal) {
      std::vector<std::uint8_t> chunk(
          std::min<std::size_t>(8192, kTotal - queued));
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<std::uint8_t>((queued + i) * 31);
      }
      const std::size_t sent = client->send(util::Buffer::copy_of(chunk));
      for (std::size_t i = 0; i < sent; ++i) sent_checksum += chunk[i];
      queued += sent;
      if (sent < chunk.size()) return;
    }
    client->close();
  };
  client->on_connected = pump;
  client->on_writable = pump;
  net.loop().run_until(seconds(60));
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(checksum, sent_checksum);
  EXPECT_TRUE(server_eof);
}

TEST_F(TcpFixture, TransferSurvivesHeavyLoss) {
  auto cfg = lan();
  cfg.loss_rate = 0.05;  // 5% loss both ways
  wire(cfg);
  constexpr std::size_t kTotal = 256 * 1024;
  auto listener = b->stack().tcp_listen(80);
  std::vector<std::uint8_t> received;
  received.reserve(kTotal);
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    s->on_readable = [&, sp] {
      while (true) {
        auto chunk = sp->receive(65536);
        if (chunk.empty()) break;
        received.insert(received.end(), chunk.begin(), chunk.end());
      }
    };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  std::size_t queued = 0;
  auto pump = [&] {
    while (queued < kTotal) {
      std::vector<std::uint8_t> chunk(
          std::min<std::size_t>(4096, kTotal - queued));
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<std::uint8_t>((queued + i) % 251);
      }
      const std::size_t sent = client->send(util::Buffer::copy_of(chunk));
      queued += sent;
      if (sent < chunk.size()) return;
    }
    client->close();
  };
  client->on_connected = pump;
  client->on_writable = pump;
  net.loop().run_until(seconds(600));
  ASSERT_EQ(received.size(), kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(received[i], static_cast<std::uint8_t>(i % 251)) << "at " << i;
  }
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST_F(TcpFixture, FastRetransmitOnIsolatedLoss) {
  auto cfg = lan();
  cfg.loss_rate = 0.01;
  wire(cfg);
  TtcpReceiver receiver(b->stack(), 80);
  TtcpSender sender(a->stack());
  TtcpSender::Options opts;
  opts.total_bytes = 512 * 1024;
  TtcpResult result;
  receiver.set_done([&](TtcpResult r) { result = r; });
  sender.run(ip("10.0.0.2"), 80, opts, [](TtcpResult) {});
  net.loop().run_until(seconds(300));
  EXPECT_EQ(result.bytes, opts.total_bytes);
  // With light loss most recoveries should be fast retransmits, and the
  // connection must not collapse into pure timeout recovery.
  EXPECT_GT(result.throughput_kbps(), 100.0);
}

TEST_F(TcpFixture, ThroughputIsWindowLimitedOnLongFatPipe) {
  sim::LinkConfig cfg;
  cfg.delay = milliseconds(20);  // 40 ms RTT
  cfg.bandwidth_bps = 100e6;
  wire(cfg);
  TtcpReceiver receiver(b->stack(), 80);
  TtcpSender sender(a->stack());
  TtcpSender::Options opts;
  opts.total_bytes = 4 * 1024 * 1024;
  TtcpResult result;
  receiver.set_done([&](TtcpResult r) { result = r; });
  sender.run(ip("10.0.0.2"), 80, opts, [](TtcpResult) {});
  net.loop().run_until(seconds(120));
  ASSERT_EQ(result.bytes, opts.total_bytes);
  // 64 KB window / 40 ms RTT = 1600 KB/s theoretical ceiling.
  EXPECT_LT(result.throughput_kbps(), 1700.0);
  EXPECT_GT(result.throughput_kbps(), 1000.0);
}

TEST_F(TcpFixture, LanThroughputApproachesLineRate) {
  wire(lan());
  TtcpReceiver receiver(b->stack(), 80);
  TtcpSender sender(a->stack());
  TtcpSender::Options opts;
  opts.total_bytes = 8 * 1024 * 1024;
  TtcpResult result;
  receiver.set_done([&](TtcpResult r) { result = r; });
  sender.run(ip("10.0.0.2"), 80, opts, [](TtcpResult) {});
  net.loop().run_until(seconds(60));
  ASSERT_EQ(result.bytes, opts.total_bytes);
  // 100 Mbps = 12.2 MB/s; expect most of it through one TCP stream.
  EXPECT_GT(result.throughput_kbps(), 7000.0);
  EXPECT_LT(result.throughput_kbps(), 12500.0);
}

TEST_F(TcpFixture, ConnectToClosedPortIsRefused) {
  wire(lan());
  std::string reason;
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 4321);
  client->on_closed = [&](std::string r) { reason = std::move(r); };
  net.loop().run_until(seconds(5));
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_EQ(reason, "connection refused");
}

TEST_F(TcpFixture, ConnectTimesOutWhenPeerSilent) {
  auto cfg = lan();
  wire(cfg);
  link->set_up(false);  // black hole
  std::string reason;
  TcpConfig tcfg;
  tcfg.syn_retries = 3;
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80, tcfg);
  client->on_closed = [&](std::string r) { reason = std::move(r); };
  net.loop().run_until(seconds(120));
  EXPECT_EQ(reason, "connect timeout");
}

TEST_F(TcpFixture, GracefulCloseBothDirections) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  std::shared_ptr<TcpSocket> server;
  bool server_closed = false, client_closed = false;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    server = std::move(s);
    server->on_readable = [&] {
      if (server->eof()) server->close();  // close our side on EOF
    };
    server->on_closed = [&](std::string) { server_closed = true; };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  client->on_connected = [&] { client->close(); };
  client->on_closed = [&](std::string) { client_closed = true; };
  net.loop().run_until(seconds(120));  // covers TIME_WAIT
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_EQ(server->state(), TcpState::kClosed);
}

TEST_F(TcpFixture, AbortSendsReset) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  std::shared_ptr<TcpSocket> server;
  std::string server_reason = "unset";
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    server = std::move(s);
    server->on_closed = [&](std::string r) { server_reason = std::move(r); };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  client->on_connected = [&] { client->abort(); };
  net.loop().run_until(seconds(5));
  EXPECT_EQ(server_reason, "connection reset");
}

TEST_F(TcpFixture, ZeroWindowStallsAndRecovers) {
  wire(lan());
  TcpConfig small;
  small.recv_buf = 4096;  // tiny receive buffer: reader-paced flow
  auto listener = b->stack().tcp_listen(80, small);
  std::shared_ptr<TcpSocket> server;
  std::size_t received = 0;
  listener->set_accept_handler(
      [&](std::shared_ptr<TcpSocket> s) { server = std::move(s); });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  constexpr std::size_t kTotal = 64 * 1024;
  std::size_t queued = 0;
  auto pump = [&] {
    while (queued < kTotal) {
      std::vector<std::uint8_t> chunk(
          std::min<std::size_t>(8192, kTotal - queued));
      const std::size_t sent = client->send(util::Buffer::copy_of(chunk));
      queued += sent;
      if (sent < chunk.size()) return;
    }
    client->close();
  };
  client->on_connected = pump;
  client->on_writable = pump;
  // Slow reader: drain 2 KB every 50 ms.
  std::function<void()> drain = [&] {
    if (server) {
      auto chunk = server->receive(2048);
      received += chunk.size();
    }
    if (received < kTotal) {
      net.loop().schedule_after(milliseconds(50), drain);
    }
  };
  net.loop().schedule_after(milliseconds(50), drain);
  net.loop().run_until(seconds(600));
  EXPECT_EQ(received, kTotal);
}

TEST_F(TcpFixture, ManyParallelConnections) {
  wire(lan());
  constexpr int kConns = 20;
  auto listener = b->stack().tcp_listen(80);
  int server_done = 0;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    auto count = std::make_shared<std::size_t>(0);
    s->on_readable = [&, sp, count] {
      while (true) {
        auto chunk = sp->receive(4096);
        if (chunk.empty()) break;
        *count += chunk.size();
      }
      if (sp->eof()) {
        EXPECT_EQ(*count, 1000u);
        ++server_done;
        sp->close();
      }
    };
  });
  std::vector<std::shared_ptr<TcpSocket>> clients;
  for (int i = 0; i < kConns; ++i) {
    auto c = a->stack().tcp_connect(ip("10.0.0.2"), 80);
    ASSERT_NE(c, nullptr);
    c->on_connected = [c] {
      std::vector<std::uint8_t> data(1000, 0x42);
      c->send(util::Buffer::copy_of(data));
      c->close();
    };
    clients.push_back(c);
  }
  net.loop().run_until(seconds(120));
  EXPECT_EQ(server_done, kConns);
}

TEST_F(TcpFixture, CongestionWindowGrowsFromSlowStart) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  listener->set_accept_handler([](std::shared_ptr<TcpSocket>) {});
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  const std::size_t initial_cwnd = client->cwnd();
  std::vector<std::uint8_t> data(200 * 1024, 1);
  client->on_connected = [&] { client->send(util::Buffer::copy_of(data)); };
  net.loop().run_until(seconds(10));
  EXPECT_GT(client->cwnd(), initial_cwnd);
  EXPECT_GT(client->srtt().count(), 0);
}

// --- scatter-gather send path ----------------------------------------------

TEST(TcpWireTest, GatherEncodeIndependentOfQueueSegmentation) {
  const auto src = ip("10.0.0.1");
  const auto dst = ip("10.0.0.2");
  std::vector<std::uint8_t> payload(700);
  std::iota(payload.begin(), payload.end(), std::uint8_t{3});

  TcpSegment seg;
  seg.src_port = 1234;
  seg.dst_port = 80;
  seg.seq = 0xCAFE0001;
  seg.ack = 0xBEEF0002;
  seg.flags.ack = true;
  seg.flags.psh = true;
  seg.window = 4096;
  const util::BufferChain contiguous(util::Buffer::copy_of(payload));
  const auto whole = seg.encode_gather(src, dst, 0, contiguous, 0, 700);

  // Same header fields, payload scattered across three queue segments.
  util::BufferChain queue;
  queue.append(util::Buffer::copy_of({payload.data(), 100}));
  queue.append(util::Buffer::copy_of({payload.data() + 100, 500}));
  queue.append(util::Buffer::copy_of({payload.data() + 600, 100}));
  const auto gathered = seg.encode_gather(src, dst, 0, queue, 0, 700);

  EXPECT_EQ(gathered.view(), whole.view());
  // The gathered image verifies (checksum covers the gathered bytes).
  const auto parsed = TcpView::parse(gathered.view(), src, dst);
  EXPECT_EQ(parsed.payload, util::BufferView(payload));

  // A mid-queue range gathers the right window of bytes.
  const auto slice = seg.encode_gather(src, dst, 0, queue, 250, 200);
  const auto sliced = TcpView::parse(slice.view(), src, dst);
  EXPECT_EQ(sliced.payload,
            util::BufferView(payload.data() + 250, 200));
}

TEST_F(TcpFixture, BufferSendIsZeroCopyAndArrivesIntact) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  std::vector<std::uint8_t> received;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    s->on_readable = [&received, sp] {
      auto chunk = sp->receive(64 * 1024);
      received.insert(received.end(), chunk.begin(), chunk.end());
    };
  });
  std::vector<std::uint8_t> msg(40 * 1024);
  std::iota(msg.begin(), msg.end(), std::uint8_t{0});
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  client->on_connected = [&] {
    // writev-style: a header segment and a payload buffer, linked into
    // the send queue as shared handles.
    util::BufferChain chain;
    chain.append(util::Buffer::copy_of({msg.data(), 1024}));
    chain.append(util::Buffer::copy_of({msg.data() + 1024, msg.size() - 1024}));
    EXPECT_EQ(client->send_from(chain), msg.size());
    EXPECT_TRUE(chain.empty());
  };
  net.loop().run_until(seconds(5));
  EXPECT_EQ(received, msg);
  // The send API linked shared handles; the queued bytes reached the
  // segments through the gather walk.
  EXPECT_GE(client->stats().payload_bytes_gathered, msg.size());
}

// --- receive side: segment shares and the two counted copy points --------

/// `n` bytes of a position-dependent pattern.
util::Buffer pattern(std::size_t n, std::size_t seed) {
  auto buf = util::Buffer::allocate(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<std::uint8_t>((seed + i) % 251);
  }
  return buf;
}

TEST_F(TcpFixture, ReceiveSpanningSegmentsFlattensOnceAndCountsIt) {
  auto cfg = lan();
  cfg.jitter = milliseconds(2);  // segments overtake each other
  cfg.loss_rate = 0.01;
  wire(cfg);
  constexpr std::size_t kTotal = 256 * 1024;
  auto listener = b->stack().tcp_listen(80);
  std::shared_ptr<TcpSocket> server;
  std::vector<std::uint8_t> received;
  std::uint64_t coalesced = 0;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    server = s;
    s->on_readable = [&, sp = s.get()] {
      const auto copied_before = sp->stats().payload_bytes_copied;
      const auto ready = sp->bytes_readable();
      auto chunk = sp->receive(64 * 1024);
      const auto copied = sp->stats().payload_bytes_copied - copied_before;
      // A read is a share of one segment or a flatten of all ready bytes.
      if (copied != 0) {
        EXPECT_EQ(copied, ready);
        EXPECT_EQ(chunk.size(), ready);
        coalesced += copied;
      }
      received.insert(received.end(), chunk.begin(), chunk.end());
    };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  const auto msg = pattern(kTotal, 0);
  std::size_t queued = 0;
  auto pump = [&] {
    queued += client->send(msg.share(queued, kTotal - queued));
    if (queued == kTotal) client->close();
  };
  client->on_connected = pump;
  client->on_writable = pump;
  net.loop().run_until(seconds(120));
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->eof());
  ASSERT_EQ(received.size(), kTotal);
  EXPECT_EQ(util::BufferView(received), msg.view());
  EXPECT_GT(coalesced, 0u) << "no reordering gap filled";
  EXPECT_EQ(server->stats().payload_bytes_copied, coalesced);
}

TEST_F(TcpFixture, FramedStreamCopiesOnlyBodiesSpanningSegments) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  std::shared_ptr<TcpSocket> server;
  std::shared_ptr<FramedStream> rx;
  std::vector<util::Buffer> bodies;
  std::vector<std::uint64_t> stream_copied;  // after each frame
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    server = s;
    rx = FramedStream::attach(std::move(s));
    rx->on_frame = [&](util::Buffer body) {
      bodies.push_back(std::move(body));
      stream_copied.push_back(rx->bytes_copied());
    };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  auto tx = FramedStream::attach(client);
  const std::vector<std::size_t> sizes{1000, 3000, 100 * 1024};
  client->on_connected = [&] {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      tx->send(util::BufferChain(pattern(sizes[i], i)));
    }
  };
  net.loop().run_until(seconds(5));
  ASSERT_EQ(bodies.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(bodies[i].view(), pattern(sizes[i], i).view()) << "frame " << i;
  }
  // The first frame fits its segment: handed up as a share, no copy.
  EXPECT_EQ(stream_copied[0], 0u);
  // The others span segments and are each flattened once.
  EXPECT_GT(stream_copied[1], stream_copied[0]);
  EXPECT_GT(stream_copied[2], stream_copied[1]);
  // No reordering on this link: the socket itself never flattened.
  EXPECT_EQ(server->stats().payload_bytes_copied, 0u);
}

TEST_F(TcpFixture, FramedStreamAbortsOnOversizeLengthPrefix) {
  wire(lan());
  auto listener = b->stack().tcp_listen(80);
  std::shared_ptr<FramedStream> rx;
  std::optional<std::string> close_reason;
  int frames = 0;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    s->on_closed = [&](const std::string& r) { close_reason = r; };
    rx = FramedStream::attach(std::move(s));
    rx->on_frame = [&](util::Buffer) { ++frames; };
  });
  auto client = a->stack().tcp_connect(ip("10.0.0.2"), 80);
  client->on_connected = [&] {
    const std::vector<std::uint8_t> bytes{0xff, 0xff, 0xff, 0xff, 1, 2, 3};
    client->send(util::Buffer::copy_of(bytes));
  };
  net.loop().run_until(seconds(2));
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->oversize_rejects(), 1u);
  ASSERT_TRUE(close_reason.has_value());
  EXPECT_FALSE(close_reason->empty());
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(client->state(), TcpState::kClosed);  // the peer was reset
}

// --- path-MTU discovery (ICMP frag-needed, code 4) --------------------------

TEST(TcpPmtuTest, FragNeededShrinksMssAndTransferCompletes) {
  // a (MTU 1500) -- r -- b, with the WAN leg r<->b at MTU 600: the
  // router cannot forward a full-size segment and reports frag-needed
  // with its next-hop MTU (RFC 1191); the sender must react by shrinking
  // its segment size and finishing the transfer.
  Network net{7};
  auto& a = net.add_host("a");
  auto& r = net.add_router("r");
  auto& b = net.add_host("b");
  sim::LinkConfig link;
  link.delay = util::microseconds(200);
  net.connect(a.stack(), {"eth0", ip("10.0.0.2"), 24}, r.stack(),
              {"lan", ip("10.0.0.1"), 24}, link);
  InterfaceConfig r_wan{"wan", ip("20.0.0.1"), 24};
  r_wan.mtu = 600;
  InterfaceConfig b_eth{"eth0", ip("20.0.0.2"), 24};
  b_eth.mtu = 600;
  net.connect(r.stack(), r_wan, b.stack(), b_eth, link);
  a.stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0, ip("10.0.0.1"));
  b.stack().add_route(Ipv4Prefix::parse("0.0.0.0/0"), 0, ip("20.0.0.1"));

  auto listener = b.stack().tcp_listen(80);
  std::vector<std::uint8_t> received;
  listener->set_accept_handler([&](std::shared_ptr<TcpSocket> s) {
    auto sp = s;
    s->on_readable = [&received, sp] {
      auto chunk = sp->receive(64 * 1024);
      received.insert(received.end(), chunk.begin(), chunk.end());
    };
  });
  auto client = a.stack().tcp_connect(ip("20.0.0.2"), 80);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->mss(), 1460u);  // clamped to the local MTU only
  std::vector<std::uint8_t> msg(100 * 1024);
  std::iota(msg.begin(), msg.end(), std::uint8_t{0});
  std::size_t queued = 0;
  auto pump = [&] {
    queued += client->send(
        util::Buffer::copy_of(std::span<const std::uint8_t>(msg).subspan(queued)));
  };
  client->on_connected = pump;
  client->on_writable = pump;
  net.loop().run_until(seconds(30));

  EXPECT_EQ(received, msg);
  // The sender reacted to the code-4 error: MSS now fits the 600-byte
  // WAN hop (600 - 20 IP - 20 TCP).
  EXPECT_EQ(client->mss(), 560u);
  EXPECT_EQ(client->stats().pmtu_shrinks, 1u);
  // The router really dropped oversized packets and reported them.
  EXPECT_GE(r.stack().counters().dropped_mtu, 1u);
  EXPECT_GE(r.stack().counters().icmp_errors_sent, 1u);
}

}  // namespace
}  // namespace ipop::net
