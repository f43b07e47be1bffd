// Application-substrate tests: SSH-like exec, message-passing runtime,
// NFS with client-side caching, and the LSS master/worker job.
#include <gtest/gtest.h>

#include "apps/lss.hpp"
#include "apps/mp.hpp"
#include "apps/nfs.hpp"
#include "apps/ssh.hpp"
#include "net/topology.hpp"

namespace ipop::apps {
namespace {

using util::milliseconds;
using util::seconds;

/// N hosts on one switch (plain physical LAN; the apps are network
/// agnostic — IPOP integration is covered in the LSS-over-IPOP test).
struct AppsFixture : ::testing::Test {
  net::Network net{81};
  std::vector<net::Host*> hosts;

  void build(int n, util::Duration link_delay = util::microseconds(100)) {
    auto& sw = net.add_switch("sw");
    sim::LinkConfig lan;
    lan.delay = link_delay;
    for (int i = 0; i < n; ++i) {
      auto& h = net.add_host("h" + std::to_string(i));
      net.connect_to_switch(
          h.stack(),
          {"eth0", net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)), 24},
          sw, lan);
      hosts.push_back(&h);
    }
  }

  net::Ipv4Address addr(int i) const {
    return net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
  }
};

// --- ExecServer -------------------------------------------------------------

TEST_F(AppsFixture, RemoteExecRoundTrip) {
  build(2);
  ExecServer server(hosts[1]->stack());
  server.register_command("echo",
                          [](const std::string& args) { return args; });
  std::optional<std::string> result;
  exec_remote(hosts[0]->stack(), addr(1), "echo hello world",
              [&](std::optional<std::string> r) { result = std::move(r); });
  net.loop().run_until(seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, "hello world");
  EXPECT_EQ(server.commands_served(), 1u);
}

TEST_F(AppsFixture, UnknownCommandReportsError) {
  build(2);
  ExecServer server(hosts[1]->stack());
  std::optional<std::string> result;
  exec_remote(hosts[0]->stack(), addr(1), "rm -rf /",
              [&](std::optional<std::string> r) { result = std::move(r); });
  net.loop().run_until(seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->find("command not found"), std::string::npos);
}

TEST_F(AppsFixture, ExecToDeadHostFails) {
  build(2);
  // No server running on host 1.
  std::optional<std::string> result{"sentinel"};
  bool called = false;
  exec_remote(hosts[0]->stack(), addr(1), "lamboot",
              [&](std::optional<std::string> r) {
                result = std::move(r);
                called = true;
              });
  net.loop().run_until(seconds(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.has_value());
}

TEST_F(AppsFixture, ExecReplyLargerThanSendBufferArrivesWhole) {
  // The reply outgrows the 64 KiB socket send buffer: the refused tail
  // must wait in the stream's backlog and the close must wait for it.
  build(2);
  ExecServer server(hosts[1]->stack());
  const std::string big(100 * 1024, 'x');
  server.register_command("cat", [&](const std::string&) { return big; });
  std::optional<std::string> result;
  bool called = false;
  exec_remote(hosts[0]->stack(), addr(1), "cat bigfile",
              [&](std::optional<std::string> r) {
                result = std::move(r);
                called = true;
              });
  net.loop().run_until(seconds(30));
  ASSERT_TRUE(called);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), big.size());
  EXPECT_EQ(*result, big);
}

// --- Message passing -----------------------------------------------------------

TEST_F(AppsFixture, TaggedSendRecv) {
  build(2);
  std::vector<net::Ipv4Address> ranks{addr(0), addr(1)};
  MpEndpoint e0(hosts[0]->stack(), 0, ranks);
  MpEndpoint e1(hosts[1]->stack(), 1, ranks);
  std::vector<std::uint8_t> got;
  int got_src = -1;
  e1.recv(0, 7, [&](int src, MpEndpoint::Message m) {
    got_src = src;
    got = std::move(m);
  });
  e0.send(1, 7, {1, 2, 3});
  net.loop().run_until(seconds(5));
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(AppsFixture, UnexpectedMessageQueuesUntilRecvPosted) {
  build(2);
  std::vector<net::Ipv4Address> ranks{addr(0), addr(1)};
  MpEndpoint e0(hosts[0]->stack(), 0, ranks);
  MpEndpoint e1(hosts[1]->stack(), 1, ranks);
  e0.send(1, 42, {9});
  net.loop().run_until(seconds(3));  // message arrives with no recv posted
  bool got = false;
  e1.recv(-1, 42, [&](int src, MpEndpoint::Message m) {
    EXPECT_EQ(src, 0);
    EXPECT_EQ(m, (MpEndpoint::Message{9}));
    got = true;
  });
  net.loop().run_until(seconds(4));
  EXPECT_TRUE(got);
}

TEST_F(AppsFixture, TagAndSourceMatching) {
  build(3);
  std::vector<net::Ipv4Address> ranks{addr(0), addr(1), addr(2)};
  MpEndpoint e0(hosts[0]->stack(), 0, ranks);
  MpEndpoint e1(hosts[1]->stack(), 1, ranks);
  MpEndpoint e2(hosts[2]->stack(), 2, ranks);
  std::vector<int> srcs;
  // Receive tag 5 specifically from rank 2, then tag 5 from anyone.
  e0.recv(2, 5, [&](int src, MpEndpoint::Message) { srcs.push_back(src); });
  e0.recv(-1, 5, [&](int src, MpEndpoint::Message) { srcs.push_back(src); });
  e1.send(0, 5, {1});
  e2.send(0, 5, {2});
  net.loop().run_until(seconds(5));
  ASSERT_EQ(srcs.size(), 2u);
  // The rank-2-specific recv must have consumed the rank-2 message.
  EXPECT_NE(std::find(srcs.begin(), srcs.end(), 2), srcs.end());
  EXPECT_NE(std::find(srcs.begin(), srcs.end(), 1), srcs.end());
}

TEST_F(AppsFixture, BidirectionalTraffic) {
  build(2);
  std::vector<net::Ipv4Address> ranks{addr(0), addr(1)};
  MpEndpoint e0(hosts[0]->stack(), 0, ranks);
  MpEndpoint e1(hosts[1]->stack(), 1, ranks);
  int pongs = 0;
  std::function<void()> ping_loop = [&] {
    e0.recv(1, 2, [&](int, MpEndpoint::Message) {
      if (++pongs < 10) {
        e0.send(1, 1, {});
        ping_loop();
      }
    });
  };
  e1.recv(0, 1, [&](int, MpEndpoint::Message) { e1.send(0, 2, {}); });
  std::function<void()> worker_loop = [&] {
    // Re-post worker recv after each ping.
    e1.recv(0, 1, [&](int, MpEndpoint::Message) {
      e1.send(0, 2, {});
      worker_loop();
    });
  };
  worker_loop();
  ping_loop();
  e0.send(1, 1, {});
  net.loop().run_until(seconds(30));
  EXPECT_EQ(pongs, 10);
}

TEST_F(AppsFixture, MalformedFrameAbortsMessageConnection) {
  // A frame too short for the [src_rank][tag] header is malformed: the
  // endpoint aborts the connection rather than stalling every frame
  // behind it.
  build(2);
  std::vector<net::Ipv4Address> ranks{addr(0), addr(1)};
  MpEndpoint e1(hosts[1]->stack(), 1, ranks);
  auto raw = hosts[0]->stack().tcp_connect(addr(1), MpEndpoint::kBasePort + 1);
  ASSERT_NE(raw, nullptr);
  std::optional<std::string> close_reason;
  raw->on_closed = [&](const std::string& reason) { close_reason = reason; };
  raw->on_connected = [&] {
    const std::vector<std::uint8_t> bytes{
        0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef,  // len 4: no room for the tag
        0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 3, 1, 2, 3, 4};  // a valid frame
    raw->send(util::Buffer::copy_of(bytes));
  };
  net.loop().run_until(seconds(5));
  ASSERT_TRUE(close_reason.has_value());
  EXPECT_FALSE(close_reason->empty());
  EXPECT_EQ(e1.messages_received(), 0u);
}

TEST_F(AppsFixture, LambootBootsAllRanks) {
  build(3);
  std::vector<std::unique_ptr<ExecServer>> servers;
  for (auto* h : hosts) {
    auto s = std::make_unique<ExecServer>(h->stack());
    s->register_command("lamboot", [](const std::string&) { return "ok"; });
    servers.push_back(std::move(s));
  }
  bool ok = false;
  MpLauncher::lamboot(hosts[0]->stack(), {addr(0), addr(1), addr(2)},
                      [&](bool r) { ok = r; });
  net.loop().run_until(seconds(10));
  EXPECT_TRUE(ok);
}

// --- NFS --------------------------------------------------------------------------

TEST_F(AppsFixture, BlockReadReturnsDeterministicContent) {
  build(2);
  NfsServer server(hosts[1]->stack());
  server.add_file("data", 64 * 1024);
  NfsClient client(*hosts[0], addr(1));
  std::vector<std::uint8_t> block;
  client.read_block("data", 2, [&](NfsClient::Block d) {
    ASSERT_TRUE(d.has_value());
    block = std::move(*d);
  });
  net.loop().run_until(seconds(10));
  ASSERT_EQ(block.size(), 8u * 1024);
  for (std::size_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block[i], NfsServer::content_byte("data", 2 * 8192 + i));
  }
}

TEST_F(AppsFixture, ColdThenWarmReads) {
  build(2);
  NfsServer server(hosts[1]->stack());
  constexpr std::uint64_t kSize = 256 * 1024;
  server.add_file("db0", kSize);
  NfsClient client(*hosts[0], addr(1));
  bool cold_done = false;
  const auto t0 = net.loop().now();
  util::TimePoint cold_finished{};
  client.read_file("db0", kSize, [&](bool ok) {
    EXPECT_TRUE(ok);
    cold_done = true;
    cold_finished = net.loop().now();
  });
  net.loop().run_until(seconds(60));
  ASSERT_TRUE(cold_done);
  const auto cold_elapsed = cold_finished - t0;
  EXPECT_EQ(client.stats().cache_misses, kSize / 8192);
  EXPECT_EQ(client.stats().bytes_fetched, kSize);

  // Warm pass: all from the local cache, no extra bytes fetched.
  bool warm_done = false;
  const auto t1 = net.loop().now();
  util::TimePoint warm_finished{};
  client.read_file("db0", kSize, [&](bool) {
    warm_done = true;
    warm_finished = net.loop().now();
  });
  net.loop().run_until(net.loop().now() + seconds(60));
  ASSERT_TRUE(warm_done);
  const auto warm_elapsed = warm_finished - t1;
  EXPECT_EQ(client.stats().bytes_fetched, kSize);  // unchanged
  EXPECT_EQ(client.stats().cache_hits, kSize / 8192);
  EXPECT_LT(warm_elapsed.count(), cold_elapsed.count() / 5);
}

TEST_F(AppsFixture, ColdReadIsLatencyBound) {
  build(2, /*link_delay=*/milliseconds(10));  // 20 ms RTT
  NfsServer server(hosts[1]->stack());
  constexpr std::uint64_t kSize = 128 * 1024;  // 16 blocks
  server.add_file("db", kSize);
  NfsClient client(*hosts[0], addr(1));
  bool done = false;
  const auto t0 = net.loop().now();
  util::TimePoint finished{};
  client.read_file("db", kSize, [&](bool) {
    done = true;
    finished = net.loop().now();
  });
  net.loop().run_until(seconds(120));
  ASSERT_TRUE(done);
  const double elapsed = util::to_seconds(finished - t0);
  // 16 synchronous round trips at >= 20 ms each.
  EXPECT_GT(elapsed, 16 * 0.020);
  EXPECT_LT(elapsed, 16 * 0.080);
}

TEST_F(AppsFixture, CacheInvalidationForcesRefetch) {
  build(2);
  NfsServer server(hosts[1]->stack());
  server.add_file("db", 64 * 1024);
  NfsClient client(*hosts[0], addr(1));
  bool done = false;
  client.read_file("db", 64 * 1024, [&](bool) { done = true; });
  net.loop().run_until(seconds(30));
  ASSERT_TRUE(done);
  const auto fetched = client.stats().bytes_fetched;
  client.invalidate_cache();
  done = false;
  client.read_file("db", 64 * 1024, [&](bool) { done = true; });
  net.loop().run_until(net.loop().now() + seconds(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(client.stats().bytes_fetched, fetched * 2);
}

TEST_F(AppsFixture, ReadFailsWhenTheConnectionDropsMidRpc) {
  build(2);
  // Every request is answered with the frame 00 00 00 00: an empty reply
  // the client cannot parse, so its stream aborts with the RPC in flight.
  auto listener = hosts[1]->stack().tcp_listen(NfsServer::kDefaultPort);
  listener->set_accept_handler([](std::shared_ptr<net::TcpSocket> s) {
    auto stream = net::FramedStream::attach(std::move(s));
    stream->on_frame = [raw = stream.get()](util::Buffer) {
      raw->send(util::BufferChain());
    };
  });
  NfsClient client(*hosts[0], addr(1));
  std::optional<bool> first;
  client.read_file("db", 64 * 1024, [&](bool ok) { first = ok; });
  net.loop().run_until(seconds(10));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(*first);

  // The client redials for the next read, which fails the same way.
  std::optional<bool> second;
  client.read_file("db", 64 * 1024, [&](bool ok) { second = ok; });
  net.loop().run_until(net.loop().now() + seconds(10));
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(*second);
  EXPECT_EQ(client.stats().bytes_fetched, 0u);
}

// --- LSS ---------------------------------------------------------------------------

struct LssFixture : AppsFixture {
  /// Small LSS config so tests run fast: 3 images, 2 DBs of 64 KB,
  /// 2 s of fit compute per DB.
  LssConfig small_cfg(net::Ipv4Address server) {
    LssConfig cfg;
    cfg.images = 3;
    cfg.databases = 2;
    cfg.db_size = 64 * 1024;
    cfg.fit_compute_per_db = seconds(2);
    cfg.file_server = server;
    return cfg;
  }
};

TEST_F(LssFixture, SequentialVsParallelSpeedup) {
  build(4);  // h0 master+server host, h1..h3 workers
  NfsServer server(hosts[0]->stack());
  auto cfg = small_cfg(addr(0));
  server.add_file("db0", cfg.db_size);
  server.add_file("db1", cfg.db_size);

  // Sequential: one worker (h1).  Scoped so its ports free up before the
  // parallel job binds the same master rank.
  LssReport seq_report;
  {
    LssJob seq({{hosts[0], addr(0)}, {hosts[1], addr(1)}}, cfg);
    seq.run([&](LssReport r) { seq_report = std::move(r); });
    net.loop().run_until(net.loop().now() + seconds(300));
  }
  ASSERT_TRUE(seq_report.ok);
  ASSERT_EQ(seq_report.image_seconds.size(), 3u);

  // Parallel: two workers (h2, h3) — one DB each.
  LssJob par({{hosts[0], addr(0)}, {hosts[2], addr(2)}, {hosts[3], addr(3)}},
             cfg);
  LssReport par_report;
  par.run([&](LssReport r) { par_report = std::move(r); });
  net.loop().run_until(net.loop().now() + seconds(300));
  ASSERT_TRUE(par_report.ok);

  // Warm images: sequential ~ 2 DB x 2 s = 4 s; parallel ~ 2 s.
  const double seq_warm = seq_report.image_seconds[1];
  const double par_warm = par_report.image_seconds[1];
  EXPECT_GT(seq_warm, 3.9);
  EXPECT_LT(par_warm, seq_warm / 1.7);
  // Cold first image strictly slower than warm ones.
  EXPECT_GT(seq_report.first_image(), seq_warm);
}

TEST_F(LssFixture, ColdCacheOnlyAffectsFirstImage) {
  build(2, /*link_delay=*/milliseconds(5));  // 10 ms RTT: I/O dominates
  NfsServer server(hosts[0]->stack());
  auto cfg = small_cfg(addr(0));
  cfg.db_size = 256 * 1024;                 // 32 blocks per DB
  cfg.fit_compute_per_db = milliseconds(10);
  server.add_file("db0", cfg.db_size);
  server.add_file("db1", cfg.db_size);
  LssJob job({{hosts[0], addr(0)}, {hosts[1], addr(1)}}, cfg);
  LssReport report;
  job.run([&](LssReport r) { report = std::move(r); });
  net.loop().run_until(net.loop().now() + seconds(300));
  ASSERT_TRUE(report.ok);
  ASSERT_EQ(report.image_seconds.size(), 3u);
  EXPECT_GT(report.image_seconds[0], 2 * report.image_seconds[1]);
  EXPECT_NEAR(report.image_seconds[1], report.image_seconds[2],
              report.image_seconds[1] * 0.5);
  EXPECT_EQ(job.worker_nfs_stats(0).bytes_fetched, 2 * cfg.db_size);
}

}  // namespace
}  // namespace ipop::apps
