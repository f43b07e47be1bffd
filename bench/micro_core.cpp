// Microbenchmarks (google-benchmark): the hot paths of the IPOP data
// plane — SHA-1 address mapping, packet codecs, per-hop forwarding,
// ring-distance arithmetic, greedy next-hop selection, checksum
// computation, and the event engine's delivery path.
//
// Results are also written to BENCH_micro_core.json (google-benchmark's
// JSON format) unless the caller passes its own --benchmark_out flags.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "brunet/connection_table.hpp"
#include "brunet/packet.hpp"
#include "brunet/secure.hpp"
#include "brunet/transport.hpp"
#include "net/ipv4.hpp"
#include "net/l4_patch.hpp"
#include "net/tcp_wire.hpp"
#include "net/topology.hpp"
#include "net/udp.hpp"
#include "sim/event_loop.hpp"
#include "util/buffer.hpp"
#include "util/lifetime.hpp"
#include "util/random.hpp"
#include "util/sha1.hpp"

namespace {

using namespace ipop;

void BM_Sha1AddressFromIp(benchmark::State& state) {
  std::uint32_t ip = 0xAC100002;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        brunet::Address::from_ip(net::Ipv4Address(ip++)));
  }
}
BENCHMARK(BM_Sha1AddressFromIp);

void BM_Sha1Throughput(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::sha1(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(64)->Arg(1024)->Arg(64 * 1024);

void BM_PacketBuildParse(benchmark::State& state) {
  util::Rng rng(1);
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x5A);
  const auto src = brunet::Address::random(rng);
  const auto dst = brunet::Address::random(rng);
  for (auto _ : state) {
    brunet::Packet pkt;
    pkt.type = brunet::PacketType::kIpTunnel;
    pkt.src = src;
    pkt.dst = dst;
    pkt.set_payload(util::Buffer::copy_of(payload, util::kPacketHeadroom));
    auto wire = pkt.take_wire();
    benchmark::DoNotOptimize(brunet::Packet::decode(std::move(wire)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PacketBuildParse)->Arg(64)->Arg(1200);

// --- per-hop forwarding ----------------------------------------------------
// The cost an intermediate overlay node pays to relay one routed packet.
// The paper's greedy routing crosses O(log n) such hops per virtual IP
// packet, so this microbenchmark is the core of the data plane.

util::Buffer make_wire(std::size_t payload_size) {
  util::Rng rng(1);
  brunet::Packet pkt;
  pkt.type = brunet::PacketType::kIpTunnel;
  pkt.src = brunet::Address::random(rng);
  pkt.dst = brunet::Address::random(rng);
  pkt.set_payload(std::vector<std::uint8_t>(payload_size, 0x5A));
  return pkt.to_wire();
}

/// Pre-refactor forwarding: copy the wire bytes into an owned buffer
/// before relaying (the legacy owning-codec path).
void BM_ForwardHopCopy(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const auto wire_bytes = make_wire(payload_size).to_vector();
  for (auto _ : state) {
    brunet::Packet pkt =
        brunet::Packet::decode(util::Buffer::copy_of(wire_bytes));
    ++pkt.hops;
    auto out = pkt.take_wire();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire_bytes.size()));
  state.counters["bytes_copied_per_hop"] =
      static_cast<double>(wire_bytes.size());
}
BENCHMARK(BM_ForwardHopCopy)->Arg(64)->Arg(1400);

/// Zero-copy forwarding: parse the 48-byte header over the shared buffer,
/// patch the hop count in place, re-emit the same buffer.
void BM_ForwardHopZeroCopy(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  auto wire = make_wire(payload_size);
  for (auto _ : state) {
    brunet::Packet pkt = brunet::Packet::decode(wire.share());
    ++pkt.hops;
    auto out = pkt.to_wire();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
  state.counters["bytes_copied_per_hop"] = 0.0;
}
BENCHMARK(BM_ForwardHopZeroCopy)->Arg(64)->Arg(1400);

void BM_RingDistance(benchmark::State& state) {
  util::Rng rng(2);
  auto a = brunet::Address::random(rng);
  auto b = brunet::Address::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(brunet::Address::ring_distance(a, b));
  }
}
BENCHMARK(BM_RingDistance);

// The engine's per-frame cost: a standing population of in-flight link
// deliveries, each of which schedules its successor when it runs.  The
// closure has the shape of a link delivery — liveness guard, two
// pointers, the frame handle and its size: 80 bytes — so
// allocs_per_event pins that such an event never touches the heap (the
// bench gate requires exactly 0).
class DeliveryBench {
 public:
  static constexpr int kInFlight = 256;

  DeliveryBench() : frame_(util::Buffer::allocate(64, 0)) {
    for (int i = 0; i < kInFlight; ++i) send();
  }
  sim::EventLoop& loop() { return loop_; }
  std::uint64_t bytes() const { return bytes_; }

  void send() {
    auto deliver = [alive = alive_.guard(), self = this, sink = &bytes_,
                    frame = frame_.share(), size = frame_.size()] {
      if (!alive) return;
      *sink += size;
      self->send();
    };
    static_assert(sizeof(deliver) == 80);
    loop_.schedule_delivery(loop_.now() + util::microseconds(100), 0, seq_++,
                            static_cast<std::uint32_t>(frame_.size()),
                            std::move(deliver));
  }

 private:
  sim::EventLoop loop_;
  util::Buffer frame_;
  std::uint64_t seq_ = 0;
  std::uint64_t bytes_ = 0;
  util::AliveToken alive_;
};

void BM_EventLoopDeliver(benchmark::State& state) {
  DeliveryBench bed;
  // Warm up: the heap and the slot arena reach their steady size.
  for (int i = 0; i < 4 * DeliveryBench::kInFlight; ++i) {
    bed.loop().run_one();
  }
  const std::uint64_t allocs0 = bench::allocs_counted();
  bench::set_alloc_counting(true);
  for (auto _ : state) bed.loop().run_one();
  bench::set_alloc_counting(false);
  benchmark::DoNotOptimize(bed.bytes());
  const auto events = static_cast<double>(state.iterations());
  state.counters["allocs_per_event"] =
      static_cast<double>(bench::allocs_counted() - allocs0) / events;
  state.counters["events_per_s"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventLoopDeliver);

void BM_GreedyNextHop(benchmark::State& state) {
  util::Rng rng(3);
  brunet::ConnectionTable table(brunet::Address::random(rng));
  for (int i = 0; i < state.range(0); ++i) {
    brunet::Connection c;
    c.addr = brunet::Address::random(rng);
    c.type = brunet::ConnectionType::kStructuredNear;
    table.add(c);
  }
  auto target = brunet::Address::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.closest_to(target));
  }
}
// 4096/8192 exercise the binary-search index at overlay-scale table sizes;
// the bench gate's scaling rule pins 8192 to ~O(log n) of the 512 cost.
BENCHMARK(BM_GreedyNextHop)->Arg(8)->Arg(64)->Arg(512)->Arg(4096)->Arg(8192);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1500);

// --- sealed tunnel frames ---------------------------------------------------
// The secured hot path: encrypt-in-place + sign into headroom (seal) and
// verify + decrypt-in-place (open).  payload_bytes_copied must stay 0 —
// the capture buffer arrives uniquely owned with the per-path headroom
// budget intact, so sealing never reallocates.  The gate also pins the
// 64B/1400B cpu_time ratio: per-packet crypto cost is dominated by the
// constant sign/verify, not by payload size, so securing full-MTU
// traffic costs about the same per packet as securing ACKs.

void BM_SealInPlace(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const auto sender = util::crypto::KeyPair::generate(rng);
  const auto receiver = util::crypto::KeyPair::generate(rng);
  const auto dst = brunet::Address::from_public_key(receiver.public_key());
  brunet::FrameSealer sealer(sender);
  std::vector<std::uint8_t> plain(payload_size);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i * 13);
  }
  // Prime the DH cache: the steady-state per-packet cost excludes the
  // one-time key agreement.
  sealer.seal(util::Buffer::copy_of(plain, util::kPacketHeadroom),
              receiver.public_key(), dst, util::kPacketHeadroom);
  for (auto _ : state) {
    state.PauseTiming();  // rebuilding the capture buffer is not sealing
    auto payload = util::Buffer::copy_of(plain, util::kPacketHeadroom);
    state.ResumeTiming();
    auto sealed = sealer.seal(std::move(payload), receiver.public_key(), dst,
                              util::kPacketHeadroom);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
  state.counters["payload_bytes_copied"] =
      static_cast<double>(sealer.stats().payload_bytes_copied);
}
BENCHMARK(BM_SealInPlace)->Arg(64)->Arg(1400);

void BM_OpenInPlace(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  util::Rng rng(12);
  const auto sender = util::crypto::KeyPair::generate(rng);
  const auto receiver = util::crypto::KeyPair::generate(rng);
  const auto dst = brunet::Address::from_public_key(receiver.public_key());
  brunet::FrameSealer seal_side(sender);
  brunet::FrameSealer open_side(receiver);
  std::vector<std::uint8_t> plain(payload_size);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i * 29);
  }
  const auto sealed =
      seal_side
          .seal(util::Buffer::copy_of(plain, util::kPacketHeadroom),
                receiver.public_key(), dst, util::kPacketHeadroom)
          .to_vector();
  // Prime the opener's DH cache off the clock, same as the sealer's.
  open_side.open(util::Buffer::copy_of(sealed, util::kPacketHeadroom), dst);
  for (auto _ : state) {
    state.PauseTiming();  // open() decrypts in place: fresh frame each time
    auto frame = util::Buffer::copy_of(sealed, util::kPacketHeadroom);
    state.ResumeTiming();
    auto opened = open_side.open(std::move(frame), dst);
    benchmark::DoNotOptimize(opened);
    if (!opened.has_value()) {
      state.SkipWithError("sealed frame failed to open");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
  state.counters["payload_bytes_copied"] =
      static_cast<double>(open_side.stats().payload_bytes_copied);
  state.counters["frames_rejected"] =
      static_cast<double>(open_side.stats().rejected);
}
BENCHMARK(BM_OpenInPlace)->Arg(64)->Arg(1400);

// --- NAT-rewritten forwarding ----------------------------------------------
// The simulated-kernel leg of the zero-copy pipeline: a middlebox decodes
// the IP header over the arriving frame's storage, patches L4 endpoints
// and checksums in place (RFC 1624), and re-emits the same buffer.

util::Buffer make_ip_udp_wire(std::size_t payload_size) {
  net::Ipv4Packet pkt;
  pkt.hdr.proto = net::IpProto::kUdp;
  pkt.hdr.id = 1;
  pkt.hdr.src = net::Ipv4Address(10, 0, 0, 2);
  pkt.hdr.dst = net::Ipv4Address(8, 0, 0, 10);
  auto udp = util::Buffer::allocate(net::UdpView::kHeaderSize + payload_size,
                                    util::kPacketHeadroom);
  std::fill(udp.writable().begin() + net::UdpView::kHeaderSize,
            udp.writable().end(), 0x42);
  net::UdpView::write_header(udp.data(), 5555, 7000, payload_size);
  // A real pseudo-header checksum, so the rewrite has one to patch (a
  // computed 0 goes on the wire as 0xFFFF, RFC 768).
  const std::uint16_t csum = net::transport_checksum(
      pkt.hdr.src, pkt.hdr.dst, net::IpProto::kUdp, udp.as_span());
  udp.patch_u16(net::UdpView::kChecksumOffset, csum == 0 ? 0xFFFF : csum);
  pkt.payload = std::move(udp);
  return pkt.take_wire();
}

/// Steady-state per-packet cost of a NAT forward on the zero-copy path:
/// parse, patch ports + checksums in place, re-serialize the header into
/// the recovered headroom.  The buffer never changes storage.
void BM_NatRewriteInPlace(benchmark::State& state) {
  auto wire = make_ip_udp_wire(static_cast<std::size_t>(state.range(0)));
  const net::L4Endpoint ext{net::Ipv4Address(8, 0, 0, 1), 62000};
  for (auto _ : state) {
    net::Ipv4Packet pkt = net::Ipv4Packet::decode(std::move(wire));
    net::patch_l4_endpoints(pkt, ext, std::nullopt);
    wire = pkt.take_wire();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
  state.counters["bytes_copied_per_forward"] = 0.0;
}
BENCHMARK(BM_NatRewriteInPlace)->Arg(64)->Arg(1372);

/// The copy_at_stack_crossing ablation's data-plane cost: same rewrite,
/// plus the receive- and transmit-side payload copies the pre-zero-copy
/// kernel performed on every traversal (paper Section V.2).
void BM_NatRewriteCopyAtCrossing(benchmark::State& state) {
  auto wire = make_ip_udp_wire(static_cast<std::size_t>(state.range(0)));
  const net::L4Endpoint ext{net::Ipv4Address(8, 0, 0, 1), 62000};
  double copied = 0.0;
  for (auto _ : state) {
    net::Ipv4Packet pkt = net::Ipv4Packet::decode(std::move(wire));
    pkt.payload = pkt.payload.clone(util::kPacketHeadroom);  // rx crossing
    net::patch_l4_endpoints(pkt, ext, std::nullopt);
    pkt.payload = pkt.payload.clone(util::kPacketHeadroom);  // tx crossing
    copied += 2.0 * static_cast<double>(pkt.payload.size());
    wire = pkt.take_wire();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
  state.counters["bytes_copied_per_forward"] =
      copied / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NatRewriteCopyAtCrossing)->Arg(64)->Arg(1372);

/// End-to-end check through the full simulated network: one UDP packet
/// per iteration crosses inside -> NAT -> outside; the NAT stack's own
/// counters report how many payload bytes it copied.  Arg 0: 0 = default
/// zero-copy config (must report 0), 1 = copy_at_stack_crossing ablation.
/// Arg 1: concurrent flows kept live in the NAT's conntrack table — the
/// regression context for the per-forward mapping lookup (the
/// conntrack_entries counter records the table size the fast path
/// searched).
void BM_NatForwardSim(benchmark::State& state) {
  const bool ablation = state.range(0) != 0;
  const int flows = static_cast<int>(state.range(1));
  net::StackConfig nat_cfg;
  nat_cfg.copy_at_stack_crossing = ablation;
  // The background flows only send once: a generous idle budget keeps the
  // table at the configured size for the whole measured run.
  net::NatConfig ncfg;
  ncfg.timeouts.udp_idle = util::seconds(1'000'000);
  net::Network netw{11};
  auto& inside = netw.add_host("inside");
  auto& outside = netw.add_host("outside");
  auto& nat =
      netw.add_nat("nat", net::NatType::kPortRestrictedCone, nat_cfg, ncfg);
  sim::LinkConfig link;
  link.delay = util::microseconds(20);
  netw.connect(inside.stack(), {"eth0", net::Ipv4Address(10, 0, 0, 2), 24},
               nat.stack(), {"in", net::Ipv4Address(10, 0, 0, 1), 24}, link);
  netw.connect(nat.stack(), {"out", net::Ipv4Address(8, 0, 0, 1), 24},
               outside.stack(), {"eth0", net::Ipv4Address(8, 0, 0, 2), 24},
               link);
  inside.stack().add_route(net::Ipv4Prefix::parse("0.0.0.0/0"), 0,
                           net::Ipv4Address(10, 0, 0, 1));
  auto server = outside.stack().udp_bind(7000);
  std::uint64_t received = 0;
  server->set_receive_handler(
      [&](net::Ipv4Address, std::uint16_t, util::Buffer) { ++received; });
  auto client = inside.stack().udp_bind(5555);
  const auto payload = util::Buffer::filled(1372, 0x5A);
  // Background flows populate the conntrack table the measured flow's
  // lookups must traverse (one mapping per inside port).
  std::vector<std::shared_ptr<net::UdpSocket>> background;
  for (int i = 1; i < flows; ++i) {
    auto sock =
        inside.stack().udp_bind(static_cast<std::uint16_t>(20000 + i));
    sock->send_to(net::Ipv4Address(8, 0, 0, 2), 7000,
                  util::Buffer::filled(1, 0x42));
    background.push_back(std::move(sock));
    // Drain in batches so the one-shot burst does not overrun the link
    // queue (a dropped datagram would never create its mapping).
    if (i % 64 == 0) netw.loop().run_for(util::milliseconds(10));
  }
  // Warm up ARP resolution and the measured flow's NAT mapping.
  client->send_to(net::Ipv4Address(8, 0, 0, 2), 7000,
                  payload.clone(util::kPacketHeadroom));
  netw.loop().run_for(util::seconds(1));
  const auto copied_before = nat.stack().counters().payload_bytes_copied;
  const auto received_before = received;
  for (auto _ : state) {
    client->send_to(net::Ipv4Address(8, 0, 0, 2), 7000,
                    payload.clone(util::kPacketHeadroom));
    netw.loop().run_for(util::milliseconds(1));
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["bytes_copied_per_forward"] =
      static_cast<double>(nat.stack().counters().payload_bytes_copied -
                          copied_before) /
      iters;
  state.counters["delivered_fraction"] =
      static_cast<double>(received - received_before) / iters;
  state.counters["conntrack_entries"] =
      static_cast<double>(nat.mapping_count());
}
BENCHMARK(BM_NatForwardSim)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 256})
    ->Args({0, 4096});

// --- scatter-gather transport sends ----------------------------------------
// The two send paths the BufferChain refactor rewired: TCP edges link
// length-framed packets into the socket queue as shared handles (no
// stream serialization copy), and UDP fan-outs share one payload buffer
// across a sendmmsg-style batch.  `bytes_copied_per_*` counts CPU
// memcpys in the sender's stack (no socket send API copies);
// `bytes_gathered_per_*` is the NIC-style scatter-gather walk that
// assembles the wire image.  `rx_bytes_copied_per_send` counts the
// receiver's two copy points: a socket read spanning segments and a
// framed body spanning segments.

/// One Brunet-packet-sized buffer per iteration crosses a TcpEdge.  The
/// sender must not copy the payload: framing is a separate 4-byte
/// segment, the socket queue links shared handles, and segments gather
/// queue ranges straight into the wire image.  A packet that fits one
/// segment reaches the receiving edge as a share of that segment.
void BM_TcpEdgeStreamSend(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  net::Network netw{13};
  auto& ha = netw.add_host("ea");
  auto& hb = netw.add_host("eb");
  sim::LinkConfig link;
  link.delay = util::microseconds(50);
  link.bandwidth_bps = 10e9;
  netw.connect(ha.stack(), {"eth0", net::Ipv4Address(10, 0, 0, 1), 24},
               hb.stack(), {"eth0", net::Ipv4Address(10, 0, 0, 2), 24}, link);
  auto listener = hb.stack().tcp_listen(4000);
  std::shared_ptr<brunet::TcpEdge> server_edge;
  std::uint64_t received = 0;
  listener->set_accept_handler([&](std::shared_ptr<net::TcpSocket> s) {
    server_edge = std::make_shared<brunet::TcpEdge>(netw.loop(), std::move(s));
    server_edge->attach();
    server_edge->set_receive_handler([&](util::Buffer) { ++received; });
  });
  auto csock = ha.stack().tcp_connect(net::Ipv4Address(10, 0, 0, 2), 4000);
  auto client_edge = std::make_shared<brunet::TcpEdge>(netw.loop(), csock);
  client_edge->attach();
  netw.loop().run_for(util::seconds(1));  // handshake + ARP warmup
  const auto& tcp_stats = client_edge->socket()->stats();
  const auto& stack_ctr = ha.stack().counters();
  const auto copied0 = stack_ctr.payload_bytes_copied;
  const auto gathered0 =
      tcp_stats.payload_bytes_gathered + stack_ctr.payload_bytes_gathered;
  const auto received0 = received;
  auto rx_copied = [&] {
    return server_edge->socket()->stats().payload_bytes_copied +
           server_edge->stream()->bytes_copied();
  };
  const auto rx_copied0 = rx_copied();
  for (auto _ : state) {
    client_edge->send(
        util::Buffer::allocate(payload_size, util::kPacketHeadroom));
    netw.loop().run_for(util::milliseconds(1));
  }
  const auto iters = static_cast<double>(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
  state.counters["bytes_copied_per_send"] =
      static_cast<double>(stack_ctr.payload_bytes_copied - copied0) / iters;
  state.counters["rx_bytes_copied_per_send"] =
      static_cast<double>(rx_copied() - rx_copied0) / iters;
  state.counters["bytes_gathered_per_send"] =
      static_cast<double>(tcp_stats.payload_bytes_gathered +
                          stack_ctr.payload_bytes_gathered - gathered0) /
      iters;
  state.counters["delivered_fraction"] =
      static_cast<double>(received - received0) / iters;
}
BENCHMARK(BM_TcpEdgeStreamSend)->Arg(64)->Arg(1400);

struct UdpFanoutEnv {
  net::Network netw{17};
  net::Host* tx_host;
  net::Host* rx_host;
  std::shared_ptr<net::UdpSocket> tx;
  std::shared_ptr<net::UdpSocket> rx;
  std::uint64_t received = 0;

  UdpFanoutEnv() {
    tx_host = &netw.add_host("fa");
    rx_host = &netw.add_host("fb");
    sim::LinkConfig link;
    link.delay = util::microseconds(50);
    link.bandwidth_bps = 10e9;
    netw.connect(tx_host->stack(), {"eth0", net::Ipv4Address(10, 0, 0, 1), 24},
                 rx_host->stack(), {"eth0", net::Ipv4Address(10, 0, 0, 2), 24},
                 link);
    rx = rx_host->stack().udp_bind(7000);
    rx->set_receive_handler(
        [this](net::Ipv4Address, std::uint16_t, util::Buffer) { ++received; });
    tx = tx_host->stack().udp_bind(5000);
    // ARP warmup.
    tx->send_to(net::Ipv4Address(10, 0, 0, 2), 7000,
                util::Buffer::filled(1, 0x1));
    netw.loop().run_for(util::seconds(1));
  }
};

/// Pre-batch fan-out: one owning vector (header + payload copied
/// together) and one socket crossing per replica.  The wrapped vector has
/// no headroom, so the UDP header prepend copies it once more.
void BM_UdpFanoutCopyPerDest(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  UdpFanoutEnv env;
  const std::vector<std::uint8_t> header(48, 0xA5);
  const std::vector<std::uint8_t> payload(1200, 0x5A);
  const auto& c = env.tx_host->stack().counters();
  const auto copied0 = c.payload_bytes_copied;
  const auto calls0 = c.udp_send_calls;
  const auto sent0 = env.tx->datagrams_sent();
  for (auto _ : state) {
    for (int i = 0; i < replicas; ++i) {
      std::vector<std::uint8_t> wire = header;
      wire.insert(wire.end(), payload.begin(), payload.end());
      env.tx->send_to(net::Ipv4Address(10, 0, 0, 2), 7000,
                      util::Buffer::wrap(std::move(wire)));
    }
    env.netw.loop().run_for(util::milliseconds(1));
  }
  const auto datagrams =
      static_cast<double>(env.tx->datagrams_sent() - sent0);
  state.counters["bytes_copied_per_datagram"] =
      static_cast<double>(c.payload_bytes_copied - copied0) / datagrams;
  state.counters["datagrams_per_syscall"] =
      datagrams / static_cast<double>(c.udp_send_calls - calls0);
}
BENCHMARK(BM_UdpFanoutCopyPerDest)->Arg(8);

/// Batched fan-out: every replica shares one payload buffer (its header
/// rides a separate per-destination segment) and the whole batch crosses
/// the socket once.
void BM_UdpFanoutBatchShared(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  UdpFanoutEnv env;
  const auto payload =
      util::Buffer::copy_of(std::vector<std::uint8_t>(1200, 0x5A));
  const auto& c = env.tx_host->stack().counters();
  const auto copied0 = c.payload_bytes_copied;
  const auto gathered0 = c.payload_bytes_gathered;
  const auto calls0 = c.udp_send_calls;
  const auto sent0 = env.tx->datagrams_sent();
  for (auto _ : state) {
    std::vector<net::UdpSendItem> items;
    items.reserve(static_cast<std::size_t>(replicas));
    for (int i = 0; i < replicas; ++i) {
      util::BufferChain chain;
      auto hdr = util::Buffer::allocate(48, util::kPacketHeadroom);
      hdr.writable()[0] = static_cast<std::uint8_t>(i);
      chain.append(std::move(hdr));
      chain.append(payload.share());
      items.push_back(
          net::UdpSendItem{net::Ipv4Address(10, 0, 0, 2), 7000,
                           std::move(chain)});
    }
    env.tx->send_batch(items);
    env.netw.loop().run_for(util::milliseconds(1));
  }
  const auto datagrams =
      static_cast<double>(env.tx->datagrams_sent() - sent0);
  state.counters["bytes_copied_per_datagram"] =
      static_cast<double>(c.payload_bytes_copied - copied0) / datagrams;
  state.counters["bytes_gathered_per_datagram"] =
      static_cast<double>(c.payload_bytes_gathered - gathered0) / datagrams;
  state.counters["datagrams_per_syscall"] =
      datagrams / static_cast<double>(c.udp_send_calls - calls0);
}
BENCHMARK(BM_UdpFanoutBatchShared)->Arg(8);

/// The endpoint's receive step for one full-size tunneled segment:
/// verify the pseudo-header checksum and parse the header in place.  The
/// payload stays a view of the received frame, so the step allocates
/// nothing (allocs_per_segment, gated at 0).
void BM_TcpSegmentReceive(benchmark::State& state) {
  const auto src = net::Ipv4Address(10, 0, 0, 1);
  const auto dst = net::Ipv4Address(10, 0, 0, 2);
  net::TcpSegment seg;
  seg.src_port = 1234;
  seg.dst_port = 80;
  seg.flags.ack = true;
  const util::BufferChain data(util::Buffer::filled(1160, 0x42));
  const auto wire = seg.encode_gather(src, dst, 0, data, 0, data.size());
  const std::uint64_t allocs0 = bench::allocs_counted();
  bench::set_alloc_counting(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::TcpView::parse(wire.view(), src, dst));
  }
  bench::set_alloc_counting(false);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1160);
  state.counters["allocs_per_segment"] =
      static_cast<double>(bench::allocs_counted() - allocs0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_TcpSegmentReceive);

}  // namespace

// BENCHMARK_MAIN, plus machine-readable output: default to writing
// BENCH_micro_core.json next to the working directory when the caller did
// not pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only: --benchmark_out_format alone must not suppress the
    // default output file.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
