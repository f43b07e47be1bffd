// tunnel_clear / tunnel_sealed: the per-packet data path.
//
// IPOP nodes on one switched LAN (200 us links, proxy ARP on).  Every node
// sends UDP datagrams over the virtual network to every other node, with
// payloads alternating between 64 B and 1172 B.  Every ordered pair is a
// flow, so the mix of overlay path lengths is the whole network's and does
// not depend on which pairs a seed happens to draw; the seed sets each
// flow's phase and the simulation's own randomness.
//
// tunnel_clear: 64 nodes, the classic SHA1(IP) mapping, so payloads travel
// unsealed and crypto is bypassed.  tunnel_sealed: Brunet-ARP on, so every
// destination is resolved through the DHT and every datagram is sealed at
// the source and opened at the destination.  Sealing costs ~250x more host
// time per datagram, so the sealed bed has 16 nodes (240 flows) to keep
// per-pair resolution and key agreement inside set-up.  A crypto change
// should move tunnel_sealed and leave tunnel_clear alone.
//
// Traffic is an open loop in simulated time: every send is an event
// scheduled at its due time, so the generator is never late (asserted).
// Set-up ends once every flow has carried one datagram, so resolution and
// key agreement are set-up work and the measured phase is steady state.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

#include "ipop/node.hpp"
#include "layers.hpp"
#include "net/topology.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ipop;

constexpr std::uint16_t kSinkPort = 7000;
constexpr std::uint16_t kSourcePort = 9000;
/// Largest payload that fits the 1200-B tap MTU (1173 B is dropped).
constexpr std::size_t kLargePayload = 1172;
constexpr std::size_t kSmallPayload = 64;
constexpr auto kWarmup = util::seconds(2);

struct Shape {
  int nodes;
  double total_pps;         // datagrams per simulated second, all flows
  util::Duration window;    // one measured window
  int windows;              // measured windows whose datagrams count
  util::Duration converge;  // overlay convergence in set-up
};

/// Sized so kReplays replays of set-up plus measured phase take about
/// `seconds` on a 4-vCPU Xeon VM.
Shape shape_of(bool sealed, double seconds) {
  if (sealed) {
    // ~2.4 ms of host time per sealed datagram.
    return Shape{16, 640, util::milliseconds(250),
                 std::max(8, static_cast<int>(std::lround(seconds * 0.8))),
                 util::seconds(30)};
  }
  // ~11 us of host time per clear datagram.
  return Shape{64, 8000, util::seconds(1),
               std::max(10, static_cast<int>(std::lround(seconds * 2.5))),
               util::seconds(120)};
}

net::Ipv4Address vip_of(int i) {
  return net::Ipv4Address(172, 16, 0, static_cast<std::uint8_t>(i + 2));
}

struct Bed {
  explicit Bed(std::uint64_t seed) : net(seed) {}
  net::Network net;
  std::vector<net::Host*> hosts;
  std::vector<std::unique_ptr<core::IpopNode>> owned;
  std::vector<core::IpopNode*> nodes;
  std::vector<net::Stack*> stacks;
};

std::unique_ptr<Bed> build(std::uint64_t seed, bool sealed, const Shape& shape,
                           Tracer& tr) {
  auto bed = std::make_unique<Bed>(seed);
  {
    auto span = tr.span("build_topology", "net");
    auto& sw = bed->net.add_switch("lan");
    sw.set_arp_suppression(true);
    sim::LinkConfig lan;
    lan.delay = util::microseconds(200);
    for (int i = 0; i < shape.nodes; ++i) {
      auto& h = bed->net.add_host("h" + std::to_string(i));
      bed->net.connect_to_switch(
          h.stack(),
          {"eth0", net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
           8},
          sw, lan);
      bed->hosts.push_back(&h);
      bed->stacks.push_back(&h.stack());
    }
    bed->net.plan_shards(1);
  }
  {
    auto span = tr.span("construct_nodes", "ipop");
    for (int i = 0; i < shape.nodes; ++i) {
      core::IpopConfig cfg;
      cfg.tap.ip = vip_of(i);
      cfg.overlay.near_per_side = 2;
      cfg.overlay.shortcut_target = 2;
      cfg.use_brunet_arp = sealed;
      auto node = std::make_unique<core::IpopNode>(
          *bed->hosts[static_cast<std::size_t>(i)], cfg);
      if (i > 0) {
        node->add_seed({brunet::TransportAddress::Proto::kUdp,
                        net::Ipv4Address(10, 0, 0, 1), 17001});
      }
      bed->nodes.push_back(node.get());
      bed->owned.push_back(std::move(node));
    }
  }
  {
    auto span = tr.span("start_nodes", "ipop");
    for (auto* n : bed->nodes) n->start();
  }
  {
    auto span = tr.span("converge", "sim");
    bed->net.run_for(shape.converge);
  }
  return bed;
}

/// Open-loop UDP flows between every ordered pair of nodes, with a
/// validating sink on every node.
class Traffic {
 public:
  Traffic(Bed& bed, std::uint64_t seed, const Shape& shape, Report& report,
          Tracer& tracer)
      : bed_(bed),
        report_(report),
        tracer_(tracer),
        ledger_(static_cast<std::size_t>(shape.nodes * (shape.nodes - 1))) {
    util::Rng rng(seed * 0x2545F4914F6CDD1Dull + 1);
    const auto flows = static_cast<double>(shape.nodes * (shape.nodes - 1));
    const auto interval = util::seconds_f(flows / shape.total_pps);
    for (int src = 0; src < shape.nodes; ++src) {
      sources_.push_back(
          bed_.hosts[static_cast<std::size_t>(src)]->stack().udp_bind(kSourcePort));
      for (int dst = 0; dst < shape.nodes; ++dst) {
        if (dst == src) continue;
        Flow flow;
        flow.src = src;
        flow.dst = dst;
        flow.interval = interval;
        flow.phase = util::nanoseconds(rng.uniform_int(0, interval.count() - 1));
        flows_.push_back(flow);
      }
    }
    for (int dst = 0; dst < shape.nodes; ++dst) {
      auto sink = bed_.hosts[static_cast<std::size_t>(dst)]->stack().udp_bind(kSinkPort);
      sink->set_receive_handler(
          [this, dst](net::Ipv4Address, std::uint16_t, util::Buffer data) {
            receive(dst, data);
          });
      sinks_.push_back(std::move(sink));
    }
  }

  /// One datagram per flow, so every destination is resolved (and every
  /// sealed pair has agreed its key) before the measured phase.
  void warm_up() {
    for (std::size_t f = 0; f < flows_.size(); ++f) send(f, bed_.net.now());
    bed_.net.run_for(kWarmup);
  }

  void start(util::TimePoint t0, util::TimePoint end) {
    start_ = t0;
    end_ = end;
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      flows_[f].start = t0 + flows_[f].phase -
                        flows_[f].interval *
                            static_cast<std::int64_t>(flows_[f].next_seq);
      due_.emplace(next_due(f), f);
    }
    arm();
  }

  const Outcome& outcome() const { return out_; }
  /// Worst lateness of a send event against its schedule (must be 0).
  util::Duration max_lateness() const { return max_late_; }

 private:
  struct Flow {
    int src = 0;
    int dst = 0;
    util::Duration interval{};
    util::Duration phase{};
    util::TimePoint start{};
    std::uint64_t next_seq = 0;
  };

  util::TimePoint next_due(std::size_t f) const {
    const auto& flow = flows_[f];
    return flow.start + flow.interval * static_cast<std::int64_t>(flow.next_seq);
  }

  /// The generator is one event source: a heap of every flow's next due
  /// time behind one pending simulation event, so the simulator's event
  /// queue (and peak_rss_mb) holds only the network's own work.
  void arm() {
    bed_.net.loop().schedule_at(due_.top().first, [this] { fire(); });
  }

  void fire() {
    const auto now = bed_.net.loop().now();
    while (due_.top().first <= now) {
      const auto [due, f] = due_.top();
      due_.pop();
      send(f, due);
      due_.emplace(next_due(f), f);
    }
    arm();
  }

  void send(std::size_t f, util::TimePoint due) {
    auto& flow = flows_[f];
    auto& loop = bed_.net.loop();
    max_late_ = std::max(max_late_, loop.now() - due);
    const std::uint64_t seq = flow.next_seq++;
    const std::size_t len = seq % 2 == 0 ? kSmallPayload : kLargePayload;
    auto buf = util::Buffer::allocate(len, util::kPacketHeadroom);
    write_message(buf.writable(),
                  MessageHeader{static_cast<std::uint32_t>(f), seq,
                                loop.now().count(),
                                static_cast<std::uint32_t>(len)});
    if (loop.now() >= start_ && loop.now() < end_) ++out_.attempted;
    auto span = tracer_.span("udp_send_to", "net");
    sources_[static_cast<std::size_t>(flow.src)]->send_to(vip_of(flow.dst),
                                                          kSinkPort,
                                                          std::move(buf));
  }

  void receive(int dst, const util::Buffer& data) {
    const auto h = read_message(data.as_span());
    if (!h) return fail("corrupt datagram");
    if (h->flow >= flows_.size() || flows_[h->flow].dst != dst) {
      return fail("datagram delivered to the wrong node");
    }
    if (h->len != (h->seq % 2 == 0 ? kSmallPayload : kLargePayload)) {
      return fail("datagram length does not match its sequence number");
    }
    if (!ledger_.mark(h->flow, h->seq)) return fail("duplicate datagram");
    const util::TimePoint sent{h->sent_ns};
    const auto now = bed_.net.loop().now();
    if (sent >= start_ && sent < end_) {
      ++out_.delivered;
      out_.latency.add(util::to_milliseconds(now - sent));
    }
    if (now >= start_ && now < end_) out_.window_bytes += h->len;
  }

  void fail(const char* what) {
    if (++violations_ <= 10) report_.violation(what);
  }

  Bed& bed_;
  Report& report_;
  Tracer& tracer_;
  std::vector<Flow> flows_;
  using Due = std::pair<util::TimePoint, std::size_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_;
  std::vector<std::shared_ptr<net::UdpSocket>> sources_;
  std::vector<std::shared_ptr<net::UdpSocket>> sinks_;
  DeliveryLedger ledger_;
  Outcome out_;
  util::TimePoint start_ = util::TimePoint::max();
  util::TimePoint end_ = util::TimePoint::max();
  util::Duration max_late_{};
  std::uint64_t violations_ = 0;
};

/// Set-up (timed), then the measured phase: `shape.windows` counted
/// windows plus one drain window for the last datagrams in flight.
struct Run {
  std::unique_ptr<Bed> bed;
  std::unique_ptr<Traffic> traffic;
  double setup_s = 0;

  void check_generator(Report& report) const {
    if (traffic->max_lateness() > util::Duration::zero()) {
      report.violation("generator ran late");
    }
  }
};

Run set_up(const Options& opt, bool sealed, const Shape& shape, Report& report,
           Tracer& tracer) {
  Run run;
  const auto t0 = Wall::now();
  run.bed = build(opt.seed, sealed, shape, tracer);
  run.traffic = std::make_unique<Traffic>(*run.bed, opt.seed, shape, report, tracer);
  {
    auto span = tracer.span("warm_up_flows", "net");
    run.traffic->warm_up();
  }
  run.setup_s = seconds_since(t0);
  const auto start = run.bed->net.now();
  run.traffic->start(start, start + shape.window * shape.windows);
  return run;
}

}  // namespace

void run_tunnel(const Options& opt, bool sealed, Report& report) {
  const Shape shape = shape_of(sealed, opt.seconds);
  const int windows = shape.windows + 1;
  const double measured_s = util::to_seconds(shape.window) * shape.windows;

  if (!opt.trace) {
    run_end_to_end(report, measured_s, [&] {
      Tracer off(false);
      Run run = set_up(opt, sealed, shape, report, off);
      Replay r;
      r.setup_s = run.setup_s;
      r.log = run_windows(run.bed->net, off, windows, shape.window,
                          [&] { return injected_total(run.bed->nodes); });
      r.outcome = run.traffic->outcome();
      run.check_generator(report);
      return r;
    });
    return;
  }

  WindowLog reference;
  {
    Tracer off(false);
    Run run = set_up(opt, sealed, shape, report, off);
    reference = run_windows(run.bed->net, off, windows, shape.window,
                            [&] { return injected_total(run.bed->nodes); });
  }
  Tracer tracer(true);
  Run run = set_up(opt, sealed, shape, report, tracer);
  Bed& bed = *run.bed;
  TracedPhase t = measure_traced(
      bed.net, tracer, windows, shape.window,
      [&] { return read_counters(bed.net, bed.nodes, bed.stacks); }, reference);
  const ProbeCosts costs =
      run_probes(bed.nodes[0]->overlay().table(), t.log.queue_depth_max, 0);
  report_layers(report, t, costs);
  report.record_outcome(run.traffic->outcome());
  run.check_generator(report);
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
}

}  // namespace e2e
