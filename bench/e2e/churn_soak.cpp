// churn_soak: self-configuration under churn — the control plane.
//
// 32 unnumbered IPOP nodes on one proxy-ARP LAN lease their virtual IPs
// through DHCP-over-the-DHT.  Set-up ends a resolver-cache lifetime after
// every node holds a lease, the ring is successor-linked and no lease is
// duplicated.  Then members leave gracefully and rejoin on a fixed cadence
// (leave, leave, rejoin, rejoin; one event every two simulated seconds,
// ~0.5 departures per node per minute), with the seed choosing who.  DHCP,
// DHT handoff and replication, Brunet-ARP and ring repair do the work;
// there is no bulk data.
//
// The workload's operations are what a node does before it can reach a
// peer: a Brunet-ARP lookup of the peer's virtual IP, answered by the DHT
// (the resolver's cached binding is dropped first).  An open loop of 200
// lookups per simulated second sweeps every ordered pair of nodes in a
// seeded order, skipping pairs whose resolver is not configured or whose
// target has not held its address for a resolver-cache lifetime.  A lookup
// succeeds when it names the target's overlay node; lookups whose endpoint
// leaves before the answer say nothing about the overlay and are excluded.
// Alongside, 10 datagrams per simulated second cross the tunnel between
// swept pairs, each resent every second until it arrives or a deadline
// passes: these are the tunneled packets host_pps counts.  Duplicate
// leases, and datagrams that arrive corrupt, twice or at the wrong node,
// are correctness violations.
//
// Crashes are left out: a crashed node black-holes routes through it until
// the keepalive timeout, and whether more than 1% of operations hit such a
// stall depends on the seed, which would make the tail latency jump between
// milliseconds and seconds from run to run.  bench_churn_soak covers crash
// recovery.
#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "ipop/node.hpp"
#include "layers.hpp"
#include "net/topology.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ipop;

constexpr int kNodes = 32;
constexpr std::size_t kReplicas = 3;
constexpr auto kChurnInterval = util::seconds(2);
constexpr double kLookupsPerS = 200;
constexpr double kDatagramsPerS = 10;
constexpr auto kWindow = util::seconds(1);
constexpr auto kResend = util::seconds(1);
constexpr auto kDatagramDeadline = util::seconds(10);
constexpr auto kArpCacheTtl = util::seconds(10);
/// A target has held its address for a resolver-cache lifetime, so no
/// cache anywhere still binds the address to a previous holder.
constexpr auto kTargetAge = kArpCacheTtl + util::seconds(2);
constexpr auto kAuditInterval = util::seconds(5);
constexpr auto kMaxWarmup = util::seconds(300);
constexpr std::uint16_t kSinkPort = 7000;
constexpr std::uint16_t kClientPort = 7001;
constexpr std::size_t kDatagramBytes = 64;

/// Measured windows, sized so kReplays replays take about `seconds` on a
/// 4-vCPU Xeon VM.
int windows_for(double seconds) {
  return std::max(10, static_cast<int>(std::lround(seconds * 2.4)));
}

net::Ipv4Address underlay_ip(int i) {
  return net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
}

struct SoakNode {
  net::Host* host = nullptr;
  std::unique_ptr<core::IpopNode> node;
  bool live = false;
  /// Bumped on every departure: an operation whose endpoint epochs moved
  /// lost an endpoint mid-flight.
  std::uint64_t epoch = 0;
  util::TimePoint started{};
  util::TimePoint configured{};
  std::shared_ptr<net::UdpSocket> sink;
  std::shared_ptr<net::UdpSocket> client;
};

struct Bed {
  explicit Bed(std::uint64_t seed) : net(seed) {}
  net::Network net;
  std::vector<SoakNode> soak;
  std::vector<core::IpopNode*> nodes;
  std::vector<net::Stack*> stacks;
  /// Seconds from start() to a held lease, one per acquisition.
  std::vector<double> acq_s;
  bool warm = false;
};

/// Nodes whose table lacks their ring successor (0 = consistent ring).
std::size_t unlinked(const Bed& bed) {
  std::vector<const SoakNode*> live;
  for (const auto& s : bed.soak) {
    if (s.live) live.push_back(&s);
  }
  std::sort(live.begin(), live.end(), [](const SoakNode* a, const SoakNode* b) {
    return a->node->overlay().address() < b->node->overlay().address();
  });
  std::size_t missing = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto& succ = live[(i + 1) % live.size()]->node->overlay();
    if (!live[i]->node->overlay().table().contains(succ.address())) ++missing;
  }
  return missing;
}

std::size_t duplicate_leases(const Bed& bed) {
  std::map<net::Ipv4Address, int> holders;
  for (const auto& s : bed.soak) {
    if (s.live && s.node->self_configured()) ++holders[s.node->virtual_ip()];
  }
  std::size_t dups = 0;
  for (const auto& [ip, n] : holders) {
    if (n > 1) dups += static_cast<std::size_t>(n - 1);
  }
  return dups;
}

std::unique_ptr<Bed> build(std::uint64_t seed, Tracer& tr) {
  auto bed = std::make_unique<Bed>(seed);
  bed->soak.resize(kNodes);
  {
    auto span = tr.span("build_topology", "net");
    auto& sw = bed->net.add_switch("core");
    sw.set_arp_suppression(true);
    sim::LinkConfig lan;
    lan.delay = util::microseconds(200);
    for (int i = 0; i < kNodes; ++i) {
      auto& h = bed->net.add_host("c" + std::to_string(i));
      bed->net.connect_to_switch(h.stack(), {"eth0", underlay_ip(i), 8}, sw, lan);
      bed->soak[static_cast<std::size_t>(i)].host = &h;
      bed->stacks.push_back(&h.stack());
    }
    bed->net.plan_shards(1);
  }
  {
    // The bench_churn_soak configuration: churn-tuned failure detection,
    // three replicas, short resolver cache, fast binding refresh.
    auto span = tr.span("construct_nodes", "ipop");
    const auto ring_bits =
        static_cast<std::size_t>(std::bit_width(static_cast<unsigned>(kNodes)));
    for (int i = 0; i < kNodes; ++i) {
      auto& s = bed->soak[static_cast<std::size_t>(i)];
      core::IpopConfig cfg;
      cfg.use_dhcp = true;
      cfg.dhcp.renew_interval = util::seconds(30);
      cfg.overlay.near_per_side = 2;
      cfg.overlay.shortcut_target = std::max<std::size_t>(2, ring_bits);
      cfg.dht.replicas = kReplicas;
      cfg.brunet_arp.cache_ttl = kArpCacheTtl;
      cfg.brunet_arp.reregister_interval = util::seconds(15);
      cfg.overlay.edge_idle_ping = util::seconds(2);
      cfg.overlay.edge_timeout = util::seconds(6);
      cfg.cpu_per_packet = util::microseconds(50);
      cfg.sched_latency = util::microseconds(200);
      s.node = std::make_unique<core::IpopNode>(*s.host, cfg);
      if (i > 0) {
        s.node->add_seed({brunet::TransportAddress::Proto::kUdp,
                          underlay_ip(0), 17001});
      }
      Bed* b = bed.get();
      s.node->set_configured_handler([b, &s](net::Ipv4Address) {
        s.configured = s.host->loop().now();
        b->acq_s.push_back(util::to_seconds(s.configured - s.started));
      });
      s.sink = s.host->stack().udp_bind(kSinkPort);
      s.client = s.host->stack().udp_bind(kClientPort);
      bed->nodes.push_back(s.node.get());
    }
  }
  {
    auto span = tr.span("staggered_join", "sim");
    for (auto& s : bed->soak) {
      s.started = bed->net.now();
      s.live = true;
      s.node->start();
      bed->net.run_for(util::milliseconds(250));
    }
  }
  {
    auto span = tr.span("converge", "sim");
    const auto deadline = bed->net.now() + kMaxWarmup;
    while (bed->net.now() < deadline) {
      bed->net.run_for(util::seconds(2));
      const bool all = std::all_of(bed->soak.begin(), bed->soak.end(),
                                   [](const SoakNode& s) {
                                     return s.node->self_configured();
                                   });
      if (all && unlinked(*bed) == 0 && duplicate_leases(*bed) == 0) {
        bed->warm = true;
        break;
      }
    }
  }
  {
    // Every lease is then older than a resolver-cache lifetime, so every
    // node is a target from the first measured window on.
    auto span = tr.span("settle", "sim");
    bed->net.run_for(kTargetAge);
  }
  return bed;
}

/// Churn events, lookups, datagrams and lease audits, all scheduled as
/// simulation events inside the measured window.
class Churn {
 public:
  Churn(Bed& bed, std::uint64_t seed, Report& report, Tracer& tracer)
      : bed_(bed), rng_(seed * 7919 + 13), report_(report), tracer_(tracer) {
    for (std::size_t a = 0; a < bed_.soak.size(); ++a) {
      for (std::size_t b = 0; b < bed_.soak.size(); ++b) {
        if (a != b) pairs_.emplace_back(a, b);
      }
    }
    for (std::size_t i = pairs_.size() - 1; i > 0; --i) {
      std::swap(pairs_[i], pairs_[static_cast<std::size_t>(
                               rng_.uniform_int(0, static_cast<std::int64_t>(i)))]);
    }
    for (std::size_t i = 0; i < bed_.soak.size(); ++i) {
      bed_.soak[i].sink->set_receive_handler(
          [this, i](net::Ipv4Address, std::uint16_t, util::Buffer d) {
            on_datagram(i, d);
          });
    }
  }

  void start(util::TimePoint t0, util::TimePoint end) {
    end_ = end;
    loop().schedule_at(t0 + kChurnInterval / 2, [this] { churn_tick(0); });
    loop().schedule_at(t0, [this] { lookup_tick(); });
    loop().schedule_at(t0, [this] { datagram_tick(); });
    loop().schedule_at(t0 + kAuditInterval, [this] { audit_tick(); });
  }

  const Outcome& outcome() const { return out_; }
  double resolve_ok_frac() const {
    return lookups_ > 0 ? static_cast<double>(lookups_ok_) /
                              static_cast<double>(lookups_)
                        : 0.0;
  }

 private:
  struct Datagram {
    std::size_t a = 0, b = 0;
    net::Ipv4Address vip;
    std::uint64_t a_epoch = 0, b_epoch = 0;
    util::TimePoint first_sent{};
    std::uint64_t attempts = 0;
    std::uint64_t seen = 0;  // bit k: attempt k arrived
    bool delivered = false;
  };

  sim::EventLoop& loop() { return bed_.net.loop(); }

  bool eligible(std::size_t i, util::Duration min_age) {
    const auto& s = bed_.soak[i];
    return s.live && s.node->self_configured() &&
           loop().now() - s.configured > min_age;
  }
  bool sender_ok(std::size_t i) { return eligible(i, util::seconds(2)); }
  bool target_ok(std::size_t i) { return eligible(i, kTargetAge); }

  /// Next pair of the sweep at `cursor` whose endpoints are eligible.
  std::optional<std::pair<std::size_t, std::size_t>> next_pair(
      std::size_t& cursor) {
    for (std::size_t tries = 0; tries < pairs_.size(); ++tries) {
      const auto pair = pairs_[cursor];
      cursor = (cursor + 1) % pairs_.size();
      if (sender_ok(pair.first) && target_ok(pair.second)) return pair;
    }
    return std::nullopt;
  }

  std::size_t pick(const std::vector<std::size_t>& from) {
    return from[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  }

  // --- churn ------------------------------------------------------------------

  void churn_tick(std::uint64_t n) {
    if (loop().now() >= end_) return;
    std::vector<std::size_t> live, down;
    for (std::size_t i = 1; i < bed_.soak.size(); ++i) {  // node 0 = seed
      (bed_.soak[i].live ? live : down).push_back(i);
    }
    if (n % 4 < 2) {
      auto& s = bed_.soak[pick(live)];
      s.live = false;
      ++s.epoch;
      auto span = tracer_.span("node_leave", "ipop");
      s.node->leave();
    } else {
      auto& s = bed_.soak[pick(down)];
      s.started = loop().now();
      s.live = true;
      auto span = tracer_.span("node_start", "ipop");
      s.node->start();
    }
    loop().schedule_after(kChurnInterval, [this, n] { churn_tick(n + 1); });
  }

  // --- Brunet-ARP lookups -----------------------------------------------------

  void lookup_tick() {
    if (loop().now() >= end_) return;
    loop().schedule_after(util::seconds_f(1.0 / kLookupsPerS),
                          [this] { lookup_tick(); });
    const auto pair = next_pair(lookup_cursor_);
    if (!pair) return;
    const auto [a, b] = *pair;
    auto* arp = bed_.soak[a].node->brunet_arp();
    const auto vip = bed_.soak[b].node->virtual_ip();
    const auto expect = bed_.soak[b].node->overlay().address();
    const auto epochs = std::pair(bed_.soak[a].epoch, bed_.soak[b].epoch);
    const auto asked = loop().now();
    auto span = tracer_.span("arp_lookup", "ipop");
    arp->invalidate(vip);
    arp->resolve(vip, [this, a, b, epochs, asked,
                       expect](std::optional<core::ArpBinding> binding) {
      if (std::pair(bed_.soak[a].epoch, bed_.soak[b].epoch) != epochs) return;
      ++out_.attempted;
      ++lookups_;
      if (!binding || !(binding->addr == expect)) return;
      ++out_.delivered;
      ++lookups_ok_;
      out_.latency.add(util::to_milliseconds(loop().now() - asked));
    });
  }

  // --- datagrams ----------------------------------------------------------------

  void datagram_tick() {
    if (loop().now() >= end_) return;
    loop().schedule_after(util::seconds_f(1.0 / kDatagramsPerS),
                          [this] { datagram_tick(); });
    const auto pair = next_pair(datagram_cursor_);
    if (!pair) return;
    Datagram d;
    d.a = pair->first;
    d.b = pair->second;
    d.vip = bed_.soak[d.b].node->virtual_ip();
    d.a_epoch = bed_.soak[d.a].epoch;
    d.b_epoch = bed_.soak[d.b].epoch;
    d.first_sent = loop().now();
    const std::size_t id = datagrams_.size();
    datagrams_.push_back(d);
    send_attempt(id);
    loop().schedule_after(kDatagramDeadline, [this, id] { conclude(id); });
  }

  /// An endpoint left or changed address: the datagram says nothing about
  /// the overlay any more.
  bool aborted(const Datagram& d) const {
    const auto& a = bed_.soak[d.a];
    const auto& b = bed_.soak[d.b];
    return !a.live || !b.live || a.epoch != d.a_epoch || b.epoch != d.b_epoch ||
           !(b.node->virtual_ip() == d.vip);
  }

  void send_attempt(std::size_t id) {
    Datagram& d = datagrams_[id];
    if (d.delivered || aborted(d) ||
        loop().now() - d.first_sent >= kDatagramDeadline) {
      return;
    }
    auto buf = util::Buffer::allocate(kDatagramBytes, util::kPacketHeadroom);
    write_message(buf.writable(),
                  MessageHeader{static_cast<std::uint32_t>(id), d.attempts++,
                                d.first_sent.count(),
                                static_cast<std::uint32_t>(kDatagramBytes)});
    {
      auto span = tracer_.span("udp_send_to", "net");
      bed_.soak[d.a].client->send_to(d.vip, kSinkPort, std::move(buf));
    }
    loop().schedule_after(kResend, [this, id] { send_attempt(id); });
  }

  void on_datagram(std::size_t at, const util::Buffer& data) {
    const auto h = read_message(data.as_span());
    if (!h || h->flow >= datagrams_.size() || h->seq >= 64) {
      return fail("corrupt datagram");
    }
    Datagram& d = datagrams_[h->flow];
    if (at != d.b) return fail("datagram delivered to the wrong node");
    const std::uint64_t bit = 1ull << h->seq;
    if ((d.seen & bit) != 0) return fail("duplicate datagram");
    d.seen |= bit;
    if (d.delivered) return;  // a resend crossed the first delivery
    d.delivered = true;
    if (loop().now() < end_) out_.window_bytes += kDatagramBytes;
  }

  void conclude(std::size_t id) {
    const Datagram& d = datagrams_[id];
    if (!d.delivered && aborted(d)) return;
    ++out_.attempted;
    if (d.delivered) ++out_.delivered;
  }

  // --- audits -----------------------------------------------------------------

  void audit_tick() {
    if (loop().now() >= end_) return;
    loop().schedule_after(kAuditInterval, [this] { audit_tick(); });
    if (duplicate_leases(bed_) > 0) fail("duplicate lease");
  }

  void fail(const char* what) {
    if (++violations_ <= 10) report_.violation(what);
  }

  Bed& bed_;
  util::Rng rng_;
  Report& report_;
  Tracer& tracer_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  std::size_t lookup_cursor_ = 0;
  std::size_t datagram_cursor_ = 0;
  std::vector<Datagram> datagrams_;
  Outcome out_;
  util::TimePoint end_{};
  std::uint64_t lookups_ = 0;
  std::uint64_t lookups_ok_ = 0;
  std::uint64_t violations_ = 0;
};

/// Set-up (timed): the ring self-configures; then churn starts.
struct Run {
  std::unique_ptr<Bed> bed;
  std::unique_ptr<Churn> churn;
  double setup_s = 0;
};

Run set_up(const Options& opt, int windows, Report& report, Tracer& tracer) {
  Run run;
  const auto t0 = Wall::now();
  run.bed = build(opt.seed, tracer);
  run.setup_s = seconds_since(t0);
  if (!run.bed->warm) report.violation("warm-up did not self-configure the ring");
  run.churn = std::make_unique<Churn>(*run.bed, opt.seed, report, tracer);
  const auto start = run.bed->net.now();
  run.churn->start(start, start + kWindow * windows);
  return run;
}

}  // namespace

void run_churn_soak(const Options& opt, Report& report) {
  const int windows = windows_for(opt.seconds);
  const double measured_s = util::to_seconds(kWindow) * windows;
  // Datagrams sent in the window conclude by their deadline.
  const int total = windows + static_cast<int>(kDatagramDeadline / kWindow) + 1;

  if (!opt.trace) {
    run_end_to_end(report, measured_s, [&] {
      Tracer off(false);
      Run run = set_up(opt, windows, report, off);
      Replay r;
      r.setup_s = run.setup_s;
      r.log = run_windows(run.bed->net, off, total, kWindow,
                          [&] { return injected_total(run.bed->nodes); });
      r.outcome = run.churn->outcome();
      return r;
    });
    return;
  }

  WindowLog reference;
  {
    Tracer off(false);
    Run run = set_up(opt, windows, report, off);
    reference = run_windows(run.bed->net, off, total, kWindow,
                            [&] { return injected_total(run.bed->nodes); });
  }
  Tracer tracer(true);
  Run run = set_up(opt, windows, report, tracer);
  Bed& bed = *run.bed;
  TracedPhase t = measure_traced(
      bed.net, tracer, total, kWindow,
      [&] { return read_counters(bed.net, bed.nodes, bed.stacks); }, reference);
  t.dht_fanout = kReplicas + 1;
  std::vector<double> acq = bed.acq_s;
  t.acq_samples = acq.size();
  std::sort(acq.begin(), acq.end());
  if (!acq.empty()) {
    t.acq_p50_s = acq[acq.size() / 2];
    t.acq_p90_s = acq[acq.size() * 9 / 10];
  }
  t.resolve_ok_frac = run.churn->resolve_ok_frac();
  const ProbeCosts costs =
      run_probes(bed.nodes[0]->overlay().table(), t.log.queue_depth_max, 0);
  report_layers(report, t, costs);
  report.record_outcome(run.churn->outcome());
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
}

}  // namespace e2e
