// Churn soak: the self-configuration workload.  N IPOP nodes boot with no
// virtual IP on one simulated LAN, lease addresses through
// DHCP-over-the-DHT, then face Poisson churn (graceful leaves, crashes,
// re-joins) while the harness audits the three viability metrics of the
// smart-grid trade-off study (arXiv 2112.06848): acquisition latency,
// duplicate leases (must be zero) and Brunet-ARP resolution success.
// Results go to BENCH_churn_soak.json for tools/bench_gate.py --suite churn.
//
//   bench_churn_soak [--nodes N] [--churn-minutes M] [--warmup-seconds W]
//                    [--seed S] [--shards K] [--hostile]
//                    [--hijack-fraction F] [--out PATH]
//
// Churn runs at kChurnRate events per node per minute; W = 0 scales warmup
// with N.  Any shard count K gives the same trace digest and counters.
//
// --hostile puts every node behind its own NAT of a mixed type, every site
// on the same private prefix, so every link must be hole-punched or
// relayed; it also audits how each link formed per NAT-type pair, into
// BENCH_hostile_soak.json for tools/bench_gate.py --suite hostile.
// --hijack-fraction F makes roughly F of the nodes insiders that forge
// validly signed writes against other nodes' DHT keys; hijacks_succeeded
// must stay 0 (the storing-node ownership gate, netsukuku-ANDNA style).
#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ipop/node.hpp"
#include "net/nat.hpp"
#include "net/topology.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace {

using ipop::core::IpopNode;
using ipop::net::Ipv4Address;
using ipop::net::NatType;
using ipop::util::milliseconds;
using ipop::util::seconds;
using ipop::util::seconds_f;
using ipop::util::to_seconds;
using Proto = ipop::brunet::TransportAddress::Proto;

/// Churn events per node per minute ("10% churn").
constexpr double kChurnRate = 0.10;
/// Short resolver cache: bounds how long a re-leased address resolves to
/// its previous holder (shared with the probe-eligibility rule).
constexpr auto kArpCacheTtl = seconds(10);
/// Recorded with each run: the golden trace digests are per compiler.
#ifdef __clang__
constexpr const char* kCompiler = "clang";
#else
constexpr const char* kCompiler = "gcc";
#endif

struct Options {
  int nodes = 64;
  double churn_minutes = 20.0;
  std::uint64_t seed = 1;
  double warmup_seconds = 0.0;  // 0 = auto-scale with node count
  int shards = 1;
  bool hostile = false;
  double hijack_fraction = 0.0;  // share of nodes forging lease/ARP writes
  std::string out;  // default depends on --hostile
};

/// Parses all of `text` (null when the flag came last) into `*out`, which
/// must come out >= `min`.  Trailing junk, overflow and non-finite values
/// are rejected, not read as 0 the way atoi/atof would.
template <typename T>
bool parse_number(const char* text, double min, T* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, *out);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(*out)) return false;
  }
  return ec == std::errc{} && stop == end && *out >= min;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const std::string_view f = flag;
    if (f == "--hostile") {
      opt.hostile = true;
      continue;
    }
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (f == "--out" && v != nullptr && *v != '\0') {
      opt.out = v;
      continue;
    }
    // --nodes >= 2: a resolution probe needs a prober and a distinct target.
    const bool ok =
        f == "--nodes"             ? parse_number(v, 2, &opt.nodes)
        : f == "--churn-minutes"   ? parse_number(v, 0, &opt.churn_minutes)
        : f == "--seed"            ? parse_number(v, 0, &opt.seed)
        : f == "--warmup-seconds"  ? parse_number(v, 0, &opt.warmup_seconds)
        : f == "--shards"          ? parse_number(v, 1, &opt.shards)
        : f == "--hijack-fraction" ? parse_number(v, 0, &opt.hijack_fraction)
                                   : false;
    if (!ok) {
      std::fprintf(stderr,
                   "bench_churn_soak: bad argument: %s %s\n"
                   "usage: bench_churn_soak [--nodes N>=2] [--churn-minutes M] "
                   "[--warmup-seconds W] [--seed S] [--shards K>=1] "
                   "[--hostile] [--hijack-fraction F] [--out PATH]\n",
                   flag, v != nullptr ? v : "");
      return std::nullopt;
    }
  }
  if (opt.out.empty()) {
    opt.out = opt.hostile ? "BENCH_hostile_soak.json" : "BENCH_churn_soak.json";
  }
  return opt;
}

// Underlay address for node i: base-250 digits under 10.0.0.0/8, so one
// flat segment holds up to ~15.6M hosts (the old 10.0.x.y/16 scheme
// overflowed its third octet past ~12.8k nodes).
Ipv4Address underlay_ip(int i) {
  const auto u = static_cast<std::uint32_t>(i);
  return Ipv4Address(10, static_cast<std::uint8_t>(u / 62500),
                     static_cast<std::uint8_t>((u / 250) % 250),
                     static_cast<std::uint8_t>(u % 250 + 1));
}

/// Where a summed counter sits in the report, between the harness rows.
enum class Section { kChurn, kTraversal, kOwnership };
using S = Section;

/// One per-node counter: the report sums it over all nodes, and the
/// warmup-failure dumps print it for one node.  With a `warmup_key`, `key`
/// reports the churn-phase delta and `warmup_key` the warmup total.
struct Counter {
  const char* key;
  Section section;
  std::uint64_t (*read)(IpopNode&);
  const char* warmup_key = nullptr;
};

// Partition-era duplicate leases reconcile through lease losses, so the
// warmup share of lost_leases is that bill; the gate bounds the rest.
const Counter kCounters[] = {
    {"dht_handoffs", S::kChurn,
     [](IpopNode& n) { return n.dht().stats().handoffs; }},
    {"dht_rereplications", S::kChurn,
     [](IpopNode& n) { return n.dht().stats().rereplications; }},
    {"dhcp_conflicts", S::kChurn,
     [](IpopNode& n) { return n.dhcp()->stats().conflicts; }},
    {"lease_losses", S::kChurn,
     [](IpopNode& n) { return n.dhcp()->stats().lost_leases; },
     "warmup_lease_reconciliations"},
    {"dht_antientropy_pushbacks", S::kChurn,
     [](IpopNode& n) { return n.dht().stats().antientropy_pushbacks; }},
    {"keepalive_evictions", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().keepalive_evictions; }},
    {"departures_seen", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().departures_seen; }},
    {"arp_invalidations", S::kChurn,
     [](IpopNode& n) { return n.brunet_arp()->stats().invalidations; }},
    {"dht_gets", S::kChurn, [](IpopNode& n) { return n.dht().stats().gets; }},
    {"dht_get_timeouts", S::kChurn,
     [](IpopNode& n) { return n.dht().stats().get_timeouts; }},
    {"dht_get_notfound", S::kChurn,
     [](IpopNode& n) { return n.dht().stats().get_notfound; }},
    {"dropped_ttl", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().dropped_ttl; }},
    {"dropped_no_route", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().dropped_no_route; }},
    {"dropped_exact", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().dropped_exact; }},
    {"connect_requests", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().connect_requests; }},
    {"locate_responses", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().locate_responses; }},
    {"links_started", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().links_started; }},
    {"links_failed", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().links_failed; }},
    {"links_punched", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().links_punched; }},
    {"links_relayed", S::kChurn,
     [](IpopNode& n) { return n.overlay().stats().links_relayed; }},
    {"maintenance_ticks", S::kChurn,
     [](IpopNode& n) { return n.overlay().maintenance_ticks(); }},
    {"punch_requests_sent", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().punch_requests_sent; }},
    {"punch_responses", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().punch_responses; }},
    {"links_cross_proto", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().links_cross_proto; }},
    {"relay_edges", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().relay_edges; }},
    {"relay_forwarded", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().relay_forwarded; }},
    {"relay_drop_no_route", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().relay_drop_no_route; }},
    {"relay_wrap_bytes_copied", S::kTraversal,
     [](IpopNode& n) { return n.overlay().stats().relay_wrap_bytes_copied; }},
    {"dht_owner_rejects", S::kOwnership,
     [](IpopNode& n) { return n.dht().stats().owner_rejects; }},
    {"dht_sig_rejects", S::kOwnership,
     [](IpopNode& n) { return n.dht().stats().sig_rejects; }},
};

struct SoakNode {
  ipop::net::Host* host = nullptr;
  NatType nat_type = NatType::kFullCone;  // hostile mode
  std::unique_ptr<IpopNode> node;
  bool attacker = false;  // hijack mode: forges writes against others
  bool live = false;
  ipop::util::TimePoint started{};
  ipop::util::TimePoint configured{};
  /// Acquisition samples from the configured handler (node's shard
  /// thread); harvested between engine windows, so no lock is needed.
  std::vector<double> pending_acq_ms;
};

struct Metrics {
  ipop::util::Samples acquisition_ms;
  std::uint64_t churn_events = 0, joins = 0, graceful_leaves = 0;
  std::uint64_t failures = 0, duplicate_leases = 0, lease_audits = 0;
  std::uint64_t resolution_attempts = 0;
  // Resolve callbacks run on the prober's shard thread: order-independent
  // atomic sums stay exact (and TSan-clean) for any shard count.
  std::atomic<std::uint64_t> resolution_successes = 0, resolution_aborted = 0;
  std::atomic<std::uint64_t> resolution_misses = 0;  // lookup found nothing
  std::atomic<std::uint64_t> resolution_wrong = 0;   // stale owner returned
  // Forged writes issued, and their outcomes (attacker's shard thread).
  std::uint64_t hijacks_attempted = 0;
  std::atomic<std::uint64_t> hijacks_succeeded = 0, hijacks_rejected = 0;
};

/// The state every phase shares; callbacks hold references into it.
struct Soak {
  explicit Soak(const Options& o);  // the build phase

  Options opt;
  ipop::net::Network net;
  ipop::sim::Switch* sw = nullptr;
  std::vector<SoakNode> nodes;
  Metrics m;
  ipop::util::Rng rng;
  int hijack_stride = 0;
  std::vector<std::uint64_t> warmup_totals;  // kCounters at warmup's end
  std::chrono::steady_clock::time_point wall_start;
};

std::vector<std::uint64_t> sum_counters(const std::vector<SoakNode>& nodes) {
  std::vector<std::uint64_t> totals(std::size(kCounters), 0);
  for (const auto& n : nodes) {
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i] += kCounters[i].read(*n.node);
    }
  }
  return totals;
}

/// One node's nonzero counters, for the warmup-failure dumps.
void print_counters(const char* label, IpopNode& node) {
  std::fprintf(stderr, "    %s:", label);
  for (const auto& c : kCounters) {
    const auto v = static_cast<unsigned long long>(c.read(node));
    if (v != 0) std::fprintf(stderr, " %s %llu", c.key, v);
  }
  std::fprintf(stderr, "\n");
}

/// One uniform draw from a non-empty vector.
template <typename T>
T pick(ipop::util::Rng& rng, const std::vector<T>& v) {
  return v[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
}

double ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

/// Overlay address -> index into `nodes`, over the live nodes.
std::map<ipop::brunet::Address, std::size_t> live_index(
    const std::vector<SoakNode>& nodes) {
  std::map<ipop::brunet::Address, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].live) index[nodes[i].node->overlay().address()] = i;
  }
  return index;
}

/// Virtual IP -> indices of the live, configured nodes holding it.
std::map<Ipv4Address, std::vector<std::size_t>> vip_holders(
    const std::vector<SoakNode>& nodes) {
  std::map<Ipv4Address, std::vector<std::size_t>> holders;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].live && nodes[i].node->self_configured()) {
      holders[nodes[i].node->virtual_ip()].push_back(i);
    }
  }
  return holders;
}

std::size_t duplicate_vips(const std::vector<SoakNode>& nodes) {
  std::size_t dups = 0;
  for (const auto& [ip, idx] : vip_holders(nodes)) dups += idx.size() - 1;
  return dups;
}

/// The live nodes sorted by overlay address, and the positions whose table
/// misses their ring successor (a node routes correctly only with it).
struct Ring {
  std::vector<const SoakNode*> order;
  std::vector<std::size_t> unlinked;

  IpopNode& at(std::size_t i) const { return *order[i % order.size()]->node; }
  std::size_t linked() const { return order.size() - unlinked.size(); }
};

Ring ring_view(const std::vector<SoakNode>& nodes) {
  Ring ring;
  for (const auto& [addr, i] : live_index(nodes)) {
    ring.order.push_back(&nodes[i]);
  }
  for (std::size_t i = 0; i < ring.order.size(); ++i) {
    const auto& succ = ring.at(i + 1).overlay().address();
    if (!ring.at(i).overlay().table().contains(succ)) {
      ring.unlinked.push_back(i);
    }
  }
  return ring;
}

/// Mean and max connection-table size over the live nodes.
std::pair<double, std::uint64_t> table_size(const Ring& ring) {
  std::uint64_t total = 0, max = 0;
  for (const auto* n : ring.order) {
    const std::uint64_t size = n->node->overlay().table().size();
    total += size;
    max = std::max(max, size);
  }
  return {ratio(total, ring.order.size(), 0.0), max};
}

/// Live, configured nodes that have held their address for `min_age`.
std::vector<std::size_t> live_configured(const Soak& s,
                                         ipop::util::Duration min_age) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const auto& n = s.nodes[i];
    if (n.live && n.node->self_configured() &&
        s.net.now() - n.configured > min_age) {
      out.push_back(i);
    }
  }
  return out;
}

// Moves shard-thread acquisition samples into the histogram, between
// engine windows and in node order: the same stream for any shard count.
void harvest_acquisitions(Soak& s) {
  for (auto& n : s.nodes) {
    for (const double v : n.pending_acq_ms) s.m.acquisition_ms.add(v);
    n.pending_acq_ms.clear();
  }
}

Soak::Soak(const Options& o) : opt(o), net(o.seed), rng(o.seed * 7919 + 13) {
  sw = &net.add_switch("core");
  // One flat segment of 10^4..10^5 ports needs proxy ARP: flooding costs
  // O(N) frames per join and O(N^2) across warmup.
  sw->set_arp_suppression(true);
  ipop::sim::LinkConfig lan;
  lan.delay = ipop::util::microseconds(200);
  // Greedy routing needs ~log2(N) shortcuts per node, or paths at 10^4
  // nodes outrun the TTL: scale both with the ring size.
  const auto ring_bits = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(opt.nodes)));
  const std::size_t shortcut_target = std::max<std::size_t>(2, ring_bits);
  const auto ttl = static_cast<std::uint8_t>(
      std::min<std::size_t>(255, std::max<std::size_t>(32, 3 * ring_bits)));
  nodes.resize(static_cast<std::size_t>(opt.nodes));
  // Phase 1 — physical build only: the shard planner needs the complete
  // link graph, and the overlay arms timers at construction, so IPOP nodes
  // are created only after plan_shards() has re-homed every host.
  // Hostile NAT types take turns (every fourth symmetric); the seed, full
  // cone with a port-forward pinhole, is the one reachable rendezvous.
  const Ipv4Address kSiteHostIp(192, 168, 0, 2);
  const Ipv4Address kSiteGwIp(192, 168, 0, 1);
  for (int i = 0; i < opt.nodes; ++i) {
    auto& n = nodes[static_cast<std::size_t>(i)];
    auto& h = net.add_host("c" + std::to_string(i));
    n.host = &h;
    if (!opt.hostile) {
      net.connect_to_switch(h.stack(), {"eth0", underlay_ip(i), 8}, *sw, lan);
      continue;
    }
    // Every site reuses the *same* RFC1918 prefix, as home NATs do, so an
    // advertised private address is the dialer's own (self-dial guard).
    n.nat_type = static_cast<NatType>(i % 4);  // declaration order
    auto& nat = net.add_nat("nat" + std::to_string(i), n.nat_type);
    net.connect(h.stack(), {"eth0", kSiteHostIp, 24}, nat.stack(),
                {"in", kSiteGwIp, 24}, lan);
    net.connect_to_switch(nat.stack(), {"out", underlay_ip(i), 8}, *sw, lan);
    h.stack().add_route(ipop::net::Ipv4Prefix::parse("0.0.0.0/0"), 0,
                        kSiteGwIp);
    if (i == 0) {
      nat.add_port_forward(ipop::net::IpProto::kUdp, 17001,
                           {kSiteHostIp, 17001});
    }
  }
  net.plan_shards(static_cast<std::size_t>(opt.shards));
  net.engine().set_tracing(true);  // the digest covers every delivery
  // Phase 2 — the overlay.  Attackers are every round(1/F)-th node, never
  // the seed, and otherwise ordinary members.
  if (opt.hijack_fraction > 0.0) {
    hijack_stride =
        std::max(2, static_cast<int>(std::lround(1.0 / opt.hijack_fraction)));
  }
  for (int i = 0; i < opt.nodes; ++i) {
    auto& n = nodes[static_cast<std::size_t>(i)];
    n.attacker = hijack_stride > 0 && i > 0 && i % hijack_stride == 1;
    ipop::core::IpopConfig cfg;
    cfg.use_dhcp = true;
    cfg.dhcp.renew_interval = seconds(30);
    // The lease pool must comfortably exceed the membership, or joins
    // degenerate into create-conflict retries.
    cfg.dhcp.pool_size = std::max<std::uint32_t>(
        4096, 2 * static_cast<std::uint32_t>(opt.nodes));
    cfg.overlay.near_per_side = 2;
    cfg.overlay.shortcut_target = shortcut_target;
    cfg.overlay.default_ttl = ttl;
    // A third replica covers the consult-on-miss window through joint
    // owner+replica deaths (routine at 10k nodes, and an uncovered window
    // mints a duplicate lease); a short resolver cache bounds staleness.
    cfg.dht.replicas = 3;
    cfg.brunet_arp.cache_ttl = kArpCacheTtl;
    // Ring movement can strand an old binding at a consulted ex-replica
    // until the holder re-registers; 15 s (not the calm-network 60 s)
    // bounds that window under 10%/min churn.
    cfg.brunet_arp.reregister_interval = seconds(15);
    // A crashed node blackholes routes until keepalive evicts its edge:
    // churn-tuned failure detection.
    cfg.overlay.edge_idle_ping = seconds(2);
    cfg.overlay.edge_timeout = seconds(6);
    // Modest costs: the soak measures protocol dynamics, not Planet-Lab.
    cfg.cpu_per_packet = ipop::util::microseconds(50);
    cfg.sched_latency = ipop::util::microseconds(200);
    // A TCP-native minority exercises the cross-protocol fallback.
    if (opt.hostile && i % 8 == 5) cfg.overlay.transport = Proto::kTcp;
    n.node = std::make_unique<IpopNode>(*n.host, cfg);
    if (i > 0) {
      // Hostile: the seed is dialable only at its NAT's pinhole.
      n.node->add_seed({Proto::kUdp,
                        opt.hostile ? underlay_ip(0)
                                    : nodes[0].host->stack().interface_ip(0),
                        17001});
    }
    // Runs on the node's shard thread: touch only this node's slot, and
    // stamp with its shard clock (exact at harvest barriers).
    n.node->set_configured_handler([&n](Ipv4Address) {
      n.configured = n.host->loop().now();
      n.pending_acq_ms.push_back(
          ipop::util::to_milliseconds(n.configured - n.started));
    });
  }
}

void dump_unconfigured(Soak& s) {
  std::fprintf(stderr, "FAIL: warmup did not self-configure all nodes\n");
  const auto& seed_table = s.nodes[0].node->overlay().table();
  print_counters("seed c0", *s.nodes[0].node);
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const auto& n = s.nodes[i];
    if (!n.live || n.node->self_configured()) continue;
    const auto& ov = n.node->overlay();
    std::fprintf(stderr,
                 "  unconfigured c%zu %s (%s): table %zu, seed sees it: %d\n",
                 i, ov.address().short_hex().c_str(),
                 ipop::net::nat_type_name(n.nat_type), ov.table().size(),
                 seed_table.contains(ov.address()) ? 1 : 0);
    print_counters("counters", *n.node);
  }
}

void dump_stuck(const std::vector<SoakNode>& nodes, const Ring& ring) {
  // A few stuck nodes, and whether the successor sees them (one-way).
  for (std::size_t k = 0; k < ring.unlinked.size() && k < 5; ++k) {
    auto& me = ring.at(ring.unlinked[k]);
    auto& succ = ring.at(ring.unlinked[k] + 1);
    const auto& mt = me.overlay().table();
    const auto& st = succ.overlay().table();
    const auto* r = mt.right_neighbor();
    const auto* l = mt.left_neighbor();
    std::fprintf(stderr,
                 "  stuck %s: succ %s; table size %zu, right %s, left %s; "
                 "succ sees me: %d; succ table size %zu\n",
                 me.overlay().address().short_hex().c_str(),
                 succ.overlay().address().short_hex().c_str(), mt.size(),
                 r ? r->addr.short_hex().c_str() : "-",
                 l ? l->addr.short_hex().c_str() : "-",
                 st.contains(me.overlay().address()) ? 1 : 0, st.size());
    print_counters("me", me);
    print_counters("succ", succ);
  }
  // Overlay components: a frozen consistency count with healthy
  // maintenance is the signature of sub-rings closed over themselves.
  auto unvisited = live_index(nodes);
  std::vector<std::size_t> sizes;
  while (!unvisited.empty()) {
    std::vector<std::size_t> stack{unvisited.begin()->second};
    unvisited.erase(unvisited.begin());
    sizes.push_back(0);
    while (!stack.empty()) {
      const std::size_t n = stack.back();
      stack.pop_back();
      ++sizes.back();
      nodes[n].node->overlay().table().for_each(
          [&](const ipop::brunet::Connection& conn) {
            const auto it = unvisited.find(conn.addr);
            if (it == unvisited.end()) return;
            stack.push_back(it->second);
            unvisited.erase(it);
          });
    }
  }
  std::sort(sizes.rbegin(), sizes.rend());
  std::fprintf(stderr, "  overlay components: %zu; sizes:", sizes.size());
  for (std::size_t i = 0; i < sizes.size() && i < 8; ++i) {
    std::fprintf(stderr, " %zu", sizes[i]);
  }
  std::fprintf(stderr, "%s\n", sizes.size() > 8 ? " ..." : "");
}

/// Staggered joins, then wait for full self-configuration.  Returns false
/// after dumping what stalled.
bool warmup(Soak& s) {
  auto& net = s.net;
  // One join per 250 ms step at small N; batches at large N, so 10^4
  // joins take ~16 sim-seconds, not 42 sim-minutes.
  const std::size_t join_batch = std::max<std::size_t>(1, s.nodes.size() / 64);
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    s.nodes[i].started = net.now();
    s.nodes[i].live = true;
    s.nodes[i].node->start();
    if ((i + 1) % join_batch == 0) net.run_until(net.now() + milliseconds(250));
  }
  const auto deadline =
      net.now() + seconds_f(s.opt.warmup_seconds > 0.0
                                ? s.opt.warmup_seconds
                                : std::max(300.0, s.opt.nodes * 0.1));
  auto all_configured = [&] {
    return std::all_of(s.nodes.begin(), s.nodes.end(), [](const SoakNode& n) {
      return !n.live || n.node->self_configured();
    });
  };
  // Churn against a half-built ring audits only join-storm residue, so
  // warmup holds until every node holds a lease, the ring is fully
  // successor-linked, and the leases minted while partitions were merging
  // have reconciled (the epoch/readback repair takes a few renew cycles):
  // any duplicate seen later is a genuine protocol violation.
  auto next_progress = net.now() + seconds(30);
  while (net.now() < deadline) {
    net.run_until(net.now() + seconds_f(2.0));
    if (net.now() >= next_progress) {
      const auto ring = ring_view(s.nodes);
      std::printf("  warmup t=%.0fs: ring %zu/%zu linked, %zu dup leases\n",
                  to_seconds(net.now()), ring.linked(), ring.order.size(),
                  duplicate_vips(s.nodes));
      next_progress = net.now() + seconds(30);
    }
    if (all_configured() && ring_view(s.nodes).unlinked.empty() &&
        duplicate_vips(s.nodes) == 0) {
      break;
    }
  }
  if (!all_configured()) {
    dump_unconfigured(s);
    return false;
  }
  const auto ring = ring_view(s.nodes);
  if (!ring.unlinked.empty()) {
    std::fprintf(stderr,
                 "FAIL: warmup ring did not converge (%zu/%zu linked)\n",
                 ring.linked(), ring.order.size());
    dump_stuck(s.nodes, ring);
    return false;
  }
  if (const auto dups = duplicate_vips(s.nodes); dups != 0) {
    std::fprintf(stderr,
                 "FAIL: warmup leases did not reconcile (%zu duplicates)\n",
                 dups);
    return false;
  }
  harvest_acquisitions(s);
  const auto [conn_mean, conn_max] = table_size(ring);
  std::printf("warmup done at t=%.1fs: ring %zu/%zu successor-linked, "
              "mean acquisition %.1f ms, connections mean %.1f max %llu\n",
              to_seconds(net.now()), ring.linked(), ring.order.size(),
              s.m.acquisition_ms.mean(), conn_mean,
              static_cast<unsigned long long>(conn_max));
  s.warmup_totals = sum_counters(s.nodes);
  return true;
}

void audit_leases(Soak& s) {
  ++s.m.lease_audits;
  for (const auto& [ip, idx] : vip_holders(s.nodes)) {
    if (idx.size() < 2) continue;
    s.m.duplicate_leases += idx.size() - 1;
    std::fprintf(stderr, "DUPLICATE LEASE: t=%.0fs %s held by %zu nodes:",
                 to_seconds(s.net.now()), ip.to_string().c_str(), idx.size());
    for (const auto i : idx) {
      std::fprintf(stderr, " %s(acq t=%.0fs)",
                   s.nodes[i].node->overlay().address().short_hex().c_str(),
                   to_seconds(s.nodes[i].configured));
    }
    std::fprintf(stderr, "\n");
  }
}

void probe_resolution(Soak& s) {
  const auto probers = live_configured(s, seconds(2));
  // A target must have held its address for a resolver cache TTL, or the
  // probe measures the cache's intended staleness bound, not the DHT.
  const auto targets = live_configured(s, kArpCacheTtl + seconds(2));
  if (probers.size() < 2 || targets.empty()) return;
  // 16 probes a round make the 0.99 floor a verdict on the protocol.
  for (int p = 0; p < 16; ++p) {
    auto ai = pick(s.rng, probers);
    const auto bi = pick(s.rng, targets);
    while (ai == bi) ai = pick(s.rng, probers);
    auto& target = *s.nodes[bi].node;
    ++s.m.resolution_attempts;
    s.nodes[ai].node->brunet_arp()->resolve(
        target.virtual_ip(),
        [&m = s.m, &prober = s.nodes[ai], expect = target.overlay().address()](
            std::optional<ipop::core::ArpBinding> binding) {
          if (!prober.live) {
            ++m.resolution_aborted;  // the prober churned away mid-lookup
          } else if (binding && binding->addr == expect) {
            ++m.resolution_successes;
          } else {
            ++(binding ? m.resolution_wrong : m.resolution_misses);
          }
        });
  }
}

// Hijack attempts, signed with the attacker's own valid identity, so the
// storing node must reject them on ownership: overwrite the victim's
// Brunet-ARP binding, overwrite its DHCP lease record, and race create()
// on its lease key.
void attempt_hijacks(Soak& s) {
  if (s.hijack_stride == 0) return;
  const auto eligible = live_configured(s, seconds(2));
  std::vector<std::size_t> attackers;
  std::copy_if(eligible.begin(), eligible.end(), std::back_inserter(attackers),
               [&](std::size_t i) { return s.nodes[i].attacker; });
  if (attackers.empty() || eligible.size() < 2) return;
  auto count_outcome = [&m = s.m](bool ok) {
    ++(ok ? m.hijacks_succeeded : m.hijacks_rejected);
  };
  for (int p = 0; p < 4; ++p) {
    const auto ai = pick(s.rng, attackers);
    const auto bi = pick(s.rng, eligible);
    if (bi == ai) continue;  // self-targeting proves nothing
    const auto vip = s.nodes[bi].node->virtual_ip();
    auto& attacker = *s.nodes[ai].node;
    // The forged value is what the attacker's honest registration would
    // carry (overlay address + public key), bound to the victim's key.
    const auto& addr_bytes = attacker.overlay().address().bytes();
    const auto& pk = attacker.overlay().identity().keys.public_key().bytes;
    std::vector<std::uint8_t> forged(addr_bytes.begin(), addr_bytes.end());
    forged.insert(forged.end(), pk.begin(), pk.end());
    s.m.hijacks_attempted += 3;
    auto& dht = attacker.dht();
    dht.put(ipop::core::BrunetArp::key_for(vip), forged, count_outcome);
    dht.put(ipop::core::DhcpClient::key_for(vip), forged, count_outcome);
    dht.create(ipop::core::DhcpClient::key_for(vip), forged, count_outcome);
  }
}

void churn_event(Soak& s) {
  ++s.m.churn_events;
  std::vector<std::size_t> live, down;
  for (std::size_t i = 1; i < s.nodes.size(); ++i) {  // node 0 = seed, pinned
    (s.nodes[i].live ? live : down).push_back(i);
  }
  const double live_fraction = static_cast<double>(live.size() + 1) /
                               static_cast<double>(s.opt.nodes);
  const double roll = s.rng.uniform();
  if (!down.empty() && (live_fraction < 0.85 || roll < 0.4)) {
    auto& n = s.nodes[pick(s.rng, down)];
    ++s.m.joins;
    n.started = s.net.now();
    n.live = true;
    n.node->start();
  } else if (!live.empty()) {
    auto& n = s.nodes[pick(s.rng, live)];
    n.live = false;
    if (roll < 0.7) {
      ++s.m.graceful_leaves;
      n.node->leave();
    } else {
      ++s.m.failures;
      n.node->stop();  // crash: no departure notice
    }
  }
}

void churn(Soak& s) {
  auto& net = s.net;
  const double mean_gap_s =
      60.0 / (kChurnRate * static_cast<double>(s.opt.nodes));
  const auto t_end = net.now() + seconds_f(s.opt.churn_minutes * 60.0);
  auto next_event = net.now() + seconds_f(s.rng.exponential(mean_gap_s));
  auto next_audit = net.now() + seconds(5);
  while (net.now() < t_end) {
    net.run_until(std::min({next_event, next_audit, t_end}));
    if (net.now() >= next_event) {
      churn_event(s);
      next_event = net.now() + seconds_f(s.rng.exponential(mean_gap_s));
    }
    if (net.now() >= next_audit) {
      audit_leases(s);
      probe_resolution(s);
      attempt_hijacks(s);
      next_audit = net.now() + seconds(5);
    }
  }
  // Drain: let in-flight lookups and reacquisitions settle, final audit.
  net.run_until(net.now() + seconds(30));
  audit_leases(s);
  harvest_acquisitions(s);
}

/// Every number of the run in JSON order; the summary prints the same.
struct Report {
  struct Row {
    std::string key;
    double value;   // counts stay exact below 2^53
    int precision;  // digits after the point; 0 for a count
  };
  std::vector<Row> rows;

  void add(std::string key, double value, int precision = 0) {
    rows.push_back({std::move(key), value, precision});
  }
  /// The row named `key`; only keys every run reports are looked up.
  double at(std::string_view key) const {
    return std::find_if(rows.begin(), rows.end(), [key](const Row& r) {
             return r.key == key;
           })->value;
  }
};

// Hostile-mode traversal audit: every link between live nodes, by how it
// formed (direct, punched or relayed) and the NAT-type pair of its ends.
// Both directions are inspected and the strongest assistance wins: the
// side that accepted an inbound dial sees its own leg as "direct".
void add_traversal(const std::vector<SoakNode>& nodes, Report& r) {
  enum { kDirect, kPunched, kRelayed };
  const auto index = live_index(nodes);
  std::map<std::pair<std::size_t, std::size_t>, int> outcome;
  for (const auto& [addr, i] : index) {
    nodes[i].node->overlay().table().for_each(
        [&, i = i](const ipop::brunet::Connection& conn) {
          const auto it = index.find(conn.addr);
          if (it == index.end()) return;  // peer churned away
          const bool relayed = conn.edge != nullptr &&
                               conn.edge->remote().proto == Proto::kRelay;
          const int here =
              relayed ? kRelayed : conn.punched ? kPunched : kDirect;
          auto& o = outcome[std::minmax(i, it->second)];
          o = std::max(o, here);
        });
  }
  // cells[a][b][o]: links of outcome o between NAT types a <= b, ranked
  // in NatType's declaration order.
  static const char* const kRankName[4] = {"fc", "rc", "pr", "sym"};
  double cells[4][4][3] = {}, all[3] = {};
  for (const auto& [link, o] : outcome) {
    const int a = static_cast<int>(nodes[link.first].nat_type);
    const int b = static_cast<int>(nodes[link.second].nat_type);
    ++cells[std::min(a, b)][std::max(a, b)][o];
    ++all[o];
  }
  // punch_success_rate_<a>_<b>: the share of the pair's links that needed
  // no relay.  The gate skips it when pairs_<a>_<b> is 0.
  for (int a = 0; a < 4; ++a) {
    for (int b = a; b < 4; ++b) {
      const std::string pair = std::string(kRankName[a]) + "_" + kRankName[b];
      const double* c = cells[a][b];
      const double total = c[kDirect] + c[kPunched] + c[kRelayed];
      r.add("pairs_" + pair, total);
      r.add("punched_" + pair, c[kPunched]);
      r.add("relayed_" + pair, c[kRelayed]);
      r.add("punch_success_rate_" + pair,
            ratio(total - c[kRelayed], total, 1.0), 6);
    }
  }
  const double links = all[kDirect] + all[kPunched] + all[kRelayed];
  r.add("links_audited", links);
  r.add("links_punched_total", all[kPunched]);
  r.add("links_relayed_total", all[kRelayed]);
  r.add("nonrelayed_sym_sym", cells[3][3][kDirect] + cells[3][3][kPunched]);
  r.add("relayed_edge_fraction", ratio(all[kRelayed], links, 0.0), 6);
}

Report build_report(const Soak& s, double wall_seconds) {
  const auto& m = s.m;
  Report r;
  r.add("churn_events", m.churn_events);
  r.add("joins", m.joins);
  r.add("graceful_leaves", m.graceful_leaves);
  r.add("failures", m.failures);
  r.add("duplicate_leases", m.duplicate_leases);
  r.add("lease_audits", m.lease_audits);
  r.add("resolution_attempts", m.resolution_attempts);
  r.add("resolution_aborted", m.resolution_aborted);
  r.add("resolution_successes", m.resolution_successes);
  r.add("resolution_misses", m.resolution_misses);
  r.add("resolution_wrong", m.resolution_wrong);
  r.add("resolution_success_rate",
        ratio(m.resolution_successes,
              m.resolution_attempts - m.resolution_aborted, 1.0),
        6);
  double configured = 0;
  for (const auto& [ip, idx] : vip_holders(s.nodes)) configured += idx.size();
  const auto ring = ring_view(s.nodes);
  r.add("lease_acquired_fraction", ratio(configured, ring.order.size(), 1.0),
        6);
  r.add("acquisition_latency_ms_mean", m.acquisition_ms.mean(), 3);
  r.add("acquisition_latency_ms_p95", m.acquisition_ms.percentile(95), 3);
  r.add("acquisition_latency_ms_max", m.acquisition_ms.percentile(100), 3);
  const auto totals = sum_counters(s.nodes);
  auto add_counters = [&](Section section) {
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const auto& c = kCounters[i];
      if (c.section != section) continue;
      if (c.warmup_key == nullptr) {
        r.add(c.key, totals[i]);
      } else {
        r.add(c.key, totals[i] - std::min(totals[i], s.warmup_totals[i]));
        r.add(c.warmup_key, s.warmup_totals[i]);
      }
    }
  };
  add_counters(S::kChurn);
  const auto [conn_mean, conn_max] = table_size(ring);
  r.add("connections_mean", conn_mean, 3);
  r.add("connections_max", conn_max);
  r.add("ring_members", ring.order.size());
  r.add("ring_successor_linked", ring.linked());
  r.add("arp_suppressed", s.sw->arp_suppressed());
  if (s.opt.hostile) add_traversal(s.nodes, r);
  add_counters(S::kTraversal);
  const double copied = r.at("relay_wrap_bytes_copied");
  r.add("bytes_copied_per_forward",
        ratio(copied, r.at("relay_forwarded"), copied), 6);
  r.add("hijacks_attempted", m.hijacks_attempted);
  r.add("hijacks_succeeded", m.hijacks_succeeded);
  r.add("hijacks_rejected", m.hijacks_rejected);
  add_counters(S::kOwnership);
  r.add("shards", s.opt.shards);
  r.add("wall_seconds", wall_seconds, 3);
  return r;
}

// Run names match the committed baselines exactly; the "/hijack" and
// "/shards:K" suffixes keep those legs apart from the plain run, while the
// gates' prefix rules (^ChurnSoak/, ^HostileSoak/) still cover them.
std::string run_name(const Soak& s) {
  std::string name = s.opt.hostile ? "HostileSoak/" : "ChurnSoak/";
  name += std::to_string(s.opt.nodes);
  if (s.hijack_stride > 0) name += "/hijack";
  if (s.opt.shards > 1) name += "/shards:" + std::to_string(s.opt.shards);
  return name;
}

// google-benchmark JSON shape, so tools/bench_gate.py shares one parser.
void write_json(std::FILE* f, const Soak& s, const Report& r,
                const std::string& digest) {
  const double sim_s = to_seconds(s.net.now());
  std::fprintf(f,
               "{\n"
               "  \"context\": {\n"
               "    \"executable\": \"bench_churn_soak\",\n"
               "    \"nodes\": %d,\n"
               "    \"churn_rate_per_node_per_min\": %.4f,\n"
               "    \"churn_minutes\": %.2f,\n"
               "    \"seed\": %llu,\n"
               "    \"hostile\": %s,\n"
               "    \"hijack_fraction\": %.4f,\n"
               "    \"shards\": %d\n"
               "  },\n"
               "  \"benchmarks\": [\n"
               "    {\n"
               "      \"name\": \"%s\",\n"
               "      \"run_type\": \"iteration\",\n"
               "      \"iterations\": 1,\n"
               "      \"real_time\": %.3f,\n"
               "      \"cpu_time\": %.3f,\n"
               "      \"time_unit\": \"s\",\n"
               "      \"compiler\": \"%s\",\n",
               s.opt.nodes, kChurnRate, s.opt.churn_minutes,
               static_cast<unsigned long long>(s.opt.seed),
               s.opt.hostile ? "true" : "false", s.opt.hijack_fraction,
               s.opt.shards, run_name(s).c_str(), sim_s, sim_s, kCompiler);
  for (const auto& row : r.rows) {
    std::fprintf(f, "      \"%s\": %.*f,\n", row.key.c_str(), row.precision,
                 row.value);
  }
  std::fprintf(f, "      \"trace_digest\": \"%s\"\n    }\n  ]\n}\n",
               digest.c_str());
}

int report(Soak& s) {
  const double wall_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - s.wall_start).count();
  const std::string digest = s.net.engine().trace_digest();
  const Report r = build_report(s, wall_seconds);
  write_json(stdout, s, r, digest);  // the summary is the report itself
  std::FILE* f = std::fopen(s.opt.out.c_str(), "w");
  if (f == nullptr) {
    std::perror(s.opt.out.c_str());
    return 1;
  }
  write_json(f, s, r, digest);
  if (std::fclose(f) != 0) return 1;
  std::printf("wrote %s\n", s.opt.out.c_str());

  // The binary enforces the hard invariants itself, so a CI leg without
  // the gate script still fails loudly: no duplicate lease (atomic
  // create), every symmetric-symmetric link relayed (they cannot punch),
  // relayed tunnels zero-copy (per-path headroom), and no forged write
  // accepted (cryptographic ownership is all-or-nothing).
  bool ok = true;
  for (const auto& row : r.rows) {
    for (const char* key : {"duplicate_leases", "nonrelayed_sym_sym",
                            "relay_wrap_bytes_copied", "hijacks_succeeded"}) {
      if (row.key != key || row.value == 0) continue;
      std::fprintf(stderr, "FAIL: %s = %.0f (must be 0)\n", key, row.value);
      ok = false;
    }
  }
  if (const double rate = r.at("resolution_success_rate"); rate < 0.99) {
    std::fprintf(stderr, "FAIL: resolution success %.4f < 0.99\n", rate);
    ok = false;
  }
  if (s.hijack_stride > 0 && s.m.hijacks_attempted == 0) {
    std::fprintf(stderr,
                 "FAIL: hijack mode requested but no attacks were issued\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_args(argc, argv);
  if (!opt) return 2;
  // IPOP_LOG=debug|trace: protocol logs for debugging convergence stalls.
  using ipop::util::LogLevel;
  const char* level = std::getenv("IPOP_LOG");
  const std::string_view log = level != nullptr ? level : "";
  if (log == "debug" || log == "trace") {
    ipop::util::Logger::instance().set_level(log == "debug" ? LogLevel::kDebug
                                                            : LogLevel::kTrace);
  }
  std::printf("%s soak: %d nodes, %.0f%% churn/node/min, %.1f min, "
              "%d shard%s\n",
              opt->hostile ? "hostile" : "churn", opt->nodes,
              kChurnRate * 100.0, opt->churn_minutes, opt->shards,
              opt->shards == 1 ? "" : "s");
  Soak s(*opt);
  s.wall_start = std::chrono::steady_clock::now();
  if (!warmup(s)) return 1;
  churn(s);
  return report(s);
}
