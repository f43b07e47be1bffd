// Churn soak: the self-configuration workload.
//
// N IPOP nodes boot with no preassigned virtual IP on one simulated LAN,
// lease addresses through DHCP-over-the-DHT, and are then subjected to
// Poisson churn — graceful leaves (kDeparting + DHT handoff), abrupt
// failures (keepalive-miss detection + re-replication) and re-joins (a
// fresh lease acquisition) — while the harness continuously audits the
// three viability metrics the related smart-grid trade-off study singles
// out (arXiv 2112.06848):
//
//   * virtual-IP acquisition latency (join cost under churn),
//   * duplicate leases (the atomic-create invariant; must be zero),
//   * Brunet-ARP resolution success rate (can traffic still find nodes).
//
// Results go to BENCH_churn_soak.json in google-benchmark JSON shape so
// tools/bench_gate.py --suite churn can gate CI on them.
//
//   bench_churn_soak [--nodes N] [--churn-minutes M] [--churn-rate R]
//                    [--seed S] [--shards K] [--hostile]
//                    [--hijack-fraction F] [--out PATH]
//
// R is expressed in events per node per minute (0.10 = "10% churn").
// --shards K runs the same scenario on K engine shards; the event-trace
// digest and every protocol counter are identical for any K (the gate
// compares the legs), only wall_seconds changes.
//
// --hostile puts every node behind its own NAT box (type mix cycling
// full-cone / restricted / port-restricted / symmetric, with a TCP-native
// minority), every site on the *same* 192.168.0.0/24 prefix — the
// worst-case internet where no advertised private address is dialable and
// every link must be hole-punched or relayed.  Only the seed gets a
// port-forward pinhole.  The run additionally audits the traversal
// outcome (direct / punched / relayed) of every formed link per NAT-type
// pair and emits the rates to BENCH_hostile_soak.json for
// tools/bench_gate.py --suite hostile.
//
// --hijack-fraction F turns roughly F of the nodes (deterministically
// chosen) into malicious insiders: fully protocol-conformant members
// that additionally forge writes against OTHER nodes' DHT keys —
// overwriting a victim's Brunet-ARP binding with their own (correctly
// signed) identity, overwriting its DHCP lease record, and racing
// create() on its lease key.  Every attempt and its outcome is counted;
// hijacks_succeeded must be exactly 0 (the storing-node ownership gate,
// netsukuku-ANDNA style), which both the binary and the hostile bench
// gate enforce.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "ipop/node.hpp"
#include "net/nat.hpp"
#include "net/topology.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace {

using ipop::util::milliseconds;
using ipop::util::seconds;

struct Options {
  int nodes = 64;
  double churn_minutes = 20.0;
  double churn_rate = 0.10;  // events / node / minute
  std::uint64_t seed = 1;
  double warmup_seconds = 0.0;  // 0 = auto-scale with node count
  int shards = 1;
  bool hostile = false;
  /// Fraction of nodes that actively attempt lease/ARP hijacks.
  double hijack_fraction = 0.0;
  std::string out;  // default depends on --hostile
};

// Underlay address for node i: base-250 digits under 10.0.0.0/8, so one
// flat segment holds up to ~15.6M hosts (the old 10.0.x.y/16 scheme
// overflowed its third octet past ~12.8k nodes).
ipop::net::Ipv4Address underlay_ip(int i) {
  const auto u = static_cast<std::uint32_t>(i);
  return ipop::net::Ipv4Address(
      10, static_cast<std::uint8_t>(u / 62500),
      static_cast<std::uint8_t>((u / 250) % 250),
      static_cast<std::uint8_t>(u % 250 + 1));
}

struct SoakNode {
  ipop::net::Host* host = nullptr;
  /// Hostile mode: the node's own NAT box and its configured type (the
  /// ground truth the traversal audit classifies link outcomes against).
  ipop::net::NatBox* nat = nullptr;
  ipop::net::NatType nat_type = ipop::net::NatType::kFullCone;
  std::unique_ptr<ipop::core::IpopNode> node;
  /// Hijack mode: this node forges writes against other nodes' records.
  bool attacker = false;
  bool live = false;
  ipop::util::TimePoint started{};
  ipop::util::TimePoint configured{};
  /// Acquisition samples appended by the configured handler on the node's
  /// shard thread; the main thread harvests them between engine windows
  /// (the barrier orders the handoff, so no lock is needed).
  std::vector<double> pending_acq_ms;
};

struct Metrics {
  ipop::util::Samples acquisition_ms;
  std::uint64_t churn_events = 0;
  std::uint64_t joins = 0;
  std::uint64_t graceful_leaves = 0;
  std::uint64_t failures = 0;
  std::uint64_t duplicate_leases = 0;
  std::uint64_t lease_audits = 0;
  std::uint64_t resolution_attempts = 0;
  // Resolve callbacks execute on the prober's shard thread; the totals
  // are order-independent sums, so plain atomics keep them exact (and
  // TSan-clean) for any shard count.
  std::atomic<std::uint64_t> resolution_successes = 0;
  std::atomic<std::uint64_t> resolution_aborted = 0;
  std::atomic<std::uint64_t> resolution_misses = 0;  // lookup found nothing
  std::atomic<std::uint64_t> resolution_wrong = 0;   // stale owner returned
  // Hijack audit: forged writes issued against other nodes' keys, and
  // their outcomes.  Callbacks fire on the attacker's shard thread.
  std::uint64_t hijacks_attempted = 0;
  std::atomic<std::uint64_t> hijacks_succeeded = 0;
  std::atomic<std::uint64_t> hijacks_rejected = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      opt.nodes = std::atoi(next());
    } else if (std::strcmp(argv[i], "--churn-minutes") == 0) {
      opt.churn_minutes = std::atof(next());
    } else if (std::strcmp(argv[i], "--churn-rate") == 0) {
      opt.churn_rate = std::atof(next());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--warmup-seconds") == 0) {
      opt.warmup_seconds = std::atof(next());
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      opt.shards = ipop::bench::parse_shards(next());
    } else if (std::strcmp(argv[i], "--hostile") == 0) {
      opt.hostile = true;
    } else if (std::strcmp(argv[i], "--hijack-fraction") == 0) {
      opt.hijack_fraction = std::atof(next());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opt.out = next();
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.out.empty()) {
    opt.out = opt.hostile ? "BENCH_hostile_soak.json" : "BENCH_churn_soak.json";
  }
  // Protocol-level visibility for debugging convergence stalls:
  //   IPOP_LOG=debug bench_churn_soak --hostile ...
  if (const char* lvl = std::getenv("IPOP_LOG")) {
    if (std::strcmp(lvl, "debug") == 0) {
      ipop::util::Logger::instance().set_level(ipop::util::LogLevel::kDebug);
    } else if (std::strcmp(lvl, "trace") == 0) {
      ipop::util::Logger::instance().set_level(ipop::util::LogLevel::kTrace);
    }
  }

  std::printf("%s soak: %d nodes, %.0f%% churn/node/min, %.1f min, "
              "%d shard%s\n",
              opt.hostile ? "hostile" : "churn", opt.nodes,
              opt.churn_rate * 100.0, opt.churn_minutes, opt.shards,
              opt.shards == 1 ? "" : "s");

  ipop::net::Network net{opt.seed};
  auto& sw = net.add_switch("core");
  // One flat segment at 10^4..10^5 ports only works with proxy ARP: a
  // flood-and-learn broadcast per resolution would cost O(N) frames per
  // join and O(N^2) across warmup.
  sw.set_arp_suppression(true);
  ipop::sim::LinkConfig lan;
  lan.delay = ipop::util::microseconds(200);

  // Greedy routing needs ~log2(N) shortcuts per node to keep hop counts
  // logarithmic; with a fixed handful, paths at 10^4 nodes outrun the
  // TTL.  Scale both with the ring size.
  const auto ring_bits = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(opt.nodes)));
  const std::size_t shortcut_target = std::max<std::size_t>(2, ring_bits);
  const auto ttl = static_cast<std::uint8_t>(
      std::min<std::size_t>(255, std::max<std::size_t>(32, 3 * ring_bits)));

  Metrics m;
  // Short resolver cache: bounds how long a re-leased address resolves to
  // its previous holder (shared with the probe-eligibility rule below).
  const auto kArpCacheTtl = seconds(10);
  std::vector<SoakNode> soak(static_cast<std::size_t>(opt.nodes));
  // Phase 1 — physical build only.  The shard planner needs the complete
  // link graph, and the overlay layer arms timers at construction, so
  // IPOP nodes may only be created after plan_shards() has re-homed every
  // host onto its final shard loop.
  // Hostile-mode NAT type mix: every fourth node symmetric, the rest
  // spread across the three cone variants.  Node 0 (the seed) is pinned
  // full-cone with a port-forward pinhole so bootstrap has one reachable
  // rendezvous; everything else is dialable only via punching or relays.
  const ipop::net::NatType kTypeMix[4] = {
      ipop::net::NatType::kFullCone, ipop::net::NatType::kRestrictedCone,
      ipop::net::NatType::kPortRestrictedCone,
      ipop::net::NatType::kSymmetric};
  const ipop::net::Ipv4Address kSiteHostIp(192, 168, 0, 2);
  const ipop::net::Ipv4Address kSiteGwIp(192, 168, 0, 1);
  for (int i = 0; i < opt.nodes; ++i) {
    auto& s = soak[static_cast<std::size_t>(i)];
    auto& h = net.add_host("c" + std::to_string(i));
    if (opt.hostile) {
      // Every site reuses the *same* RFC1918 prefix — as real home NATs
      // do — so an advertised private address is never dialable from
      // another site (and is in fact the dialer's own address, which the
      // linker's self-dial guard must skip).
      s.nat_type = i == 0 ? ipop::net::NatType::kFullCone : kTypeMix[i % 4];
      auto& nat = net.add_nat("nat" + std::to_string(i), s.nat_type);
      net.connect(h.stack(), {"eth0", kSiteHostIp, 24}, nat.stack(),
                  {"in", kSiteGwIp, 24}, lan);
      net.connect_to_switch(nat.stack(), {"out", underlay_ip(i), 8}, sw,
                            lan);
      h.stack().add_route(ipop::net::Ipv4Prefix::parse("0.0.0.0/0"), 0,
                          kSiteGwIp);
      if (i == 0) {
        nat.add_port_forward(ipop::net::IpProto::kUdp, 17001,
                             {kSiteHostIp, 17001});
      }
      s.nat = &nat;
    } else {
      net.connect_to_switch(h.stack(), {"eth0", underlay_ip(i), 8}, sw, lan);
    }
    s.host = &h;
  }
  net.plan_shards(static_cast<std::size_t>(opt.shards));
  // Trace every delivery so runs with different shard counts can be
  // compared digest-for-digest.
  net.engine().set_tracing(true);
  // Phase 2 — the overlay layer, on final shard loops.
  // Deterministic attacker roster for --hijack-fraction: every k-th node
  // (k = round(1/F)), never the seed.  Attackers are ordinary members in
  // every other respect — they lease, register and resolve like anyone.
  const int hijack_stride =
      opt.hijack_fraction > 0.0
          ? std::max(2, static_cast<int>(
                            std::lround(1.0 / opt.hijack_fraction)))
          : 0;
  for (int i = 0; i < opt.nodes; ++i) {
    auto& s = soak[static_cast<std::size_t>(i)];
    s.attacker = hijack_stride > 0 && i > 0 && i % hijack_stride == 1;
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
    // Scale hardening: a third replica keeps the consult-on-miss window
    // covered through simultaneous owner+replica deaths (at 10k nodes a
    // crash every ~200 ms makes that routine, and an uncovered window
    // mints a duplicate that later costs a lease loss), and a short
    // resolver cache bounds how long re-leased addresses resolve stale.
    cfg.dht.replicas = 3;
    cfg.brunet_arp.cache_ttl = kArpCacheTtl;
    // Aggressive binding refresh: ring movement around SHA1(ip) can strand
    // an old binding at a consulted ex-replica until the holder's next
    // re-register put re-seats the fresh record; 15 s bounds that window
    // (60 s default is tuned for calm networks, not 10%/min churn).
    cfg.brunet_arp.reregister_interval = seconds(15);
    // Churn-tuned failure detection: a crashed node blackholes every
    // route through it until keepalive evicts the edge, so the soak runs
    // the aggressive timers a churn-heavy deployment would use.
    cfg.overlay.edge_idle_ping = seconds(2);
    cfg.overlay.edge_timeout = seconds(6);
    // Modest user-level costs: the soak measures protocol dynamics, not
    // the calibrated Planet-Lab processing model.
    cfg.cpu_per_packet = ipop::util::microseconds(50);
    cfg.sched_latency = ipop::util::microseconds(200);
    if (opt.hostile && i % 8 == 5) {
      // TCP-native minority: their links exercise the linker's
      // cross-protocol fallback on top of NAT traversal.
      cfg.overlay.transport = ipop::brunet::TransportAddress::Proto::kTcp;
    }
    s.node = std::make_unique<ipop::core::IpopNode>(*s.host, cfg);
    if (i > 0) {
      // Hostile mode: the dialable seed endpoint is the pinhole on its
      // NAT's *external* address, not the private interface address.
      s.node->add_seed({ipop::brunet::TransportAddress::Proto::kUdp,
                        opt.hostile ? underlay_ip(0)
                                    : soak[0].host->stack().interface_ip(0),
                        17001});
    }
    // Fires on the node's shard thread: touch only this node's slot and
    // stamp with the node's own shard clock (identical to global time up
    // to the conservative window, and exact at harvest barriers).
    s.node->set_configured_handler([&s](ipop::net::Ipv4Address) {
      s.configured = s.host->loop().now();
      s.pending_acq_ms.push_back(
          ipop::util::to_milliseconds(s.configured - s.started));
    });
  }
  // Move shard-thread acquisition samples into the shared histogram; only
  // ever called from the main thread between engine windows, in node-index
  // order, so the sample stream is identical for every shard count.
  auto harvest_acquisitions = [&] {
    for (auto& s : soak) {
      for (const double v : s.pending_acq_ms) m.acquisition_ms.add(v);
      s.pending_acq_ms.clear();
    }
  };
  const auto wall_start = std::chrono::steady_clock::now();

  // --- warmup: staggered joins, wait for full self-configuration --------
  // Batched stagger: one node per 250 ms step at small N (the original
  // schedule), groups at large N so 10^4 joins still fit ~16 sim-seconds
  // of stagger instead of 42 sim-minutes.
  const std::size_t join_batch =
      std::max<std::size_t>(1, soak.size() / 64);
  for (std::size_t i = 0; i < soak.size(); ++i) {
    auto& s = soak[i];
    s.started = net.now();
    s.live = true;
    s.node->start();
    if ((i + 1) % join_batch == 0) {
      net.run_until(net.now() + milliseconds(250));
    }
  }
  const double warmup_s =
      opt.warmup_seconds > 0.0
          ? opt.warmup_seconds
          : std::max(300.0, static_cast<double>(opt.nodes) * 0.1);
  const auto warmup_deadline =
      net.now() + ipop::util::seconds_f(warmup_s);
  auto all_configured = [&] {
    return std::all_of(soak.begin(), soak.end(), [](const SoakNode& s) {
      return !s.live || s.node->self_configured();
    });
  };
  auto table_stats = [&](double* mean, std::uint64_t* max) {
    std::uint64_t total = 0, worst = 0, count = 0;
    for (const auto& s : soak) {
      if (!s.live) continue;
      const auto sz =
          static_cast<std::uint64_t>(s.node->overlay().table().size());
      total += sz;
      worst = std::max(worst, sz);
      ++count;
    }
    *mean = count > 0 ? static_cast<double>(total) /
                            static_cast<double>(count)
                      : 0.0;
    *max = worst;
  };
  // Ring consistency: a node routes correctly only if its table holds its
  // true ring successor.  Sort the live membership by overlay address and
  // count nodes whose table is missing it.
  auto ring_consistency = [&](std::size_t* linked, std::size_t* total) {
    std::vector<const SoakNode*> live;
    for (const auto& s : soak) {
      if (s.live) live.push_back(&s);
    }
    std::sort(live.begin(), live.end(), [](const SoakNode* a,
                                           const SoakNode* b) {
      return a->node->overlay().address() < b->node->overlay().address();
    });
    *linked = 0;
    *total = live.size();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const auto& succ = live[(i + 1) % live.size()]->node->overlay();
      if (live[i]->node->overlay().table().contains(succ.address())) {
        ++*linked;
      }
    }
  };
  // Churn against a half-built ring audits nothing but the mess the mass
  // join left behind: hold warmup until every node holds a lease AND the
  // ring is fully successor-linked, so the soak measures churn dynamics,
  // not join-storm residue.  The consistency sweep is O(n log n); check it
  // on a coarser cadence than the 500 ms sim step.
  // Leases minted while the overlay was still merging partitions can
  // collide; the epoch/readback repair resolves them within a few renew
  // cycles.  Warmup is not over until that reconciliation has finished,
  // so the churn phase starts from a duplicate-free address space and
  // any duplicate seen later is a genuine protocol violation.
  auto duplicate_vips = [&]() {
    std::map<ipop::net::Ipv4Address, int> holders;
    for (const auto& s : soak) {
      if (s.live && s.node->self_configured()) {
        ++holders[s.node->virtual_ip()];
      }
    }
    std::size_t dups = 0;
    for (const auto& [ip, count] : holders) {
      if (count > 1) dups += static_cast<std::size_t>(count - 1);
    }
    return dups;
  };
  std::size_t ring_linked = 0, ring_total = 0;
  auto next_progress = net.now() + seconds(30);
  while (net.now() < warmup_deadline) {
    net.run_until(net.now() + ipop::util::seconds_f(2.0));
    if (net.now() >= next_progress) {
      ring_consistency(&ring_linked, &ring_total);
      std::printf("  warmup t=%.0fs: ring %zu/%zu linked, %zu dup leases\n",
                  ipop::util::to_seconds(net.now()), ring_linked,
                  ring_total, duplicate_vips());
      next_progress = net.now() + seconds(30);
    }
    if (!all_configured()) continue;
    ring_consistency(&ring_linked, &ring_total);
    if (ring_linked == ring_total && duplicate_vips() == 0) break;
  }
  if (!all_configured()) {
    std::fprintf(stderr, "FAIL: warmup did not self-configure all nodes\n");
    for (std::size_t i = 0; i < soak.size(); ++i) {
      const auto& s = soak[i];
      if (!s.live || s.node->self_configured()) continue;
      const auto& ov = s.node->overlay();
      std::fprintf(stderr,
                   "  unconfigured c%zu %s (%s): table %zu, links %llu/%llu "
                   "fail, punches %llu sent %llu answered, relay edges "
                   "%llu\n",
                   i, ov.address().short_hex().c_str(),
                   ipop::net::nat_type_name(s.nat_type),
                   ov.table().size(),
                   (unsigned long long)ov.stats().links_failed,
                   (unsigned long long)ov.stats().links_started,
                   (unsigned long long)ov.stats().punch_requests_sent,
                   (unsigned long long)ov.stats().punch_responses,
                   (unsigned long long)ov.stats().relay_edges);
      const auto& seed_ov = soak[0].node->overlay();
      std::fprintf(stderr,
                   "    seed sees it: %d; seed relay fwd %llu, drops %llu\n",
                   seed_ov.table().contains(ov.address()) ? 1 : 0,
                   (unsigned long long)seed_ov.stats().relay_forwarded,
                   (unsigned long long)seed_ov.stats().relay_drop_no_route);
    }
    return 1;
  }
  ring_consistency(&ring_linked, &ring_total);
  if (ring_linked != ring_total) {
    std::fprintf(stderr,
                 "FAIL: warmup ring did not converge (%zu/%zu linked)\n",
                 ring_linked, ring_total);
    // Dump a few stuck nodes: who they are, what they see, and whether
    // the missing successor at least sees them (one-way link).
    std::vector<const SoakNode*> live;
    for (const auto& s : soak) {
      if (s.live) live.push_back(&s);
    }
    std::sort(live.begin(), live.end(), [](const SoakNode* a,
                                           const SoakNode* b) {
      return a->node->overlay().address() < b->node->overlay().address();
    });
    int dumped = 0;
    for (std::size_t i = 0; i < live.size() && dumped < 5; ++i) {
      const auto& me = live[i]->node->overlay();
      const auto& succ = live[(i + 1) % live.size()]->node->overlay();
      if (me.table().contains(succ.address())) continue;
      ++dumped;
      const auto* r = me.table().right_neighbor();
      const auto* l = me.table().left_neighbor();
      std::fprintf(stderr,
                   "  stuck %s: succ %s; table size %zu, right %s, left %s; "
                   "succ sees me: %d; succ table size %zu\n",
                   me.address().short_hex().c_str(),
                   succ.address().short_hex().c_str(), me.table().size(),
                   r ? r->addr.short_hex().c_str() : "-",
                   l ? l->addr.short_hex().c_str() : "-",
                   succ.table().contains(me.address()) ? 1 : 0,
                   succ.table().size());
      std::fprintf(stderr,
                   "    me: conn_req %llu, links %llu/%llu fail, locate_resp "
                   "%llu, exact_drop %llu; succ: conn_req %llu, links "
                   "%llu/%llu fail\n",
                   (unsigned long long)me.stats().connect_requests,
                   (unsigned long long)me.stats().links_failed,
                   (unsigned long long)me.stats().links_started,
                   (unsigned long long)me.stats().locate_responses,
                   (unsigned long long)me.stats().dropped_exact,
                   (unsigned long long)succ.stats().connect_requests,
                   (unsigned long long)succ.stats().links_failed,
                   (unsigned long long)succ.stats().links_started);
      std::fprintf(stderr, "    maintenance ticks: me %llu, succ %llu\n",
                   (unsigned long long)me.maintenance_ticks(),
                   (unsigned long long)succ.maintenance_ticks());
    }
    // Connected components of the overlay graph: a frozen consistency
    // count with healthy per-node maintenance is the signature of a
    // partitioned overlay (sub-rings closed over themselves).
    {
      std::map<ipop::brunet::Address, std::size_t> index;
      for (std::size_t i = 0; i < live.size(); ++i) {
        index[live[i]->node->overlay().address()] = i;
      }
      std::vector<int> comp(live.size(), -1);
      int ncomp = 0;
      std::vector<std::size_t> comp_size;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (comp[i] != -1) continue;
        const int c = ncomp++;
        comp_size.push_back(0);
        std::vector<std::size_t> stack{i};
        comp[i] = c;
        while (!stack.empty()) {
          const std::size_t n = stack.back();
          stack.pop_back();
          ++comp_size[(std::size_t)c];
          live[n]->node->overlay().table().for_each(
              [&](const ipop::brunet::Connection& conn) {
                auto it2 = index.find(conn.addr);
                if (it2 == index.end() || comp[it2->second] != -1) return;
                comp[it2->second] = c;
                stack.push_back(it2->second);
              });
        }
      }
      std::sort(comp_size.rbegin(), comp_size.rend());
      std::fprintf(stderr, "  overlay components: %d; sizes:", ncomp);
      for (std::size_t i = 0; i < comp_size.size() && i < 8; ++i) {
        std::fprintf(stderr, " %zu", comp_size[i]);
      }
      std::fprintf(stderr, "%s\n", comp_size.size() > 8 ? " ..." : "");
    }
    return 1;
  }
  if (duplicate_vips() != 0) {
    std::fprintf(stderr,
                 "FAIL: warmup leases did not reconcile (%zu duplicates)\n",
                 duplicate_vips());
    return 1;
  }
  harvest_acquisitions();
  double warm_conn_mean = 0.0;
  std::uint64_t warm_conn_max = 0;
  table_stats(&warm_conn_mean, &warm_conn_max);
  std::printf("ring consistency after warmup: %zu/%zu successor-linked\n",
              ring_linked, ring_total);
  std::printf("warmup done at t=%.1fs: %d nodes self-configured, "
              "mean acquisition %.1f ms, connections mean %.1f max %llu\n",
              ipop::util::to_seconds(net.now()), opt.nodes,
              m.acquisition_ms.mean(), warm_conn_mean,
              static_cast<unsigned long long>(warm_conn_max));

  // Partition-era duplicates reconcile *through* lease losses (the loser
  // detects the rival at renewal and re-acquires), so the warmup total is
  // the reconciliation bill, not churn instability.  Snapshot it here and
  // report churn-phase losses separately — that is the number the gate
  // bounds.
  std::uint64_t warmup_lease_losses = 0;
  for (const auto& s : soak) {
    warmup_lease_losses += s.node->dhcp()->stats().lost_leases;
  }
  std::printf("warmup lease reconciliations: %llu\n",
              static_cast<unsigned long long>(warmup_lease_losses));

  // --- churn + continuous audit ------------------------------------------
  ipop::util::Rng rng(opt.seed * 7919 + 13);
  const double events_per_minute =
      opt.churn_rate * static_cast<double>(opt.nodes);
  const auto t_end =
      net.now() + ipop::util::seconds_f(opt.churn_minutes * 60.0);

  auto live_configured = [&](ipop::util::Duration min_age) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < soak.size(); ++i) {
      if (soak[i].live && soak[i].node->self_configured() &&
          net.now() - soak[i].configured > min_age) {
        out.push_back(i);
      }
    }
    return out;
  };

  auto audit_leases = [&] {
    ++m.lease_audits;
    std::map<ipop::net::Ipv4Address, std::vector<std::size_t>> holders;
    for (std::size_t i = 0; i < soak.size(); ++i) {
      const auto& s = soak[i];
      if (s.live && s.node->self_configured()) {
        holders[s.node->virtual_ip()].push_back(i);
      }
    }
    for (const auto& [ip, idx] : holders) {
      if (idx.size() > 1) {
        m.duplicate_leases += static_cast<std::uint64_t>(idx.size() - 1);
        std::fprintf(stderr, "DUPLICATE LEASE: t=%.0fs %s held by %zu nodes:",
                     ipop::util::to_seconds(net.now()),
                     ip.to_string().c_str(), idx.size());
        for (const auto i : idx) {
          std::fprintf(stderr, " %s(acq t=%.0fs)",
                       soak[i].node->overlay().address().short_hex().c_str(),
                       ipop::util::to_seconds(soak[i].configured));
        }
        std::fprintf(stderr, "\n");
      }
    }
  };

  auto probe_resolution = [&] {
    auto probers = live_configured(seconds(2));
    // A probe target must have held its address for at least one resolver
    // cache TTL: the cache *by design* bounds how long a re-leased address
    // resolves to its previous holder, so a probe inside that window would
    // measure the (intended) cache-staleness bound, not the DHT.
    auto targets = live_configured(kArpCacheTtl + seconds(2));
    if (probers.size() < 2 || targets.empty()) return;
    // 16 probes per audit round: enough samples that the 0.99 floor is a
    // verdict on the protocol, not on one unlucky probe.
    for (int p = 0; p < 16; ++p) {
      auto ai = probers[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(probers.size()) - 1))];
      const auto bi = targets[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(targets.size()) - 1))];
      while (ai == bi) {
        ai = probers[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(probers.size()) - 1))];
      }
      const auto vip = soak[bi].node->virtual_ip();
      const auto expect = soak[bi].node->overlay().address();
      ++m.resolution_attempts;
      soak[ai].node->brunet_arp()->resolve(
          vip, [&m, &soak, ai, expect](
                   std::optional<ipop::core::ArpBinding> binding) {
            if (!soak[ai].live) {
              // The prober itself churned away mid-lookup; the timeout
              // says nothing about the DHT.
              ++m.resolution_aborted;
              return;
            }
            if (binding && binding->addr == expect) {
              ++m.resolution_successes;
            } else if (!binding) {
              ++m.resolution_misses;
            } else {
              ++m.resolution_wrong;
            }
          });
    }
  };

  // Hijack attempts: an attacker forges writes against a victim's DHT
  // keys, signed with the attacker's own (perfectly valid) identity —
  // the storing node must reject them on ownership, not signature
  // malformation.  Three shapes per round: overwrite the victim's
  // Brunet-ARP binding (resolution capture), overwrite its DHCP lease
  // record (lease theft by put), and race create() on its lease key
  // (lease theft by allocation).
  auto attempt_hijacks = [&] {
    if (hijack_stride == 0) return;
    const auto eligible = live_configured(seconds(2));
    std::vector<std::size_t> attackers;
    for (const auto i : eligible) {
      if (soak[i].attacker) attackers.push_back(i);
    }
    if (attackers.empty() || eligible.size() < 2) return;
    for (int p = 0; p < 4; ++p) {
      const auto ai = attackers[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(attackers.size()) - 1))];
      auto bi = eligible[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(eligible.size()) - 1))];
      if (bi == ai) continue;  // self-targeting proves nothing
      const auto vip = soak[bi].node->virtual_ip();
      auto& attacker = *soak[ai].node;
      // Forged binding/lease value: the attacker's overlay address and
      // public key — byte-for-byte what its honest registration would
      // carry, just bound to the victim's key.
      const auto& addr_bytes = attacker.overlay().address().bytes();
      const auto& pk = attacker.overlay().identity().keys.public_key().bytes;
      std::vector<std::uint8_t> forged(addr_bytes.begin(), addr_bytes.end());
      forged.insert(forged.end(), pk.begin(), pk.end());
      auto count_outcome = [&m](bool ok) {
        if (ok) {
          ++m.hijacks_succeeded;
        } else {
          ++m.hijacks_rejected;
        }
      };
      m.hijacks_attempted += 3;
      attacker.dht().put(ipop::core::BrunetArp::key_for(vip), forged,
                         count_outcome);
      attacker.dht().put(ipop::core::DhcpClient::key_for(vip), forged,
                         count_outcome);
      attacker.dht().create(ipop::core::DhcpClient::key_for(vip), forged,
                            count_outcome);
    }
  };

  auto churn_event = [&] {
    ++m.churn_events;
    std::vector<std::size_t> live;
    std::vector<std::size_t> down;
    for (std::size_t i = 1; i < soak.size(); ++i) {  // node 0 = seed, pinned
      (soak[i].live ? live : down).push_back(i);
    }
    const double live_fraction =
        static_cast<double>(live.size() + 1) / static_cast<double>(opt.nodes);
    const double roll = rng.uniform();
    if (!down.empty() && (live_fraction < 0.85 || roll < 0.4)) {
      const auto i = down[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(down.size()) - 1))];
      ++m.joins;
      soak[i].started = net.now();
      soak[i].live = true;
      soak[i].node->start();
    } else if (!live.empty()) {
      const auto i = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      soak[i].live = false;
      if (roll < 0.7) {
        ++m.graceful_leaves;
        soak[i].node->leave();
      } else {
        ++m.failures;
        soak[i].node->stop();  // crash: no departure notice
      }
    }
  };

  auto next_event =
      net.now() + ipop::util::seconds_f(rng.exponential(
                       60.0 / events_per_minute));
  auto next_audit = net.now() + seconds(5);
  while (net.now() < t_end) {
    const auto next = std::min(std::min(next_event, next_audit), t_end);
    net.run_until(next);
    if (net.now() >= next_event) {
      churn_event();
      next_event = net.now() + ipop::util::seconds_f(rng.exponential(
                                    60.0 / events_per_minute));
    }
    if (net.now() >= next_audit) {
      audit_leases();
      probe_resolution();
      attempt_hijacks();
      next_audit = net.now() + seconds(5);
    }
  }
  // Drain: let in-flight lookups and reacquisitions settle, final audit.
  net.run_until(net.now() + seconds(30));
  audit_leases();
  harvest_acquisitions();
  const double wall_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - wall_start).count();
  const std::string trace_digest = net.engine().trace_digest();

  std::uint64_t live_count = 0;
  std::uint64_t configured_count = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t rereplications = 0;
  std::uint64_t dhcp_conflicts = 0;
  std::uint64_t lease_losses = 0;
  std::uint64_t antientropy = 0;
  std::uint64_t keepalive_evictions = 0;
  std::uint64_t departures_seen = 0;
  std::uint64_t arp_invalidations = 0;
  std::uint64_t gets = 0, get_timeouts = 0, get_notfound = 0;
  std::uint64_t drop_ttl = 0, drop_no_route = 0, drop_exact = 0;
  std::uint64_t punch_req_sent = 0, punch_responses = 0;
  std::uint64_t links_punched = 0, links_relayed = 0, links_cross_proto = 0;
  std::uint64_t relay_edges = 0, relay_forwarded = 0, relay_no_route = 0;
  std::uint64_t relay_wrap_copied = 0;
  std::uint64_t dht_owner_rejects = 0, dht_sig_rejects = 0;
  for (const auto& s : soak) {
    if (s.live) {
      ++live_count;
      if (s.node->self_configured()) ++configured_count;
    }
    punch_req_sent += s.node->overlay().stats().punch_requests_sent;
    punch_responses += s.node->overlay().stats().punch_responses;
    links_punched += s.node->overlay().stats().links_punched;
    links_relayed += s.node->overlay().stats().links_relayed;
    links_cross_proto += s.node->overlay().stats().links_cross_proto;
    relay_edges += s.node->overlay().stats().relay_edges;
    relay_forwarded += s.node->overlay().stats().relay_forwarded;
    relay_no_route += s.node->overlay().stats().relay_drop_no_route;
    relay_wrap_copied += s.node->overlay().stats().relay_wrap_bytes_copied;
    handoffs += s.node->dht().stats().handoffs;
    rereplications += s.node->dht().stats().rereplications;
    gets += s.node->dht().stats().gets;
    get_timeouts += s.node->dht().stats().get_timeouts;
    get_notfound += s.node->dht().stats().get_notfound;
    dhcp_conflicts += s.node->dhcp()->stats().conflicts;
    lease_losses += s.node->dhcp()->stats().lost_leases;
    antientropy += s.node->dht().stats().antientropy_pushbacks;
    keepalive_evictions += s.node->overlay().stats().keepalive_evictions;
    departures_seen += s.node->overlay().stats().departures_seen;
    drop_ttl += s.node->overlay().stats().dropped_ttl;
    drop_no_route += s.node->overlay().stats().dropped_no_route;
    drop_exact += s.node->overlay().stats().dropped_exact;
    arp_invalidations += s.node->brunet_arp()->stats().invalidations;
    dht_owner_rejects += s.node->dht().stats().owner_rejects;
    dht_sig_rejects += s.node->dht().stats().sig_rejects;
  }
  const double resolution_rate =
      m.resolution_attempts > m.resolution_aborted
          ? static_cast<double>(m.resolution_successes) /
                static_cast<double>(m.resolution_attempts -
                                    m.resolution_aborted)
          : 1.0;
  const double acquired_fraction =
      live_count > 0 ? static_cast<double>(configured_count) /
                           static_cast<double>(live_count)
                     : 1.0;
  // Losses counted by the warmup reconciliation were billed there; the
  // churn-phase delta is the stability metric.
  const std::uint64_t churn_lease_losses =
      lease_losses - std::min(lease_losses, warmup_lease_losses);
  double end_conn_mean = 0.0;
  std::uint64_t end_conn_max = 0;
  table_stats(&end_conn_mean, &end_conn_max);
  ring_consistency(&ring_linked, &ring_total);
  std::printf("ring consistency at end: %zu/%zu successor-linked\n",
              ring_linked, ring_total);

  // --- hostile-mode traversal audit --------------------------------------
  // Classify every link between live nodes by how it was established —
  // direct dial, hole-punched, or relayed — bucketed by the NAT-type pair
  // of its endpoints.  Both directions of a link are inspected and the
  // strongest assistance wins (relayed > punched > direct): the side that
  // accepted an inbound dial legitimately sees its own leg as "direct".
  struct PairCell {
    std::uint64_t total = 0, punched = 0, relayed = 0;
  };
  PairCell cells[4][4] = {};  // upper triangle, indexed by type rank
  static const char* const kRankName[4] = {"fc", "rc", "pr", "sym"};
  auto type_rank = [](ipop::net::NatType t) {
    switch (t) {
      case ipop::net::NatType::kFullCone: return 0;
      case ipop::net::NatType::kRestrictedCone: return 1;
      case ipop::net::NatType::kPortRestrictedCone: return 2;
      case ipop::net::NatType::kSymmetric: return 3;
    }
    return 0;
  };
  std::uint64_t total_pairs = 0, total_punched = 0, total_relayed = 0;
  if (opt.hostile) {
    std::map<ipop::brunet::Address, std::size_t> addr_index;
    for (std::size_t i = 0; i < soak.size(); ++i) {
      if (soak[i].live) {
        addr_index[soak[i].node->overlay().address()] = i;
      }
    }
    std::map<std::pair<std::size_t, std::size_t>, int> outcome;
    for (std::size_t i = 0; i < soak.size(); ++i) {
      if (!soak[i].live) continue;
      soak[i].node->overlay().table().for_each(
          [&](const ipop::brunet::Connection& conn) {
            const auto it = addr_index.find(conn.addr);
            if (it == addr_index.end()) return;  // peer churned away
            int o = 0;
            if (conn.edge != nullptr &&
                conn.edge->remote().proto ==
                    ipop::brunet::TransportAddress::Proto::kRelay) {
              o = 2;
            } else if (conn.punched) {
              o = 1;
            }
            auto key = std::minmax(i, it->second);
            auto& cur = outcome[{key.first, key.second}];
            cur = std::max(cur, o);
          });
    }
    for (const auto& [key, o] : outcome) {
      int a = type_rank(soak[key.first].nat_type);
      int b = type_rank(soak[key.second].nat_type);
      if (a > b) std::swap(a, b);
      auto& c = cells[a][b];
      ++c.total;
      ++total_pairs;
      if (o == 2) {
        ++c.relayed;
        ++total_relayed;
      } else if (o == 1) {
        ++c.punched;
        ++total_punched;
      }
    }
    std::printf("traversal outcomes (%llu links between live nodes):\n",
                static_cast<unsigned long long>(total_pairs));
    for (int a = 0; a < 4; ++a) {
      for (int b = a; b < 4; ++b) {
        const auto& c = cells[a][b];
        if (c.total == 0) continue;
        std::printf("  %s-%s: %llu links, %llu punched, %llu relayed\n",
                    kRankName[a], kRankName[b],
                    static_cast<unsigned long long>(c.total),
                    static_cast<unsigned long long>(c.punched),
                    static_cast<unsigned long long>(c.relayed));
      }
    }
    std::printf("  punches: %llu sent, %llu answered; relays: %llu edges, "
                "%llu forwards, %llu no-route drops, %llu wrap bytes "
                "copied; cross-proto links %llu\n",
                static_cast<unsigned long long>(punch_req_sent),
                static_cast<unsigned long long>(punch_responses),
                static_cast<unsigned long long>(relay_edges),
                static_cast<unsigned long long>(relay_forwarded),
                static_cast<unsigned long long>(relay_no_route),
                static_cast<unsigned long long>(relay_wrap_copied),
                static_cast<unsigned long long>(links_cross_proto));
  }
  const std::uint64_t nonrelayed_sym_sym =
      cells[3][3].total - cells[3][3].relayed;
  const double relayed_edge_fraction =
      total_pairs > 0 ? static_cast<double>(total_relayed) /
                            static_cast<double>(total_pairs)
                      : 0.0;
  const double copied_per_forward =
      relay_forwarded > 0 ? static_cast<double>(relay_wrap_copied) /
                                static_cast<double>(relay_forwarded)
                          : static_cast<double>(relay_wrap_copied);

  std::printf(
      "soak done: %llu events (%llu joins, %llu leaves, %llu fails)\n"
      "  duplicate leases: %llu across %llu audits\n"
      "  resolution: %llu/%llu ok (%.4f; %llu aborted, %llu misses, "
      "%llu stale)\n"
      "  acquisition latency: mean %.1f ms, p95 %.1f ms, max %.1f ms\n"
      "  dht: %llu handoffs, %llu re-replications, %llu anti-entropy "
      "push-backs; dhcp conflicts %llu, leases lost %llu in churn "
      "(+%llu warmup reconciliation)\n"
      "  churn detection: %llu keepalive evictions, %llu departures seen, "
      "%llu arp invalidations\n"
      "  tables: connections mean %.1f max %llu; switch arp-suppressed "
      "%llu\n"
      "  dht gets: %llu total, %llu timeouts, %llu not-found; route drops: "
      "%llu ttl, %llu no-route, %llu exact\n",
      static_cast<unsigned long long>(m.churn_events),
      static_cast<unsigned long long>(m.joins),
      static_cast<unsigned long long>(m.graceful_leaves),
      static_cast<unsigned long long>(m.failures),
      static_cast<unsigned long long>(m.duplicate_leases),
      static_cast<unsigned long long>(m.lease_audits),
      static_cast<unsigned long long>(m.resolution_successes),
      static_cast<unsigned long long>(m.resolution_attempts -
                                      m.resolution_aborted),
      resolution_rate,
      static_cast<unsigned long long>(m.resolution_aborted),
      static_cast<unsigned long long>(m.resolution_misses),
      static_cast<unsigned long long>(m.resolution_wrong),
      m.acquisition_ms.mean(), m.acquisition_ms.percentile(95),
      m.acquisition_ms.percentile(100),
      static_cast<unsigned long long>(handoffs),
      static_cast<unsigned long long>(rereplications),
      static_cast<unsigned long long>(antientropy),
      static_cast<unsigned long long>(dhcp_conflicts),
      static_cast<unsigned long long>(churn_lease_losses),
      static_cast<unsigned long long>(warmup_lease_losses),
      static_cast<unsigned long long>(keepalive_evictions),
      static_cast<unsigned long long>(departures_seen),
      static_cast<unsigned long long>(arp_invalidations),
      end_conn_mean, static_cast<unsigned long long>(end_conn_max),
      static_cast<unsigned long long>(sw.arp_suppressed()),
      static_cast<unsigned long long>(gets),
      static_cast<unsigned long long>(get_timeouts),
      static_cast<unsigned long long>(get_notfound),
      static_cast<unsigned long long>(drop_ttl),
      static_cast<unsigned long long>(drop_no_route),
      static_cast<unsigned long long>(drop_exact));
  if (hijack_stride > 0) {
    std::printf("  hijacks: %llu forged writes issued, %llu accepted, "
                "%llu rejected; storing-node rejects: %llu owner, %llu "
                "signature\n",
                static_cast<unsigned long long>(m.hijacks_attempted),
                static_cast<unsigned long long>(m.hijacks_succeeded.load()),
                static_cast<unsigned long long>(m.hijacks_rejected.load()),
                static_cast<unsigned long long>(dht_owner_rejects),
                static_cast<unsigned long long>(dht_sig_rejects));
  }
  std::printf("  trace digest %s; wall %.1f s on %d shard%s\n",
              trace_digest.c_str(), wall_seconds, opt.shards,
              opt.shards == 1 ? "" : "s");

  // Same scenario on any shard count keeps the baseline-matched run name;
  // extra-shard legs get a suffixed name so the scale suite can compare
  // them against the 1-shard leg inside one JSON report.
  // A hijack leg gets its own "/hijack" suffix: the hostile gate's
  // prefix rules (^HostileSoak/) still cover it, while exact-name
  // baseline comparisons keep matching only the attacker-free leg.
  char run_name[64];
  const char* soak_name = opt.hostile ? "HostileSoak" : "ChurnSoak";
  const char* hijack_tag = hijack_stride > 0 ? "/hijack" : "";
  if (opt.shards > 1) {
    std::snprintf(run_name, sizeof run_name, "%s/%d%s/shards:%d", soak_name,
                  opt.nodes, hijack_tag, opt.shards);
  } else {
    std::snprintf(run_name, sizeof run_name, "%s/%d%s", soak_name, opt.nodes,
                  hijack_tag);
  }

  // google-benchmark JSON shape, so tools/bench_gate.py shares one parser.
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
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
               "      \"churn_events\": %llu,\n"
               "      \"joins\": %llu,\n"
               "      \"graceful_leaves\": %llu,\n"
               "      \"failures\": %llu,\n"
               "      \"duplicate_leases\": %llu,\n"
               "      \"lease_audits\": %llu,\n"
               "      \"resolution_attempts\": %llu,\n"
               "      \"resolution_aborted\": %llu,\n"
               "      \"resolution_success_rate\": %.6f,\n"
               "      \"lease_acquired_fraction\": %.6f,\n"
               "      \"acquisition_latency_ms_mean\": %.3f,\n"
               "      \"acquisition_latency_ms_p95\": %.3f,\n"
               "      \"acquisition_latency_ms_max\": %.3f,\n"
               "      \"dht_handoffs\": %llu,\n"
               "      \"dht_rereplications\": %llu,\n"
               "      \"dhcp_conflicts\": %llu,\n"
               "      \"lease_losses\": %llu,\n"
               "      \"warmup_lease_reconciliations\": %llu,\n"
               "      \"dht_antientropy_pushbacks\": %llu,\n"
               "      \"keepalive_evictions\": %llu,\n"
               "      \"departures_seen\": %llu,\n"
               "      \"arp_invalidations\": %llu,\n",
               opt.nodes, opt.churn_rate, opt.churn_minutes,
               static_cast<unsigned long long>(opt.seed),
               opt.hostile ? "true" : "false", opt.hijack_fraction,
               opt.shards, run_name,
               ipop::util::to_seconds(net.now()),
               ipop::util::to_seconds(net.now()),
               static_cast<unsigned long long>(m.churn_events),
               static_cast<unsigned long long>(m.joins),
               static_cast<unsigned long long>(m.graceful_leaves),
               static_cast<unsigned long long>(m.failures),
               static_cast<unsigned long long>(m.duplicate_leases),
               static_cast<unsigned long long>(m.lease_audits),
               static_cast<unsigned long long>(m.resolution_attempts),
               static_cast<unsigned long long>(m.resolution_aborted),
               resolution_rate, acquired_fraction,
               m.acquisition_ms.mean(), m.acquisition_ms.percentile(95),
               m.acquisition_ms.percentile(100),
               static_cast<unsigned long long>(handoffs),
               static_cast<unsigned long long>(rereplications),
               static_cast<unsigned long long>(dhcp_conflicts),
               static_cast<unsigned long long>(churn_lease_losses),
               static_cast<unsigned long long>(warmup_lease_losses),
               static_cast<unsigned long long>(antientropy),
               static_cast<unsigned long long>(keepalive_evictions),
               static_cast<unsigned long long>(departures_seen),
               static_cast<unsigned long long>(arp_invalidations));
  if (opt.hostile) {
    // Per-NAT-type-pair traversal outcomes.  punch_success_rate_<a>_<b>
    // is the fraction of that pair's links that did NOT need a relay
    // (direct or punched both count: traversal succeeded).  The gate's
    // rate rules only apply where the companion pairs_<a>_<b> count is
    // nonzero, so quiet cells stay neutral.
    for (int a = 0; a < 4; ++a) {
      for (int b = a; b < 4; ++b) {
        const auto& c = cells[a][b];
        const double rate =
            c.total > 0 ? static_cast<double>(c.total - c.relayed) /
                              static_cast<double>(c.total)
                        : 1.0;
        std::fprintf(f,
                     "      \"pairs_%s_%s\": %llu,\n"
                     "      \"punched_%s_%s\": %llu,\n"
                     "      \"relayed_%s_%s\": %llu,\n"
                     "      \"punch_success_rate_%s_%s\": %.6f,\n",
                     kRankName[a], kRankName[b],
                     static_cast<unsigned long long>(c.total), kRankName[a],
                     kRankName[b], static_cast<unsigned long long>(c.punched),
                     kRankName[a], kRankName[b],
                     static_cast<unsigned long long>(c.relayed), kRankName[a],
                     kRankName[b], rate);
      }
    }
    std::fprintf(f,
                 "      \"links_audited\": %llu,\n"
                 "      \"links_punched_total\": %llu,\n"
                 "      \"links_relayed_total\": %llu,\n"
                 "      \"nonrelayed_sym_sym\": %llu,\n"
                 "      \"relayed_edge_fraction\": %.6f,\n"
                 "      \"punch_requests_sent\": %llu,\n"
                 "      \"punch_responses\": %llu,\n"
                 "      \"links_cross_proto\": %llu,\n"
                 "      \"relay_edges\": %llu,\n"
                 "      \"relay_forwarded\": %llu,\n"
                 "      \"relay_drop_no_route\": %llu,\n"
                 "      \"relay_wrap_bytes_copied\": %llu,\n"
                 "      \"bytes_copied_per_forward\": %.6f,\n",
                 static_cast<unsigned long long>(total_pairs),
                 static_cast<unsigned long long>(total_punched),
                 static_cast<unsigned long long>(total_relayed),
                 static_cast<unsigned long long>(nonrelayed_sym_sym),
                 relayed_edge_fraction,
                 static_cast<unsigned long long>(punch_req_sent),
                 static_cast<unsigned long long>(punch_responses),
                 static_cast<unsigned long long>(links_cross_proto),
                 static_cast<unsigned long long>(relay_edges),
                 static_cast<unsigned long long>(relay_forwarded),
                 static_cast<unsigned long long>(relay_no_route),
                 static_cast<unsigned long long>(relay_wrap_copied),
                 copied_per_forward);
  }
  if (opt.hostile || hijack_stride > 0) {
    // Every hostile run emits the hijack counters — the gate's zero
    // rule on hijacks_succeeded must bite even on attacker-free legs
    // (where all three stay 0 and the ownership rejects are organic).
    std::fprintf(f,
                 "      \"hijacks_attempted\": %llu,\n"
                 "      \"hijacks_succeeded\": %llu,\n"
                 "      \"hijacks_rejected\": %llu,\n"
                 "      \"dht_owner_rejects\": %llu,\n"
                 "      \"dht_sig_rejects\": %llu,\n",
                 static_cast<unsigned long long>(m.hijacks_attempted),
                 static_cast<unsigned long long>(m.hijacks_succeeded.load()),
                 static_cast<unsigned long long>(m.hijacks_rejected.load()),
                 static_cast<unsigned long long>(dht_owner_rejects),
                 static_cast<unsigned long long>(dht_sig_rejects));
  }
  std::fprintf(f,
               "      \"shards\": %d,\n"
               "      \"wall_seconds\": %.3f,\n"
               "      \"trace_digest\": \"%s\"\n"
               "    }\n"
               "  ]\n"
               "}\n",
               opt.shards, wall_seconds, trace_digest.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());

  // The soak binary itself enforces the hard invariants so a CI leg
  // without the gate script still fails loudly.
  if (m.duplicate_leases != 0) {
    std::fprintf(stderr, "FAIL: duplicate leases\n");
    return 1;
  }
  if (resolution_rate < 0.99) {
    std::fprintf(stderr, "FAIL: resolution success %.4f < 0.99\n",
                 resolution_rate);
    return 1;
  }
  if (opt.hostile) {
    // Symmetric-symmetric pairs cannot hole-punch (per-destination
    // mappings); any such link NOT riding a relay tunnel means the
    // outcome classifier or the fallback logic is broken.
    if (nonrelayed_sym_sym != 0) {
      std::fprintf(stderr, "FAIL: %llu sym-sym links not relayed\n",
                   static_cast<unsigned long long>(nonrelayed_sym_sym));
      return 1;
    }
    // Relayed tunnels must stay zero-copy end to end: per-path headroom
    // means the inner wire image is built deep enough that the wrapper
    // prepends in place.
    if (relay_wrap_copied != 0) {
      std::fprintf(stderr, "FAIL: relay wrap copied %llu bytes\n",
                   static_cast<unsigned long long>(relay_wrap_copied));
      return 1;
    }
  }
  // Cryptographic ownership is an all-or-nothing property: a single
  // accepted forged write means some storing node let an attacker
  // capture another node's lease or ARP binding.
  if (m.hijacks_succeeded.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu forged writes accepted\n",
                 static_cast<unsigned long long>(m.hijacks_succeeded.load()));
    return 1;
  }
  if (hijack_stride > 0 && m.hijacks_attempted == 0) {
    std::fprintf(stderr,
                 "FAIL: hijack mode requested but no attacks were issued\n");
    return 1;
  }
  return 0;
}
