#include "layers.hpp"

#include <algorithm>
#include <limits>

#include "brunet/dht.hpp"
#include "brunet/secure.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "util/crypto.hpp"
#include "util/random.hpp"

namespace e2e {

using namespace ipop;

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a - std::min(a, b); };
  d.events = sub(events, o.events);
  d.ip_tx = sub(ip_tx, o.ip_tx);
  d.ip_rx = sub(ip_rx, o.ip_rx);
  d.payload_bytes_copied = sub(payload_bytes_copied, o.payload_bytes_copied);
  d.net_dropped = sub(net_dropped, o.net_dropped);
  d.ov_delivered = sub(ov_delivered, o.ov_delivered);
  d.ov_forwarded = sub(ov_forwarded, o.ov_forwarded);
  d.ov_dropped = sub(ov_dropped, o.ov_dropped);
  d.seals = sub(seals, o.seals);
  d.opens = sub(opens, o.opens);
  d.key_agreements = sub(key_agreements, o.key_agreements);
  d.dht_writes = sub(dht_writes, o.dht_writes);
  d.dht_gets = sub(dht_gets, o.dht_gets);
  d.dht_get_timeouts = sub(dht_get_timeouts, o.dht_get_timeouts);
  d.dht_rereplications = sub(dht_rereplications, o.dht_rereplications);
  d.dht_handoffs = sub(dht_handoffs, o.dht_handoffs);
  d.dht_pushbacks = sub(dht_pushbacks, o.dht_pushbacks);
  d.injected = sub(injected, o.injected);
  d.tunneled_clear = sub(tunneled_clear, o.tunneled_clear);
  d.tunneled = sub(tunneled, o.tunneled);
  d.ipop_dropped = sub(ipop_dropped, o.ipop_dropped);
  d.arp_lookups = sub(arp_lookups, o.arp_lookups);
  d.arp_cache_hits = sub(arp_cache_hits, o.arp_cache_hits);
  d.dhcp_conflicts = sub(dhcp_conflicts, o.dhcp_conflicts);
  d.tcp_segments = sub(tcp_segments, o.tcp_segments);
  d.tcp_retransmits = sub(tcp_retransmits, o.tcp_retransmits);
  d.nat_translations = sub(nat_translations, o.nat_translations);
  d.fw_allowed = sub(fw_allowed, o.fw_allowed);
  return d;
}

Counters read_counters(net::Network& net,
                       const std::vector<core::IpopNode*>& nodes,
                       const std::vector<net::Stack*>& stacks) {
  Counters c;
  c.events = net.engine().events_processed();
  for (const auto* s : stacks) {
    const auto& k = s->counters();
    c.ip_tx += k.ip_tx;
    c.ip_rx += k.ip_rx;
    c.payload_bytes_copied += k.payload_bytes_copied;
    c.net_dropped += k.dropped_no_route + k.dropped_ttl + k.dropped_parse +
                     k.dropped_checksum + k.dropped_hook + k.dropped_mtu +
                     k.dropped_arp_fail;
  }
  for (auto* n : nodes) {
    const auto& m = n->metrics();
    c.injected += m.packets_injected;
    c.tunneled += m.packets_tunneled;
    c.tunneled_clear += m.packets_clear;
    c.ipop_dropped += m.dropped_non_ip + m.dropped_parse +
                      m.dropped_unresolved + m.dropped_not_ours +
                      m.dropped_seal_reject;
    const auto& o = n->overlay().stats();
    c.ov_delivered += o.delivered;
    c.ov_forwarded += o.forwarded;
    c.ov_dropped += o.dropped_ttl + o.dropped_no_route + o.dropped_exact;
    const auto& s = n->sealer().stats();
    c.seals += s.sealed;
    c.opens += s.opened + s.rejected;
    c.key_agreements += s.key_agreements;
    c.payload_bytes_copied += s.payload_bytes_copied;
    const auto& d = n->dht().stats();
    c.dht_writes += d.puts + d.creates;
    c.dht_gets += d.gets;
    c.dht_get_timeouts += d.get_timeouts;
    c.dht_rereplications += d.rereplications;
    c.dht_handoffs += d.handoffs;
    c.dht_pushbacks += d.antientropy_pushbacks;
    if (const auto* arp = n->brunet_arp()) {
      c.arp_lookups += arp->stats().lookups;
      c.arp_cache_hits += arp->stats().cache_hits;
    }
    if (const auto* dhcp = n->dhcp()) c.dhcp_conflicts += dhcp->stats().conflicts;
  }
  return c;
}

std::uint64_t injected_total(const std::vector<core::IpopNode*>& nodes) {
  std::uint64_t n = 0;
  for (const auto* node : nodes) n += node->metrics().packets_injected;
  return n;
}

// --- probes ---------------------------------------------------------------------

namespace {

volatile std::uint64_t g_sink = 0;

/// Wall nanoseconds per call of `fn(i)`: the fastest of five batches of
/// `n` calls, so a co-tenant's burst does not inflate a layer's cost.
template <typename F>
double per_call_ns(int n, F fn) {
  constexpr int kRounds = 5;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Wall::now();
    for (int i = 0; i < n; ++i) fn(r * n + i);
    best = std::min(best, seconds_since(t0) * 1e9 / n);
  }
  return best;
}

std::size_t probe_len(int i) { return i % 2 == 0 ? 64 : 1172; }

double probe_ip_traversal(double ns_per_event) {
  // Two hosts on one wire: every datagram is one transmit and one receive
  // traversal of a simulated kernel, plus the events that carry it.
  net::Network mini(1);
  auto& a = mini.add_host("probe-a");
  auto& b = mini.add_host("probe-b");
  sim::LinkConfig wire;
  wire.delay = util::microseconds(10);
  wire.bandwidth_bps = 0;
  mini.connect(a.stack(), {"eth0", net::Ipv4Address(10, 9, 0, 1), 24},
               b.stack(), {"eth0", net::Ipv4Address(10, 9, 0, 2), 24}, wire);
  mini.plan_shards(1);
  auto tx = a.stack().udp_bind(5000);
  auto rx = b.stack().udp_bind(5001);
  std::uint64_t got = 0;
  rx->set_receive_handler(
      [&got](net::Ipv4Address, std::uint16_t, util::Buffer d) {
        got += d.size();
      });
  const auto dst = net::Ipv4Address(10, 9, 0, 2);
  auto send_batch = [&](int n) {
    for (int i = 0; i < n; ++i) {
      tx->send_to(dst, 5001,
                  util::Buffer::allocate(probe_len(i), util::kPacketHeadroom));
    }
    mini.run_for(util::milliseconds(50));
  };
  send_batch(1);  // resolve ARP outside the timed region
  const auto k0 = a.stack().counters().ip_tx + b.stack().counters().ip_rx;
  const auto e0 = mini.engine().events_processed();
  const auto t0 = Wall::now();
  for (int round = 0; round < 40; ++round) send_batch(500);
  const double ns = seconds_since(t0) * 1e9;
  const auto traversals =
      a.stack().counters().ip_tx + b.stack().counters().ip_rx - k0;
  const auto events = mini.engine().events_processed() - e0;
  g_sink = g_sink + got;
  if (traversals == 0) return 0.0;
  return std::max(0.0, (ns - static_cast<double>(events) * ns_per_event) /
                           static_cast<double>(traversals));
}

}  // namespace

ProbeCosts run_probes(const brunet::ConnectionTable& table,
                      std::size_t queue_depth, std::size_t tcp_mss) {
  ProbeCosts c;
  util::Rng rng(0x9e3779b9);

  {
    // Event cost at the workload's measured queue depth.
    sim::EventLoop loop;
    for (std::size_t i = 0; i < queue_depth; ++i) {
      loop.schedule_at(util::seconds(1'000'000), [] {});
    }
    std::uint64_t ran = 0;
    c.ns_per_event = per_call_ns(40000, [&](int) {
      loop.schedule_after(util::nanoseconds(1), [&ran] { ++ran; });
      loop.run_one();
    });
    g_sink = g_sink + ran;
  }

  c.alloc_ns = per_call_ns(80000, [](int i) {
    void* p = ::operator new(probe_len(i));
    g_sink = g_sink + reinterpret_cast<std::uintptr_t>(p) % 2;
    ::operator delete(p);
  });

  c.sha1_ns = per_call_ns(40000, [](int i) {
    const auto a = brunet::Address::from_ip(net::Ipv4Address(
        172, 16, static_cast<std::uint8_t>(i >> 8),
        static_cast<std::uint8_t>(i)));
    g_sink = g_sink + a.bytes()[0];
  });

  const auto keys_a = util::crypto::KeyPair::generate(rng);
  const auto keys_b = util::crypto::KeyPair::generate(rng);
  std::vector<std::uint8_t> msg(64, 0x5a);
  util::crypto::Signature sig;
  c.sign_us = per_call_ns(12, [&](int i) {
                msg[0] = static_cast<std::uint8_t>(i);
                sig = keys_a.sign(msg);
              }) / 1e3;
  c.verify_us = per_call_ns(12, [&](int) {
                  g_sink = g_sink + util::crypto::verify(keys_a.public_key(),
                                                         msg, sig);
                }) / 1e3;
  c.dh_us = per_call_ns(8, [&](int) {
              g_sink = g_sink + keys_a.shared_key(keys_b.public_key())[0];
            }) / 1e3;

  {
    brunet::FrameSealer sealer(keys_a);
    brunet::FrameSealer opener(keys_b);
    const auto dst = brunet::Address::from_public_key(keys_b.public_key());
    auto seal_one = [&](int i) {
      return sealer.seal(
          util::Buffer::allocate(probe_len(i), util::kPacketHeadroom),
          keys_b.public_key(), dst, util::kPacketHeadroom);
    };
    opener.open(seal_one(0), dst);  // prime both DH caches
    std::vector<util::Buffer> sealed;
    c.seal_us = per_call_ns(12, [&](int i) { sealed.push_back(seal_one(i)); }) /
                1e3;
    c.open_us = per_call_ns(12, [&](int i) {
                  auto plain = opener.open(std::move(sealed[i]), dst);
                  g_sink = g_sink + (plain ? plain->size() : 0);
                }) / 1e3;
  }

  {
    brunet::Record rec{util::Buffer::allocate(52, 0)};
    const auto key = brunet::Address::random(rng);
    rec.sign(key, keys_a);
    c.record_verify_us =
        per_call_ns(12, [&](int) { g_sink = g_sink + rec.verify(key); }) / 1e3;
  }

  {
    std::vector<brunet::Address> targets;
    for (int i = 0; i < 1024; ++i) targets.push_back(brunet::Address::random(rng));
    c.next_hop_ns = per_call_ns(40000, [&](int i) {
      const auto* conn = table.closest_to(targets[static_cast<std::size_t>(i) % 1024]);
      g_sink = g_sink + (conn != nullptr);
    });
  }

  {
    std::vector<std::uint8_t> seg(tcp_mss > 0 ? tcp_mss : 1172, 0xa5);
    c.checksum_ns = per_call_ns(40000, [&](int i) {
      seg[0] = static_cast<std::uint8_t>(i);
      g_sink = g_sink + net::internet_checksum(seg);
    });
  }

  c.ip_traversal_ns = probe_ip_traversal(c.ns_per_event);

  {
    net::Ipv4Packet ip;
    ip.hdr.src = net::Ipv4Address(172, 16, 0, 2);
    ip.hdr.dst = net::Ipv4Address(172, 16, 0, 3);
    ip.payload = util::Buffer::allocate(64, util::kPacketHeadroom);
    const auto frame = net::frame_onto(ip.take_wire(), net::MacAddress{},
                                       net::MacAddress{}, net::EtherType::kIpv4);
    c.parse_ns = per_call_ns(40000, [&](int) {
      const auto e = net::EthernetView::parse(frame.view());
      const auto v = net::Ipv4View::parse(e.payload);
      g_sink = g_sink + v.hdr.ttl;
    });
  }
  return c;
}

// --- attribution ------------------------------------------------------------------

TracedPhase measure_traced(net::Network& net, Tracer& tracer, int windows,
                           util::Duration window,
                           const std::function<Counters()>& read,
                           const WindowLog& reference) {
  TracedPhase t;
  t.untraced_pps = static_cast<double>(reference.total_pkts()) /
                   reference.total_wall();
  t.untraced_sim_rate =
      util::to_seconds(window) * windows / reference.total_wall();
  const auto spans0 = tracer.self_seconds();
  const Counters c0 = read();
  const AllocCounts a0 = alloc_counts();
  set_alloc_counting(true);
  t.log = run_windows(net, tracer, windows, window,
                      [&read] { return read().injected; });
  set_alloc_counting(false);
  const AllocCounts a1 = alloc_counts();
  t.delta = read() - c0;
  t.allocs = AllocCounts{a1.allocs - a0.allocs, a1.bytes - a0.bytes};
  for (const auto& [layer, sec] : tracer.self_seconds()) {
    const auto it = spans0.find(layer);
    t.span_self_s[layer] = sec - (it == spans0.end() ? 0.0 : it->second);
  }
  return t;
}

void report_layers(Report& r, const TracedPhase& t, const ProbeCosts& c) {
  const Counters& d = t.delta;
  const double pkts = static_cast<double>(std::max<std::uint64_t>(1, d.injected));
  auto per_pkt = [pkts](double x) { return x / pkts; };
  const double measured_us = t.log.total_wall() * 1e6 / pkts;

  // Calls per packet, from the counters.
  const double events = per_pkt(static_cast<double>(d.events));
  const double sha1 = per_pkt(static_cast<double>(
      d.tunneled_clear + d.arp_lookups - std::min(d.arp_lookups, d.arp_cache_hits)));
  const double allocs = per_pkt(static_cast<double>(t.allocs.allocs));
  const double traversals = per_pkt(static_cast<double>(d.ip_tx + d.ip_rx));
  const double delivered = static_cast<double>(std::max<std::uint64_t>(1, d.ov_delivered));
  const double hops =
      static_cast<double>(d.ov_forwarded + d.ov_delivered) / delivered;
  // Every DHT write is signed by its writer and verified by each storing
  // node: the owner plus its replica fan-out; handoffs, pushbacks and
  // re-replication fan-outs are verified where they land.
  const double record_signs = per_pkt(static_cast<double>(d.dht_writes));
  const double record_verifies = per_pkt(
      static_cast<double>(d.dht_writes) * static_cast<double>(1 + t.dht_fanout) +
      static_cast<double>(d.dht_handoffs + d.dht_pushbacks) +
      static_cast<double>(d.dht_rereplications) *
          static_cast<double>(t.dht_fanout));

  const double sim_us = events * c.ns_per_event / 1e3;
  const double util_us = (sha1 * c.sha1_ns + allocs * c.alloc_ns) / 1e3;
  const double net_us =
      (traversals * c.ip_traversal_ns +
       per_pkt(static_cast<double>(d.tcp_segments)) * c.checksum_ns) / 1e3;
  const double crypto_us = per_pkt(static_cast<double>(d.seals)) * c.seal_us +
                           per_pkt(static_cast<double>(d.opens)) * c.open_us +
                           per_pkt(static_cast<double>(d.key_agreements)) * c.dh_us +
                           record_signs * c.sign_us +
                           record_verifies * c.record_verify_us;
  const double brunet_us = hops * c.next_hop_ns / 1e3 * per_pkt(delivered) +
                           crypto_us;
  const double ipop_us = per_pkt(static_cast<double>(d.tunneled + d.injected)) *
                         c.parse_ns / 1e3;
  const double attributed = sim_us + util_us + net_us + brunet_us + ipop_us;

  r.metric("host_us_per_pkt", measured_us, "us");
  r.metric("est.sim_us_per_pkt", sim_us, "us");
  r.metric("est.util_us_per_pkt", util_us, "us");
  r.metric("est.net_us_per_pkt", net_us, "us");
  r.metric("est.brunet_us_per_pkt", brunet_us, "us");
  r.metric("est.ipop_us_per_pkt", ipop_us, "us");
  r.metric("est.crypto_frac", crypto_us / measured_us, "ratio");
  r.metric("unattributed_frac", 1.0 - attributed / measured_us, "ratio");
  r.metric("trace_overhead_frac",
           t.untraced_pps > 0
               ? 1.0 - static_cast<double>(t.log.total_pkts()) /
                           t.log.total_wall() / t.untraced_pps
               : 0.0,
           "ratio");
  const double span_total = t.log.total_wall();
  for (const char* layer : {"sim", "net", "ipop"}) {
    const auto it = t.span_self_s.find(layer);
    r.metric(std::string("span.") + layer + "_self_frac",
             it == t.span_self_s.end() || span_total <= 0
                 ? 0.0
                 : it->second / span_total,
             "ratio");
  }

  r.metric("sim.sim_rate", t.untraced_sim_rate, "sim-s/s");
  r.metric("sim.events_per_pkt", events, "count");
  r.metric("sim.ns_per_event", c.ns_per_event, "ns");
  r.metric("sim.queue_depth_max", static_cast<double>(t.log.queue_depth_max),
           "count");

  r.metric("util.allocs_per_pkt", allocs, "count");
  r.metric("util.alloc_bytes_per_pkt", per_pkt(static_cast<double>(t.allocs.bytes)),
           "B");
  r.metric("util.alloc_ns", c.alloc_ns, "ns");
  r.metric("util.sha1_ns", c.sha1_ns, "ns");
  r.metric("util.sign_us", c.sign_us, "us");
  r.metric("util.verify_us", c.verify_us, "us");
  r.metric("util.dh_us", c.dh_us, "us");

  r.metric("net.ip_tx_per_pkt", per_pkt(static_cast<double>(d.ip_tx)), "count");
  r.metric("net.ip_traversal_ns", c.ip_traversal_ns, "ns");
  r.metric("net.payload_bytes_copied", static_cast<double>(d.payload_bytes_copied),
           "B");
  r.metric("net.dropped", static_cast<double>(d.net_dropped), "count");
  r.metric("net.tcp_retransmits", static_cast<double>(d.tcp_retransmits), "count");
  r.metric("net.checksum_ns", c.checksum_ns, "ns");
  r.metric("net.nat_translations", static_cast<double>(d.nat_translations), "count");
  r.metric("net.fw_allowed", static_cast<double>(d.fw_allowed), "count");

  r.metric("brunet.hops_per_pkt", hops, "count");
  r.metric("brunet.dropped", static_cast<double>(d.ov_dropped), "count");
  r.metric("brunet.next_hop_ns", c.next_hop_ns, "ns");
  r.metric("brunet.seal_us", c.seal_us, "us");
  r.metric("brunet.open_us", c.open_us, "us");
  r.metric("brunet.seals_per_pkt", per_pkt(static_cast<double>(d.seals)), "count");
  r.metric("brunet.key_agreements", static_cast<double>(d.key_agreements), "count");
  r.metric("brunet.dht_writes", static_cast<double>(d.dht_writes), "count");
  r.metric("brunet.dht_gets", static_cast<double>(d.dht_gets), "count");
  r.metric("brunet.dht_get_timeouts", static_cast<double>(d.dht_get_timeouts),
           "count");
  r.metric("brunet.dht_rereplications", static_cast<double>(d.dht_rereplications),
           "count");
  r.metric("brunet.record_verify_us", c.record_verify_us, "us");
  r.metric("brunet.record_verifies_per_pkt", record_verifies, "count");

  r.metric("ipop.dropped", static_cast<double>(d.ipop_dropped), "count");
  r.metric("ipop.arp_cache_hit_frac",
           d.arp_lookups > 0 ? static_cast<double>(d.arp_cache_hits) /
                                   static_cast<double>(d.arp_lookups)
                             : 0.0,
           "ratio");
  r.metric("ipop.dhcp_conflicts", static_cast<double>(d.dhcp_conflicts), "count");
  r.metric("ipop.parse_ns", c.parse_ns, "ns");
  r.metric("ipop.acq_p50_s", t.acq_p50_s, "s");
  r.metric("ipop.acq_p90_s", t.acq_p90_s, "s");
  r.metric("ipop.acq_samples", static_cast<double>(t.acq_samples), "count");
  r.metric("ipop.resolve_ok_frac", t.resolve_ok_frac, "ratio");
}

}  // namespace e2e
