// Per-layer view of a traced run: counters summed from the layers' public
// stats structs, probes timing public per-packet calls, and the
// attribution that multiplies the two.
#pragma once

#include <cstdint>
#include <vector>

#include "brunet/connection_table.hpp"
#include "harness.hpp"
#include "ipop/node.hpp"

namespace e2e {

/// Cumulative counters of one workload, summed over its nodes and stacks.
struct Counters {
  std::uint64_t events = 0;
  // net
  std::uint64_t ip_tx = 0;
  std::uint64_t ip_rx = 0;
  std::uint64_t payload_bytes_copied = 0;
  std::uint64_t net_dropped = 0;
  // brunet
  std::uint64_t ov_delivered = 0;
  std::uint64_t ov_forwarded = 0;
  std::uint64_t ov_dropped = 0;
  std::uint64_t seals = 0;
  std::uint64_t opens = 0;
  std::uint64_t key_agreements = 0;
  std::uint64_t dht_writes = 0;  // puts + creates (each signs a record)
  std::uint64_t dht_gets = 0;
  std::uint64_t dht_get_timeouts = 0;
  std::uint64_t dht_rereplications = 0;
  std::uint64_t dht_handoffs = 0;
  std::uint64_t dht_pushbacks = 0;
  // ipop
  std::uint64_t injected = 0;
  std::uint64_t tunneled_clear = 0;
  std::uint64_t tunneled = 0;
  std::uint64_t ipop_dropped = 0;
  std::uint64_t arp_lookups = 0;
  std::uint64_t arp_cache_hits = 0;
  std::uint64_t dhcp_conflicts = 0;
  // workload-specific, filled by the caller
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t nat_translations = 0;
  std::uint64_t fw_allowed = 0;

  Counters operator-(const Counters& o) const;
};

/// Sum the public stats of `nodes` (IPOP + overlay + DHT layers) and
/// `stacks` (every simulated kernel, routers and middleboxes included).
Counters read_counters(ipop::net::Network& net,
                       const std::vector<ipop::core::IpopNode*>& nodes,
                       const std::vector<ipop::net::Stack*>& stacks);

/// Total tunneled packets injected at destination taps.
std::uint64_t injected_total(const std::vector<ipop::core::IpopNode*>& nodes);

/// Per-call host cost of public per-packet operations, measured on
/// inputs shaped like the workload.
struct ProbeCosts {
  double ns_per_event = 0;
  double alloc_ns = 0;
  double sha1_ns = 0;
  double sign_us = 0;
  double verify_us = 0;
  double dh_us = 0;
  double seal_us = 0;
  double open_us = 0;
  double record_verify_us = 0;
  double next_hop_ns = 0;
  double checksum_ns = 0;
  double ip_traversal_ns = 0;
  double parse_ns = 0;
};

/// `table` is a live node's connection table; `queue_depth` the measured
/// event-queue depth; `tcp_mss` the segment size checksummed (0 = none).
ProbeCosts run_probes(const ipop::brunet::ConnectionTable& table,
                      std::size_t queue_depth, std::size_t tcp_mss);

/// Everything the traced run reports about its measured phase.
struct TracedPhase {
  Counters delta;
  WindowLog log;
  AllocCounts allocs;
  std::map<std::string, double> span_self_s;  // per layer, this phase
  /// The same work replayed with tracing off: the overhead reference.
  double untraced_pps = 0;
  double untraced_sim_rate = 0;
  /// DHT replica fan-out: the right-hand replicas plus the left guard copy.
  std::size_t dht_fanout = ipop::brunet::DhtConfig{}.replicas + 1;
  // Self-configuration outcomes (churn_soak; 0 elsewhere).
  double acq_p50_s = 0;
  double acq_p90_s = 0;
  std::uint64_t acq_samples = 0;
  double resolve_ok_frac = 0;
};

/// The traced replay's measured phase: spans, allocation counting and
/// counter snapshots on.  `reference` is the same work measured with
/// tracing off.
TracedPhase measure_traced(ipop::net::Network& net, Tracer& tracer,
                           int windows, ipop::util::Duration window,
                           const std::function<Counters()>& read,
                           const WindowLog& reference);

void report_layers(Report& r, const TracedPhase& t, const ProbeCosts& c);

}  // namespace e2e
