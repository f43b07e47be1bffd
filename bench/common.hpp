// Shared helpers for the paper-reproduction bench binaries.
//
// Each bench regenerates one table or figure from the paper: it builds the
// corresponding testbed, runs the paper's workload, and prints the paper's
// reported values next to our measured values so the shape comparison is
// immediate.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ipop/fig4_overlay.hpp"
#include "net/ping.hpp"
#include "net/ttcp.hpp"
#include "util/table.hpp"

namespace ipop::bench {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s of \"IP over P2P\", IPPS 2006)\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Run `count` pings from a host's stack and block (in simulated time)
/// until the run completes; returns the result.
inline net::PingResult run_pings(sim::EventLoop& loop, net::Stack& from,
                                 net::Ipv4Address to, int count,
                                 util::Duration interval,
                                 std::size_t payload = 56) {
  net::Pinger pinger(from);
  net::Pinger::Options opts;
  opts.count = count;
  opts.interval = interval;
  opts.timeout = util::seconds(5);
  opts.payload_size = payload;
  net::PingResult result;
  bool done = false;
  pinger.run(to, opts, [&](net::PingResult r) {
    result = std::move(r);
    done = true;
  });
  while (!done) loop.run_until(loop.now() + util::milliseconds(500));
  return result;
}

/// One ttcp transfer (sender -> receiver); returns the receiver-side
/// result (bytes + elapsed measured at the sink, like the original tool).
/// A transfer that is reset, stalls past the deadline or delivers short
/// is a failed experiment, not a throughput: it exits the bench non-zero.
inline net::TtcpResult run_ttcp(sim::EventLoop& loop, net::Stack& from,
                                net::Stack& to, net::Ipv4Address to_ip,
                                std::uint64_t bytes, std::uint16_t port) {
  net::TtcpReceiver receiver(to, port);
  net::TtcpSender sender(from);
  net::TtcpSender::Options opts;
  opts.total_bytes = bytes;
  net::TtcpResult result;
  bool done = false;
  receiver.set_done([&](net::TtcpResult r) {
    result = r;
    done = true;
  });
  sender.run(to_ip, port, opts, [](net::TtcpResult) {});
  // Generous ceiling: even the slowest tunneled WAN transfer finishes
  // well inside two simulated hours.
  constexpr int kDeadlineS = 7200;
  const auto deadline = loop.now() + util::seconds(kDeadlineS);
  while (!done && loop.now() < deadline) {
    loop.run_until(loop.now() + util::seconds(5));
  }
  if (!done) {
    std::fprintf(stderr,
                 "ttcp to port %u stalled: no completion within %d "
                 "simulated s\n",
                 static_cast<unsigned>(port), kDeadlineS);
    std::exit(1);
  }
  if (!result.ok || result.bytes != bytes) {
    std::fprintf(stderr, "ttcp to port %u failed: %llu of %llu bytes%s\n",
                 static_cast<unsigned>(port),
                 static_cast<unsigned long long>(result.bytes),
                 static_cast<unsigned long long>(bytes),
                 result.ok ? "" : " (connection reset)");
    std::exit(1);
  }
  return result;
}

/// Build a Figure-4 IPOP overlay for a transport mode, converge it, and
/// guarantee direct overlay links for the measured pairs.
inline std::unique_ptr<core::Fig4Overlay> make_overlay(
    brunet::TransportAddress::Proto proto,
    const core::Fig4OverlayOptions& base = {}) {
  core::Fig4OverlayOptions opts = base;
  opts.transport = proto;
  auto overlay = std::make_unique<core::Fig4Overlay>(opts);
  overlay->start_all();
  overlay->converge(util::seconds(240));
  // The pairs measured by Tables I-III (always dialable in one direction).
  overlay->link_pair("F2", "F4");
  overlay->link_pair("F4", "V1");
  return overlay;
}

/// Follow greedy routing over live connection tables: the overlay path
/// src -> dst, mirroring BrunetNode::route's next-hop choice.
inline std::vector<brunet::Address> overlay_path(
    const std::map<brunet::Address, brunet::BrunetNode*>& by_addr,
    brunet::Address src, brunet::Address dst) {
  std::vector<brunet::Address> path{src};
  brunet::Address cur = src;
  for (int hops = 0; hops < 32; ++hops) {
    if (cur == dst) return path;
    auto it = by_addr.find(cur);
    if (it == by_addr.end()) break;
    const auto* best = it->second->table().closest_to(dst);
    if (best == nullptr || !brunet::Address::closer(dst, best->addr, cur)) {
      break;
    }
    cur = best->addr;
    path.push_back(cur);
  }
  return path;
}

inline std::string ms_pair(double mean, double stddev) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%7.3f / %7.3f", mean, stddev);
  return buf;
}

}  // namespace ipop::bench
