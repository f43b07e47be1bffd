// "traceroute" measurement tool over the simulated stack.
//
// Classic UDP traceroute: probes to high destination ports with
// increasing TTL; each hop on the path answers with an ICMP time-exceeded
// error, the destination itself with port-unreachable.  Exercises the
// middleboxes' ICMP-error translation end to end — a traceroute from a
// NAT'd host only sees hops beyond the box if the NAT rewrites the quoted
// packet inside each error back to the inside flow.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/stack.hpp"

namespace ipop::net {

struct TracerouteHop {
  int ttl = 0;
  /// Router (or destination) the error came from; unspecified on timeout.
  Ipv4Address from;
  /// True for the final hop (port-unreachable from the destination).
  bool reached = false;
  bool timed_out = false;
  double rtt_ms = 0.0;
};

struct TracerouteResult {
  std::vector<TracerouteHop> hops;
  bool reached = false;
};

/// One traceroute run per instance; takes over the stack's ICMP error
/// handler for its duration.
class Traceroute {
 public:
  explicit Traceroute(Stack& stack) : stack_(stack) {}
  ~Traceroute();

  struct Options {
    int max_ttl = 16;
    util::Duration probe_timeout = util::seconds(1);
    /// Destination port of the first probe (one port per TTL, the
    /// classic 33434+ scheme — the quoted UDP header in each returned
    /// error identifies the probe).
    std::uint16_t base_port = 33434;
    std::uint16_t src_port = 44444;
  };

  void run(Ipv4Address dst, const Options& opts,
           std::function<void(TracerouteResult)> done);

 private:
  void send_probe();
  void on_error(Ipv4Address from, const IcmpView& msg);
  /// Record a hop; `stop` ends the trace (destination answered, or a
  /// mid-path unreachable further TTLs could not get past).
  void advance(TracerouteHop hop, bool stop);
  void finish();

  Stack& stack_;
  Options opts_;
  Ipv4Address dst_;
  std::function<void(TracerouteResult)> done_;
  TracerouteResult result_;
  /// The handler displaced by run(), reinstated on completion.
  Stack::IcmpErrorHandler saved_handler_;
  int ttl_ = 0;
  util::TimePoint probe_sent_at_{};
  std::uint64_t timeout_timer_ = 0;
  bool running_ = false;
};

}  // namespace ipop::net
