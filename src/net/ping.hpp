// "ping" measurement tool over the simulated stack.
//
// Reproduces the paper's latency methodology: N ICMP echo round trips,
// reporting mean and standard deviation (Table I uses N=1000; Figure 5
// uses N=10000 with a histogram).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/stack.hpp"
#include "util/lifetime.hpp"
#include "util/stats.hpp"

namespace ipop::net {

/// Dispatches echo replies to the interested pinger by echo identifier so
/// multiple concurrent Pingers can share one stack.
class EchoReplyHandlerChain {
 public:
  /// Returns (creating on first use) the chain bound to `stack`; installs
  /// itself as the stack's echo-reply handler.
  static EchoReplyHandlerChain& for_stack(Stack& stack);

  using Handler = std::function<void(const IcmpView&)>;
  void add(std::uint16_t id, Handler h) { handlers_[id] = std::move(h); }
  void remove(std::uint16_t id) { handlers_.erase(id); }

 private:
  explicit EchoReplyHandlerChain(Stack& stack);
  std::unordered_map<std::uint16_t, Handler> handlers_;
};

struct PingResult {
  int sent = 0;
  int received = 0;
  /// Round-trip times in milliseconds for every received reply.
  util::Samples rtts_ms;

  double loss_fraction() const {
    return sent == 0 ? 0.0
                     : 1.0 - static_cast<double>(received) /
                                 static_cast<double>(sent);
  }
};

class Pinger {
 public:
  explicit Pinger(Stack& stack);
  ~Pinger();

  struct Options {
    int count = 10;
    Duration interval = util::seconds(1);
    /// Grace period after the last request before the run finalizes.
    Duration timeout = util::seconds(2);
    std::size_t payload_size = 56;  // classic ping default
  };

  /// Start pinging; `done` fires once after count requests + timeout.
  void run(Ipv4Address dst, const Options& opts,
           std::function<void(PingResult)> done);

 private:
  void send_next();
  void on_reply(const IcmpView& msg);
  void finish();

  Stack& stack_;
  std::uint16_t id_;
  Options opts_;
  Ipv4Address dst_;
  std::function<void(PingResult)> done_;
  PingResult result_;
  int next_seq_ = 0;
  // Declared last: interval/timeout timers outlive a Pinger torn down
  // mid-run (benches stack-allocate them), so every scheduled lambda
  // carries a guard instead of a bare `this`.
  util::AliveToken alive_;
};

}  // namespace ipop::net
