// ttcp_wan: full-MTU TCP inside the tunnel, on the paper's Figure-4
// testbed (Brunet over UDP, clean WAN).
//
// Two concurrent bulk transfers run over virtual IPs: V1 -> F4 through the
// VIMS firewall, and L1 -> F2 through the LSU firewall and the campus NAT,
// about ten WAN router hops each.  This exercises congestion control, the
// BufferChain send queue, checksums and per-packet NAT/firewall conntrack;
// its modelled goodput is Table III's IPOP-UDP row.
//
// The senders are ttcp-style closed loops (TCP paces them): each writes
// 8-KiB records whenever the send buffer has room.  Every record carries
// flow, sequence, write time and a checksum; the receiver parses the byte
// stream back into records and rejects corruption, reordering and loss.
// At the end both senders close and the run waits for each stream's FIN:
// a transfer that does not complete counts its missing records as failed.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <utility>

#include "ipop/fig4_overlay.hpp"
#include "layers.hpp"
#include "net/tcp.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ipop;

constexpr std::size_t kRecord = 8 * 1024;
constexpr std::uint16_t kPortBase = 5001;
constexpr auto kWindow = util::seconds(1);
/// The concurrent transfers (sender, receiver).  L1 -> F2 crosses the LSU
/// firewall and the campus NAT inbound; sending the other way, out of the
/// ACIS LAN alongside V1 -> F4, trips a spurious fast-retransmit loop in
/// net/tcp after 26-121 sim-s depending on the seed (see README.md).
constexpr std::array<std::pair<const char*, const char*>, 2> kTransfers{{
    {"V1", "F4"},
    {"L1", "F2"},
}};

/// Measured windows, sized so kReplays replays take about `seconds` on a
/// 4-vCPU Xeon VM (the two transfers run ~10 sim-s per wall second).
int windows_for(double seconds) {
  return std::max(20, static_cast<int>(std::lround(seconds * 4)));
}

struct Bed {
  std::unique_ptr<core::Fig4Overlay> overlay;
  std::vector<core::IpopNode*> nodes;
  std::vector<net::Stack*> stacks;
};

std::unique_ptr<Bed> build(std::uint64_t seed, Tracer& tr) {
  auto bed = std::make_unique<Bed>();
  core::Fig4OverlayOptions opts;
  opts.testbed.seed = seed;
  opts.transport = brunet::TransportAddress::Proto::kUdp;
  {
    // The constructor builds the physical testbed and the six IpopNodes.
    auto span = tr.span("build_fig4_overlay", "ipop");
    bed->overlay = std::make_unique<core::Fig4Overlay>(opts);
  }
  auto& tb = bed->overlay->testbed();
  {
    auto span = tr.span("start_nodes", "ipop");
    bed->overlay->start_all();
  }
  {
    auto span = tr.span("converge", "sim");
    bed->overlay->converge(util::seconds(240));
    for (const auto& [from, to] : kTransfers) bed->overlay->link_pair(from, to);
  }
  for (const auto& name : core::Fig4Overlay::machine_names()) {
    bed->nodes.push_back(&bed->overlay->node(name));
    bed->stacks.push_back(&bed->overlay->host(name).stack());
  }
  for (auto* r : tb.wan_routers) bed->stacks.push_back(&r->stack());
  if (auto* cr = tb.net->find_host("campus-router")) {
    bed->stacks.push_back(&cr->stack());
  }
  bed->stacks.push_back(&tb.campus_nat->stack());
  bed->stacks.push_back(&tb.vfw->stack());
  bed->stacks.push_back(&tb.lfw->stack());
  return bed;
}

/// One record stream: a closed-loop sender and a validating receiver.
class Stream {
 public:
  Stream(std::uint32_t flow, net::Stack& from, net::Stack& to,
         net::Ipv4Address to_vip, Report& report, Tracer& tracer)
      : flow_(flow), from_(from), to_(to), report_(report), tracer_(tracer) {
    const auto port = static_cast<std::uint16_t>(kPortBase + flow);
    listener_ = to_.tcp_listen(port);
    listener_->set_accept_handler([this](std::shared_ptr<net::TcpSocket> s) {
      rx_ = std::move(s);
      rx_->on_readable = [this] { drain(); };
    });
    auto span = tracer_.span("tcp_connect", "net");
    tx_ = from_.tcp_connect(to_vip, port);
    tx_->on_connected = [this] { pump(); };
    tx_->on_writable = [this] { pump(); };
  }

  void set_window(util::TimePoint start, util::TimePoint end) {
    start_ = start;
    end_ = end;
  }
  /// Stop starting records; close once the current one is fully queued.
  void finish() {
    closing_ = true;
    pump();
  }
  bool complete() const { return eof_ && received_ == written_; }
  std::uint64_t attempted() const { return prefix_written_; }
  std::uint64_t delivered() const { return prefix_received_; }
  std::uint64_t window_bytes() const { return window_bytes_; }
  LatencyHistogram& latency() { return latency_; }
  std::size_t mss() const { return tx_->mss(); }
  const net::TcpStats* tx_stats() const { return tx_ ? &tx_->stats() : nullptr; }
  const net::TcpStats* rx_stats() const { return rx_ ? &rx_->stats() : nullptr; }

 private:
  /// Write until the send buffer refuses bytes (the socket signals
  /// on_writable only after a refused write); a partly accepted record's
  /// tail goes out first on the next call.
  void pump() {
    auto span = tracer_.span("tcp_send", "net");
    auto& loop = from_.loop();
    while (!closed_) {
      if (tail_.size() == 0) {
        if (closing_) {
          tx_->close();
          closed_ = true;
          return;
        }
        tail_ = util::Buffer::allocate(kRecord, 0);
        write_message(tail_.writable(),
                      MessageHeader{flow_, written_, loop.now().count(),
                                    static_cast<std::uint32_t>(kRecord)});
        if (loop.now() >= start_ && loop.now() < end_) ++prefix_written_;
        ++written_;
      }
      const std::size_t accepted = tx_->send(tail_);
      tail_ = tail_.share(accepted, tail_.size() - accepted);
      if (tail_.size() > 0) return;
    }
  }

  void drain() {
    auto& loop = to_.loop();
    while (true) {
      auto chunk = rx_->receive(64 * 1024);
      if (chunk.empty()) break;
      pending_.insert(pending_.end(), chunk.begin(), chunk.end());
    }
    std::size_t off = 0;
    for (; pending_.size() - off >= kRecord; off += kRecord) {
      const auto h = read_message(
          std::span<const std::uint8_t>(pending_.data() + off, kRecord));
      if (!h || h->flow != flow_) return fail("corrupt TCP record");
      if (h->seq != received_) return fail("TCP record out of sequence");
      ++received_;
      const util::TimePoint sent{h->sent_ns};
      const auto now = loop.now();
      if (sent >= start_ && sent < end_) {
        ++prefix_received_;
        latency_.add(util::to_milliseconds(now - sent));
      }
      if (now >= start_ && now < end_) window_bytes_ += kRecord;
    }
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(off));
    if (rx_->eof()) {
      eof_ = true;
      if (!pending_.empty()) fail("TCP stream ended mid-record");
    }
  }

  void fail(const char* what) {
    if (++violations_ <= 10) report_.violation(what);
  }

  std::uint32_t flow_;
  net::Stack& from_;
  net::Stack& to_;
  Report& report_;
  Tracer& tracer_;
  std::shared_ptr<net::TcpListener> listener_;
  std::shared_ptr<net::TcpSocket> tx_;
  std::shared_ptr<net::TcpSocket> rx_;
  util::Buffer tail_;  // unsent bytes of the record being written
  std::vector<std::uint8_t> pending_;
  LatencyHistogram latency_;
  util::TimePoint start_{};
  util::TimePoint end_{};
  bool closing_ = false;
  bool closed_ = false;
  bool eof_ = false;
  std::uint64_t written_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t prefix_written_ = 0;
  std::uint64_t prefix_received_ = 0;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t violations_ = 0;
};

/// Set-up (timed): the overlay, both connections, and two seconds of
/// transfer so the measured windows start past slow start.
struct Run {
  std::unique_ptr<Bed> bed;
  std::vector<std::unique_ptr<Stream>> streams;
  double setup_s = 0;

  ipop::net::Network& net() { return *bed->overlay->testbed().net; }

  Counters read() {
    Counters c = read_counters(net(), bed->nodes, bed->stacks);
    for (const auto& s : streams) {
      for (const auto* st : {s->tx_stats(), s->rx_stats()}) {
        if (st == nullptr) continue;
        c.tcp_segments += st->segments_sent + st->segments_received;
        c.tcp_retransmits += st->retransmits;
      }
    }
    const auto& tb = bed->overlay->testbed();
    c.nat_translations = tb.campus_nat->stats().translated_out +
                         tb.campus_nat->stats().translated_in;
    for (const auto* fw : {tb.vfw, tb.lfw}) {
      const auto& s = fw->stats();
      c.fw_allowed += s.allowed_out + s.allowed_in_established +
                      s.allowed_in_rule + s.allowed_related;
    }
    return c;
  }

  /// Close both transfers and wait for their FINs.  An unfinished
  /// transfer is a failure, not a lower throughput: its records count
  /// as not delivered.
  Outcome finish() {
    for (auto& s : streams) s->finish();
    auto complete = [this] {
      return std::all_of(streams.begin(), streams.end(),
                         [](const auto& s) { return s->complete(); });
    };
    const auto deadline = net().now() + util::seconds(120);
    while (!complete() && net().now() < deadline) net().run_for(util::seconds(1));
    Outcome out;
    for (auto& s : streams) {
      out.latency.merge(s->latency());
      out.attempted += s->attempted();
      out.delivered += s->complete() ? s->delivered() : 0;
      out.window_bytes += s->window_bytes();
    }
    return out;
  }
};

Run set_up(const Options& opt, int windows, Report& report, Tracer& tracer) {
  Run run;
  const auto t0 = Wall::now();
  run.bed = build(opt.seed, tracer);
  auto& ov = *run.bed->overlay;
  for (std::uint32_t f = 0; f < kTransfers.size(); ++f) {
    const auto& [from, to] = kTransfers[f];
    run.streams.push_back(std::make_unique<Stream>(
        f, ov.host(from).stack(), ov.host(to).stack(), ov.vip(to), report, tracer));
  }
  run.net().run_for(util::seconds(2));
  run.setup_s = seconds_since(t0);
  const auto start = run.net().now();
  for (auto& s : run.streams) s->set_window(start, start + kWindow * windows);
  return run;
}

}  // namespace

void run_ttcp_wan(const Options& opt, Report& report) {
  const int windows = windows_for(opt.seconds);
  const double measured_s = util::to_seconds(kWindow) * windows;

  if (!opt.trace) {
    run_end_to_end(report, measured_s, [&] {
      Tracer off(false);
      Run run = set_up(opt, windows, report, off);
      Replay r;
      r.setup_s = run.setup_s;
      r.log = run_windows(run.net(), off, windows, kWindow,
                          [&] { return injected_total(run.bed->nodes); });
      r.outcome = run.finish();
      return r;
    });
    return;
  }

  WindowLog reference;
  {
    Tracer off(false);
    Run run = set_up(opt, windows, report, off);
    reference = run_windows(run.net(), off, windows, kWindow,
                            [&] { return injected_total(run.bed->nodes); });
  }
  Tracer tracer(true);
  Run run = set_up(opt, windows, report, tracer);
  TracedPhase t = measure_traced(run.net(), tracer, windows, kWindow,
                                 [&] { return run.read(); }, reference);
  const ProbeCosts costs =
      run_probes(run.bed->overlay->node("F4").overlay().table(),
                 t.log.queue_depth_max, run.streams.front()->mss());
  report_layers(report, t, costs);
  report.record_outcome(run.finish());
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
}

}  // namespace e2e
