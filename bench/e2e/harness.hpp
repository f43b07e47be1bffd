// Shared pieces of the end-to-end benchmark driver.
//
// Everything here measures the system from outside: it times the calls the
// driver makes into each layer's public API and reads the layers' public
// stats structs.  Nothing in src/ knows the benchmark exists.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"

namespace e2e {

using Wall = std::chrono::steady_clock;

inline double seconds_since(Wall::time_point t0) {
  return std::chrono::duration<double>(Wall::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the run: each workload picks a fixed amount of simulated work
  /// that takes about this many wall seconds on a 4-vCPU Xeon VM, so the
  /// modelled metrics never depend on host speed.
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event output of a traced run ("" = do not write).
  std::string trace_out;
};

// --- allocation counting (alloc_count.cpp) ----------------------------------

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
/// Count global operator new calls from now on (traced runs only).
void set_alloc_counting(bool on);
AllocCounts alloc_counts();

// --- latency histogram ----------------------------------------------------

/// Log-bucketed latency histogram: constant memory, and every bucket spans
/// 0.5% of its lower edge, so a quantile read from it is within 0.5% of
/// the exact sample quantile.
class LatencyHistogram {
 public:
  void add(double ms);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return total_; }
  /// Quantile q in [0, 1], interpolated geometrically inside its bucket.
  double quantile(double q) const;
  bool operator==(const LatencyHistogram&) const = default;

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kRatio = 1.005;
  static constexpr std::size_t kBuckets = 4096;  // 1 us .. ~8e5 s
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

// --- workload messages ------------------------------------------------------

/// Every workload message (UDP datagram payload or TCP stream record)
/// carries its flow, sequence number, send time and a checksum over all of
/// its bytes, so the receiver can reject corruption, duplicates and
/// misdelivery.
struct MessageHeader {
  std::uint32_t flow = 0;
  std::uint64_t seq = 0;
  std::int64_t sent_ns = 0;
  std::uint32_t len = 0;  // whole message, header included
};
inline constexpr std::size_t kMessageHeaderSize = 32;

/// Fill `out` (exactly h.len bytes) with header, deterministic filler and
/// checksum.
void write_message(std::span<std::uint8_t> out, const MessageHeader& h);
/// Parse and verify a message; nullopt on bad magic, length or checksum.
std::optional<MessageHeader> read_message(std::span<const std::uint8_t> in);

/// Per-flow received-sequence bitmap.
class DeliveryLedger {
 public:
  explicit DeliveryLedger(std::size_t flows) : bits_(flows) {}
  /// False when (flow, seq) was already seen.
  bool mark(std::uint32_t flow, std::uint64_t seq);

 private:
  std::vector<std::vector<std::uint64_t>> bits_;
};

// --- result report ------------------------------------------------------------

struct Outcome;

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// attempted and failed from a replay's outcome.
  void record_outcome(const Outcome& out);
  /// A correctness violation: printed to stderr, makes correct false.
  void violation(const std::string& what);
  bool correct() const { return violations_ == 0; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print(std::FILE* out) const;

 private:
  struct Value {
    double value;
    const char* unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t violations_ = 0;
};

// --- spans ---------------------------------------------------------------------

/// In-memory span recorder.  Spans nest by call structure; a span's self
/// time is its duration minus its children's, summed per layer exactly.
/// Low-frequency spans are all kept for the Chrome trace; high-frequency
/// ones (one per generator send) are kept 1-in-64 after the first 512.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  Scope span(const char* name, const char* layer) {
    return Scope(enabled_ ? this : nullptr, name, layer);
  }
  /// Exact self seconds per layer over every span closed so far.
  std::map<std::string, double> self_seconds() const;
  void write_chrome(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t parent;  // kept_ index of the parent, -1 at the root
    std::int32_t kept;    // kept_ index of this span, -1 if sampled out
  };
  struct Kept {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };
  void open(const char* name, const char* layer);
  void close();
  std::int64_t now_ns() const;

  const bool enabled_;
  Wall::time_point epoch_ = Wall::now();
  // Span names and layers are string literals, so they key by pointer.
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::map<const char*, std::uint64_t> seen_;
  std::map<const char*, double> self_s_;
};

// --- measured phase -----------------------------------------------------------

/// Wall time and tunneled packets (injected at destination taps) of each
/// window of one replay's measured phase.
struct WindowLog {
  std::vector<double> wall_s;
  std::vector<std::uint64_t> pkts;
  std::size_t queue_depth_max = 0;
  double total_wall() const;
  std::uint64_t total_pkts() const;
};

/// Run `windows` windows of `window` simulated time each.
WindowLog run_windows(ipop::net::Network& net, Tracer& tracer, int windows,
                      ipop::util::Duration window,
                      const std::function<std::uint64_t()>& pkts_now);

/// Packets per wall second over replays of identical work, each window
/// timed by its fastest replay: co-tenant load on a shared host only ever
/// slows a window down, so the fastest replay is the least disturbed.
double best_window_rate(const std::vector<WindowLog>& replays);

/// What one replay's simulation produced.  Replays of one seed must agree
/// exactly; a difference means the simulation is not deterministic.
struct Outcome {
  LatencyHistogram latency;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  /// Payload bytes that arrived inside the measured window.
  std::uint64_t window_bytes = 0;
  bool operator==(const Outcome&) const = default;
};

/// One replay: a fresh testbed built (timed as set-up) and measured.
struct Replay {
  double setup_s = 0;
  WindowLog log;
  Outcome outcome;
};

/// Replays per run.  setup_s is the median of their set-up times.
inline constexpr int kReplays = 3;

/// The untraced run: `kReplays` replays, then the end-to-end metrics.
/// `measured_s` is the simulated length of the window whose messages count.
void run_end_to_end(Report& report, double measured_s,
                    const std::function<Replay()>& replay);

// --- misc ---------------------------------------------------------------------

double median(std::vector<double> xs);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace e2e
