#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace e2e {

// --- latency histogram ----------------------------------------------------

void LatencyHistogram::add(double ms) {
  std::size_t b = 0;
  if (ms > kMinMs) {
    b = static_cast<std::size_t>(std::log(ms / kMinMs) / std::log(kRatio));
    b = std::min(b, kBuckets - 1);
  }
  ++counts_[b];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
  double below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const double c = static_cast<double>(counts_[b]);
    if (below + c >= rank) {
      const double frac = std::clamp((rank - below) / c, 0.0, 1.0);
      return kMinMs * std::pow(kRatio, static_cast<double>(b) + frac);
    }
    below += c;
  }
  return kMinMs * std::pow(kRatio, static_cast<double>(kBuckets));
}

// --- workload messages ------------------------------------------------------

namespace {

constexpr std::uint32_t kMagic = 0x1E2E0B0Bu;
constexpr std::size_t kCheckOffset = 28;

template <typename T>
void put(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof v);
}
template <typename T>
T get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Word-at-a-time FNV-style hash over the message minus its check field.
std::uint32_t message_check(std::span<const std::uint8_t> m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t w) { h = (h ^ w) * 0x100000001b3ull; };
  mix(get<std::uint64_t>(m.data()));
  mix(get<std::uint64_t>(m.data() + 8));
  mix(get<std::uint64_t>(m.data() + 16));
  mix(get<std::uint32_t>(m.data() + 24));
  std::size_t i = kMessageHeaderSize;
  for (; i + 8 <= m.size(); i += 8) mix(get<std::uint64_t>(m.data() + i));
  for (; i < m.size(); ++i) mix(m[i]);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

void write_message(std::span<std::uint8_t> out, const MessageHeader& h) {
  std::uint8_t* p = out.data();
  put(p, kMagic);
  put(p + 4, h.flow);
  put(p + 8, h.seq);
  put(p + 16, h.sent_ns);
  put(p + 24, h.len);
  std::uint64_t fill = (h.seq * 0x9E3779B97F4A7C15ull) ^ (h.flow + 1ull);
  std::size_t i = kMessageHeaderSize;
  for (; i + 8 <= out.size(); i += 8) {
    put(p + i, fill);
    fill = fill * 6364136223846793005ull + 1442695040888963407ull;
  }
  for (; i < out.size(); ++i) p[i] = static_cast<std::uint8_t>(fill >> (i * 8 % 64));
  put(p + kCheckOffset, message_check(out));
}

std::optional<MessageHeader> read_message(std::span<const std::uint8_t> in) {
  if (in.size() < kMessageHeaderSize) return std::nullopt;
  const std::uint8_t* p = in.data();
  if (get<std::uint32_t>(p) != kMagic) return std::nullopt;
  MessageHeader h;
  h.flow = get<std::uint32_t>(p + 4);
  h.seq = get<std::uint64_t>(p + 8);
  h.sent_ns = get<std::int64_t>(p + 16);
  h.len = get<std::uint32_t>(p + 24);
  if (h.len != in.size()) return std::nullopt;
  if (get<std::uint32_t>(p + kCheckOffset) != message_check(in)) {
    return std::nullopt;
  }
  return h;
}

bool DeliveryLedger::mark(std::uint32_t flow, std::uint64_t seq) {
  auto& bits = bits_.at(flow);
  const std::size_t word = seq / 64;
  if (word >= bits.size()) bits.resize(std::max(word + 1, bits.size() * 2));
  const std::uint64_t bit = 1ull << (seq % 64);
  if ((bits[word] & bit) != 0) return false;
  bits[word] |= bit;
  return true;
}

// --- result report ------------------------------------------------------------

void Report::metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    violation("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Value{value, unit};
}

void Report::record_outcome(const Outcome& out) {
  attempted = out.attempted;
  failed = out.attempted - std::min(out.attempted, out.delivered);
}

void Report::violation(const std::string& what) {
  ++violations_;
  std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
}

void Report::print(std::FILE* out) const {
  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               correct() ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, v] : metrics_) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                 name.c_str(), v.value, v.unit);
    sep = ", ";
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

// --- spans ---------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* t, const char* name, const char* layer) : t_(t) {
  if (t_ != nullptr) t_->open(name, layer);
}

Tracer::Scope::~Scope() {
  if (t_ != nullptr) t_->close();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Wall::now() -
                                                              epoch_)
      .count();
}

void Tracer::open(const char* name, const char* layer) {
  // Children of a sampled-out span hang off its nearest kept ancestor.
  const std::int32_t parent =
      stack_.empty() ? -1
                     : (stack_.back().kept >= 0 ? stack_.back().kept
                                                : stack_.back().parent);
  const std::uint64_t n = seen_[name]++;
  std::int32_t kept = -1;
  if ((n < 512 || n % 64 == 0) && kept_.size() < 400000) {
    kept = static_cast<std::int32_t>(kept_.size());
    kept_.push_back(Kept{name, layer, 0, 0, parent});
  }
  stack_.push_back(Open{name, layer, now_ns(), 0, parent, kept});
  if (kept >= 0) kept_[static_cast<std::size_t>(kept)].start_ns =
      stack_.back().start_ns;
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  self_s_[o.layer] += static_cast<double>(dur - o.child_ns) * 1e-9;
  if (o.kept >= 0) kept_[static_cast<std::size_t>(o.kept)].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> out;
  for (const auto& [layer, s] : self_s_) out[layer] += s;
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
  const char* sep = "";
  for (const auto& [layer, s] : self_seconds()) {
    std::fprintf(f, "%s\"self_s.%s\": %.6f", sep, layer.c_str(), s);
    sep = ", ";
  }
  std::fprintf(f, "}, \"traceEvents\": [\n");
  sep = "";
  for (const auto& k : kept_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"parent\": \"%s\"}}",
                 sep, k.name, k.layer, static_cast<double>(k.start_ns) / 1e3,
                 static_cast<double>(k.end_ns - k.start_ns) / 1e3,
                 k.parent >= 0 ? kept_[static_cast<std::size_t>(k.parent)].name
                               : "");
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- measured phase -----------------------------------------------------------

double WindowLog::total_wall() const {
  double s = 0;
  for (const double w : wall_s) s += w;
  return s;
}

std::uint64_t WindowLog::total_pkts() const {
  std::uint64_t n = 0;
  for (const auto p : pkts) n += p;
  return n;
}

WindowLog run_windows(ipop::net::Network& net, Tracer& tracer, int windows,
                      ipop::util::Duration window,
                      const std::function<std::uint64_t()>& pkts_now) {
  WindowLog log;
  std::uint64_t p0 = pkts_now();
  for (int i = 0; i < windows; ++i) {
    const auto w0 = Wall::now();
    {
      auto span = tracer.span("run_until_window", "sim");
      net.run_until(net.now() + window);
    }
    log.wall_s.push_back(seconds_since(w0));
    const std::uint64_t p1 = pkts_now();
    log.pkts.push_back(p1 - p0);
    p0 = p1;
    log.queue_depth_max = std::max(log.queue_depth_max, net.loop().queue_depth());
  }
  return log;
}

double best_window_rate(const std::vector<WindowLog>& replays) {
  const std::size_t n = replays.front().wall_s.size();
  double wall = 0;
  std::uint64_t pkts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double best = replays.front().wall_s[i];
    for (const auto& r : replays) best = std::min(best, r.wall_s[i]);
    wall += best;
    pkts += replays.front().pkts[i];
  }
  return wall > 0 ? static_cast<double>(pkts) / wall : 0.0;
}

void run_end_to_end(Report& report, double measured_s,
                    const std::function<Replay()>& replay) {
  std::vector<double> setups;
  std::vector<WindowLog> logs;
  Outcome first;
  for (int i = 0; i < kReplays; ++i) {
    Replay r = replay();
    setups.push_back(r.setup_s);
    if (i == 0) {
      first = r.outcome;
    } else if (!(r.outcome == first) || r.log.pkts != logs.front().pkts) {
      report.violation("replays of one seed diverged: simulation is not "
                       "deterministic");
    }
    logs.push_back(std::move(r.log));
  }
  report.record_outcome(first);
  report.metric("setup_s", median(setups), "s");
  report.metric("host_pps", best_window_rate(logs), "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("lat_p50_ms", first.latency.quantile(0.50), "ms");
  report.metric("lat_p99_ms", first.latency.quantile(0.99), "ms");
  report.metric("delivered_frac",
                first.attempted > 0 ? static_cast<double>(first.delivered) /
                                          static_cast<double>(first.attempted)
                                    : 0.0,
                "ratio");
  report.metric("goodput_mbps",
                static_cast<double>(first.window_bytes) * 8.0 / measured_s / 1e6,
                "Mbit/s");
  if (first.latency.count() < 1000) {
    report.violation("fewer than 1000 latency samples: p99 is not supported");
  }
}

// --- misc ---------------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // child of a large parent would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace e2e
