// Measurement statistics: Welford running moments, percentiles, histograms.
//
// The paper reports mean + standard deviation over 1000 pings (Table I),
// absolute/relative bandwidth (Tables II/III), and an RTT distribution
// histogram (Figure 5); these helpers regenerate all of those shapes.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ipop::util {

/// Single-pass mean/min/max accumulator (Welford's running mean).
class RunningStats {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile over retained samples (used for tail latencies).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t size() const { return xs_.size(); }
  /// Nearest-rank percentile, p in [0, 100].  Returns 0 when empty.
  double percentile(double p) const;
  double mean() const;
  double stddev() const;
  const std::vector<double>& values() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width linear-bin histogram with ASCII rendering (Figure 5).
class Histogram {
 public:
  /// Bins cover [lo, hi) in `bins` equal slots; out-of-range values land in
  /// saturated edge bins so no sample is silently dropped.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& counts() const { return counts_; }
  double bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

  /// Multi-line ASCII bar chart; `max_width` is the widest bar in chars.
  std::string render(std::size_t max_width = 50,
                     const std::string& unit = "") const;
  /// CSV rows "bin_lo,bin_hi,count" for plotting.
  std::string to_csv() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace ipop::util
