#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ipop::util {

void RunningStats::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

std::string Histogram::render(std::size_t max_width,
                              const std::string& unit) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof label, "[%8.1f, %8.1f)%s ", bin_lo(i),
                  bin_lo(i) + width_, unit.c_str());
    os << label;
    const std::size_t bar = counts_[i] * max_width / peak;
    for (std::size_t j = 0; j < bar; ++j) os << '#';
    os << ' ' << counts_[i] << '\n';
  }
  return os.str();
}

std::string Histogram::to_csv() const {
  std::ostringstream os;
  os << "bin_lo,bin_hi,count\n";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    os << bin_lo(i) << ',' << bin_lo(i) + width_ << ',' << counts_[i] << '\n';
  }
  return os.str();
}

}  // namespace ipop::util
