// Small online/offline statistics helpers for diagnostics and benchmarks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bonsai {

// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, min_ = 0.0, max_ = 0.0;
};

// Percentile of a copied, sorted sample set (q in [0,1]).
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace bonsai
