// Fixed-bin 1-D histogram (the step report's log2 LET-size histogram).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace bonsai {

// Fixed-width 1-D histogram over [lo, hi); out-of-range samples are dropped.
class Histogram1D {
 public:
  Histogram1D(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0.0) {
    BNS_CHECK(hi > lo);
    BNS_CHECK(bins > 0);
  }

  void add(double x, double weight = 1.0) {
    if (x < lo_ || x >= hi_) return;
    const auto b = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                            static_cast<double>(counts_.size()));
    counts_[std::min(b, counts_.size() - 1)] += weight;
  }

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const { return (hi_ - lo_) / static_cast<double>(counts_.size()); }
  double bin_center(std::size_t b) const { return lo_ + (static_cast<double>(b) + 0.5) * bin_width(); }
  double count(std::size_t b) const { return counts_[b]; }
  double total() const {
    double t = 0.0;
    for (double c : counts_) t += c;
    return t;
  }
  std::size_t peak_bin() const {
    return static_cast<std::size_t>(
        std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
  }

 private:
  double lo_, hi_;
  std::vector<double> counts_;
};

}  // namespace bonsai
