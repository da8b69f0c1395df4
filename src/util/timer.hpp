// Wall-clock timing helpers and the ordered row container of the per-stage
// reports (Table II). The rows themselves are derived from span logs
// (util/trace.hpp, domain::stage_rows).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bonsai {

// Monotonic clock sample in nanoseconds: the clock every span is stamped
// with.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Simple monotonic wall-clock timer.
class WallTimer {
 public:
  WallTimer() : start_ns_(now_ns()) {}

  void reset() { start_ns_ = now_ns(); }

  // Seconds elapsed since construction or last reset().
  double elapsed() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

// Named timing rows: breakdown.add("Tree-construction", dt).
// Insertion order is preserved so tables print in pipeline order.
class TimeBreakdown {
 public:
  void add(const std::string& name, double seconds) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_.emplace(name, entries_.size());
      entries_.push_back({name, seconds});
    } else {
      entries_[it->second].seconds += seconds;
    }
  }

  double get(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0.0 : entries_[it->second].seconds;
  }

  double total() const {
    double t = 0.0;
    for (const auto& e : entries_) t += e.seconds;
    return t;
  }

  struct Entry {
    std::string name;
    double seconds;
  };

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace bonsai
