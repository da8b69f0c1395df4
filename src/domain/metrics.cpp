#include "domain/metrics.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace bonsai::metrics {

void HistogramData::add(double value) {
  std::size_t b = 0;
  while (b < bounds.size() && value > bounds[b]) ++b;
  ++counts[b];
  ++count;
  sum += value;
}

void merge(Snapshot& into, const Snapshot& from) {
  for (const auto& [name, v] : from.counters) into.counters[name] += v;
  for (const auto& [name, v] : from.gauges) into.gauges[name] = v;
  for (const auto& [name, h] : from.histograms) {
    auto it = into.histograms.find(name);
    if (it == into.histograms.end()) {
      into.histograms.emplace(name, h);
      continue;
    }
    HistogramData& dst = it->second;
    if (dst.bounds != h.bounds)
      throw std::runtime_error("metrics: histogram bounds mismatch for " +
                               name);
    for (std::size_t i = 0; i < dst.counts.size(); ++i)
      dst.counts[i] += h.counts[i];
    dst.count += h.count;
    dst.sum += h.sum;
  }
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

template <typename Map, typename WriteValue>
void write_map(std::ostream& os, const Map& map, WriteValue write_value) {
  os << '{';
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) os << ',';
    first = false;
    write_escaped(os, name);
    os << ':';
    write_value(v);
  }
  os << '}';
}

}  // namespace

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

void to_json(std::ostream& os, const Snapshot& snapshot) {
  auto number = [&os](double v) { write_number(os, v); };
  os << "{\"counters\":";
  write_map(os, snapshot.counters, number);
  os << ",\"gauges\":";
  write_map(os, snapshot.gauges, number);
  os << ",\"histograms\":";
  write_map(os, snapshot.histograms, [&](const HistogramData& h) {
    os << "{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) os << ',';
      number(h.bounds[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) os << ',';
      os << h.counts[i];
    }
    os << "],\"count\":" << h.count << ",\"sum\":";
    number(h.sum);
    os << '}';
  });
  os << '}';
}

std::vector<double> pow2_bounds(int lo_exp, int hi_exp) {
  std::vector<double> bounds;
  for (int e = lo_exp; e <= hi_exp; ++e)
    bounds.push_back(std::ldexp(1.0, e));
  return bounds;
}

void Registry::add_counter(const std::string& name, double delta) {
  std::lock_guard lock(mutex_);
  data_.counters[name] += delta;
}

void Registry::set_gauge(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  data_.gauges[name] = value;
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  return data_;
}

}  // namespace bonsai::metrics
