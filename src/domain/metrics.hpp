// Central metrics registry: counters, gauges and fixed-bound histograms with
// a stable dotted naming scheme (e.g. "wire.let.bytes{rank=2}",
// "transport.post.bytes{src=0,dst=3,type=Let}", "let.size.bytes").
//
// A step's aggregates (stage rows, wire::PeerTraffic matrices, LET sizes)
// become one Snapshot (domain::build_step_metrics). The Snapshot is a
// --bench step, what a job server's MetricsReport carries, and what merges
// across jobs. Kept deliberately free of wire/simulation includes so every
// layer can depend on it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bonsai::metrics {

// Histogram with explicit upper bucket bounds: counts[i] counts samples with
// value <= bounds[i]; counts.back() (one longer than bounds) is overflow.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;

  // Counts `value` in the first bucket whose bound it does not exceed: the
  // buckets are (bounds[i-1], bounds[i]].
  void add(double value);
};

// Plain-data form of a registry: what gets serialized, merged and reported.
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// Adds `from` into `into`: counters and histogram buckets sum, gauges take
// the latest (from wins). Histograms with mismatching bounds throw.
void merge(Snapshot& into, const Snapshot& from);

// Renders a Snapshot as a JSON object {"counters":{...},"gauges":{...},
// "histograms":{name:{"bounds":[...],"counts":[...],"count":n,"sum":s}}}.
// Numbers are written with write_number, whatever the stream's precision.
void to_json(std::ostream& os, const Snapshot& snapshot);

// Writes `v` as a JSON number in its shortest round-trip form (null when not
// finite), independent of the stream's precision and format flags.
void write_number(std::ostream& os, double v);

// Power-of-two bucket bounds [2^lo_exp, 2^hi_exp], the scheme used for LET
// frame sizes.
std::vector<double> pow2_bounds(int lo_exp, int hi_exp);

// Thread-safe registry. Metric kinds live in separate namespaces keyed by
// full name; names should follow "<subsystem>.<what>.<unit>{label=value,...}".
class Registry {
 public:
  void add_counter(const std::string& name, double delta);
  void set_gauge(const std::string& name, double value);
  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  Snapshot data_;
};

}  // namespace bonsai::metrics
