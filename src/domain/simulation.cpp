#include "domain/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "domain/channel.hpp"
#include "util/check.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bonsai::domain {

namespace {

// Canonical stage order for reports (the pipeline order of Table II, with
// the serialization cost of the wire transport broken out of the exchange
// stages so the stage rows stay disjoint and the Total stays honest).
const char* const kStageOrder[] = {
    "Domain update", "Exchange particles", "Sorting SFC",
    "Tree-construction", "Tree-properties", "Exchange LET",
    "Wire encode", "Wire decode",
    "Gravity local", "Gravity remote", "Integration",
};

// Gravity performance figures shared by the text table and the step metrics,
// derived once so the two cannot drift apart.
struct GravityRates {
  double gflops_device;    // flops / summed gravity device-seconds
  double gflops_parallel;  // flops / max-over-ranks gravity seconds
};

GravityRates gravity_rates(const StepReport& report) {
  const std::uint64_t flops = report.stats().flops();
  const double grav_sum =
      report.sum_times.get("Gravity local") + report.sum_times.get("Gravity remote");
  const double grav_max =
      report.max_times.get("Gravity local") + report.max_times.get("Gravity remote");
  return {gflops_rate(flops, grav_sum), gflops_rate(flops, grav_max)};
}

std::string human_bytes(double b);

// One line per frame type present in the step's traffic matrix, aggregated
// over peers; the per-(src,dst) cells go to the --bench JSON.
void print_traffic_by_type(std::span<const wire::PeerTraffic> traffic, std::ostream& os) {
  if (traffic.empty()) return;
  std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> by_type;
  for (const wire::PeerTraffic& t : traffic) {
    auto& cell = by_type[t.type];
    cell.first += t.frames;
    cell.second += t.bytes;
  }
  os << "traffic by type:";
  bool first = true;
  for (const auto& [type, cell] : by_type) {
    os << (first ? " " : " | ")
       << wire::frame_type_name(static_cast<wire::FrameType>(type)) << " "
       << cell.first << "fr " << human_bytes(static_cast<double>(cell.second));
    first = false;
  }
  os << "\n";
}

std::string human_bytes(double b) {
  const char* const units[] = {"B", "KiB", "MiB", "GiB"};
  int u = 0;
  while (b >= 1024.0 && u < 3) {
    b /= 1024.0;
    ++u;
  }
  return TextTable::num(b, u == 0 ? 0 : 1) + units[u];
}

// Power-of-two histogram of per-imported-LET frame sizes — the data behind
// the "remote gravity dominates" ROADMAP item: how much tree each rank pulls
// in from its peers, and how skewed the pull is.
void print_let_histogram(std::span<const wire::LetSizeSample> sizes, std::ostream& os) {
  if (sizes.empty()) return;
  std::vector<double> bytes, cells, parts;
  for (const wire::LetSizeSample& l : sizes) {
    bytes.push_back(static_cast<double>(l.bytes));
    cells.push_back(static_cast<double>(l.cells));
    parts.push_back(static_cast<double>(l.particles));
  }
  const double min_bytes = percentile(bytes, 0.0);
  const double max_bytes = percentile(bytes, 1.0);
  os << "imported LETs: " << sizes.size() << " | bytes med "
     << human_bytes(percentile(bytes, 0.5)) << " [min " << human_bytes(min_bytes) << ", max "
     << human_bytes(max_bytes) << "] | cells med " << TextTable::num(percentile(cells, 0.5), 0)
     << " | particles med " << TextTable::num(percentile(parts, 0.5), 0) << "\n";

  const double lo = std::floor(std::log2(std::max(min_bytes, 1.0)));
  const double hi = std::floor(std::log2(std::max(max_bytes, 1.0))) + 1.0;
  Histogram1D h(lo, hi, static_cast<std::size_t>(hi - lo));
  for (const wire::LetSizeSample& l : sizes)
    h.add(std::log2(std::max(static_cast<double>(l.bytes), 1.0)));
  os << "LET size histogram:";
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.count(b) == 0.0) continue;
    os << " [" << human_bytes(std::exp2(lo + static_cast<double>(b))) << ","
       << human_bytes(std::exp2(lo + static_cast<double>(b) + 1.0)) << ") "
       << static_cast<std::uint64_t>(h.count(b)) << " |";
  }
  os << "\n";
}

}  // namespace

std::size_t threads_for(const SimConfig& cfg, std::size_t hardware_threads) {
  const std::size_t hw = std::max<std::size_t>(1, hardware_threads);
  const std::size_t share =
      std::max<std::size_t>(1, hw / static_cast<std::size_t>(std::max(cfg.nranks, 1)));
  if (cfg.threads_per_rank == 0) return share;
  return std::min(cfg.threads_per_rank, share);
}

Simulation::Simulation(const SimConfig& cfg) : cfg_(cfg) {
  BNS_CHECK(cfg_.nranks >= 1);
  BNS_CHECK(cfg_.nranks <= 255,
            "at most 255 ranks: the wire Config, PeerDirectory and Snapshot "
            "decoders reject larger rank counts");
  const std::size_t threads = threads_for(cfg_, std::thread::hardware_concurrency());
  ranks_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r)
    ranks_.push_back(std::make_unique<Rank>(r, threads));
  decomp_ = Decomposition::uniform(cfg_.nranks);
  let_state_.init(cfg_.nranks);
  executor_ = std::make_unique<Executor>(ranks_.size());
}

std::optional<std::vector<std::uint8_t>> FrameDemux::recv(Class cls) {
  auto& queue = queues_[static_cast<std::size_t>(cls)];
  while (queue.empty()) {
    if (closed_) return std::nullopt;
    std::optional<std::vector<std::uint8_t>> frame = inner_.recv(rank_);
    if (!frame) {
      closed_ = true;
      return std::nullopt;
    }
    Class got = Class::kControl;
    switch (wire::frame_type(*frame)) {
      case wire::FrameType::kLet: got = Class::kLet; break;
      case wire::FrameType::kBoundaries: got = Class::kBoundaries; break;
      case wire::FrameType::kKeySamples: got = Class::kKeySamples; break;
      case wire::FrameType::kMigration: got = Class::kMigration; break;
      default: break;
    }
    queues_[static_cast<std::size_t>(got)].push_back(std::move(*frame));
  }
  std::vector<std::uint8_t> out = std::move(queue.front());
  queue.pop_front();
  return out;
}

namespace {

// Transport view handing one demux class to a protocol written against the
// plain Transport interface (LetExchange, MigrationExchange): post() goes
// out through `out`, recv() pulls only this class's frames.
class DemuxTransport final : public Transport {
 public:
  DemuxTransport(FrameDemux& demux, Transport& out, FrameDemux::Class cls)
      : demux_(demux), out_(out), cls_(cls) {}

  void post(int src, int dst, std::vector<std::uint8_t> frame) override {
    out_.post(src, dst, std::move(frame));
  }
  std::optional<std::vector<std::uint8_t>> recv(int /*dst*/) override {
    return demux_.recv(cls_);
  }
  void close(int dst) override { out_.close(dst); }
  std::string close_reason() const override { return out_.close_reason(); }

 private:
  FrameDemux& demux_;
  Transport& out_;
  FrameDemux::Class cls_;
};

// Broadcast one encoded frame to every peer: one wire.encode.domain span for
// the encode, then one post per peer (each receives its own copy).
template <typename EncodeFn>
void broadcast(Transport& out, int self, int nranks, EncodeFn&& encode) {
  std::vector<std::uint8_t> frame;
  {
    trace::ScopedSpan span("wire.encode.domain", self, self);
    frame = encode();
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
  }
  for (int dst = 0; dst < nranks; ++dst) {
    if (dst == self) continue;
    out.post(self, dst, frame);
  }
}

// A receive of the rank program found its endpoint closed: name the phase
// and the transport's recorded cause, so "a peer vanished" distinguishes an
// orderly peer close from a socket errno.
std::runtime_error vanished(const Transport& out, int self, const std::string& during) {
  const std::string why = out.close_reason();
  return std::runtime_error("rank " + std::to_string(self) + ": a peer vanished during the " +
                            during + (why.empty() ? "" : " (" + why + ")"));
}

// Receive the nranks-1 Boundaries frames of one allgather round and hand
// each decoded frame to `use`, after checking its source, step and phase.
template <typename UseFn>
void gather_boundaries(FrameDemux& demux, const Transport& out, int self, int nranks,
                       int step, bool post_migration, UseFn&& use) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(nranks), 0);
  seen[static_cast<std::size_t>(self)] = 1;
  for (int k = 0; k + 1 < nranks; ++k) {
    std::optional<std::vector<std::uint8_t>> frame =
        demux.recv(FrameDemux::Class::kBoundaries);
    if (!frame)
      throw vanished(out, self, post_migration ? "box allgather" : "domain allgather");
    wire::Boundaries b;
    {
      trace::ScopedSpan span("wire.decode.domain", self, self);
      span.set_bytes(static_cast<std::int64_t>(frame->size()));
      b = wire::decode_boundaries(*frame);
      span.set_peer(b.src);
    }
    BNS_CHECK(b.src >= 0 && b.src < nranks && !seen[static_cast<std::size_t>(b.src)],
              "boundaries from an impossible or duplicate rank");
    BNS_CHECK(b.step == step && b.post_migration == post_migration,
              "boundaries from the wrong step or phase");
    seen[static_cast<std::size_t>(b.src)] = 1;
    use(b);
  }
}

// The rank program after tree build: round-robin LET exports starting at
// self+1, local gravity, remote gravity per arrived LET, integration.
void run_rank_step(Rank& rank, const SimConfig& cfg, LetExchange& net,
                   std::span<const std::uint8_t> active, std::span<const AABB> boxes,
                   wire::StepResult& sr) {
  const auto r = static_cast<std::size_t>(rank.id());
  const std::size_t nranks = active.size();
  if (active[r]) {
    // Peers receive LETs round-robin from r+1 so senders spread across
    // receivers instead of all extracting for rank 0 first.
    for (std::size_t k = 1; k < nranks; ++k) {
      const std::size_t dst = (r + k) % nranks;
      if (!active[dst]) continue;
      trace::ScopedSpan span("let.export", rank.id(), rank.id());
      span.set_peer(static_cast<std::int64_t>(dst));
      const LetTree let = rank.export_let(boxes[dst]);
      span.close();
      net.post(static_cast<int>(r), static_cast<int>(dst), let);
    }

    rank.parts().zero_forces();
    sr.local_stats = rank.gravity_local(cfg);

    // Remote gravity per imported LET, in deterministic peer order. Arrivals
    // race (peers advance at their own pace), and floating-point
    // accumulation is order-sensitive, so an out-of-order LET waits in
    // `pending` and every walk happens in (r+1, r+2, ...) source order: the
    // final forces are bitwise reproducible across runs and transports (the
    // differential bar CI compares against). LETs arriving in order still
    // overlap their walk with the remaining receives; no graft barrier — the
    // walk accepts any self-contained TreeView.
    std::vector<std::optional<wire::LetMessage>> pending(nranks);
    std::size_t next_walk = 1;
    const auto walk_ready = [&] {
      for (; next_walk < nranks; ++next_walk) {
        const std::size_t src = (r + next_walk) % nranks;
        if (!active[src]) continue;
        if (!pending[src]) break;
        wire::LetMessage& m = *pending[src];
        sr.let_sizes.push_back({m.let.num_cells(), m.let.num_particles(), m.wire_bytes});
        trace::ScopedSpan span("gravity.remote", rank.id(), rank.id());
        span.set_peer(m.src);
        span.set_bytes(static_cast<std::int64_t>(m.wire_bytes));
        sr.remote_stats += rank.gravity_remote(m.let.view(), cfg);
        pending[src].reset();
      }
    };
    while (std::optional<wire::LetMessage> msg = net.recv(static_cast<int>(r))) {
      const auto src = static_cast<std::size_t>(msg->src);
      BNS_CHECK(src < nranks && src != r && active[src] && !pending[src],
                "LET from an invalid, inactive or duplicate source rank");
      pending[src] = std::move(*msg);
      walk_ready();
    }
    walk_ready();
  } else {
    rank.parts().zero_forces();
  }

  if (cfg.dt != 0.0) {
    TimeBreakdown unused;  // Rank::integrate keeps the bench replay's signature
    rank.integrate(cfg.dt, unused);
  }
}

}  // namespace

sfc::KeySpace run_spmd_redistribute(Rank& rank, const SimConfig& cfg, int step,
                                    FrameDemux& demux, Transport& out, wire::StepResult& sr) {
  trace::BindLog log(sr.spans);
  const int nranks = cfg.nranks;
  const int self = rank.id();
  ParticleSet& parts = rank.parts();
  sr.rank = self;

  // --- Phase 1: allgather of bounds/population/cost weight -----------------
  // After it, every rank holds the identical inputs, so the KeySpace, stride
  // and weight vector are bitwise-identical on all ranks.
  trace::ScopedSpan domain_span("domain.update", self, self, step);
  wire::Boundaries pre;
  pre.src = self;
  pre.step = step;
  pre.count = parts.size();
  if (!parts.empty()) {
    pre.box = parts.bounds();
    pre.weight = std::accumulate(parts.work.begin(), parts.work.end(), 0.0) /
                 static_cast<double>(parts.size());
  }
  broadcast(out, self, nranks, [&] { return wire::encode_boundaries(pre); });

  std::vector<std::uint64_t> counts(static_cast<std::size_t>(nranks), 0);
  std::vector<double> weights(static_cast<std::size_t>(nranks), 0.0);
  AABB bounds;
  counts[static_cast<std::size_t>(self)] = pre.count;
  weights[static_cast<std::size_t>(self)] = pre.weight;
  if (pre.count > 0) bounds.expand(pre.box);
  gather_boundaries(demux, out, self, nranks, step, /*post_migration=*/false,
                    [&](const wire::Boundaries& b) {
                      counts[static_cast<std::size_t>(b.src)] = b.count;
                      weights[static_cast<std::size_t>(b.src)] = b.weight;
                      if (b.count > 0) bounds.expand(b.box);
                    });
  bounds = domain_bounds_or_default(bounds);
  const sfc::KeySpace space(bounds);
  // The step's one key pass: sampling, migration and the sort all read it.
  rank.device().compute_keys(parts, space);
  std::size_t total = 0;
  for (const std::uint64_t c : counts) total += static_cast<std::size_t>(c);
  const std::size_t stride = sample_stride(total, nranks, cfg.samples_per_rank);
  // Weights apply only once some rank reported one: before the first force
  // pass every particle's work is 0, and the cut is the unit-weight one.
  const bool use_weights = std::any_of(weights.begin(), weights.end(),
                                       [](double w) { return w > 0.0; });
  if (use_weights) apply_cost_floor(weights);

  // --- Phase 2: sampled-key allgather -> identical Decomposition ------------
  wire::KeySamples mine;
  mine.src = self;
  mine.step = step;
  for (std::size_t i = 0; i < parts.size(); i += stride) mine.keys.push_back(parts.key[i]);
  BNS_DCHECK(mine.keys == sample_keys(parts, space, stride));
  broadcast(out, self, nranks, [&] { return wire::encode_key_samples(mine); });

  std::vector<std::vector<sfc::Key>> samples(static_cast<std::size_t>(nranks));
  samples[static_cast<std::size_t>(self)] = std::move(mine.keys);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(nranks), 0);
  seen[static_cast<std::size_t>(self)] = 1;
  for (int k = 0; k + 1 < nranks; ++k) {
    std::optional<std::vector<std::uint8_t>> frame =
        demux.recv(FrameDemux::Class::kKeySamples);
    if (!frame) throw vanished(out, self, "sample allgather");
    wire::KeySamples ks;
    {
      trace::ScopedSpan span("wire.decode.domain", self, self);
      span.set_bytes(static_cast<std::int64_t>(frame->size()));
      ks = wire::decode_key_samples(*frame);
      span.set_peer(ks.src);
    }
    BNS_CHECK(ks.src >= 0 && ks.src < nranks && !seen[static_cast<std::size_t>(ks.src)],
              "key samples from an impossible or duplicate rank");
    BNS_CHECK(ks.step == step, "key samples from the wrong step");
    seen[static_cast<std::size_t>(ks.src)] = 1;
    samples[static_cast<std::size_t>(ks.src)] = std::move(ks.keys);
  }
  // Pool in rank order, so every rank cuts the identical boundaries.
  std::vector<Decomposition::WeightedKey> pooled;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const double w = use_weights ? weights[r] : 1.0;
    for (const sfc::Key key : samples[r]) pooled.push_back({key, w});
  }
  const Decomposition decomp =
      Decomposition::from_weighted_samples(std::move(pooled), nranks, cfg.snap_level);
  if constexpr (kDcheckEnabled) decomp.check_invariants(nranks);
  sr.boundaries.assign(decomp.boundaries().begin(), decomp.boundaries().end());
  domain_span.close();

  // --- Phase 3: peer-to-peer migration (the alltoallv, boundary crossers
  // only). Its receive loop is the migration barrier: no rank proceeds
  // before owning its full new slice.
  trace::ScopedSpan migrate_span("decomposition.migrate", self, self, step);
  DemuxTransport mig_net(demux, out, FrameDemux::Class::kMigration);
  MigrationExchange mex(mig_net, nranks);
  sr.migrated += exchange_resident(parts, self, decomp, mex, step).migrated;
  migrate_span.close();
  return space;
}

void run_spmd_step(Rank& rank, const SimConfig& cfg, int step, FrameDemux& demux,
                   Transport& out, LetChannelState& let_state, wire::StepResult& sr) {
  trace::BindLog log(sr.spans);
  const int nranks = cfg.nranks;
  const int self = rank.id();
  trace::ScopedSpan step_span("rank.step", self, self, step);
  const sfc::KeySpace space = run_spmd_redistribute(rank, cfg, step, demux, out, sr);
  const ParticleSet& parts = rank.parts();

  // --- Phase 4: post-migration allgather of the active set and the tight
  // domain boxes peers build LETs against (the tree root box equals the
  // tight particle bounds, so receivers' boxes need not wait for builds).
  trace::ScopedSpan boxes_span("decomposition.boxes", self, self, step);
  wire::Boundaries post;
  post.src = self;
  post.step = step;
  post.post_migration = true;
  post.count = parts.size();
  if (!parts.empty()) post.box = parts.bounds();
  broadcast(out, self, nranks, [&] { return wire::encode_boundaries(post); });

  std::vector<std::uint8_t> active(static_cast<std::size_t>(nranks), 0);
  std::vector<AABB> boxes(static_cast<std::size_t>(nranks));
  active[static_cast<std::size_t>(self)] = post.count > 0;
  if (post.count > 0) boxes[static_cast<std::size_t>(self)] = post.box;
  gather_boundaries(demux, out, self, nranks, step, /*post_migration=*/true,
                    [&](const wire::Boundaries& b) {
                      active[static_cast<std::size_t>(b.src)] = b.count > 0;
                      if (b.count > 0) boxes[static_cast<std::size_t>(b.src)] = b.box;
                    });
  boxes_span.close();

  // --- Build + LET exchange + gravity + integration.
  rank.build(space, cfg);
  DemuxTransport let_net_view(demux, out, FrameDemux::Class::kLet);
  LetExchange let_net(let_net_view, active, &let_state);
  run_rank_step(rank, cfg, let_net, active, boxes, sr);
  sr.local_count = parts.size();
}

namespace {

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

constexpr std::string_view kEncodePrefix = "wire.encode.";
constexpr std::string_view kDecodePrefix = "wire.decode.";

bool is_wire_span(const trace::Span& s) {
  return starts_with(s.name, kEncodePrefix) || starts_with(s.name, kDecodePrefix);
}

double seconds_of(const trace::Span& s) {
  return static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
}

// The Table II row a rank span books into, as an index into kStageOrder, or
// -1 for spans no row counts (waits, transport posts, step envelopes).
int stage_of(const trace::Span& s) {
  static constexpr std::pair<std::string_view, std::string_view> kRowSpans[] = {
      {"domain.update", "Domain update"},
      {"decomposition.migrate", "Exchange particles"},
      {"decomposition.boxes", "Exchange particles"},
      {"rank.sort", "Sorting SFC"},
      {"rank.build", "Tree-construction"},
      {"rank.properties", "Tree-properties"},
      {"let.export", "Exchange LET"},
      {"gravity.local", "Gravity local"},
      {"gravity.remote", "Gravity remote"},
      {"rank.integrate", "Integration"},
  };
  std::string_view stage;
  if (starts_with(s.name, kEncodePrefix)) {
    stage = "Wire encode";
  } else if (starts_with(s.name, kDecodePrefix)) {
    stage = "Wire decode";
  } else {
    for (const auto& [name, row] : kRowSpans)
      if (s.name == name) stage = row;
  }
  for (std::size_t i = 0; i < std::size(kStageOrder); ++i)
    if (stage == kStageOrder[i]) return static_cast<int>(i);
  return -1;
}

// The report's wire row of the frame class a wire.encode.* / wire.decode.*
// span belongs to: LETs, domain frames (Boundaries/KeySamples), and particles
// (Migration plus the StepBegin/StepResult control frames).
wire::WireStats& wire_row(StepReport& report, const trace::Span& s) {
  // Both prefixes are "wire.<verb>." of the same length.
  const std::string_view kind = std::string_view(s.name).substr(kEncodePrefix.size());
  if (kind == "let") return report.let_wire;
  if (kind == "domain") return report.dom_wire;
  return report.part_wire;
}

// The same rows by frame type, for the traffic matrix.
wire::WireStats& wire_row(StepReport& report, wire::FrameType type) {
  switch (type) {
    case wire::FrameType::kLet: return report.let_wire;
    case wire::FrameType::kBoundaries:
    case wire::FrameType::kKeySamples: return report.dom_wire;
    default: return report.part_wire;
  }
}

// The rank's pipeline for the schedule model: its build rows, its LET
// exports and remote walks in span (= execution) order, local gravity and
// integration.
LaneTimeline lane_timeline(std::span<const trace::Span> spans, const TimeBreakdown& rows) {
  LaneTimeline lane;
  lane.sort = rows.get("Sorting SFC");
  lane.build = rows.get("Tree-construction");
  lane.props = rows.get("Tree-properties");
  lane.local = rows.get("Gravity local");
  lane.integrate = rows.get("Integration");
  for (const trace::Span& s : spans) {
    if (s.rank < 0) continue;
    if (s.name == "let.export")
      lane.exports.emplace_back(static_cast<int>(s.peer), seconds_of(s));
    else if (s.name == "gravity.remote")
      lane.remotes.emplace_back(static_cast<int>(s.peer), seconds_of(s));
  }
  return lane;
}

// Fold per-rank rows into the report's max/sum aggregate views, in
// canonical Table II stage order.
void fold_stage_times(StepReport& report, std::span<const TimeBreakdown> rank_rows) {
  for (const char* stage : kStageOrder) {
    double mx = 0.0, sum = 0.0;
    for (const TimeBreakdown& t : rank_rows) {
      const double v = t.get(stage);
      mx = std::max(mx, v);
      sum += v;
    }
    if (mx > 0.0 || sum > 0.0) {
      report.max_times.add(stage, mx);
      report.sum_times.add(stage, sum);
    }
  }
}

}  // namespace

TimeBreakdown stage_rows(std::span<const trace::Span> spans) {
  constexpr std::size_t kStages = std::size(kStageOrder);
  std::array<double, kStages> seconds{};
  std::array<bool, kStages> seen{};
  for (const trace::Span& s : spans) {
    const int stage = s.rank < 0 ? -1 : stage_of(s);
    if (stage < 0) continue;
    double secs = seconds_of(s);
    if (!is_wire_span(s)) {
      for (const trace::Span& w : spans)
        if (w.rank == s.rank && is_wire_span(w) && w.begin_ns >= s.begin_ns &&
            w.end_ns <= s.end_ns)
          secs -= seconds_of(w);
    }
    seconds[static_cast<std::size_t>(stage)] += secs;
    seen[static_cast<std::size_t>(stage)] = true;
  }
  TimeBreakdown rows;
  for (std::size_t i = 0; i < kStages; ++i)
    if (seen[i]) rows.add(kStageOrder[i], seconds[i]);
  return rows;
}

void fold_step_result(StepReport& report, wire::StepResult& sr, StepFold& fold) {
  BNS_CHECK(sr.rank >= 0 && static_cast<std::size_t>(sr.rank) < fold.rows.size(),
            "step result from an impossible rank");
  for (trace::Span& s : sr.spans) {
    if (s.rank < 0) continue;
    if (s.step < 0) s.step = report.step;
    if (!is_wire_span(s)) continue;
    wire::WireStats& row = wire_row(report, s);
    (starts_with(s.name, kEncodePrefix) ? row.encode_seconds : row.decode_seconds) +=
        seconds_of(s);
  }
  const auto r = static_cast<std::size_t>(sr.rank);
  fold.rows[r] = stage_rows(sr.spans);
  fold.lanes[r] = lane_timeline(sr.spans, fold.rows[r]);

  report.num_particles += sr.local_count;
  report.migrated += sr.migrated;
  report.local_stats += sr.local_stats;
  report.remote_stats += sr.remote_stats;
  report.let_sizes.insert(report.let_sizes.end(), sr.let_sizes.begin(),
                          sr.let_sizes.end());
  wire::merge_traffic(report.traffic, sr.traffic);
  report.spans.insert(report.spans.end(), std::make_move_iterator(sr.spans.begin()),
                      std::make_move_iterator(sr.spans.end()));
  BNS_CHECK(!sr.boundaries.empty(), "step result without boundaries");
  if (fold.bounds.empty()) {
    fold.bounds = std::move(sr.boundaries);
  } else {
    BNS_CHECK(fold.bounds == sr.boundaries, "ranks computed diverging decompositions");
  }
}

Decomposition finish_step(StepReport& report, StepFold& fold) {
  for (const wire::PeerTraffic& t : report.traffic) {
    wire::WireStats& row = wire_row(report, static_cast<wire::FrameType>(t.type));
    row.frames += t.frames;
    row.bytes += t.bytes;
  }
  for (const wire::LetSizeSample& l : report.let_sizes) {
    report.let_cells += l.cells;
    report.let_particles += l.particles;
  }
  fold_stage_times(report, fold.rows);
  const ScheduleModel model = model_schedule(fold.lanes);
  report.critical_path = model.critical_path;
  report.sequential_model = model.sequential;
  report.gravity_critical = model.gravity_critical;
  report.gravity_sequential = model.gravity_sequential;
  return Decomposition::from_boundaries(std::move(fold.bounds));
}

void Simulation::on_lanes(const std::function<void(std::size_t)>& job) {
  // Fresh endpoints every round: a failed round may leave undrained frames
  // (or closed mailboxes) behind, and those must not leak into the next.
  inproc_ = std::make_unique<InProcTransport>(cfg_.nranks);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::move(e);
    }
    for (int d = 0; d < cfg_.nranks; ++d) inproc_->close(d);
  };
  std::vector<std::future<void>> done;
  done.reserve(ranks_.size());
  try {
    for (std::size_t r = 0; r < ranks_.size(); ++r)
      done.push_back(executor_->run(r, [&, r] {
        try {
          job(r);
        } catch (...) {
          fail(std::current_exception());
        }
      }));
  } catch (...) {
    fail(std::current_exception());  // a submission itself threw
  }
  // Lanes trap their own exceptions, so these waits always complete; only
  // then is it safe to unwind the endpoints the lanes reference.
  for (std::future<void>& f : done) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

void Simulation::init(ParticleSet global) {
  global.zero_forces();
  ranks_[0]->parts() = std::move(global);
  for (std::size_t r = 1; r < ranks_.size(); ++r) ranks_[r]->parts().clear();
  std::vector<wire::StepResult> results(ranks_.size());
  on_lanes([&](std::size_t r) {
    FrameDemux demux(*inproc_, static_cast<int>(r));
    run_spmd_redistribute(*ranks_[r], cfg_, next_step_, demux, *inproc_, results[r]);
  });
  StepReport scratch;  // the bootstrap scatter is not a step
  StepFold fold(ranks_.size());
  for (wire::StepResult& sr : results) fold_step_result(scratch, sr, fold);
  decomp_ = finish_step(scratch, fold);
}

StepReport Simulation::step() {
  StepReport report;
  report.step = next_step_++;
  report.kernel = cfg_.kernel;
  WallTimer wall;

  const std::size_t nranks = ranks_.size();
  std::vector<wire::StepResult> results(nranks);
  on_lanes([&](std::size_t r) {
    TrafficRecordingTransport out(*inproc_);
    FrameDemux demux(out, static_cast<int>(r));
    run_spmd_step(*ranks_[r], cfg_, report.step, demux, out, let_state_, results[r]);
    results[r].traffic = out.take();
  });

  StepFold fold(nranks);
  for (wire::StepResult& sr : results) fold_step_result(report, sr, fold);
  decomp_ = finish_step(report, fold);
  report.elapsed = wall.elapsed();
  report.metrics = build_step_metrics(report);
  return report;
}

ParticleSet gather_sorted(std::span<const ParticleSet* const> sets) {
  ParticleSet out;
  std::size_t total = 0;
  for (const ParticleSet* p : sets) total += p->size();
  out.reserve(total);
  for (const ParticleSet* p : sets) out.append(*p);
  std::vector<std::uint32_t> perm(out.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](std::uint32_t a, std::uint32_t b) { return out.id[a] < out.id[b]; });
  out.apply_permutation(perm);
  return out;
}

double total_kinetic_energy(std::span<const ParticleSet* const> sets) {
  double ke = 0.0;
  for (const ParticleSet* set : sets) {
    const ParticleSet& p = *set;
    for (std::size_t i = 0; i < p.size(); ++i) ke += 0.5 * p.mass[i] * norm2(p.vel(i));
  }
  return ke;
}

double total_potential_energy(std::span<const ParticleSet* const> sets) {
  double pe = 0.0;
  for (const ParticleSet* set : sets) {
    const ParticleSet& p = *set;
    for (std::size_t i = 0; i < p.size(); ++i) pe += 0.5 * p.mass[i] * p.pot[i];
  }
  return pe;
}

namespace {

std::vector<const ParticleSet*> rank_sets(const std::vector<std::unique_ptr<Rank>>& ranks) {
  std::vector<const ParticleSet*> sets;
  sets.reserve(ranks.size());
  for (const auto& rank : ranks) sets.push_back(&rank->parts());
  return sets;
}

}  // namespace

ParticleSet Simulation::gather() const { return gather_sorted(rank_sets(ranks_)); }

std::vector<ParticleSet> Simulation::checkpoint_sets() const {
  std::vector<ParticleSet> sets;
  sets.reserve(ranks_.size());
  for (const auto& rank : ranks_) sets.push_back(rank->parts());
  return sets;
}

void Simulation::restore(std::vector<ParticleSet> sets, int next_step) {
  BNS_CHECK(sets.size() == ranks_.size(),
                   "checkpoint rank count must match the simulation config");
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    ranks_[r]->parts() = std::move(sets[r]);
  next_step_ = next_step;
}

std::size_t Simulation::num_particles() const {
  std::size_t n = 0;
  for (const auto& rank : ranks_) n += rank->parts().size();
  return n;
}

double Simulation::kinetic_energy() const { return total_kinetic_energy(rank_sets(ranks_)); }

double Simulation::potential_energy() const {
  return total_potential_energy(rank_sets(ranks_));
}

void print_step_report(const StepReport& report, std::ostream& os) {
  os << "step " << report.step << ": n=" << report.num_particles
     << " kernel=" << kernel_backend_name(report.kernel)
     << " migrated=" << report.migrated << " LET cells=" << report.let_cells
     << " LET particles=" << report.let_particles << '\n';

  TextTable table({"Stage", "max [ms]", "sum [ms]", "% max"});
  const double total_max = report.max_times.total();
  for (const auto& entry : report.max_times.entries()) {
    const double sum = report.sum_times.get(entry.name);
    table.add_row({entry.name, TextTable::num(entry.seconds * 1e3),
                   TextTable::num(sum * 1e3),
                   TextTable::num(total_max > 0.0 ? 100.0 * entry.seconds / total_max : 0.0,
                                  1)});
  }
  table.add_row({"Total", TextTable::num(total_max * 1e3),
                 TextTable::num(report.sum_times.total() * 1e3), "100.0"});
  table.print(os);

  const InteractionStats stats = report.stats();
  const GravityRates rates = gravity_rates(report);
  os << "interactions: p2p/particle="
     << TextTable::num(stats.p2p_per_particle(report.num_particles), 1)
     << " p2c/particle=" << TextTable::num(stats.p2c_per_particle(report.num_particles), 1)
     << " | gravity " << TextTable::num(rates.gflops_device, 2)
     << " Gflop/s (device), " << TextTable::num(rates.gflops_parallel, 2)
     << " Gflop/s (parallel model)\n";
  if (stats.batches() > 0) {
    os << "batches: " << stats.pp_batches << " p-p + " << stats.pc_batches
       << " p-c, fill " << TextTable::num(100.0 * stats.fill_ratio(), 1)
       << "% (useful/padded lanes)\n";
  }

  os << "wire: LET " << human_bytes(static_cast<double>(report.let_wire.bytes)) << " in "
     << report.let_wire.frames << " frame(s), enc "
     << TextTable::num(report.let_wire.encode_seconds * 1e3) << " ms, dec "
     << TextTable::num(report.let_wire.decode_seconds * 1e3) << " ms | particles "
     << human_bytes(static_cast<double>(report.part_wire.bytes)) << " in "
     << report.part_wire.frames << " frame(s), enc "
     << TextTable::num(report.part_wire.encode_seconds * 1e3) << " ms, dec "
     << TextTable::num(report.part_wire.decode_seconds * 1e3) << " ms";
  if (report.dom_wire.frames > 0) {
    os << " | domain " << human_bytes(static_cast<double>(report.dom_wire.bytes)) << " in "
       << report.dom_wire.frames << " frame(s)";
  }
  os << "\n";
  print_traffic_by_type(report.traffic, os);
  print_let_histogram(report.let_sizes, os);

  os << "pipeline: critical path " << TextTable::num(report.critical_path * 1e3)
     << " ms vs " << TextTable::num(report.sequential_model * 1e3)
     << " ms lockstep stage-sum -> overlap efficiency "
     << TextTable::num(report.overlap_efficiency(), 2) << "x\n"
     << "  gravity+LET: " << TextTable::num(report.gravity_critical * 1e3)
     << " ms pipelined vs " << TextTable::num(report.gravity_sequential * 1e3)
     << " ms sequential max-sum (Exchange LET + Gravity local + Gravity remote)\n";
}

namespace {

// Labeled metric name: base{src=S,dst=D,type=T} for one traffic-matrix cell.
std::string traffic_label(const char* base, const wire::PeerTraffic& t) {
  return std::string(base) + "{src=" + std::to_string(t.src) +
         ",dst=" + std::to_string(t.dst) +
         ",type=" + wire::frame_type_name(static_cast<wire::FrameType>(t.type)) + "}";
}

void fold_wire_stats(metrics::Snapshot& m, const char* kind, const wire::WireStats& ws) {
  const std::string base = std::string("wire.") + kind;
  m.counters[base + ".frames"] = static_cast<double>(ws.frames);
  m.counters[base + ".bytes"] = static_cast<double>(ws.bytes);
  m.counters[base + ".encode_s"] = ws.encode_seconds;
  m.counters[base + ".decode_s"] = ws.decode_seconds;
}

}  // namespace

metrics::Snapshot build_step_metrics(const StepReport& r) {
  metrics::Snapshot m;
  m.counters["step.migrated"] = static_cast<double>(r.migrated);
  m.counters["step.let_cells"] = static_cast<double>(r.let_cells);
  m.counters["step.let_particles"] = static_cast<double>(r.let_particles);
  m.counters["gravity.local.p2p"] = static_cast<double>(r.local_stats.p2p);
  m.counters["gravity.local.p2c"] = static_cast<double>(r.local_stats.p2c);
  m.counters["gravity.remote.p2p"] = static_cast<double>(r.remote_stats.p2p);
  m.counters["gravity.remote.p2c"] = static_cast<double>(r.remote_stats.p2c);
  const InteractionStats stats = r.stats();
  const GravityRates rates = gravity_rates(r);
  m.counters["kernel.flops.useful"] = static_cast<double>(stats.useful_flops());
  m.counters["kernel.flops.padded"] = static_cast<double>(stats.padded_flops());
  m.gauges["gravity.gflops_device"] = rates.gflops_device;
  m.gauges["gravity.gflops_parallel"] = rates.gflops_parallel;
  if (stats.batches() > 0) {
    m.counters["kernel.batch.count{kind=pp}"] = static_cast<double>(stats.pp_batches);
    m.counters["kernel.batch.count{kind=pc}"] = static_cast<double>(stats.pc_batches);
    m.counters["kernel.interactions.useful"] = static_cast<double>(stats.p2p + stats.p2c);
    m.counters["kernel.interactions.padded"] =
        static_cast<double>(stats.p2p_padded + stats.p2c_padded);
    m.gauges["kernel.batch.fill_ratio"] = stats.fill_ratio();
    // Useful interactions per drained batch as a pow-2 histogram: bucket b of
    // InteractionStats::batch_hist covers [2^b, 2^(b+1)), so bound i is set
    // to 2^(i+1) - 1 (metric buckets are (lo, hi] against integer samples).
    metrics::HistogramData h;
    h.bounds.resize(kBatchHistBuckets - 1);
    for (std::size_t b = 0; b + 1 < kBatchHistBuckets; ++b)
      h.bounds[b] = static_cast<double>((std::uint64_t{2} << b) - 1);
    h.counts.assign(kBatchHistBuckets, 0);
    for (std::size_t b = 0; b < kBatchHistBuckets; ++b)
      h.counts[b] = stats.batch_hist[b];
    h.count = stats.batches();
    h.sum = static_cast<double>(stats.p2p + stats.p2c);
    m.histograms["kernel.batch.interactions"] = std::move(h);
  }
  fold_wire_stats(m, "let", r.let_wire);
  fold_wire_stats(m, "part", r.part_wire);
  fold_wire_stats(m, "dom", r.dom_wire);
  for (const wire::PeerTraffic& t : r.traffic) {
    m.counters[traffic_label("transport.post.frames", t)] = static_cast<double>(t.frames);
    m.counters[traffic_label("transport.post.bytes", t)] = static_cast<double>(t.bytes);
  }
  m.gauges["step.num_particles"] = static_cast<double>(r.num_particles);
  m.gauges["step.elapsed_s"] = r.elapsed;
  m.gauges["schedule.critical_path_s"] = r.critical_path;
  m.gauges["schedule.sequential_model_s"] = r.sequential_model;
  m.gauges["schedule.gravity_critical_s"] = r.gravity_critical;
  m.gauges["schedule.gravity_sequential_s"] = r.gravity_sequential;
  m.gauges["schedule.overlap_efficiency"] = r.overlap_efficiency();
  for (const auto& e : r.max_times.entries())
    m.gauges["stage.max_s{stage=" + e.name + "}"] = e.seconds;
  for (const auto& e : r.sum_times.entries())
    m.gauges["stage.sum_s{stage=" + e.name + "}"] = e.seconds;
  // Pow-2 LET frame-size buckets, 16 B .. 4 GiB (the print histogram's scheme
  // with fixed bounds so snapshots merge across ranks and steps).
  const std::vector<double> bounds = metrics::pow2_bounds(4, 32);
  if (!r.let_sizes.empty()) {
    metrics::HistogramData h;
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
    for (const wire::LetSizeSample& s : r.let_sizes) h.add(static_cast<double>(s.bytes));
    m.histograms["let.size.bytes"] = std::move(h);
  }
  return m;
}

void write_step_report_json(const RunInfo& info, std::span<const StepReport> reports,
                            std::ostream& os) {
  os << "{\"schema\": 6,\n \"config\": {\"ranks\": " << info.ranks
     << ", \"num_particles\": " << info.num_particles << ", \"theta\": ";
  metrics::write_number(os, info.theta);
  os << ", \"transport\": \"" << info.transport << "\", \"kernel\": \"" << info.kernel
     << "\", \"kernel_isa\": \"" << kernel_isa()
     << "\", \"wire_version\": " << wire::kVersion << "},\n \"steps\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "  {\"step\": " << reports[i].step << ", \"metrics\": ";
    metrics::to_json(os, reports[i].metrics);
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace bonsai::domain
