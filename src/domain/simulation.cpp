#include "domain/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
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

// Gravity performance figures shared by the text table and the JSON report,
// derived once so the two renderers cannot drift apart.
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

// Per-imported-LET byte percentiles shared by the text report and the JSON.
struct LetSizeSummary {
  double min_bytes = 0.0, median_bytes = 0.0, max_bytes = 0.0;
  double median_cells = 0.0, median_particles = 0.0;
};

LetSizeSummary summarize_let_sizes(std::span<const wire::LetSizeSample> sizes) {
  LetSizeSummary s;
  if (sizes.empty()) return s;
  std::vector<double> bytes, cells, parts;
  bytes.reserve(sizes.size());
  for (const wire::LetSizeSample& l : sizes) {
    bytes.push_back(static_cast<double>(l.bytes));
    cells.push_back(static_cast<double>(l.cells));
    parts.push_back(static_cast<double>(l.particles));
  }
  s.min_bytes = percentile(bytes, 0.0);
  s.median_bytes = percentile(bytes, 0.5);
  s.max_bytes = percentile(bytes, 1.0);
  s.median_cells = percentile(cells, 0.5);
  s.median_particles = percentile(parts, 0.5);
  return s;
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
  const LetSizeSummary s = summarize_let_sizes(sizes);
  os << "imported LETs: " << sizes.size() << " | bytes med " << human_bytes(s.median_bytes)
     << " [min " << human_bytes(s.min_bytes) << ", max " << human_bytes(s.max_bytes)
     << "] | cells med " << TextTable::num(s.median_cells, 0) << " | particles med "
     << TextTable::num(s.median_particles, 0) << "\n";

  const double lo = std::floor(std::log2(std::max(s.min_bytes, 1.0)));
  const double hi = std::floor(std::log2(std::max(s.max_bytes, 1.0))) + 1.0;
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
  inproc_ = std::make_unique<InProcTransport>(cfg_.nranks);
  transport_ = std::make_unique<TrafficRecordingTransport>(*inproc_);
  decomp_ = Decomposition::uniform(cfg_.nranks);
  let_state_.init(cfg_.nranks, cfg_.let_cache, cfg_.let_churn);
  executor_ = std::make_unique<Executor>(ranks_.size());
}

void Simulation::init(ParticleSet global) {
  ranks_[0]->parts() = std::move(global);
  for (std::size_t r = 1; r < ranks_.size(); ++r) ranks_[r]->parts().clear();
  prev_gravity_seconds_.clear();
  prev_rank_size_.clear();
  StepReport scratch;
  TimeBreakdown driver;
  redistribute(scratch, driver);
  transport_->take();  // the bootstrap scatter is not step traffic
}

namespace {

// Feedback-balancing weights: rank r's samples are weighted by its measured
// gravity seconds per particle from the previous step, so expensive regions
// shrink. The floor keeps a region whose timings underflowed from collapsing
// to nothing; before any step has been timed (or outside cost mode) the
// returned vector is empty and the cut degrades to equal-count quantiles.
std::vector<double> cost_weights(const SimConfig& cfg,
                                 std::span<const double> prev_gravity_seconds,
                                 std::span<const std::size_t> prev_rank_size) {
  std::vector<double> weight;
  if (cfg.balance != BalanceMode::kCost ||
      prev_gravity_seconds.size() != static_cast<std::size_t>(cfg.nranks))
    return weight;
  weight.resize(prev_gravity_seconds.size());
  for (std::size_t r = 0; r < weight.size(); ++r) {
    weight[r] = prev_rank_size[r] > 0
                    ? prev_gravity_seconds[r] / static_cast<double>(prev_rank_size[r])
                    : 0.0;
  }
  apply_cost_floor(weight);
  return weight;
}

}  // namespace

DomainUpdate redistribute_sets(std::vector<ParticleSet>& sets, const SimConfig& cfg,
                               std::span<const double> prev_gravity_seconds,
                               std::span<const std::size_t> prev_rank_size,
                               Transport& transport, StepReport& report,
                               TimeBreakdown& driver_times) {
  DomainUpdate du;
  {
    trace::ScopedSpan span("decomposition.update");
    ScopedTimer t(driver_times, "Domain update");
    const std::vector<double> weight =
        cost_weights(cfg, prev_gravity_seconds, prev_rank_size);
    std::vector<const ParticleSet*> ptrs;
    ptrs.reserve(sets.size());
    for (const ParticleSet& s : sets) ptrs.push_back(&s);
    du = update_domain(ptrs, cfg.nranks, cfg.curve, cfg.samples_per_rank, cfg.snap_level,
                       weight);
  }
  {
    // Manual timing so the serialization cost of the migration batches lands
    // in the wire rows instead of double-counting inside the exchange row.
    trace::ScopedSpan span("decomposition.exchange");
    WallTimer timer;
    wire::WireStats ws;
    const ExchangeStats ex = exchange(sets, du.space, du.decomp, transport, &ws);
    report.migrated = ex.migrated;
    report.num_particles = ex.total;
    report.part_wire += ws;
    driver_times.add("Exchange particles",
                     std::max(0.0, timer.elapsed() - ws.encode_seconds - ws.decode_seconds));
    driver_times.add("Wire encode", ws.encode_seconds);
    driver_times.add("Wire decode", ws.decode_seconds);
  }
  return du;
}

RankStepStats run_rank_step(Rank& rank, const SimConfig& cfg, LetExchange& net,
                            std::span<const std::uint8_t> active,
                            std::span<const AABB> boxes, TimeBreakdown& times,
                            LaneTimeline* lane, std::size_t& next_peer) {
  RankStepStats out;
  const auto r = static_cast<std::size_t>(rank.id());
  const std::size_t nranks = active.size();
  if (active[r]) {
    // Peers receive LETs round-robin from r+1 so senders spread across
    // receivers instead of all extracting for rank 0 first.
    for (; next_peer < nranks; ++next_peer) {
      const std::size_t dst = (r + next_peer) % nranks;
      if (!active[dst]) continue;
      trace::ScopedSpan span("let.export", rank.id(), rank.id());
      span.set_peer(static_cast<std::int64_t>(dst));
      WallTimer timer;
      LetTree let = rank.export_let(boxes[dst]);
      const double secs = timer.elapsed();
      times.add("Exchange LET", secs);
      if (lane) lane->exports.emplace_back(static_cast<int>(dst), secs);
      out.let_cells += let.num_cells();
      out.let_particles += let.num_particles();
      span.set_bytes(static_cast<std::int64_t>(
          net.post(static_cast<int>(r), static_cast<int>(dst), let, secs)));
    }

    rank.parts().zero_forces();
    out.local_stats = rank.gravity_local(cfg, times);
    if (lane) lane->local = times.get("Gravity local");

    // Remote gravity per imported LET, in deterministic peer order. Arrivals
    // race (socket peers advance at their own pace), and floating-point
    // accumulation is order-sensitive, so an out-of-order LET waits in
    // `pending` and every walk happens in (r+1, r+2, ...) source order: the
    // final forces are bitwise reproducible across runs, transports, and the
    // --let-cache setting (the differential bar CI compares against). LETs
    // arriving in order still overlap their walk with the remaining receives;
    // no graft barrier — the walk accepts any self-contained TreeView.
    std::vector<std::optional<wire::LetMessage>> pending(nranks);
    std::size_t next_walk = 1;
    const auto walk_ready = [&] {
      for (; next_walk < nranks; ++next_walk) {
        const std::size_t src = (r + next_walk) % nranks;
        if (!active[src]) continue;
        if (!pending[src]) break;
        wire::LetMessage& m = *pending[src];
        out.let_sizes.push_back({m.let.num_cells(), m.let.num_particles(), m.wire_bytes});
        trace::ScopedSpan span("gravity.remote", rank.id(), rank.id());
        span.set_peer(m.src);
        span.set_bytes(static_cast<std::int64_t>(m.wire_bytes));
        const double before = times.get("Gravity remote");
        out.remote_stats += rank.gravity_remote(m.let.view(), cfg, times);
        if (lane) lane->remotes.emplace_back(m.src, times.get("Gravity remote") - before);
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

  if (cfg.dt != 0.0) rank.integrate(cfg.dt, times);
  if (lane) lane->integrate = times.get("Integration");
  times.add("Wire encode", net.encode_stats(static_cast<int>(r)).encode_seconds);
  times.add("Wire decode", net.decode_stats(static_cast<int>(r)).decode_seconds);
  return out;
}

void Simulation::redistribute(StepReport& report, TimeBreakdown& driver_times) {
  std::vector<ParticleSet> sets(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) sets[r] = std::move(ranks_[r]->parts());
  DomainUpdate du = redistribute_sets(sets, cfg_, prev_gravity_seconds_, prev_rank_size_,
                                      *transport_, report, driver_times);
  for (std::size_t r = 0; r < ranks_.size(); ++r) ranks_[r]->parts() = std::move(sets[r]);
  space_ = du.space;
  decomp_ = std::move(du.decomp);
}

StepReport Simulation::step() {
  StepReport report;
  report.step = next_step_++;
  report.async = true;
  report.kernel = cfg_.kernel;
  WallTimer wall;

  // Fresh endpoints every step: a failed step may leave undrained LET
  // frames (or a closed mailbox from the failure path) behind, and those
  // must not leak into the next step's exchanges.
  inproc_ = std::make_unique<InProcTransport>(cfg_.nranks);
  transport_ = std::make_unique<TrafficRecordingTransport>(*inproc_);

  const std::size_t nranks = ranks_.size();
  TimeBreakdown driver_times;
  std::vector<TimeBreakdown> rank_times(nranks);
  std::vector<LaneTimeline> lanes(nranks);

  redistribute(report, driver_times);
  run_lanes(report, rank_times, lanes);
  const ScheduleModel model = model_schedule(lanes);
  report.critical_path = model.critical_path;
  report.sequential_model = model.sequential;
  report.gravity_critical = model.gravity_critical;
  report.gravity_sequential = model.gravity_sequential;

  // Feed measured gravity cost back into the next domain update.
  prev_gravity_seconds_.assign(nranks, 0.0);
  prev_rank_size_.assign(nranks, 0);
  for (std::size_t r = 0; r < nranks; ++r) {
    prev_gravity_seconds_[r] =
        rank_times[r].get("Gravity local") + rank_times[r].get("Gravity remote");
    prev_rank_size_[r] = ranks_[r]->parts().size();
  }

  fold_stage_times(report, driver_times, rank_times);
  report.traffic = transport_->take();
  report.elapsed = wall.elapsed();
  // Lane threads write their own ring buffers, so the in-process driver must
  // drain every thread (cluster drivers drain only their own: drain_thread).
  if (trace::Tracer::instance().enabled())
    report.spans = trace::Tracer::instance().drain_all();
  report.metrics = build_step_metrics(report);
  return report;
}

void fold_stage_times(StepReport& report, const TimeBreakdown& driver_times,
                      std::span<const TimeBreakdown> rank_times) {
  for (const char* stage : kStageOrder) {
    const double drv = driver_times.get(stage);
    double mx = drv, sum = drv;
    for (const TimeBreakdown& t : rank_times) {
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

void Simulation::run_lanes(StepReport& report, std::vector<TimeBreakdown>& rank_times,
                           std::vector<LaneTimeline>& lanes) {
  const std::size_t nranks = ranks_.size();

  // The active set (senders and receivers of LETs) and every rank's domain
  // box are fixed before the lanes start: the tree root box equals the tight
  // particle bounds, so receivers' boxes need not wait for their builds.
  std::vector<std::uint8_t> active(nranks, 0);
  std::vector<AABB> boxes(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    active[r] = !ranks_[r]->parts().empty();
    if (active[r]) boxes[r] = ranks_[r]->parts().bounds();
  }

  LetExchange net(*transport_, active, &let_state_);

  std::vector<std::uint64_t> let_cells(nranks, 0), let_parts(nranks, 0);
  std::vector<InteractionStats> local_stats(nranks), remote_stats(nranks);
  std::vector<std::vector<wire::LetSizeSample>> sizes(nranks);
  std::vector<std::exception_ptr> errors(nranks);

  std::vector<std::future<void>> done;
  done.reserve(nranks);

  // Failure path: a lane that cannot run (or finish) its export loop still
  // owes LETs to peers that will block in recv() for them. Deliver the owed
  // messages as empties (they exert no force) starting at round-robin offset
  // `first_peer`; if even a compensation post fails, close the peer's
  // mailbox — allocation-free — so its recv() fails fast instead of hanging.
  auto post_owed = [&](std::size_t src, std::size_t first_peer) {
    for (std::size_t k = first_peer; k < nranks; ++k) {
      const std::size_t dst = (src + k) % nranks;
      if (!active[dst]) continue;
      try {
        net.post(static_cast<int>(src), static_cast<int>(dst), LetTree{}, 0.0);
      } catch (...) {
        net.close(static_cast<int>(dst));
      }
    }
  };

  auto submit_lane = [&](std::size_t r) {
    done.push_back(executor_->run(r, [&, r] {
      // Export progress is tracked outside the try so the failure path
      // knows which posts are still owed.
      std::size_t next_peer = 1;
      try {
        trace::ScopedSpan lane_span("lane.step", static_cast<std::int32_t>(r),
                                    static_cast<std::int32_t>(r), report.step);
        Rank& rank = *ranks_[r];
        TimeBreakdown& times = rank_times[r];
        LaneTimeline& lane = lanes[r];

        rank.build(space_, cfg_, times);
        lane.sort = times.get("Sorting SFC");
        lane.build = times.get("Tree-construction");
        lane.props = times.get("Tree-properties");

        RankStepStats out =
            run_rank_step(rank, cfg_, net, active, boxes, times, &lane, next_peer);
        let_cells[r] = out.let_cells;
        let_parts[r] = out.let_particles;
        local_stats[r] = out.local_stats;
        remote_stats[r] = out.remote_stats;
        sizes[r] = std::move(out.let_sizes);
      } catch (...) {
        errors[r] = std::current_exception();
        // Every lane must return before the driver can rethrow (it owns the
        // state the lanes reference), so unblock the peers first.
        if (active[r]) post_owed(r, next_peer);
      }
    }));
  };
  std::size_t submitted = 0;
  std::exception_ptr submit_error;
  try {
    for (; submitted < nranks; ++submitted) submit_lane(submitted);
  } catch (...) {
    // A submission itself threw (allocation of the task): lanes never
    // submitted owe their whole complement of LETs.
    submit_error = std::current_exception();
    for (std::size_t s = submitted; s < nranks; ++s)
      if (active[s]) post_owed(s, 1);
  }
  // Lanes trap their own exceptions, so these waits always complete; only
  // then is it safe to unwind the mailboxes/timelines the lanes reference.
  for (std::future<void>& f : done) f.wait();
  if (submit_error) std::rethrow_exception(submit_error);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  for (std::size_t r = 0; r < nranks; ++r) {
    report.let_cells += let_cells[r];
    report.let_particles += let_parts[r];
    report.local_stats += local_stats[r];
    report.remote_stats += remote_stats[r];
    report.let_wire += net.encode_stats(static_cast<int>(r));
    report.let_wire.decode_seconds += net.decode_stats(static_cast<int>(r)).decode_seconds;
    report.let_delta += net.delta_stats(static_cast<int>(r));
    report.let_sizes.insert(report.let_sizes.end(), sizes[r].begin(), sizes[r].end());
  }
}

ParticleSet gather_sorted(std::span<const ParticleSet* const> sets) {
  ParticleSet out;
  std::size_t total = 0;
  for (const ParticleSet* p : sets) total += p->size();
  out.reserve(total);
  for (const ParticleSet* set : sets) {
    const ParticleSet& p = *set;
    for (std::size_t i = 0; i < p.size(); ++i) {
      out.add(p.get(i));
      out.ax.back() = p.ax[i];
      out.ay.back() = p.ay[i];
      out.az.back() = p.az[i];
      out.pot.back() = p.pot[i];
      out.key.back() = p.key[i];
    }
  }
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
  prev_gravity_seconds_.clear();
  prev_rank_size_.clear();
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
  if (report.let_delta.full_frames + report.let_delta.delta_frames > 0) {
    os << "let cache: " << report.let_delta.delta_frames << " delta + "
       << report.let_delta.full_frames << " full frame(s), saved "
       << human_bytes(static_cast<double>(report.let_delta.bytes_saved)) << ", "
       << report.let_delta.cache_hits << " hit(s), " << report.let_delta.invalidations
       << " invalidation(s)\n";
  }
  print_traffic_by_type(report.traffic, os);
  print_let_histogram(report.let_sizes, os);

  if (report.async) {
    os << "pipeline: critical path " << TextTable::num(report.critical_path * 1e3)
       << " ms vs " << TextTable::num(report.sequential_model * 1e3)
       << " ms lockstep stage-sum -> overlap efficiency "
       << TextTable::num(report.overlap_efficiency(), 2) << "x\n"
       << "  gravity+LET: " << TextTable::num(report.gravity_critical * 1e3)
       << " ms pipelined vs " << TextTable::num(report.gravity_sequential * 1e3)
       << " ms sequential max-sum (Exchange LET + Gravity local + Gravity remote)\n";
  }
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
  if (r.let_delta.full_frames + r.let_delta.delta_frames > 0) {
    m.counters["let.delta.frames{kind=full}"] =
        static_cast<double>(r.let_delta.full_frames);
    m.counters["let.delta.frames{kind=delta}"] =
        static_cast<double>(r.let_delta.delta_frames);
    m.counters["let.delta.bytes_saved"] = static_cast<double>(r.let_delta.bytes_saved);
    m.counters["let.delta.cache_hits"] = static_cast<double>(r.let_delta.cache_hits);
    m.counters["let.delta.invalidations"] =
        static_cast<double>(r.let_delta.invalidations);
  }
  for (const wire::PeerTraffic& t : r.traffic) {
    m.counters[traffic_label("transport.post.frames", t)] = static_cast<double>(t.frames);
    m.counters[traffic_label("transport.post.bytes", t)] = static_cast<double>(t.bytes);
  }
  m.gauges["step.num_particles"] = static_cast<double>(r.num_particles);
  m.gauges["step.elapsed_s"] = r.elapsed;
  if (r.async) {
    m.gauges["schedule.critical_path_s"] = r.critical_path;
    m.gauges["schedule.sequential_model_s"] = r.sequential_model;
    m.gauges["schedule.gravity_critical_s"] = r.gravity_critical;
    m.gauges["schedule.gravity_sequential_s"] = r.gravity_sequential;
    m.gauges["schedule.overlap_efficiency"] = r.overlap_efficiency();
  }
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
    for (const wire::LetSizeSample& s : r.let_sizes) {
      const auto v = static_cast<double>(s.bytes);
      std::size_t b = 0;
      while (b < h.bounds.size() && v > h.bounds[b]) ++b;
      ++h.counts[b];
      ++h.count;
      h.sum += v;
    }
    m.histograms["let.size.bytes"] = std::move(h);
  }
  return m;
}

void write_step_report_json(const RunInfo& info, std::span<const StepReport> reports,
                            std::ostream& os) {
  const auto flags = os.flags();
  const auto precision = os.precision(12);
  os << "{\"schema\": 2,\n \"config\": {\"ranks\": " << info.ranks
     << ", \"num_particles\": " << info.num_particles << ", \"theta\": " << info.theta
     << ", \"transport\": \"" << info.transport << "\", \"topology\": \"" << info.topology
     << "\", \"cluster\": \"" << info.cluster << "\", \"balance\": \"" << info.balance
     << "\", \"kernel\": \"" << info.kernel << "\", \"kernel_isa\": \"" << kernel_isa()
     << "\", \"async\": " << (info.async ? "true" : "false")
     << ", \"let_cache\": " << (info.let_cache ? "true" : "false")
     << ", \"wire_version\": " << info.wire_version << "},\n \"steps\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const StepReport& r = reports[i];
    const InteractionStats stats = r.stats();
    const GravityRates rates = gravity_rates(r);
    os << (i == 0 ? "\n" : ",\n")
       << "  {\"step\": " << r.step << ", \"async\": " << (r.async ? "true" : "false")
       << ", \"num_particles\": " << r.num_particles << ", \"migrated\": " << r.migrated
       << ", \"let_cells\": " << r.let_cells << ", \"let_particles\": " << r.let_particles
       << ",\n   \"elapsed_s\": " << r.elapsed
       << ", \"critical_path_s\": " << r.critical_path
       << ", \"sequential_model_s\": " << r.sequential_model
       << ", \"gravity_critical_s\": " << r.gravity_critical
       << ", \"gravity_sequential_s\": " << r.gravity_sequential
       << ", \"overlap_efficiency\": " << r.overlap_efficiency()
       << ",\n   \"p2p\": " << stats.p2p << ", \"p2c\": " << stats.p2c
       << ", \"flops\": " << stats.flops()
       << ", \"useful_flops\": " << stats.useful_flops()
       << ", \"padded_flops\": " << stats.padded_flops()
       << ", \"pp_batches\": " << stats.pp_batches
       << ", \"pc_batches\": " << stats.pc_batches
       << ", \"fill_ratio\": " << stats.fill_ratio()
       << ", \"gflops_device\": " << rates.gflops_device
       << ", \"gflops_parallel\": " << rates.gflops_parallel
       << ",\n   \"wire\": {\"let_bytes\": " << r.let_wire.bytes
       << ", \"let_frames\": " << r.let_wire.frames
       << ", \"let_encode_s\": " << r.let_wire.encode_seconds
       << ", \"let_decode_s\": " << r.let_wire.decode_seconds
       << ", \"part_bytes\": " << r.part_wire.bytes
       << ", \"part_frames\": " << r.part_wire.frames
       << ", \"part_encode_s\": " << r.part_wire.encode_seconds
       << ", \"part_decode_s\": " << r.part_wire.decode_seconds
       << ", \"dom_bytes\": " << r.dom_wire.bytes
       << ", \"dom_frames\": " << r.dom_wire.frames
       << ", \"dom_encode_s\": " << r.dom_wire.encode_seconds
       << ", \"dom_decode_s\": " << r.dom_wire.decode_seconds
       << ", \"let_full_frames\": " << r.let_delta.full_frames
       << ", \"let_delta_frames\": " << r.let_delta.delta_frames
       << ", \"let_delta_bytes_saved\": " << r.let_delta.bytes_saved
       << ", \"let_cache_hits\": " << r.let_delta.cache_hits
       << ", \"let_cache_invalidations\": " << r.let_delta.invalidations << "}";
    os << ",\n   \"traffic\": [";
    for (std::size_t t = 0; t < r.traffic.size(); ++t) {
      const wire::PeerTraffic& pt = r.traffic[t];
      os << (t == 0 ? "" : ", ") << "{\"src\": " << pt.src << ", \"dst\": " << pt.dst
         << ", \"type\": \""
         << wire::frame_type_name(static_cast<wire::FrameType>(pt.type))
         << "\", \"frames\": " << pt.frames << ", \"bytes\": " << pt.bytes << '}';
    }
    os << "]";
    const LetSizeSummary ls = summarize_let_sizes(r.let_sizes);
    os << ",\n   \"let_size_bytes\": {\"count\": " << r.let_sizes.size()
       << ", \"min\": " << ls.min_bytes << ", \"median\": " << ls.median_bytes
       << ", \"max\": " << ls.max_bytes << "}"
       << ",\n   \"stages\": {";
    const auto& entries = r.max_times.entries();
    for (std::size_t e = 0; e < entries.size(); ++e) {
      os << (e == 0 ? "" : ", ") << '"' << entries[e].name << "\": {\"max_s\": "
         << entries[e].seconds << ", \"sum_s\": " << r.sum_times.get(entries[e].name)
         << '}';
    }
    os << "}";
    os << ",\n   \"metrics\": ";
    metrics::to_json(os, r.metrics);
    os << "}";
  }
  os << "\n]}\n";
  os.precision(precision);
  os.flags(flags);
}

}  // namespace bonsai::domain
