// Multi-rank driver: the in-process analogue of the paper's full per-step
// pipeline (§III-B, Table II):
//
//   domain update (sampled boundary keys)  ->  particle exchange
//   -> per-rank sort / tree build / properties
//   -> LET exchange (sender-side extraction, receiver-side walk)
//   -> gravity: local tree walk + imported-LET walks
//   -> integration
//
// Two schedules drive the ranks (SimConfig::async):
//
// * async (default, §III-B3): one Executor lane per rank runs the whole
//   pipeline independently; LETs travel as serialized wire frames through
//   the byte Transport, and a rank starts remote gravity on each imported
//   LET as soon
//   as it arrives — local gravity is not a barrier, and there is no global
//   graft step. The step report carries the modeled critical path vs the
//   lockstep stage-sum (overlap efficiency).
// * lockstep (--no-async): every stage completes on all ranks before the
//   next begins, with imported LETs grafted into one forest — the PR-1
//   schedule, kept for differential testing.
//
// Per-stage timings are recorded per rank either way, so the report can show
// the parallel-model wall-clock (max over ranks) and total device-seconds
// (sum), the way Table II reports per-process times.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "domain/channel.hpp"
#include "domain/decomposition.hpp"
#include "domain/executor.hpp"
#include "domain/metrics.hpp"
#include "domain/rank.hpp"
#include "domain/schedule.hpp"
#include "domain/transport.hpp"
#include "domain/wire.hpp"
#include "util/flops.hpp"
#include "util/heap.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

// Everything one step produces, for printing and for tests.
struct StepReport {
  int step = 0;
  bool async = false;  // which schedule produced this report
  KernelBackend kernel = KernelBackend::kSimd;  // force backend of this step
  std::size_t num_particles = 0;
  std::uint64_t migrated = 0;       // particles that changed rank this step
  std::uint64_t let_cells = 0;      // total exported LET nodes
  std::uint64_t let_particles = 0;  // total exported leaf particles
  InteractionStats local_stats, remote_stats;
  TimeBreakdown max_times;  // per-stage max over ranks (parallel wall-clock)
  TimeBreakdown sum_times;  // per-stage sum over ranks (device-seconds)
  double elapsed = 0.0;     // actual wall-clock of the whole step

  // Serialization accounting: LET frames (summed over ranks), particle
  // batches (migration cells plus the cluster StepBegin/StepResult frames
  // that historically carried them), and the SPMD domain-control frames
  // (Boundaries/KeySamples allgathers), plus the per-imported-LET size
  // samples behind the step report's histogram.
  wire::WireStats let_wire, part_wire, dom_wire;
  std::vector<wire::LetSizeSample> let_sizes;

  // Incremental LET exchange (--let-cache): full/delta frame counts, bytes a
  // delta saved over the full frame it replaced, importer cache hits and
  // resets, summed over ranks. All zero when the cache is off.
  wire::LetDeltaStats let_delta;

  // Per-(src, dst, frame type) send-side traffic matrix for the step, sorted
  // by that key (kCoordinatorRank appears as -1).
  std::vector<wire::PeerTraffic> traffic;

  // Schedule model (async steps only; see schedule.hpp): the pipelined
  // critical path vs the lockstep stage-sum over the rank-concurrent stages,
  // and the same pair restricted to Exchange LET + Gravity local + remote.
  double critical_path = 0.0;
  double sequential_model = 0.0;
  double gravity_critical = 0.0;
  double gravity_sequential = 0.0;

  // The step's metrics-registry view of the aggregates above, built by
  // build_step_metrics() once the report is final — identical numbers to the
  // legacy wire/traffic/let_sizes fields by construction.
  metrics::Snapshot metrics;

  // Tracing runs only: every span recorded this step, already merged across
  // ranks (and, in cluster runs, clock-shifted onto the coordinator's clock).
  std::vector<trace::Span> spans;

  InteractionStats stats() const { return local_stats + remote_stats; }

  // How much faster the pipelined schedule completes than the lockstep one
  // (>= 1; ratio of modeled times).
  double overlap_efficiency() const {
    return critical_path > 0.0 ? sequential_model / critical_path : 1.0;
  }
};

// Thread-budget policy for per-rank device pools: R rank pipelines partition
// the host's `hardware_threads`, each receiving floor(hw/R) workers (minimum
// 1 — hosts with fewer cores than ranks run oversubscribed but correct; a
// 1-core host gives every rank exactly one worker). The default is the same
// share in *both* schedules, even though lockstep ranks compute one at a
// time: equal device sizes keep recorded device-seconds comparable between
// the schedules (the differential-testing point of --no-async), and avoid
// spawning R*hw mostly-idle workers at high rank counts. An explicit
// cfg.threads_per_rank is clamped to the per-rank share in async mode
// (concurrent pipelines must not oversubscribe each other) but only to hw in
// lockstep mode, where widening a rank's pool to the whole host is safe.
std::size_t threads_for(const SimConfig& cfg, std::size_t hardware_threads);

class Simulation {
 public:
  explicit Simulation(const SimConfig& cfg);

  // Scatter an initial particle set across the ranks (samples an initial
  // decomposition and runs one exchange).
  void init(ParticleSet global);

  // One full pipeline step; forces are valid for every particle afterwards.
  StepReport step();

  // All particles of all ranks, sorted by id, with forces preserved.
  ParticleSet gather() const;

  std::size_t num_particles() const;
  const SimConfig& config() const { return cfg_; }
  const Decomposition& decomposition() const { return decomp_; }
  const sfc::KeySpace& key_space() const { return space_; }
  Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  const Rank& rank(int r) const { return *ranks_[static_cast<std::size_t>(r)]; }

  // Diagnostics over the current population (KE from velocities, PE from the
  // per-particle potentials of the last force pass).
  double kinetic_energy() const;
  double potential_energy() const;

  // Checkpoint/restore seam (the job server's preemption primitive): the
  // per-rank populations in array order plus the step counter are, under
  // count balancing, the complete input of the next step — step() resamples
  // the decomposition and key space from the sets before anything else.
  // Restoring a checkpoint into a fresh Simulation with the same config
  // therefore continues bit-for-bit where the checkpointed run left off
  // (cost balancing resumes too, but falls back to the equal-count cut on
  // its first step: measured gravity seconds are not replayable).
  std::vector<ParticleSet> checkpoint_sets() const;
  void restore(std::vector<ParticleSet> sets, int next_step);
  int next_step() const { return next_step_; }

 private:
  // Domain update + particle exchange; records driver-level timings/counts.
  void redistribute(StepReport& report, TimeBreakdown& driver_times);

  // The two step schedules; both leave valid forces on every rank and fill
  // per-rank stage times. The async schedule also fills `lanes` for the
  // pipeline model.
  void step_async(StepReport& report, std::vector<TimeBreakdown>& rank_times,
                  std::vector<LaneTimeline>& lanes);
  void step_lockstep(StepReport& report, std::vector<TimeBreakdown>& rank_times);

  // First member, so destroyed last: the pages the ranks, LET caches and
  // lane threads below freed go back to the OS with them (util/heap.hpp).
  ReleaseHeapOnDestroy release_heap_;
  SimConfig cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::unique_ptr<Executor> executor_;  // created on the first async step
  // All inter-rank traffic (LET frames, particle batches) flows through the
  // recorder wrapped around this byte transport; swapping the backend for a
  // socket/MPI one changes no pipeline code (the out-of-process driver in
  // domain/cluster.hpp does exactly that). The recorder feeds the step
  // report's per-peer traffic matrix.
  std::unique_ptr<InProcTransport> inproc_;
  std::unique_ptr<TrafficRecordingTransport> transport_;
  Decomposition decomp_;
  sfc::KeySpace space_;
  int next_step_ = 0;

  // Incremental LET exchange: per-pair caches and encode scratch, persisting
  // across the per-step LetExchange instances (--let-cache).
  LetChannelState let_state_;

  // Feedback for BalanceMode::kCost: last step's per-rank gravity seconds
  // and populations (empty before the first step).
  std::vector<double> prev_gravity_seconds_;
  std::vector<std::size_t> prev_rank_size_;
};

// The shared "Domain update" + "Exchange particles" driver stages (used by
// the in-process Simulation and the cluster coordinator so their reports
// cannot drift apart): sample a new decomposition from the per-rank sets —
// cost-weighted by the previous step's gravity seconds per particle when
// BalanceMode::kCost and a step has been timed — then migrate particles
// through `transport`, recording counts, stage timings (serialization cost
// broken out into the wire rows) and wire stats. Returns the domain update
// so callers keep the bounds/space/partition.
DomainUpdate redistribute_sets(std::vector<ParticleSet>& sets, const SimConfig& cfg,
                               std::span<const double> prev_gravity_seconds,
                               std::span<const std::size_t> prev_rank_size,
                               Transport& transport, StepReport& report,
                               TimeBreakdown& driver_times);

// Everything one rank's LET/gravity phase produces.
struct RankStepStats {
  std::uint64_t let_cells = 0, let_particles = 0;
  InteractionStats local_stats, remote_stats;
  std::vector<wire::LetSizeSample> let_sizes;
};

// One rank's step body after tree build — the phase the in-process async
// lanes and the socket workers must run identically for out-of-process runs
// to reproduce in-process forces: round-robin LET exports starting at
// self+1, local gravity, remote gravity per arrived LET, integration, and
// the wire-stage accounting. `next_peer` advances past each successfully
// posted peer so a caller's failure path knows which posts are still owed.
// `lane`, when given, records the timeline for the schedule model.
RankStepStats run_rank_step(Rank& rank, const SimConfig& cfg, LetExchange& net,
                            std::span<const std::uint8_t> active,
                            std::span<const AABB> boxes, TimeBreakdown& times,
                            LaneTimeline* lane, std::size_t& next_peer);

// Concatenate per-rank populations into one set sorted by particle id,
// forces/potentials/keys preserved — the gather() both drivers expose — and
// the energy diagnostics over the same populations (KE from velocities, PE
// from the per-particle potentials of the last force pass).
ParticleSet gather_sorted(std::span<const ParticleSet* const> sets);
double total_kinetic_energy(std::span<const ParticleSet* const> sets);
double total_potential_energy(std::span<const ParticleSet* const> sets);

// Fold driver-level and per-rank stage times into the report's max/sum
// aggregate views, in canonical Table II stage order.
void fold_stage_times(StepReport& report, const TimeBreakdown& driver_times,
                      std::span<const TimeBreakdown> rank_times);

// Render a StepReport as the per-stage timing table (Table II layout), plus
// the pipeline/overlap lines for async steps.
void print_step_report(const StepReport& report, std::ostream& os);

// Rebuild a report's aggregates as a metrics Snapshot (stable dotted names,
// per-peer traffic as labeled counters, LET sizes as a pow-2 histogram). A
// pure function of the final report, so the registry view can never drift
// from the legacy fields. Every driver assigns the result to report.metrics.
metrics::Snapshot build_step_metrics(const StepReport& report);

// Run-level metadata for the --bench JSON header, so trajectory tooling can
// tell configurations apart without parsing command lines.
struct RunInfo {
  int ranks = 0;
  std::size_t num_particles = 0;
  double theta = 0.0;
  std::string transport = "inproc";  // "inproc" | "socket"
  std::string topology = "none";     // "none" | "mesh"
  std::string cluster = "none";      // "none" | "spmd" | "serve"
  std::string balance = "count";     // "count" | "cost"
  std::string kernel = "simd";       // "scalar" | "simd"
  bool async = true;
  bool let_cache = false;            // incremental LET exchange on?
  int wire_version = wire::kVersion;
};

// Emit reports as a JSON object {"schema": 2, "config": {...run metadata...},
// "steps": [...]} (the --bench trajectory format): per-stage max/sum seconds,
// interaction counts, Gflop/s, the schedule model, and the metrics registry
// block next to the legacy wire/traffic fields it subsumes.
void write_step_report_json(const RunInfo& info, std::span<const StepReport> reports,
                            std::ostream& os);

}  // namespace bonsai::domain
