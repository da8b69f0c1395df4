// Multi-rank driver: the in-process analogue of the paper's full per-step
// pipeline (§III-B, Table II). Every rank runs one program, the same in
// every mode (run_spmd_step below):
//
//   domain update: Boundaries + KeySamples allgathers -> identical cut
//   -> peer-to-peer particle migration -> post-migration box allgather
//   -> sort / tree build / properties
//   -> LET exchange (sender-side extraction, receiver-side walk)
//   -> gravity: local tree walk + imported-LET walks
//   -> integration
//
// One Executor lane per rank runs that program over the in-process byte
// Transport, each lane with its own frame demux; socket workers
// (domain/cluster.hpp) run it over their mesh links. A rank starts remote
// gravity on each imported LET as soon as it arrives — local gravity is not
// a barrier, and there is no global graft step.
//
// Timing has one source in every mode: each rank binds its StepResult's span
// list for the whole step (util/trace.hpp), and folding the result derives
// the rank's Table II rows (stage_rows), its pipeline timeline for the
// schedule model and the wire seconds from those spans. The report shows the
// parallel-model wall-clock (max over ranks) and total device-seconds (sum),
// the way Table II reports per-process times, plus the modeled critical path
// vs the lockstep stage-sum (overlap efficiency).
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
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
  KernelBackend kernel = KernelBackend::kSimd;  // force backend of this step
  std::size_t num_particles = 0;
  std::uint64_t migrated = 0;       // particles that changed rank this step
  std::uint64_t let_cells = 0;      // LET nodes, summed over let_sizes
  std::uint64_t let_particles = 0;  // LET leaf particles, summed over let_sizes
  InteractionStats local_stats, remote_stats;
  TimeBreakdown max_times;  // per-stage max over ranks (parallel wall-clock)
  TimeBreakdown sum_times;  // per-stage sum over ranks (device-seconds)
  double elapsed = 0.0;     // actual wall-clock of the whole step

  // Serialization accounting per frame class: LET frames,
  // particle batches (migration cells plus the cluster StepBegin/StepResult
  // frames that historically carried them), and the SPMD domain-control
  // frames (Boundaries/KeySamples allgathers). Frames and bytes are sums of
  // `traffic`, the seconds sums of the wire spans. `let_sizes` holds one
  // record per imported LET.
  wire::WireStats let_wire, part_wire, dom_wire;
  std::vector<wire::LetSizeSample> let_sizes;

  // Per-(src, dst, frame type) send-side traffic matrix for the step, sorted
  // by that key (kCoordinatorRank appears as -1).
  std::vector<wire::PeerTraffic> traffic;

  // Schedule model (see schedule.hpp), from the ranks' spans: the pipelined
  // critical path vs the lockstep stage-sum over the rank-concurrent stages,
  // and the same pair restricted to Exchange LET + Gravity local + remote.
  double critical_path = 0.0;
  double sequential_model = 0.0;
  double gravity_critical = 0.0;
  double gravity_sequential = 0.0;

  // The step's metrics-registry view of the aggregates above, built by
  // build_step_metrics() once the report is final: what --bench writes.
  metrics::Snapshot metrics;

  // Every span of the step: the driver's own and each rank's log (a socket
  // worker's clock-shifted onto the coordinator's clock), the source of
  // every timing above.
  std::vector<trace::Span> spans;

  InteractionStats stats() const { return local_stats + remote_stats; }

  // How much faster the pipelined schedule completes than the lockstep one
  // (>= 1; ratio of modeled times).
  double overlap_efficiency() const {
    return critical_path > 0.0 ? sequential_model / critical_path : 1.0;
  }
};

// Thread-budget policy for per-rank devices: R concurrent rank pipelines
// partition the host's `hardware_threads`, each receiving floor(hw/R) threads,
// its lane included (minimum 1 — hosts with fewer cores than ranks run
// oversubscribed but correct; a 1-core host gives every rank just its lane).
// An explicit cfg.threads_per_rank is clamped to that share, so the
// pipelines never oversubscribe each other.
std::size_t threads_for(const SimConfig& cfg, std::size_t hardware_threads);

// Demultiplexes one rank's inbox by frame class. Control frames from the
// coordinator, LETs, domain frames and migration batches all race on the one
// endpoint (peers advance at their own pace inside a step, and a fast peer's
// next-phase frames can arrive before this rank is done with the current
// one), so each protocol phase pulls from its own queue and frames it is not
// yet ready for wait in theirs. Single-consumer: only the rank's own driver
// thread calls recv(). Once the underlying endpoint closes, queued frames
// stay receivable, then recv() returns nullopt (fail fast, never hang).
class FrameDemux {
 public:
  enum class Class : std::size_t {
    kControl = 0,  // StepBegin / Shutdown / Config
    kLet,
    kBoundaries,
    kKeySamples,
    kMigration,
  };
  static constexpr std::size_t kNumClasses = 5;

  FrameDemux(Transport& inner, int rank) : inner_(inner), rank_(rank) {}

  std::optional<std::vector<std::uint8_t>> recv(Class cls);

 private:
  Transport& inner_;
  int rank_;
  std::array<std::deque<std::vector<std::uint8_t>>, kNumClasses> queues_;
  bool closed_ = false;
};

// The rank program's redistribute phase (phases 1-3 of run_spmd_step): the
// Boundaries allgather (local bounds, population, and as cost weight the
// mean `work` of the resident particles, i.e. the last force pass's counted
// walk flops per particle) -> identical global Hilbert KeySpace, sample
// stride and weights on every rank; the step's one key pass over the
// resident particles on the rank's device; the KeySamples allgather (every
// stride-th key) pooled in rank order -> identical Decomposition; then the
// peer-to-peer migration, after which `rank` holds its new slice, keyed
// through the returned KeySpace.
// Cost weights apply only when some rank reported a positive one (not
// before the first force pass), and are a pure function of the resident
// particles: the cut replays across runs, transports and checkpoints.
// Records the domain.update and decomposition.migrate spans in sr.spans
// (bound for the call), plus sr.rank, sr.boundaries and sr.migrated.
// Bootstrapping from one rank holding the whole initial set is this phase
// alone.
sfc::KeySpace run_spmd_redistribute(Rank& rank, const SimConfig& cfg, int step,
                                    FrameDemux& demux, Transport& out, wire::StepResult& sr);

// One rank's whole step, the same body in-process and in a socket worker:
// the redistribute phase, phase 4 (post-migration allgather of the active
// set and the tight domain boxes peers build LETs against), sort/build,
// round-robin LET exports from self+1, local gravity, remote gravity per
// imported LET in source order, integration. Binds sr.spans for the call and
// records the step's spans there, enclosed in one rank.step span; fills sr's
// statistics, boundaries and local population; leaves the stepped particles
// (with their walk work) resident in `rank`.
void run_spmd_step(Rank& rank, const SimConfig& cfg, int step, FrameDemux& demux,
                   Transport& out, LetChannelState& let_state, wire::StepResult& sr);

// One rank's Table II rows from its span log. A row is the summed duration
// of its spans minus the wire.encode.* / wire.decode.* spans nested inside
// them; Wire encode and Wire decode sum those wire spans. Waits and
// transport posts stay in the row that encloses them. Row spans: Domain
// update = domain.update; Exchange particles = decomposition.migrate +
// decomposition.boxes; Sorting SFC = rank.sort; Tree-construction =
// rank.build; Tree-properties = rank.properties; Exchange LET = let.export;
// Gravity local/remote = gravity.local/remote; Integration = rank.integrate.
// Coordinator spans (rank < 0) are ignored. Rows appear in Table II order,
// only when some span books into them.
TimeBreakdown stage_rows(std::span<const trace::Span> spans);

// The per-step accumulator fold_step_result fills: each rank's rows and
// pipeline timeline, and the partition the ranks agreed on.
struct StepFold {
  explicit StepFold(std::size_t nranks) : rows(nranks), lanes(nranks) {}
  std::vector<TimeBreakdown> rows;
  std::vector<LaneTimeline> lanes;
  std::vector<sfc::Key> bounds;
};

// Fold one rank's StepResult into the report: counts, interaction and LET
// statistics, LET size records, traffic matrix, and its spans — which yield
// the rank's rows and timeline in `fold` and the per-class wire seconds, and
// move into report.spans, each span without a step stamped with the report's.
// Cross-checks the rank's boundaries against the ranks folded before: every
// rank must have cut the identical partition, or the LET and migration
// protocols exchanged against different domains — fail fast, never average.
// Both drivers fold their ranks' results with this.
void fold_step_result(StepReport& report, wire::StepResult& sr, StepFold& fold);

// Once every rank is folded and all of the step's traffic merged into
// report.traffic: the report's wire frames/bytes (from the traffic matrix)
// and LET totals (from let_sizes), its max/sum stage rows and its schedule
// model. Returns the agreed partition.
Decomposition finish_step(StepReport& report, StepFold& fold);

class Simulation {
 public:
  explicit Simulation(const SimConfig& cfg);

  // Put an initial particle set on rank 0 (forces and `work` zeroed, so the
  // scatter cuts with unit weights as a socket bootstrap does) and let the
  // lanes run the redistribute phase, which scatters it across the ranks.
  void init(ParticleSet global);

  // One full pipeline step; forces are valid for every particle afterwards.
  StepReport step();

  // All particles of all ranks, sorted by id, with forces preserved.
  ParticleSet gather() const;

  std::size_t num_particles() const;
  const SimConfig& config() const { return cfg_; }
  const Decomposition& decomposition() const { return decomp_; }
  Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  const Rank& rank(int r) const { return *ranks_[static_cast<std::size_t>(r)]; }

  // Diagnostics over the current population (KE from velocities, PE from the
  // per-particle potentials of the last force pass).
  double kinetic_energy() const;
  double potential_energy() const;

  // Checkpoint/restore seam (the job server's preemption primitive): the
  // per-rank populations in array order plus the step counter are the
  // complete input of the next step — step() resamples the decomposition
  // and key space from the sets, weighing the carried `work`, before
  // anything else. Restoring a checkpoint into a fresh Simulation with the
  // same config therefore continues bit-for-bit where the checkpointed run
  // left off.
  std::vector<ParticleSet> checkpoint_sets() const;
  void restore(std::vector<ParticleSet> sets, int next_step);
  int next_step() const { return next_step_; }

 private:
  // Run job(r) on every rank's lane over fresh endpoints and wait for all of
  // them. A lane that throws closes every endpoint, so peers blocked in a
  // receive fail fast instead of hanging; the error of the lane that failed
  // first is rethrown once every lane has returned.
  void on_lanes(const std::function<void(std::size_t)>& job);

  // First member, so destroyed last: the pages the ranks, LET caches and
  // lane threads below freed go back to the OS with them (util/heap.hpp).
  ReleaseHeapOnDestroy release_heap_;
  SimConfig cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::unique_ptr<Executor> executor_;  // one lane per rank
  // All inter-rank traffic (domain frames, particle batches, LETs) flows
  // through this byte transport, exactly as socket workers' flows through
  // their mesh links; each lane records its own posts for the traffic matrix.
  std::unique_ptr<InProcTransport> inproc_;
  Decomposition decomp_;
  int next_step_ = 0;

  // Per-source LET encode scratch, persisting across the per-step
  // LetExchange instances.
  LetChannelState let_state_;
};

// Concatenate per-rank populations into one set sorted by particle id,
// forces/potentials/work/keys preserved — the gather() both drivers expose —
// and the energy diagnostics over the same populations (KE from velocities, PE
// from the per-particle potentials of the last force pass).
ParticleSet gather_sorted(std::span<const ParticleSet* const> sets);
double total_kinetic_energy(std::span<const ParticleSet* const> sets);
double total_potential_energy(std::span<const ParticleSet* const> sets);

// Render a StepReport as the per-stage timing table (Table II layout), plus
// the pipeline/overlap lines.
void print_step_report(const StepReport& report, std::ostream& os);

// Rebuild a report's aggregates as a metrics Snapshot (stable dotted names,
// per-peer traffic as labeled counters, LET sizes as a pow-2 histogram). A
// pure function of the final report and the only writer of a --bench step.
// Every driver assigns the result to report.metrics.
metrics::Snapshot build_step_metrics(const StepReport& report);

// Run-level metadata for the --bench JSON header, so trajectory tooling can
// tell configurations apart without parsing command lines. The transport
// names the cluster shape too: socket ranks are SPMD workers on a mesh, and
// serve is a job-server job.
struct RunInfo {
  int ranks = 0;
  std::size_t num_particles = 0;
  double theta = 0.0;
  std::string transport = "inproc";  // "inproc" | "socket" | "serve"
  std::string kernel = "simd";       // "scalar" | "simd"
};

// Emit reports as a JSON object {"schema": 6, "config": {...run metadata,
// wire version...}, "steps": [{"step": N, "metrics": {...}}, ...]} (the
// --bench trajectory format): each step is its metrics block.
void write_step_report_json(const RunInfo& info, std::span<const StepReport> reports,
                            std::ostream& os);

}  // namespace bonsai::domain
