// Out-of-process ranks: the coordinator/worker drivers of --transport socket.
//
// The paper's ranks are separate MPI processes that keep their own particles
// and trade LETs and migrating particles point to point (§III-B1); this
// module reproduces that over the SocketTransport. Workers keep their
// particle slice *resident across steps* and run the rank program of
// domain/simulation.hpp (run_spmd_step) among themselves — per step, after a
// bare StepBegin trigger:
//
//   phase 1  Boundaries allgather: local bounds, population, cost weight
//            -> every worker derives the identical global KeySpace/stride
//   phase 2  KeySamples allgather -> identical Decomposition on all ranks
//   phase 3  Migration alltoallv: only owner-changing particles travel
//            (the migration barrier: a worker proceeds only after all n-1
//            inbound batches arrived)
//   phase 4  Boundaries allgather (post-migration active set + boxes)
//   then     LET exchange + gravity + integration
//   finally  StepResult: timings/stats/energies only — no particles
//
// The fabric is a mesh (see transport.hpp): each worker pair holds its own
// TCP connection (rendezvous via the coordinator's PeerDirectory), so
// LET/Boundaries/KeySamples/Migration frames never touch the coordinator.
// The coordinator is rendezvous, step trigger and report aggregator only:
// it ships the whole initial set to rank 0 with the first StepBegin (the
// workers scatter it with phases 1-3 before that step's own round), folds
// the results with fold_step_result — which cross-checks the Decomposition
// every worker reports and fails fast on divergence — and any worker death
// closes its sockets so every blocked recv() unblinds instead of hanging.
//
// The in-process Simulation's lanes run the same rank program over the
// in-process transport, bootstrap included, so socket and in-process runs
// agree bitwise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "domain/simulation.hpp"
#include "domain/transport.hpp"

namespace bonsai::domain {

// Where the particle state lives between steps: on the workers. The enum and
// ClusterConfig::mode are kept only because bench/bonsai_bench.cpp still sets
// them; nothing reads the field.
enum class ClusterMode {
  kSpmd,  // worker-resident state, distributed sampling, peer migration
};

struct ClusterConfig {
  SimConfig sim;
  ClusterMode mode = ClusterMode::kSpmd;
  // Must stay kMesh: worker↔worker frames travel on direct pair sockets, and
  // the constructor rejects kStar (a star has no worker↔worker path).
  SocketTopology topology = SocketTopology::kMesh;
  std::uint16_t port = 0;     // 0: pick an ephemeral port
  bool spawn_workers = true;  // fork/exec `program` once per rank; false:
                              // wait for externally launched workers
  std::string program;        // bonsai_sim binary path (argv[0]) for spawning
  std::size_t worker_threads = 0;  // device threads per worker (0: hw/nranks)
  // Test seam: invoked with the bound port after listen() and before the
  // accept wait, so in-process run_worker() threads can be pointed at an
  // ephemeral port without fixed-port flakiness.
  std::function<void(std::uint16_t)> on_listen;
};

// Coordinator-side driver with the same step interface as Simulation, so the
// CLI and the validation path are generic over where the ranks live.
class ClusterSimulation {
 public:
  explicit ClusterSimulation(const ClusterConfig& cfg);
  ~ClusterSimulation();

  // Holds `global` for rank 0; the first step() ships it out and the workers
  // scatter it.
  void init(ParticleSet global);
  StepReport step();
  // A collect round-trip pulls every worker's resident particles (with
  // forces); before the first step, the initial set.
  ParticleSet gather() const;

  std::size_t num_particles() const;
  const SimConfig& config() const { return cfg_.sim; }
  // The partition every worker reported (and the coordinator verified
  // identical) at the last step; the uniform one before any step.
  const Decomposition& decomposition() const { return decomp_; }
  std::uint16_t port() const { return net_->port(); }

  // The per-worker partial sums aggregated from the last step's results;
  // before the first step, summed over the initial set.
  double kinetic_energy() const;
  double potential_energy() const;

 private:
  void spawn_workers();
  void broadcast_shutdown() noexcept;
  // The next worker's decoded, deduplicated StepResult, already folded into
  // `report`, `rank_times` and `agreed_bounds` by fold_step_result. Trace
  // frames interleaved with the results are absorbed on the way: their spans
  // are clock-shifted onto the coordinator's clock (post_ns holds the
  // per-rank StepBegin post times of this step) and appended to `spans`.
  wire::StepResult recv_step_result(TrafficRecordingTransport& rec, StepReport& report,
                                    std::vector<std::uint8_t>& seen,
                                    std::span<const std::int64_t> post_ns,
                                    std::vector<trace::Span>& spans,
                                    std::span<TimeBreakdown> rank_times,
                                    std::vector<sfc::Key>& agreed_bounds);

  ClusterConfig cfg_;
  std::unique_ptr<SocketTransport> net_;
  // The initial set (all in rank 0's entry), shipped with the first
  // StepBegin; afterwards the coordinator holds no particles and serves
  // population/energy queries from the aggregated step results.
  std::vector<ParticleSet> sets_;
  Decomposition decomp_;
  int next_step_ = 0;
  std::vector<long> children_;  // pids of spawned worker processes
  bool bootstrap_pending_ = false;
  bool spmd_stepped_ = false;
  std::size_t spmd_particles_ = 0;
  double spmd_kinetic_ = 0.0;
  double spmd_potential_ = 0.0;
};

// Worker-process entry (bonsai_sim --transport socket --rank-id K
// --coordinator HOST:PORT [--listen-port P]): stand up the worker's own
// listener, connect to the coordinator, establish the pair links, receive
// the config, serve StepBegin frames — step or collect, as each frame's mode
// requests — until Shutdown. Returns the process exit code.
int run_worker(const std::string& host, std::uint16_t port, int rank_id,
               std::size_t threads, std::uint16_t listen_port = 0);

}  // namespace bonsai::domain
