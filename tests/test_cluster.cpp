// Socket-cluster correctness: the SPMD mesh driver against the in-process
// Simulation. Workers run as in-process threads speaking the real socket
// protocol (the on_listen seam hands them the coordinator's ephemeral port),
// so these tests exercise the genuine wire path — demux, allgathers, peer
// migration, LETs on the pair links — without fixed ports or child processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "domain/cluster.hpp"
#include "domain/simulation.hpp"
#include "util/compare.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

using domain::ClusterConfig;
using domain::ClusterSimulation;
using domain::SimConfig;
namespace wire = domain::wire;

// Joins the worker threads after the coordinator under test destructs (and
// has therefore posted Shutdown) — declare the pool before the simulation.
struct WorkerPool {
  std::vector<std::thread> threads;
  ~WorkerPool() {
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
};

ClusterConfig cluster_config(const SimConfig& sim, WorkerPool& pool) {
  ClusterConfig cfg;
  cfg.sim = sim;
  cfg.spawn_workers = false;
  const int nranks = sim.nranks;
  cfg.on_listen = [&pool, nranks](std::uint16_t port) {
    for (int r = 0; r < nranks; ++r)
      pool.threads.emplace_back([port, r] {
        try {
          domain::run_worker("127.0.0.1", port, r, /*threads=*/1, /*listen_port=*/0);
        } catch (...) {
          // Teardown races surface as socket errors inside the worker; the
          // coordinator-side assertions are the test.
        }
      });
  };
  return cfg;
}

SimConfig forces_only_config(int nranks) {
  SimConfig cfg;
  cfg.nranks = nranks;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.dt = 0.0;
  return cfg;
}

std::uint64_t traffic_bytes(const domain::StepReport& rep, wire::FrameType type) {
  std::uint64_t bytes = 0;
  for (const wire::PeerTraffic& t : rep.traffic)
    if (t.type == static_cast<std::uint16_t>(type)) bytes += t.bytes;
  return bytes;
}

std::uint64_t traffic_frames(const domain::StepReport& rep, wire::FrameType type) {
  std::uint64_t frames = 0;
  for (const wire::PeerTraffic& t : rep.traffic)
    if (t.type == static_cast<std::uint16_t>(type)) frames += t.frames;
  return frames;
}

// Frames of one type posted worker to worker (neither end the coordinator).
std::uint64_t peer_frames(const domain::StepReport& rep, wire::FrameType type) {
  std::uint64_t frames = 0;
  for (const wire::PeerTraffic& t : rep.traffic)
    if (t.type == static_cast<std::uint16_t>(type) && t.src != domain::kCoordinatorRank &&
        t.dst != domain::kCoordinatorRank)
      frames += t.frames;
  return frames;
}

TEST(ClusterSpmd, ReproducesInProcDecompositionAndForces) {
  const ParticleSet global = make_plummer(1200, 77);
  const SimConfig cfg = forces_only_config(3);

  domain::Simulation inproc(cfg);
  inproc.init(global);
  const domain::StepReport in_rep = inproc.step();
  const ParticleSet in_got = inproc.gather();

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  const domain::StepReport sp_rep = spmd.step();
  const ParticleSet sp_got = spmd.gather();

  // The distributed sampling must cut the *identical* partition the
  // centralized update computes (same pooled samples, same arithmetic), and
  // the coordinator's cross-check must have accepted it from every worker.
  const auto in_bounds = inproc.decomposition().boundaries();
  const auto sp_bounds = spmd.decomposition().boundaries();
  ASSERT_EQ(in_bounds.size(), sp_bounds.size());
  for (std::size_t i = 0; i < in_bounds.size(); ++i)
    EXPECT_EQ(in_bounds[i], sp_bounds[i]) << "boundary " << i;

  EXPECT_EQ(sp_rep.num_particles, in_rep.num_particles);
  EXPECT_EQ(sp_rep.migrated, in_rep.migrated);
  EXPECT_EQ(sp_rep.let_cells, in_rep.let_cells);
  EXPECT_EQ(sp_rep.let_particles, in_rep.let_particles);

  // Identical decomposition + identical per-rank walks; only the remote-LET
  // accumulation order (arrival order) may differ, which perturbs forces at
  // rounding level — far below the ~1e-6 rank-boundary MAC error.
  ASSERT_EQ(sp_got.size(), in_got.size());
  EXPECT_LT(median_acc_error(sp_got, in_got), 1e-9);

  // Aggregated worker energy partials agree with the in-process sums.
  EXPECT_NEAR(spmd.kinetic_energy(), inproc.kinetic_energy(),
              1e-9 * std::abs(inproc.kinetic_energy()) + 1e-12);
  EXPECT_NEAR(spmd.potential_energy(), inproc.potential_energy(),
              1e-9 * std::abs(inproc.potential_energy()));
}

TEST(ClusterSpmd, SteadyStateMigrationBytesAreSmallFractionOfHub) {
  // A drifting Plummer sphere: after the bootstrap step, the Particles-class
  // wire volume (migration cells plus the particle-free StepBegin/StepResult
  // frames) must stay a small fraction of the full particle set's encoding —
  // what the deleted coordinator-owned mode shipped out (and back) every step.
  const std::size_t n = 1000;
  const ParticleSet global = make_plummer(n, 5);
  SimConfig cfg = forces_only_config(2);
  cfg.dt = 1e-3;
  const std::size_t full_set_bytes =
      wire::encode_particles(0, global, /*with_forces=*/false).size();

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  std::vector<domain::StepReport> reps;
  for (int s = 0; s < 3; ++s) reps.push_back(spmd.step());

  for (int s = 0; s < 3; ++s) EXPECT_EQ(reps[s].num_particles, n);
  // Resident particles: only boundary crossers travel once warm. The bar is
  // < 25%; in practice the ratio sits around 1%.
  for (int s = 1; s < 3; ++s)
    EXPECT_LT(reps[s].part_wire.bytes, full_set_bytes / 4) << "step " << s;
  // The domain allgathers are the price of decentralization: bounded by
  // samples, not by N.
  for (int s = 0; s < 3; ++s) EXPECT_GT(reps[s].dom_wire.frames, 0u);
}

TEST(ClusterSpmd, TrafficMatrixCoversTheProtocol) {
  const ParticleSet global = make_plummer(600, 13);
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;
  const std::uint64_t nranks = 3;

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  spmd.step();
  const domain::StepReport rep = spmd.step();  // steady state

  // Every worker posts one Migration frame to each peer and two Boundaries
  // allgather rounds; the coordinator posts one StepBegin per worker and
  // books one StepResult per worker on receive.
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kBoundaries), 2 * nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kKeySamples), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kStepBegin), nranks);
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kStepResult), nranks);
  // No O(N) Particles frames in an SPMD steady-state step.
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kParticles), 0u);
  // The matrix and the wire summaries account the same LET volume.
  EXPECT_EQ(traffic_bytes(rep, wire::FrameType::kLet), rep.let_wire.bytes);
  // Every domain, migration and LET frame went worker to worker on a pair
  // link; the control frames were the coordinator's alone.
  EXPECT_EQ(peer_frames(rep, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(peer_frames(rep, wire::FrameType::kBoundaries), 2 * nranks * (nranks - 1));
  EXPECT_EQ(peer_frames(rep, wire::FrameType::kKeySamples), nranks * (nranks - 1));
  EXPECT_GT(peer_frames(rep, wire::FrameType::kLet), 0u);
  EXPECT_EQ(peer_frames(rep, wire::FrameType::kStepBegin), 0u);
  EXPECT_EQ(peer_frames(rep, wire::FrameType::kStepResult), 0u);
}

TEST(ClusterSpmd, MultiStepDriftPreservesPopulationAndForces) {
  const std::size_t n = 800;
  const ParticleSet global = make_plummer(n, 29);
  SimConfig cfg = forces_only_config(2);
  cfg.dt = 2e-3;

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  std::uint64_t migrated_total = 0;
  for (int s = 0; s < 4; ++s) {
    const domain::StepReport rep = spmd.step();
    EXPECT_EQ(rep.num_particles, n);
    migrated_total += rep.migrated;
  }
  EXPECT_EQ(spmd.num_particles(), n);

  const ParticleSet got = spmd.gather();
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.id[i], i);  // ids unique and complete after migrations
    ASSERT_TRUE(std::isfinite(got.ax[i]) && std::isfinite(got.ay[i]) &&
                std::isfinite(got.az[i]) && std::isfinite(got.pot[i]));
  }
  (void)migrated_total;  // any value is legal; population checks are the bar
}

TEST(ClusterSpmdMesh, ReproducesInProcForcesWithNothingRoutedThroughCoordinator) {
  // Same physics as the in-process run over two steps; the coordinator never
  // forwards a frame (one addressed to another rank fails its link as
  // misrouted), so all peer traffic travelled the pair sockets.
  const ParticleSet global = make_plummer(900, 77);
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;

  domain::Simulation inproc(cfg);
  inproc.init(global);
  inproc.step();
  const domain::StepReport in_rep2 = inproc.step();
  const ParticleSet in_got = inproc.gather();

  WorkerPool pool;
  ClusterSimulation mesh(cluster_config(cfg, pool));
  mesh.init(global);
  mesh.step();
  const domain::StepReport rep2 = mesh.step();  // steady state
  const ParticleSet mesh_got = mesh.gather();

  ASSERT_EQ(mesh_got.size(), in_got.size());
  EXPECT_LT(median_acc_error(mesh_got, in_got), 1e-9);
  EXPECT_EQ(rep2.num_particles, in_rep2.num_particles);
  EXPECT_EQ(rep2.migrated, in_rep2.migrated);

  // The send-side matrix covers the full peer protocol.
  const std::uint64_t nranks = 3;
  EXPECT_EQ(traffic_frames(rep2, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep2, wire::FrameType::kBoundaries),
            2 * nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep2, wire::FrameType::kKeySamples), nranks * (nranks - 1));
}

TEST(ClusterShutdown, DeadWorkerDoesNotStrandTheOthers) {
  // Shutdown-broadcast race: rank 0 connects, says hello, links up with its
  // peers, then drops dead before serving a single frame. The coordinator's teardown must still
  // deliver Shutdown to ranks 1 and 2 — best-effort per peer — so they exit
  // cleanly instead of blocking forever on a control frame that a mid-loop
  // broadcast failure would have skipped.
  SimConfig cfg = forces_only_config(3);
  WorkerPool pool;
  std::array<std::atomic<int>, 3> exit_codes{};
  for (auto& c : exit_codes) c.store(-2);

  ClusterConfig ccfg;
  ccfg.sim = cfg;
  ccfg.spawn_workers = false;
  ccfg.on_listen = [&pool, &exit_codes](std::uint16_t port) {
    pool.threads.emplace_back([port, &exit_codes] {
      // The defector: announces rank 0, takes its Config, then drops dead
      // without ever serving a step or waiting for Shutdown.
      try {
        auto net = domain::SocketTransport::connect_mesh("127.0.0.1", port, 0,
                                                         /*listen_port=*/0);
        net->mesh_with_peers();
        (void)net->recv(0);
        exit_codes[0].store(0);
      } catch (...) {
        exit_codes[0].store(1);
      }
    });
    for (int r = 1; r < 3; ++r)
      pool.threads.emplace_back([port, r, &exit_codes] {
        try {
          exit_codes[static_cast<std::size_t>(r)].store(
              domain::run_worker("127.0.0.1", port, r, /*threads=*/1));
        } catch (...) {
          exit_codes[static_cast<std::size_t>(r)].store(1);
        }
      });
  };

  {
    ClusterSimulation sim(ccfg);
    // No step: construction (config broadcast) then teardown, with rank 0
    // already gone. The destructor must neither throw nor hang.
  }
  for (std::thread& t : pool.threads) t.join();
  EXPECT_EQ(exit_codes[1].load(), 0) << "rank 1 did not see Shutdown";
  EXPECT_EQ(exit_codes[2].load(), 0) << "rank 2 did not see Shutdown";
}

TEST(ClusterTopology, StarIsRejectedNamingMesh) {
  // A star fabric has no worker-to-worker path: the driver refuses it up
  // front, before listening, instead of failing the first peer post.
  ClusterConfig ccfg;
  ccfg.sim = forces_only_config(2);
  ccfg.topology = domain::SocketTopology::kStar;
  ccfg.spawn_workers = false;
  try {
    ClusterSimulation sim(ccfg);
    FAIL() << "a star cluster must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mesh"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace bonsai
