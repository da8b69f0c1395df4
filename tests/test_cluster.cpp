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
#include "util/check.hpp"
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

// Gathered final states must agree bit for bit: positions, velocities,
// accelerations, potentials and walk work (gather() sorts both by id).
void expect_bitwise_equal(const ParticleSet& got, const ParticleSet& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.y, want.y);
  EXPECT_EQ(got.z, want.z);
  EXPECT_EQ(got.vx, want.vx);
  EXPECT_EQ(got.vy, want.vy);
  EXPECT_EQ(got.vz, want.vz);
  EXPECT_EQ(got.ax, want.ax);
  EXPECT_EQ(got.ay, want.ay);
  EXPECT_EQ(got.az, want.az);
  EXPECT_EQ(got.pot, want.pot);
  EXPECT_EQ(got.work, want.work);
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
  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);

  // Step 0 cuts with unit weights, step 1 on the walk work step 0 counted.
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport in_rep = inproc.step();
    const domain::StepReport sp_rep = spmd.step();

    // The distributed sampling must cut the *identical* partition in both
    // drivers (same pooled samples and weights, same arithmetic), and the
    // coordinator's cross-check must have accepted it from every worker.
    const auto in_bounds = inproc.decomposition().boundaries();
    const auto sp_bounds = spmd.decomposition().boundaries();
    ASSERT_EQ(in_bounds.size(), sp_bounds.size());
    for (std::size_t i = 0; i < in_bounds.size(); ++i)
      EXPECT_EQ(in_bounds[i], sp_bounds[i]) << "step " << s << " boundary " << i;

    EXPECT_EQ(sp_rep.num_particles, in_rep.num_particles);
    EXPECT_EQ(sp_rep.migrated, in_rep.migrated);
    EXPECT_EQ(sp_rep.let_cells, in_rep.let_cells);
    EXPECT_EQ(sp_rep.let_particles, in_rep.let_particles);
  }
  const ParticleSet in_got = inproc.gather();
  const ParticleSet sp_got = spmd.gather();

  // One rank program in both drivers: identical decomposition, migration,
  // walks and source-ordered remote accumulation, so identical bits.
  expect_bitwise_equal(sp_got, in_got);

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
  // The same drifting physics as the in-process run over three steps, bit
  // for bit; the coordinator never forwards a frame (a link carries bare wire
  // frames with no destination field, and a worker posts peer frames only on
  // its pair links), so all peer traffic travelled the pair sockets.
  const ParticleSet global = make_plummer(900, 77);
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;

  domain::Simulation inproc(cfg);
  inproc.init(global);
  inproc.step();
  inproc.step();
  const domain::StepReport in_rep = inproc.step();
  const ParticleSet in_got = inproc.gather();

  WorkerPool pool;
  ClusterSimulation mesh(cluster_config(cfg, pool));
  mesh.init(global);
  mesh.step();
  mesh.step();
  const domain::StepReport rep = mesh.step();  // steady state
  const ParticleSet mesh_got = mesh.gather();

  expect_bitwise_equal(mesh_got, in_got);
  EXPECT_EQ(rep.num_particles, in_rep.num_particles);
  EXPECT_EQ(rep.migrated, in_rep.migrated);

  // The send-side matrix covers the full peer protocol.
  const std::uint64_t nranks = 3;
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kBoundaries), 2 * nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kKeySamples), nranks * (nranks - 1));
}

// A report's wire rows are the sums of its traffic matrix: LET frames are
// let_wire; Migration frames, plus over sockets the StepBegin and
// StepResult control frames, part_wire; Boundaries and KeySamples frames
// dom_wire. Its LET totals are the sums of the importers' size records.
void expect_report_matches_records(const domain::StepReport& rep, bool socket) {
  wire::WireStats let, part, dom;
  for (const wire::PeerTraffic& t : rep.traffic) {
    EXPECT_NE(t.src, t.dst);
    wire::WireStats* row = nullptr;
    switch (static_cast<wire::FrameType>(t.type)) {
      case wire::FrameType::kLet: row = &let; break;
      case wire::FrameType::kMigration: row = &part; break;
      case wire::FrameType::kStepBegin:
      case wire::FrameType::kStepResult: row = socket ? &part : nullptr; break;
      case wire::FrameType::kBoundaries:
      case wire::FrameType::kKeySamples: row = &dom; break;
      default: break;
    }
    if (row == nullptr) {
      ADD_FAILURE() << "unexpected frame type " << t.type;
      continue;
    }
    row->frames += t.frames;
    row->bytes += t.bytes;
  }
  EXPECT_EQ(let.frames, rep.let_wire.frames);
  EXPECT_EQ(let.bytes, rep.let_wire.bytes);
  EXPECT_EQ(part.frames, rep.part_wire.frames);
  EXPECT_EQ(part.bytes, rep.part_wire.bytes);
  EXPECT_EQ(dom.frames, rep.dom_wire.frames);
  EXPECT_EQ(dom.bytes, rep.dom_wire.bytes);
  if (socket) {
    EXPECT_GT(traffic_frames(rep, wire::FrameType::kStepResult), 0u);
  }

  std::uint64_t cells = 0, particles = 0, bytes = 0;
  for (const wire::LetSizeSample& l : rep.let_sizes) {
    cells += l.cells;
    particles += l.particles;
    bytes += l.bytes;
  }
  EXPECT_GT(rep.let_cells, 0u);
  EXPECT_EQ(cells, rep.let_cells);
  EXPECT_EQ(particles, rep.let_particles);
  EXPECT_EQ(bytes, rep.let_wire.bytes);
}

// Both drivers run one rank program, so the in-process traffic matrix is the
// socket run's worker-to-worker part, cell for cell — frames and bytes — and
// in both the report's wire rows and LET totals match its records.
TEST(Simulation, TrafficMatrixMatchesWireSummaries) {
  const ParticleSet global = make_plummer(900, 37);
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;

  domain::Simulation inproc(cfg);
  inproc.init(global);
  WorkerPool pool;
  ClusterSimulation mesh(cluster_config(cfg, pool));
  mesh.init(global);
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport in_rep = inproc.step();
    const domain::StepReport sock_rep = mesh.step();

    std::vector<wire::PeerTraffic> peers;
    for (const wire::PeerTraffic& t : sock_rep.traffic)
      if (t.src != domain::kCoordinatorRank && t.dst != domain::kCoordinatorRank)
        peers.push_back(t);
    ASSERT_EQ(in_rep.traffic.size(), peers.size()) << "step " << s;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const wire::PeerTraffic& a = in_rep.traffic[i];
      const wire::PeerTraffic& b = peers[i];
      EXPECT_TRUE(a.src == b.src && a.dst == b.dst && a.type == b.type &&
                  a.frames == b.frames && a.bytes == b.bytes)
          << "step " << s << " cell " << i << ": " << a.src << "->" << a.dst << " "
          << wire::frame_type_name(static_cast<wire::FrameType>(a.type));
    }

    {
      SCOPED_TRACE("in-process step " + std::to_string(s));
      expect_report_matches_records(in_rep, /*socket=*/false);
    }
    {
      SCOPED_TRACE("socket step " + std::to_string(s));
      expect_report_matches_records(sock_rep, /*socket=*/true);
    }
  }
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

TEST(ClusterSpmd, RankCountAboveWireCapIsRejected) {
  ClusterConfig ccfg;
  ccfg.sim = forces_only_config(256);
  ccfg.spawn_workers = false;
  try {
    ClusterSimulation sim(ccfg);
    FAIL() << "256 ranks must be rejected";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at most 255 ranks"), std::string::npos) << what;
    EXPECT_NE(what.find("wire Config, PeerDirectory and Snapshot"), std::string::npos) << what;
  }
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

// ---- One timing source -------------------------------------------------
// Every figure of a report comes from the ranks' spans, in both modes.

double span_seconds(const trace::Span& s) {
  return static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
}

// The invariants a folded step keeps whatever the transport:
// - per rank, the rows count no time twice: they sum to at most the rank's
//   rank.step envelope, plus the wire spans the rows book outside it (a
//   socket worker's StepBegin decode and its previous StepResult encode,
//   which run before and after the envelope); in process there are none;
// - the Wire encode / Wire decode rows are the let+part+dom wire seconds;
// - the schedule model is there and never exceeds the lockstep stage-sum.
void expect_one_timing_source(const domain::StepReport& rep, int nranks, bool socket) {
  for (int r = 0; r < nranks; ++r) {
    std::vector<trace::Span> mine;
    for (const trace::Span& s : rep.spans)
      if (s.rank == r) mine.push_back(s);
    const auto step = std::find_if(mine.begin(), mine.end(), [](const trace::Span& s) {
      return s.name == "rank.step";
    });
    ASSERT_NE(step, mine.end()) << "rank " << r;
    EXPECT_EQ(std::count_if(mine.begin(), mine.end(),
                            [](const trace::Span& s) { return s.name == "rank.step"; }),
              1);
    double outside = 0.0;
    for (const trace::Span& s : mine) {
      EXPECT_EQ(s.step, rep.step) << s.name;
      if (s.begin_ns < step->begin_ns || s.end_ns > step->end_ns) {
        EXPECT_EQ(s.name.rfind("wire.", 0), 0u) << s.name << " outside rank.step";
        outside += span_seconds(s);
      }
    }
    if (!socket) {
      EXPECT_EQ(outside, 0.0) << "rank " << r;
    }
    EXPECT_LE(domain::stage_rows(mine).total(), span_seconds(*step) + outside + 1e-12)
        << "rank " << r;
  }
  const double encode = rep.let_wire.encode_seconds + rep.part_wire.encode_seconds +
                        rep.dom_wire.encode_seconds;
  const double decode = rep.let_wire.decode_seconds + rep.part_wire.decode_seconds +
                        rep.dom_wire.decode_seconds;
  EXPECT_NEAR(rep.sum_times.get("Wire encode"), encode, 1e-12);
  EXPECT_NEAR(rep.sum_times.get("Wire decode"), decode, 1e-12);
  EXPECT_GT(encode, 0.0);
  EXPECT_GT(decode, 0.0);
  EXPECT_GT(rep.critical_path, 0.0);
  EXPECT_LE(rep.critical_path, rep.sequential_model * (1.0 + 1e-9));
  EXPECT_LE(rep.gravity_critical, rep.gravity_sequential * (1.0 + 1e-9));
  ASSERT_TRUE(rep.metrics.gauges.count("schedule.overlap_efficiency"));
  EXPECT_GE(rep.metrics.gauges.at("schedule.overlap_efficiency"), 1.0 - 1e-9);
}

TEST(OneTimingSource, InProcessStepRowsComeFromSpans) {
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;
  domain::Simulation sim(cfg);
  sim.init(make_plummer(1200, 41));
  for (int s = 0; s < 2; ++s) expect_one_timing_source(sim.step(), 3, /*socket=*/false);
}

TEST(OneTimingSource, SocketStepRowsAndScheduleComeFromSpans) {
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;
  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(make_plummer(1200, 41));
  // The second step books the first step's StepResult encode.
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport rep = spmd.step();
    expect_one_timing_source(rep, 3, /*socket=*/true);
    const auto booked_late = std::count_if(
        rep.spans.begin(), rep.spans.end(),
        [](const trace::Span& sp) { return sp.name == "wire.encode.step_result"; });
    EXPECT_EQ(booked_late, s == 0 ? 0 : 3) << "step " << s;
  }
}

}  // namespace
}  // namespace bonsai
