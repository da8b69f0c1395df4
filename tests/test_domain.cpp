// Domain decomposition, particle exchange, and Local Essential Tree
// correctness: the multi-rank pipeline must preserve the particle set
// bit-for-bit across exchanges and reproduce single-tree forces within the
// group-MAC error envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domain/channel.hpp"
#include "domain/decomposition.hpp"
#include "domain/let.hpp"
#include "domain/simulation.hpp"
#include "domain/transport.hpp"
#include "same_columns.hpp"
#include "tree/direct.hpp"
#include "tree/octree.hpp"
#include "tree/traverse.hpp"
#include "util/check.hpp"
#include "util/compare.hpp"
#include "util/ic.hpp"
#include "util/stats.hpp"

namespace bonsai {
namespace {

using domain::Decomposition;
using domain::LetTree;
using domain::SimConfig;
using domain::Simulation;

// Reference forces from the single global tree's group walk (drained by the
// scalar oracle unless `backend` says otherwise), returned in particle-id
// order so they align with Simulation::gather().
ParticleSet global_tree_forces(const ParticleSet& global, double theta, double eps,
                               int nleaf = Octree::kDefaultNLeaf, int ncrit = 64,
                               KernelBackend backend = KernelBackend::kScalar) {
  ParticleSet ref = global;
  sfc::KeySpace space(ref.bounds());
  sort_by_keys(ref, space);
  Octree tree;
  tree.build(ref, nleaf);
  tree.compute_properties(ref, theta);
  auto groups = make_groups(ref, ncrit);
  TraversalConfig cfg;
  cfg.theta = theta;
  cfg.eps = eps;
  cfg.ncrit = ncrit;
  cfg.backend = backend;
  ref.zero_forces();
  InteractionQueue queue;
  traverse_groups_batched(tree.view(ref), ref, groups, cfg, /*self=*/true, queue);

  std::vector<std::uint32_t> perm(ref.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](std::uint32_t a, std::uint32_t b) { return ref.id[a] < ref.id[b]; });
  ref.apply_permutation(perm);
  return ref;
}

TEST(Decomposition, UniformCoversKeySpace) {
  const Decomposition d = Decomposition::uniform(7);
  ASSERT_EQ(d.num_ranks(), 7);
  EXPECT_EQ(d.begin_key(0), 0u);
  EXPECT_EQ(d.end_key(6), sfc::kKeyEnd);
  for (int r = 0; r + 1 < 7; ++r) EXPECT_EQ(d.end_key(r), d.begin_key(r + 1));
  EXPECT_EQ(d.rank_of(0), 0);
  EXPECT_EQ(d.rank_of(sfc::kKeyEnd - 1), 6);
}

TEST(Decomposition, RankOfRespectsBoundaries) {
  const sfc::Key b1 = sfc::kKeyEnd / 4, b2 = sfc::kKeyEnd / 2;
  const Decomposition d = Decomposition::from_boundaries({0, b1, b2, sfc::kKeyEnd});
  EXPECT_EQ(d.rank_of(0), 0);
  EXPECT_EQ(d.rank_of(b1 - 1), 0);
  EXPECT_EQ(d.rank_of(b1), 1);  // boundary key belongs to the upper rank
  EXPECT_EQ(d.rank_of(b2 - 1), 1);
  EXPECT_EQ(d.rank_of(b2), 2);
  EXPECT_EQ(d.rank_of(sfc::kKeyEnd - 1), 2);
}

TEST(Decomposition, SampledBoundariesBalanceClusteredSet) {
  const ParticleSet parts = make_plummer(4096, 101);
  sfc::KeySpace space(parts.bounds());
  const int nranks = 8;
  const auto samples = domain::sample_keys(parts, space, /*stride=*/1);
  const Decomposition d = Decomposition::from_samples(samples, nranks);

  std::vector<std::size_t> counts(nranks, 0);
  for (std::size_t i = 0; i < parts.size(); ++i)
    ++counts[static_cast<std::size_t>(d.rank_of(space.key(parts.pos(i))))];
  const double mean = static_cast<double>(parts.size()) / nranks;
  for (int r = 0; r < nranks; ++r) {
    EXPECT_GT(static_cast<double>(counts[r]), 0.5 * mean) << "rank " << r;
    EXPECT_LT(static_cast<double>(counts[r]), 1.5 * mean) << "rank " << r;
  }
}

TEST(Decomposition, EmptySamplesFallBackToUniform) {
  const Decomposition d = Decomposition::from_samples({}, 4);
  const Decomposition u = Decomposition::uniform(4);
  ASSERT_EQ(d.num_ranks(), 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(d.begin_key(r), u.begin_key(r));
}

TEST(Exchange, OwnershipAndBitForBitConservation) {
  const std::size_t n = 2000;
  const int nranks = 5;
  const ParticleSet global = make_plummer(n, 17);

  // Scatter round-robin (deliberately wrong owners), then exchange.
  std::vector<ParticleSet> sets(nranks);
  for (std::size_t i = 0; i < n; ++i) sets[i % nranks].add(global.get(i));
  sfc::KeySpace space(global.bounds());
  std::vector<sfc::Key> samples;
  for (const auto& s : sets) {
    const auto sk = domain::sample_keys(s, space, /*stride=*/1);
    samples.insert(samples.end(), sk.begin(), sk.end());
  }
  const Decomposition d = Decomposition::from_samples(samples, nranks);
  domain::InProcTransport transport(nranks);
  const auto stats = domain::exchange(sets, space, d, transport);
  EXPECT_EQ(stats.total, n);
  EXPECT_GT(stats.migrated, 0u);

  // Every particle owned by exactly one rank, and by the right one.
  std::vector<int> seen(n, 0);
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < sets[r].size(); ++i) {
      const auto id = sets[r].id[i];
      ASSERT_LT(id, n);
      ++seen[static_cast<std::size_t>(id)];
      EXPECT_EQ(sets[r].key[i], space.key(sets[r].pos(i)));
      EXPECT_EQ(d.rank_of(sets[r].key[i]), r);
    }
  }
  for (std::size_t id = 0; id < n; ++id) EXPECT_EQ(seen[id], 1) << "id " << id;

  // Bit-for-bit state preservation: reassemble by id and compare exactly.
  ParticleSet by_id(n);
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < sets[r].size(); ++i) {
      const Particle p = sets[r].get(i);
      by_id.set_pos(p.id, p.pos);
      by_id.set_vel(p.id, p.vel);
      by_id.mass[p.id] = p.mass;
    }
  }
  double mass_before = 0.0, mass_after = 0.0;
  Vec3d mom_before{}, mom_after{};
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(by_id.pos(i), global.pos(i));
    EXPECT_EQ(by_id.vel(i), global.vel(i));
    EXPECT_EQ(by_id.mass[i], global.mass[i]);
    mass_before += global.mass[i];
    mass_after += by_id.mass[i];
    mom_before += global.mass[i] * global.vel(i);
    mom_after += by_id.mass[i] * by_id.vel(i);
  }
  EXPECT_EQ(mass_before, mass_after);  // identical summands, identical order
  EXPECT_EQ(mom_before, mom_after);
}

TEST(Exchange, ResidentPathMatchesCentralizedExchangeBitForBit) {
  // The SPMD alltoallv cell must reproduce the centralized exchange()
  // exactly: same per-rank populations, same ordering, same keys. Run all
  // ranks' resident exchanges concurrently over one transport (posts are
  // nonblocking, receives block on peers — exactly the worker topology).
  const std::size_t n = 1500;
  const int nranks = 4;
  const ParticleSet global = make_plummer(n, 53);
  std::vector<ParticleSet> central(nranks), resident(nranks);
  for (std::size_t i = 0; i < n; ++i) {
    central[i % nranks].add(global.get(i));
    resident[i % nranks].add(global.get(i));
  }
  sfc::KeySpace space(global.bounds());
  std::vector<sfc::Key> samples;
  for (const auto& s : central) {
    const auto sk = domain::sample_keys(s, space, /*stride=*/3);
    samples.insert(samples.end(), sk.begin(), sk.end());
  }
  const Decomposition d = Decomposition::from_samples(samples, nranks);

  domain::InProcTransport central_net(nranks);
  const domain::ExchangeStats central_stats = domain::exchange(central, space, d, central_net);

  // The rank program's key pass precedes the migration.
  for (ParticleSet& s : resident)
    for (std::size_t i = 0; i < s.size(); ++i) s.key[i] = space.key(s.pos(i));
  domain::InProcTransport transport(nranks);
  domain::MigrationExchange mex(transport, nranks);
  std::vector<domain::ExchangeStats> stats(nranks);
  std::vector<std::thread> ranks;
  for (int r = 0; r < nranks; ++r)
    ranks.emplace_back([&, r] {
      stats[static_cast<std::size_t>(r)] = domain::exchange_resident(
          resident[static_cast<std::size_t>(r)], r, d, mex, /*step=*/7);
    });
  for (std::thread& t : ranks) t.join();

  std::uint64_t migrated = 0, total = 0;
  for (int r = 0; r < nranks; ++r) {
    migrated += stats[static_cast<std::size_t>(r)].migrated;
    total += stats[static_cast<std::size_t>(r)].total;
    ASSERT_EQ(resident[r].size(), central[r].size()) << "rank " << r;
    EXPECT_EQ(resident[r].x, central[r].x);  // bit-for-bit, order included
    EXPECT_EQ(resident[r].vz, central[r].vz);
    EXPECT_EQ(resident[r].mass, central[r].mass);
    EXPECT_EQ(resident[r].id, central[r].id);
    EXPECT_EQ(resident[r].key, central[r].key);
  }
  EXPECT_EQ(migrated, central_stats.migrated);
  EXPECT_EQ(total, central_stats.total);
}

TEST(Exchange, NothingMovesLeavesEveryColumnUnchanged) {
  // Two ranks already holding their slices of a cut: no particle leaves,
  // none arrives, and the resident sets keep every column bit for bit
  // (forces and work included), on one rank and on two.
  ParticleSet global = make_plummer(3000, 67);
  const sfc::KeySpace space(global.bounds());
  sort_by_keys(global, space);
  for (std::size_t i = 0; i < global.size(); ++i) {
    global.ax[i] = 1.0 + static_cast<double>(i);
    global.work[i] = 2.0 + static_cast<double>(i);
  }
  const std::size_t half = global.size() / 2;
  std::vector<ParticleSet> sets(2);
  std::vector<std::uint32_t> rows(global.size());
  std::iota(rows.begin(), rows.end(), 0u);
  sets[0].append(global, std::span(rows).first(half));
  sets[1].append(global, std::span(rows).subspan(half));
  const Decomposition cut = Decomposition::from_boundaries({0, global.key[half], sfc::kKeyEnd});

  for (const int nranks : {1, 2}) {
    std::vector<ParticleSet> resident =
        nranks == 1 ? std::vector<ParticleSet>{global} : sets;
    const Decomposition d = nranks == 1 ? Decomposition() : cut;
    domain::InProcTransport transport(nranks);
    domain::MigrationExchange mex(transport, nranks);
    std::vector<domain::ExchangeStats> stats(static_cast<std::size_t>(nranks));
    std::vector<std::thread> ranks;
    for (int r = 0; r < nranks; ++r)
      ranks.emplace_back([&, r] {
        stats[static_cast<std::size_t>(r)] = domain::exchange_resident(
            resident[static_cast<std::size_t>(r)], r, d, mex, /*step=*/3);
      });
    for (std::thread& t : ranks) t.join();
    for (int r = 0; r < nranks; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      EXPECT_EQ(stats[ur].migrated, 0u);
      EXPECT_EQ(stats[ur].total, resident[ur].size());
      expect_same_columns(resident[ur], nranks == 1 ? global : sets[ur],
                          std::to_string(nranks) + " rank(s), rank " + std::to_string(r));
    }
  }
}

TEST(Let, DistantDomainPrunesToSingleMultipole) {
  ParticleSet sources = make_plummer(2000, 29);
  sfc::KeySpace space(sources.bounds());
  sort_by_keys(sources, space);
  Octree tree;
  tree.build(sources);
  tree.compute_properties(sources, 0.4);

  const AABB far{{100, 100, 100}, {101, 101, 101}};
  const LetTree let = domain::build_let(tree.view(sources), far);
  ASSERT_EQ(let.num_cells(), 1u);
  EXPECT_EQ(let.nodes[0].kind, NodeKind::kMultipoleLeaf);
  EXPECT_EQ(let.num_particles(), 0u);
  EXPECT_FALSE(let.empty());  // a bare multipole still exerts force

  // The single-multipole LET reproduces the far field.
  ParticleSet targets;
  Xoshiro256 rng(33);
  for (int i = 0; i < 100; ++i)
    targets.add({Vec3d{100.5, 100.5, 100.5} + rng.unit_sphere() * 0.4, {0, 0, 0}, 1.0,
                 static_cast<std::uint64_t>(i)});
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  InteractionQueue queue;
  traverse_groups_batched(let.view(), targets, groups, cfg, /*self=*/false, queue);

  ParticleSet ref = targets;
  ref.zero_forces();
  direct_forces_between(sources, ref, 0.0);
  EXPECT_LT(median_acc_error(targets, ref), 1e-3);
}

TEST(Let, NearbyDomainExportIsCompressedAndAccurate) {
  // Left cloud vs the bounds of the x > 2 tail: close enough that boundary
  // leaves must ship particles, far enough that interior branches prune.
  const ParticleSet global = make_plummer(4000, 31);
  ParticleSet left, right;
  for (std::size_t i = 0; i < global.size(); ++i) {
    if (global.x[i] < 0.0) left.add(global.get(i));
    if (global.x[i] > 2.0) right.add(global.get(i));
  }
  ASSERT_GT(left.size(), 100u);
  ASSERT_GT(right.size(), 100u);

  sfc::KeySpace space(global.bounds());
  sort_by_keys(left, space);
  Octree tree;
  tree.build(left);
  tree.compute_properties(left, 0.4);

  const LetTree let = domain::build_let(tree.view(left), right.bounds());
  // The essential tree must be a strict compression of the full local tree.
  EXPECT_LT(let.num_particles(), left.size());
  EXPECT_LT(let.num_cells(), tree.nodes().size());

  right.zero_forces();
  auto groups = make_groups(right, 64);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  InteractionQueue queue;
  traverse_groups_batched(let.view(), right, groups, cfg, /*self=*/false, queue);

  ParticleSet ref = right;
  ref.zero_forces();
  direct_forces_between(left, ref, cfg.eps);
  EXPECT_LT(median_acc_error(right, ref), 1e-3);
}

// A failing lane pays the LETs it owes its peers as default LetTrees; the
// receiver walks them like any other import, so they must add nothing.
TEST(Let, DefaultLetIsEmptyAndExertsNoForce) {
  const LetTree none;
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.view().empty());

  ParticleSet targets = make_plummer(200, 37);
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  InteractionQueue queue;
  const InteractionStats stats =
      traverse_groups_batched(none.view(), targets, groups, cfg, /*self=*/false, queue);
  EXPECT_EQ(stats.p2p, 0u);
  EXPECT_EQ(stats.p2c, 0u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(targets.ax[i], 0.0);
    EXPECT_EQ(targets.ay[i], 0.0);
    EXPECT_EQ(targets.az[i], 0.0);
    EXPECT_EQ(targets.pot[i], 0.0);
  }
}

// The pipeline must reproduce the global batched group walk (same kernel
// backend as the Simulation default) bit-for-bit on one rank: no LETs exist,
// so it adds only the executor lane around the same stage calls (the
// "single-rank case under the async path" contract). Batches drain in group
// walk order regardless of which pool thread runs the group, so the serial
// reference walk is bitwise comparable. The parameter is whether the step
// reports a schedule model; every step of the async pipeline, the only
// schedule, does.
class OneRankExactness : public ::testing::TestWithParam<bool> {};

TEST_P(OneRankExactness, MatchesGlobalGroupWalkExactly) {
  const ParticleSet global = make_plummer(1500, 23);
  SimConfig cfg;
  cfg.nranks = 1;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(global);
  const domain::StepReport rep = sim.step();
  EXPECT_EQ(rep.critical_path > 0.0, GetParam());
  EXPECT_EQ(rep.let_cells, 0u);  // nothing to exchange with yourself
  const ParticleSet got = sim.gather();

  const ParticleSet ref = global_tree_forces(global, cfg.theta, cfg.eps,
                                             Octree::kDefaultNLeaf, 64, cfg.kernel);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got.id[i], ref.id[i]);
    EXPECT_DOUBLE_EQ(got.ax[i], ref.ax[i]);
    EXPECT_DOUBLE_EQ(got.ay[i], ref.ay[i]);
    EXPECT_DOUBLE_EQ(got.az[i], ref.az[i]);
    EXPECT_DOUBLE_EQ(got.pot[i], ref.pot[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, OneRankExactness, ::testing::Values(true),
                         [](const ::testing::TestParamInfo<bool>&) { return "Async"; });

// The rank cap comes from the wire: the Config, PeerDirectory and Snapshot
// decoders reject rank counts above 255, so a run with more ranks could never
// be shipped to workers or checkpointed. The error must say so.
TEST(Simulation, RankCountAboveWireCapIsRejected) {
  SimConfig cfg;
  cfg.nranks = 256;
  try {
    Simulation sim(cfg);
    FAIL() << "256 ranks must be rejected";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at most 255 ranks"), std::string::npos) << what;
    EXPECT_NE(what.find("wire Config, PeerDirectory and Snapshot"), std::string::npos) << what;
  }
}

TEST(Simulation, MultiRankForcesMatchSingleTreeAndDirect) {
  const ParticleSet global = make_plummer(3000, 19);
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(global);
  const domain::StepReport rep = sim.step();
  EXPECT_EQ(rep.num_particles, global.size());
  EXPECT_GT(rep.let_cells, 0u);
  const ParticleSet got = sim.gather();
  ASSERT_EQ(got.size(), global.size());

  // Against the single global tree's group walk: only the group-MAC error of
  // differing group/boundary cuts remains.
  const ParticleSet tree_ref = global_tree_forces(global, cfg.theta, cfg.eps);
  EXPECT_LT(median_acc_error(got, tree_ref), 5e-4);

  // Against direct summation: the same theta envelope the single-device
  // traversal tests enforce (theta = 0.4 -> 2e-4 median).
  ParticleSet direct_ref = global;
  direct_forces(direct_ref, cfg.eps);
  EXPECT_LT(median_acc_error(got, direct_ref), 2e-4);
}

TEST(Simulation, DegenerateDistributionLeavesRanksEmpty) {
  // Particles at only three distinct positions: most of the eight ranks end
  // up empty, and the pipeline must still produce direct-sum forces.
  ParticleSet global;
  const Vec3d sites[3] = {{0, 0, 0}, {1, 0, 0}, {0.4, 0.7, 0.2}};
  for (std::size_t i = 0; i < 99; ++i)
    global.add({sites[i % 3], {0, 0, 0}, 0.01, i});

  SimConfig cfg;
  cfg.nranks = 8;
  cfg.theta = 0.4;
  cfg.eps = 0.1;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(global);
  sim.step();

  int empty_ranks = 0;
  for (int r = 0; r < cfg.nranks; ++r)
    if (sim.rank(r).parts().empty()) ++empty_ranks;
  EXPECT_GT(empty_ranks, 0);

  const ParticleSet got = sim.gather();
  ParticleSet ref = global;
  direct_forces(ref, cfg.eps);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(norm(got.acc(i) - ref.acc(i)), 0.0, 1e-6 * std::max(1.0, norm(ref.acc(i))));
}

TEST(Simulation, AsyncStepReportsScheduleModel) {
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(make_plummer(2000, 3));
  const domain::StepReport rep = sim.step();

  EXPECT_GT(rep.critical_path, 0.0);
  EXPECT_GT(rep.sequential_model, 0.0);
  // Pipelining removes barrier wait but never adds work, so the modeled
  // critical path can never exceed the lockstep stage-sum (see schedule.hpp).
  EXPECT_LE(rep.critical_path, rep.sequential_model * (1.0 + 1e-9));
  EXPECT_LE(rep.gravity_critical, rep.gravity_sequential * (1.0 + 1e-9));
  // Equal up to summation order when one rank is the slowest in every stage.
  EXPECT_GE(rep.overlap_efficiency(), 1.0 - 1e-9);
}

TEST(Simulation, AsyncLaneFailurePropagatesInsteadOfHanging) {
  // ncrit = 0 makes make_groups throw inside every lane's build stage. The
  // driver must surface the error: a failing lane closes every endpoint, so
  // peers blocked in a receive fail fast — without that this test hangs
  // (and trips the ctest timeout) instead of throwing.
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.ncrit = 0;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(make_plummer(200, 9));
  EXPECT_THROW(sim.step(), std::exception);
}

TEST(Simulation, DomainPhaseFailureSurfacesInsteadOfHanging) {
  // An out-of-range snap level makes every lane's cut throw inside the
  // redistribute phase, after the allgathers: the first error surfaces as
  // the CheckError it is, and no lane is left blocked on a peer's frame.
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.snap_level = sfc::kMaxLevel + 1;
  Simulation sim(cfg);
  EXPECT_THROW(sim.init(make_plummer(200, 9)), CheckError);
}

TEST(Simulation, RestoredRunCutsOnCarriedWorkLikeUninterruptedRun) {
  // The cut weighs the walk work each particle carries from the last force
  // pass, and a checkpoint carries that column: the restored run's next step
  // cuts the same boundaries and computes the same particles as the run that
  // never stopped. Snapping is off so the cut is sample-exact; the
  // unit-weight cut of the same sets differs, so the weights are in play.
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.dt = 1e-3;
  cfg.snap_level = 0;
  cfg.threads_per_rank = 1;
  Simulation run(cfg);
  run.init(make_plummer(3000, 61));
  for (int s = 0; s < 2; ++s) run.step();
  const std::vector<ParticleSet> ckpt = run.checkpoint_sets();

  Simulation restored(cfg);
  restored.restore(ckpt, run.next_step());
  restored.step();
  run.step();
  const auto a = run.decomposition().boundaries();
  const auto b = restored.decomposition().boundaries();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  const ParticleSet want = run.gather();
  const ParticleSet got = restored.gather();
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.vx, want.vx);
  EXPECT_EQ(got.ax, want.ax);
  EXPECT_EQ(got.pot, want.pot);
  EXPECT_EQ(got.work, want.work);

  std::vector<const ParticleSet*> sets;
  for (const ParticleSet& s : ckpt) sets.push_back(&s);
  const domain::DomainUpdate unit =
      domain::update_domain(sets, cfg.nranks, sfc::CurveType::kHilbert, cfg.samples_per_rank,
                            cfg.snap_level, {});
  const auto u = unit.decomp.boundaries();
  EXPECT_FALSE(std::equal(a.begin(), a.end(), u.begin(), u.end()));
}

TEST(Simulation, SummedWorkEqualsUsefulFlops) {
  // Every force pass spreads each group's useful flops over its particles,
  // so the work column sums to the step's kernel.flops.useful counter.
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(make_plummer(3000, 62));
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport rep = sim.step();
    const double useful = rep.metrics.counters.at("kernel.flops.useful");
    ASSERT_GT(useful, 0.0);
    const ParticleSet got = sim.gather();
    const double work = std::accumulate(got.work.begin(), got.work.end(), 0.0);
    EXPECT_NEAR(work, useful, 1e-12 * useful);
  }
}

TEST(Simulation, WorkColumnIsIndependentOfThreadCount) {
  // Useful interaction counts do not depend on how the staging queues flush,
  // so the work column (and with it every later cut) is the same whatever
  // the device thread count. So is every other column: the key pass and the
  // group walk split their work across a rank's device threads without
  // changing any result. After 3 steps the whole
  // state is bitwise the same at 1 and at 4 threads per rank (threads_for
  // caps the 4 at the host's share).
  for (const int nranks : {1, 2}) {
    std::vector<ParticleSet> runs;
    for (const std::size_t threads : {1, 4}) {
      SimConfig cfg;
      cfg.nranks = nranks;
      cfg.dt = 1e-3;
      cfg.threads_per_rank = threads;
      Simulation sim(cfg);
      sim.init(make_plummer(3000, 63));
      for (int s = 0; s < 3; ++s) sim.step();
      runs.push_back(sim.gather());
    }
    expect_same_columns(runs[0], runs[1], std::to_string(nranks) + " rank(s)");
  }
}

TEST(Simulation, ZeroParticlesUnderAsyncPath) {
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(ParticleSet{});
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport rep = sim.step();
    EXPECT_EQ(rep.num_particles, 0u);
    EXPECT_EQ(rep.let_cells, 0u);
    std::ostringstream os;
    print_step_report(rep, os);  // no divisions by zero, no NaNs
    EXPECT_NE(os.str().find("n=0"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
  }
  EXPECT_EQ(sim.gather().size(), 0u);
  EXPECT_EQ(sim.kinetic_energy(), 0.0);
}

// Keys of every JSON object opened at nesting depth `depth` (the outermost
// value is depth 1), one list per object in document order. Enough JSON for
// the --bench writer, whose names carry no escaped quotes.
std::vector<std::vector<std::string>> keys_at_depth(const std::string& json,
                                                    std::size_t depth) {
  std::vector<std::vector<std::string>> out;
  std::vector<char> open;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      const std::size_t end = json.find('"', i + 1);
      const std::size_t next = json.find_first_not_of(' ', end + 1);
      if (next != std::string::npos && json[next] == ':' && open.size() == depth &&
          open.back() == '{')
        out.back().push_back(json.substr(i + 1, end - i - 1));
      i = end;
    } else if (c == '{' || c == '[') {
      open.push_back(c);
      if (c == '{' && open.size() == depth) out.emplace_back();
    } else if (c == '}' || c == ']') {
      open.pop_back();
    }
  }
  return out;
}

TEST(Simulation, BenchJsonIsWellFormed) {
  SimConfig cfg;
  cfg.nranks = 2;
  cfg.theta = 0.4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(make_plummer(500, 11));
  std::vector<domain::StepReport> reports;
  reports.push_back(sim.step());
  reports.push_back(sim.step());
  domain::RunInfo info;
  info.ranks = cfg.nranks;
  info.num_particles = 500;
  info.theta = cfg.theta;
  std::ostringstream os;
  write_step_report_json(info, reports, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the object
  EXPECT_NE(json.find("\"schema\": 6"), std::string::npos);
  // Schema 6: the document is schema/config/steps, a step is its number and
  // its metrics block, and the config names no topology or cluster (the
  // transport determines both), no balance (there is one mode) and no LET
  // cache (every LET ships as a full frame).
  const std::vector<std::vector<std::string>> top = {{"schema", "config", "steps"}};
  EXPECT_EQ(keys_at_depth(json, 1), top);
  const std::vector<std::vector<std::string>> config = {
      {"ranks", "num_particles", "theta", "transport", "kernel", "kernel_isa",
       "wire_version"}};
  EXPECT_EQ(keys_at_depth(json, 2), config);
  const std::vector<std::string> step = {"step", "metrics"};
  const std::vector<std::vector<std::string>> steps = keys_at_depth(json, 3);
  ASSERT_EQ(steps.size(), 2u);
  for (const auto& keys : steps) EXPECT_EQ(keys, step);
  EXPECT_NE(json.find("\"config\": {\"ranks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"transport\": \"inproc\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_version\": " + std::to_string(domain::wire::kVersion)),
            std::string::npos);
  EXPECT_NE(json.find(std::string("\"kernel_isa\": \"") + kernel_isa() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"step\": 0, \"metrics\": {\"counters\""), std::string::npos);
  EXPECT_NE(json.find("{\"step\": 1, \"metrics\": {\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"schedule.overlap_efficiency\""), std::string::npos);
  EXPECT_NE(json.find("\"stage.sum_s{stage=Gravity local}\""), std::string::npos);
  EXPECT_NE(json.find("\"wire.let.bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel.flops.useful\""), std::string::npos);
  EXPECT_NE(json.find("\"gravity.gflops_device\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

// The metrics block is the whole --bench step, so it must hold every value
// the schema-3 step fields printed from the StepReport.
TEST(Simulation, StepMetricsHoldEveryReportValue) {
  SimConfig cfg;
  cfg.nranks = 2;
  cfg.theta = 0.4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(make_plummer(2000, 23));
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport rep = sim.step();
    const metrics::Snapshot& m = rep.metrics;
    const auto counter = [&](const std::string& name) {
      const auto it = m.counters.find(name);
      EXPECT_NE(it, m.counters.end()) << "no counter " << name;
      return it == m.counters.end() ? -1.0 : it->second;
    };
    const auto gauge = [&](const std::string& name) {
      const auto it = m.gauges.find(name);
      EXPECT_NE(it, m.gauges.end()) << "no gauge " << name;
      return it == m.gauges.end() ? -1.0 : it->second;
    };
    const auto num = [](std::uint64_t v) { return static_cast<double>(v); };

    EXPECT_EQ(gauge("step.num_particles"), num(rep.num_particles));
    EXPECT_EQ(counter("step.migrated"), num(rep.migrated));
    EXPECT_EQ(counter("step.let_cells"), num(rep.let_cells));
    EXPECT_EQ(counter("step.let_particles"), num(rep.let_particles));
    EXPECT_EQ(gauge("step.elapsed_s"), rep.elapsed);

    // Per-class wire frames, bytes and encode/decode seconds.
    const std::pair<std::string, const domain::wire::WireStats*> classes[] = {
        {"let", &rep.let_wire}, {"part", &rep.part_wire}, {"dom", &rep.dom_wire}};
    for (const auto& [kind, ws] : classes) {
      const std::string base = "wire." + kind;
      EXPECT_EQ(counter(base + ".frames"), num(ws->frames));
      EXPECT_EQ(counter(base + ".bytes"), num(ws->bytes));
      EXPECT_EQ(counter(base + ".encode_s"), ws->encode_seconds);
      EXPECT_EQ(counter(base + ".decode_s"), ws->decode_seconds);
    }
    EXPECT_GT(rep.let_wire.frames, 0u);

    // Interactions, flops, batches and the rates the text report prints.
    EXPECT_EQ(counter("gravity.local.p2p"), num(rep.local_stats.p2p));
    EXPECT_EQ(counter("gravity.local.p2c"), num(rep.local_stats.p2c));
    EXPECT_EQ(counter("gravity.remote.p2p"), num(rep.remote_stats.p2p));
    EXPECT_EQ(counter("gravity.remote.p2c"), num(rep.remote_stats.p2c));
    const InteractionStats stats = rep.stats();
    ASSERT_GT(stats.batches(), 0u);
    EXPECT_EQ(counter("kernel.flops.useful"), num(stats.useful_flops()));
    EXPECT_EQ(counter("kernel.flops.padded"), num(stats.padded_flops()));
    EXPECT_EQ(counter("kernel.batch.count{kind=pp}"), num(stats.pp_batches));
    EXPECT_EQ(counter("kernel.batch.count{kind=pc}"), num(stats.pc_batches));
    EXPECT_EQ(gauge("kernel.batch.fill_ratio"), stats.fill_ratio());
    const double grav_sum =
        rep.sum_times.get("Gravity local") + rep.sum_times.get("Gravity remote");
    const double grav_max =
        rep.max_times.get("Gravity local") + rep.max_times.get("Gravity remote");
    EXPECT_EQ(gauge("gravity.gflops_device"), gflops_rate(stats.flops(), grav_sum));
    EXPECT_EQ(gauge("gravity.gflops_parallel"), gflops_rate(stats.flops(), grav_max));

    // Every stage row, max and sum.
    ASSERT_FALSE(rep.max_times.entries().empty());
    for (const auto& e : rep.max_times.entries())
      EXPECT_EQ(gauge("stage.max_s{stage=" + e.name + "}"), e.seconds);
    for (const auto& e : rep.sum_times.entries())
      EXPECT_EQ(gauge("stage.sum_s{stage=" + e.name + "}"), e.seconds);

    // The schedule model.
    EXPECT_EQ(gauge("schedule.critical_path_s"), rep.critical_path);
    EXPECT_EQ(gauge("schedule.sequential_model_s"), rep.sequential_model);
    EXPECT_EQ(gauge("schedule.gravity_critical_s"), rep.gravity_critical);
    EXPECT_EQ(gauge("schedule.gravity_sequential_s"), rep.gravity_sequential);
    EXPECT_EQ(gauge("schedule.overlap_efficiency"), rep.overlap_efficiency());

    // Every traffic cell, and no other.
    ASSERT_FALSE(rep.traffic.empty());
    for (const domain::wire::PeerTraffic& t : rep.traffic) {
      const std::string cell =
          "{src=" + std::to_string(t.src) + ",dst=" + std::to_string(t.dst) + ",type=" +
          domain::wire::frame_type_name(static_cast<domain::wire::FrameType>(t.type)) + "}";
      EXPECT_EQ(counter("transport.post.frames" + cell), num(t.frames));
      EXPECT_EQ(counter("transport.post.bytes" + cell), num(t.bytes));
    }
    const auto cells = std::count_if(m.counters.begin(), m.counters.end(), [](const auto& c) {
      return c.first.rfind("transport.post.bytes{", 0) == 0;
    });
    EXPECT_EQ(static_cast<std::size_t>(cells), rep.traffic.size());

    // One LET size sample per imported LET.
    ASSERT_FALSE(rep.let_sizes.empty());
    ASSERT_TRUE(m.histograms.count("let.size.bytes"));
    EXPECT_EQ(m.histograms.at("let.size.bytes").count, rep.let_sizes.size());
  }
}

TEST(Decomposition, WeightedSamplesShiftBoundariesTowardCheapRegions) {
  // 1000 uniform keys; the lower half carries 3x the cost per sample. With
  // two ranks the equal-weight cut lands where cumulative weight reaches
  // half of 3*500 + 500 = 2000, i.e. sample ~333 — well below the midpoint.
  std::vector<Decomposition::WeightedKey> samples;
  const sfc::Key span = sfc::kKeyEnd / 1000;
  for (int i = 0; i < 1000; ++i)
    samples.push_back({span * static_cast<sfc::Key>(i), i < 500 ? 3.0 : 1.0});
  const Decomposition d =
      Decomposition::from_weighted_samples(samples, 2, /*snap_level=*/0);
  const sfc::Key cut = d.end_key(0);
  EXPECT_GT(cut, span * 300);
  EXPECT_LT(cut, span * 370);

  // Uniform weights reproduce the equal-count quantile cut.
  for (auto& s : samples) s.weight = 1.0;
  const Decomposition u =
      Decomposition::from_weighted_samples(samples, 2, /*snap_level=*/0);
  EXPECT_GT(u.end_key(0), span * 480);
  EXPECT_LT(u.end_key(0), span * 520);
}

TEST(Decomposition, WeightlessSamplesFallBackToCountQuantiles) {
  std::vector<Decomposition::WeightedKey> weighted;
  std::vector<sfc::Key> plain;
  const sfc::Key span = sfc::kKeyEnd / 64;
  for (int i = 0; i < 64; ++i) {
    weighted.push_back({span * static_cast<sfc::Key>(i), 0.0});
    plain.push_back(span * static_cast<sfc::Key>(i));
  }
  const Decomposition w = Decomposition::from_weighted_samples(weighted, 4);
  const Decomposition c = Decomposition::from_samples(plain, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(w.begin_key(r), c.begin_key(r));
}

TEST(Simulation, CostBalanceConvergesWithoutLosingParticles) {
  const std::size_t n = 1500;
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(make_plummer(n, 47));
  for (int s = 0; s < 4; ++s) {
    const domain::StepReport rep = sim.step();
    EXPECT_EQ(rep.num_particles, n);
  }
  const ParticleSet got = sim.gather();
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.id[i], i);
    ASSERT_TRUE(std::isfinite(got.ax[i]) && std::isfinite(got.pot[i]));
  }
}

TEST(Simulation, MultiStepPreservesPopulation) {
  const std::size_t n = 2000;
  const ParticleSet global = make_plummer(n, 41);
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(global);

  for (int s = 0; s < 3; ++s) {
    const domain::StepReport rep = sim.step();
    EXPECT_EQ(rep.num_particles, n);
    const ParticleSet got = sim.gather();
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got.id[i], i);  // ids unique and complete
      ASSERT_TRUE(std::isfinite(got.ax[i]) && std::isfinite(got.ay[i]) &&
                  std::isfinite(got.az[i]));
    }
  }
}

}  // namespace
}  // namespace bonsai
