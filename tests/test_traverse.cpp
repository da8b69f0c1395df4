// Accuracy and accounting of the Barnes-Hut tree walk against the direct
// O(N^2) reference, per opening angle and per kernel backend.
#include "tree/traverse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "domain/let.hpp"
#include "tree/direct.hpp"
#include "tree/kernels.hpp"
#include "tree/octree.hpp"
#include "util/compare.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace bonsai {
namespace {

ParticleSet clustered_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ParticleSet parts;
  parts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3d dir = rng.unit_sphere();
    const double r = rng.uniform() * rng.uniform();  // centrally concentrated
    parts.add({dir * r, {0, 0, 0}, 1.0 / static_cast<double>(n), i});
  }
  return parts;
}

struct WalkSetup {
  ParticleSet parts;
  Octree tree;
  std::vector<TargetGroup> groups;
};

WalkSetup make_setup(std::size_t n, std::uint64_t seed, double theta, int ncrit = 64,
                 int nleaf = 16) {
  WalkSetup s;
  s.parts = clustered_cloud(n, seed);
  sfc::KeySpace space(s.parts.bounds());
  sort_by_keys(s.parts, space);
  s.tree.build(s.parts, nleaf);
  s.tree.compute_properties(s.parts, theta);
  s.groups = make_groups(s.parts, ncrit);
  return s;
}

// The group walk over `groups` through a fresh queue, drained by
// `cfg.backend` into `targets`.
InteractionStats walk(const TreeView& src, ParticleSet& targets,
                      std::span<const TargetGroup> groups, const TraversalConfig& cfg,
                      bool self) {
  InteractionQueue queue;
  return traverse_groups_batched(src, targets, groups, cfg, self, queue);
}

TEST(MakeGroups, SizesAndBoxes) {
  WalkSetup s = make_setup(1000, 211, 0.4, 64);
  std::uint32_t covered = 0;
  for (const TargetGroup& g : s.groups) {
    EXPECT_LE(g.end - g.begin, 64u);
    covered += g.end - g.begin;
    for (std::uint32_t i = g.begin; i < g.end; ++i)
      ASSERT_TRUE(g.box.contains(s.parts.pos(i)));
  }
  EXPECT_EQ(covered, s.parts.size());
  EXPECT_EQ(s.groups.size(), (1000 + 63) / 64u);
}

TEST(MakeGroups, RejectsNonPositiveNcrit) {
  ParticleSet parts = clustered_cloud(16, 307);
  EXPECT_THROW(make_groups(parts, 0), std::logic_error);
  EXPECT_THROW(make_groups(parts, -5), std::logic_error);
  // The contract also holds for an empty set: capacity is validated first.
  ParticleSet empty;
  EXPECT_THROW(make_groups(empty, 0), std::logic_error);
}

TEST(MakeGroups, EmptySetYieldsNoGroups) {
  ParticleSet empty;
  EXPECT_TRUE(make_groups(empty, 1).empty());
  EXPECT_TRUE(make_groups(empty, 64).empty());
}

TEST(Traverse, EmptyGroupSpanIsNoOp) {
  WalkSetup s = make_setup(200, 311, 0.4);
  s.parts.zero_forces();
  const auto stats = walk(s.tree.view(s.parts), s.parts, {}, TraversalConfig{},
                          /*self=*/true);
  EXPECT_EQ(stats.p2p + stats.p2c, 0u);
  for (std::size_t i = 0; i < s.parts.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(s.parts.acc(i)), 0.0);
}

TEST(Traverse, ZeroWidthGroupIsNoOp) {
  WalkSetup s = make_setup(200, 313, 0.4);
  s.parts.zero_forces();
  TargetGroup g;
  g.begin = g.end = 7;  // empty target range, box invalid by construction
  InteractionQueue queue;
  const auto stats = traverse_run_batched(s.tree.view(s.parts), s.parts, {&g, 1},
                                          TraversalConfig{}, true, queue)
                         .total;
  EXPECT_EQ(stats.p2p + stats.p2c, 0u);
}

TEST(Traverse, TinyThetaReproducesDirectExactly) {
  // With an (effectively) zero opening angle the MAC never accepts, the walk
  // degenerates to all-pairs p-p, and results match direct summation to the
  // backend's roundoff: double for scalar (same kernel arithmetic, different
  // summation order), float for simd (measured 7.6e-6 on accelerations,
  // 3.8e-7 on potentials).
  WalkSetup s = make_setup(500, 223, 1e-9);
  ParticleSet ref = s.parts;
  direct_forces(ref, 0.01);
  for (const KernelBackend backend : kKernelBackends) {
    SCOPED_TRACE(kernel_backend_name(backend));
    TraversalConfig cfg;
    cfg.theta = 1e-9;
    cfg.eps = 0.01;
    cfg.backend = backend;
    ParticleSet got = s.parts;
    got.zero_forces();
    const InteractionStats stats = walk(s.tree.view(got), got, s.groups, cfg, /*self=*/true);
    // Multi-particle cells always have a finite box, hence an enormous rcrit
    // at theta ~ 0, and are always opened. Single-particle cells have
    // rcrit = 0 and may be accepted, which is *exact* (point mass, Q = 0), so
    // each of the N(N-1) ordered pairs is evaluated exactly once, as p-p or
    // point p-c.
    EXPECT_EQ(stats.p2p + stats.p2c, 500u * 499u);
    const bool dbl = backend == KernelBackend::kScalar;
    const double acc_tol = dbl ? 1e-11 : 3e-5;
    const double pot_tol = dbl ? 1e-11 : 1.5e-6;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(norm(got.acc(i) - ref.acc(i)), 0.0, acc_tol * std::max(1.0, norm(ref.acc(i))));
      ASSERT_NEAR(got.pot[i], ref.pot[i], pot_tol * std::abs(ref.pot[i]));
    }
  }
}

class ThetaAccuracyTest : public ::testing::TestWithParam<double> {};

// The force-error budget per opening angle, held by every backend.
TEST_P(ThetaAccuracyTest, ForceErrorBounded) {
  const double theta = GetParam();
  WalkSetup s = make_setup(3000, 227, theta);
  ParticleSet ref = s.parts;
  direct_forces(ref, 1e-3);
  // Empirical Barnes-Hut + quadrupole error envelopes (generous bounds).
  const double bound = theta <= 0.3 ? 2e-5 : theta <= 0.5 ? 2e-4 : 2e-3;
  for (const KernelBackend backend : kKernelBackends) {
    TraversalConfig cfg;
    cfg.theta = theta;
    cfg.eps = 1e-3;
    cfg.backend = backend;
    ParticleSet got = s.parts;
    got.zero_forces();
    walk(s.tree.view(got), got, s.groups, cfg, true);
    EXPECT_LT(median_acc_error(got, ref), bound)
        << "theta=" << theta << " backend=" << kernel_backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(OpeningAngles, ThetaAccuracyTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Traverse, ErrorGrowsWithTheta) {
  std::vector<std::vector<double>> med(std::size(kKernelBackends));  // [backend][theta]
  for (double theta : {0.2, 0.5, 0.9}) {
    WalkSetup s = make_setup(2000, 229, theta);
    ParticleSet ref = s.parts;
    direct_forces(ref, 1e-3);
    for (std::size_t b = 0; b < std::size(kKernelBackends); ++b) {
      TraversalConfig cfg;
      cfg.theta = theta;
      cfg.eps = 1e-3;
      cfg.backend = kKernelBackends[b];
      ParticleSet got = s.parts;
      got.zero_forces();
      walk(s.tree.view(got), got, s.groups, cfg, true);
      med[b].push_back(median_acc_error(got, ref));
    }
  }
  for (std::size_t b = 0; b < std::size(kKernelBackends); ++b) {
    SCOPED_TRACE(kernel_backend_name(kKernelBackends[b]));
    EXPECT_LT(med[b][0], med[b][1]);
    EXPECT_LT(med[b][1], med[b][2]);
  }
}

TEST(Traverse, QuadrupoleBeatsMonopole) {
  WalkSetup s = make_setup(2000, 233, 0.6);
  TraversalConfig cfg;
  cfg.theta = 0.6;
  cfg.eps = 1e-3;

  ParticleSet with_quad = s.parts;
  with_quad.zero_forces();
  walk(s.tree.view(with_quad), with_quad, s.groups, cfg, true);

  // The same tree with every quadrupole moment zeroed walks on monopoles.
  Octree mono_tree = s.tree;
  for (TreeNode& nd : mono_tree.mutable_nodes()) nd.mp.quad = {};
  ParticleSet mono = s.parts;
  mono.zero_forces();
  walk(mono_tree.view(mono), mono, s.groups, cfg, true);

  ParticleSet ref = s.parts;
  direct_forces(ref, cfg.eps);

  const double err_quad = median_acc_error(with_quad, ref);
  const double err_mono = median_acc_error(mono, ref);
  EXPECT_LT(err_quad, err_mono * 0.5)
      << "quadrupole should substantially reduce the error";
}

TEST(Traverse, WorkGrowsAsThetaShrinks) {
  // §IV: calculation cost grows roughly as theta^-3. Halving theta must
  // increase the evaluated work substantially (we assert a soft 1.5x to stay
  // robust across tree shapes; the theta ablation bench fits the exponent).
  std::vector<std::uint64_t> flops;
  for (double theta : {0.8, 0.4, 0.2}) {
    WalkSetup s = make_setup(8000, 239, theta);
    TraversalConfig cfg;
    cfg.theta = theta;
    cfg.eps = 1e-3;
    s.parts.zero_forces();
    const auto stats = walk(s.tree.view(s.parts), s.parts, s.groups, cfg, true);
    flops.push_back(stats.flops());
  }
  EXPECT_GT(flops[1], static_cast<std::uint64_t>(1.5 * static_cast<double>(flops[0])));
  // At N = 8000 the theta = 0.2 walk approaches the all-pairs bound, so the
  // second halving shows compressed growth.
  EXPECT_GT(flops[2], static_cast<std::uint64_t>(1.25 * static_cast<double>(flops[1])));
}

TEST(Traverse, GroupAndSingleWalksAgree) {
  // One-particle groups make the group MAC a per-particle MAC. The group MAC
  // is more conservative in aggregate but both walks must stay within the
  // theta error envelope of each other.
  WalkSetup s = make_setup(1500, 241, 0.4);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;

  ParticleSet grouped = s.parts;
  grouped.zero_forces();
  walk(s.tree.view(grouped), grouped, s.groups, cfg, true);

  ParticleSet single = s.parts;
  single.zero_forces();
  std::vector<TargetGroup> singles(single.size());
  for (std::uint32_t i = 0; i < single.size(); ++i) {
    singles[i].begin = i;
    singles[i].end = i + 1;
    singles[i].box.expand(single.pos(i));
  }
  walk(s.tree.view(single), single, singles, cfg, true);

  RunningStats rel;
  for (std::size_t i = 0; i < grouped.size(); ++i) {
    const double d = norm(grouped.acc(i) - single.acc(i));
    rel.add(d / std::max(norm(single.acc(i)), 1e-300));
  }
  EXPECT_LT(rel.mean(), 5e-4);
}

TEST(Traverse, SelfPotentialExcluded) {
  // Potential must not include the self-term -m_i/eps.
  ParticleSet parts;
  parts.add({{0.0, 0.0, 0.0}, {0, 0, 0}, 1.0, 0});
  parts.add({{1.0, 0.0, 0.0}, {0, 0, 0}, 1.0, 1});
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.4);
  const auto groups = make_groups(parts, 64);
  const double expected = -1.0 / std::sqrt(1.0 + 0.01);
  for (const KernelBackend backend : kKernelBackends) {
    SCOPED_TRACE(kernel_backend_name(backend));
    TraversalConfig cfg;
    cfg.theta = 0.4;
    cfg.eps = 0.1;
    cfg.backend = backend;
    parts.zero_forces();
    walk(tree.view(parts), parts, groups, cfg, true);
    // Double for scalar, float for simd (measured 5.2e-8).
    const double tol = backend == KernelBackend::kScalar ? 1e-12 : 2e-7;
    EXPECT_NEAR(parts.pot[0], expected, tol);
    EXPECT_NEAR(parts.pot[1], expected, tol);
  }
}

TEST(Traverse, DisjointSourceNeedsNoSelfSkip) {
  // Forces from a remote set (the LET use case): traversal of a source tree
  // over different targets must equal direct source->target summation within
  // the MAC error envelope.
  ParticleSet sources = clustered_cloud(2000, 251);
  for (std::size_t i = 0; i < sources.size(); ++i)
    sources.x[i] += 10.0;  // displace the source cloud

  ParticleSet targets = clustered_cloud(500, 257);

  sfc::KeySpace space(sources.bounds());
  sort_by_keys(sources, space);
  Octree tree;
  tree.build(sources, 16);
  tree.compute_properties(sources, 0.4);

  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 0.0;
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  walk(tree.view(sources), targets, groups, cfg, /*self=*/false);

  ParticleSet ref = targets;
  ref.zero_forces();
  direct_forces_between(sources, ref, cfg.eps);

  EXPECT_LT(median_acc_error(targets, ref), 2e-4);
}

TEST(Traverse, EmptySourcesAndTargets) {
  ParticleSet empty;
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  Octree tree;
  tree.build(empty);
  tree.compute_properties(empty, 0.4);

  ParticleSet targets = clustered_cloud(10, 263);
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  const auto stats = walk(tree.view(empty), targets, groups, TraversalConfig{}, false);
  EXPECT_EQ(stats.p2p + stats.p2c, 0u);
  for (std::size_t i = 0; i < targets.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(targets.acc(i)), 0.0);

  // Empty target set is a no-op as well.
  ParticleSet no_targets;
  auto no_groups = make_groups(no_targets, 64);
  EXPECT_TRUE(no_groups.empty());
}

// Walks runs `runs` of `groups` twice: as run walks through a queue of
// `capacity`, and group by group as one-group walks (runs of one) through a
// default queue, each into a zeroed copy of `targets`. Expects every group's
// useful p-p and p-c counts and flops to agree and each RunStats total to
// hold its groups' counts; returns the worst relative acceleration or
// potential difference over the walked groups' particles.
double run_vs_one_group(const TreeView& src, const ParticleSet& targets,
                        std::span<const TargetGroup> groups, const TraversalConfig& cfg,
                        bool self, std::span<const std::size_t> runs,
                        std::size_t capacity = InteractionQueue::kDefaultCapacity) {
  ParticleSet by_run = targets, by_group = targets;
  by_run.zero_forces();
  by_group.zero_forces();
  InteractionQueue run_queue(capacity), group_queue;
  double worst = 0.0;
  for (const std::size_t r : runs) {
    const std::span<const TargetGroup> run = group_run(groups, r);
    const RunStats rs = traverse_run_batched(src, by_run, run, cfg, self, run_queue);
    std::uint64_t p2p = 0, p2c = 0;
    for (std::size_t k = 0; k < run.size(); ++k) {
      const RunStats gs =
          traverse_run_batched(src, by_group, run.subspan(k, 1), cfg, self, group_queue);
      const std::string where = "run " + std::to_string(r) + " group " + std::to_string(k);
      EXPECT_EQ(rs.p2p[k], gs.p2p[0]) << where;
      EXPECT_EQ(rs.p2c[k], gs.p2c[0]) << where;
      EXPECT_EQ(rs.useful_flops(k), gs.useful_flops(0)) << where;
      EXPECT_EQ(gs.total.p2p, gs.p2p[0]) << where;
      EXPECT_EQ(gs.total.p2c, gs.p2c[0]) << where;
      p2p += rs.p2p[k];
      p2c += rs.p2c[k];
      for (std::uint32_t i = run[k].begin; i < run[k].end; ++i) {
        worst = std::max(worst, norm(by_run.acc(i) - by_group.acc(i)) /
                                    std::max(norm(by_group.acc(i)), 1e-300));
        worst = std::max(worst, std::abs(by_run.pot[i] - by_group.pot[i]) /
                                    std::max(std::abs(by_group.pot[i]), 1e-300));
      }
    }
    EXPECT_EQ(rs.total.p2p, p2p) << "run " << r;
    EXPECT_EQ(rs.total.p2c, p2c) << "run " << r;
  }
  return worst;
}

std::vector<std::size_t> all_runs(std::span<const TargetGroup> groups) {
  std::vector<std::size_t> runs(num_group_runs(groups.size()));
  for (std::size_t r = 0; r < runs.size(); ++r) runs[r] = r;
  return runs;
}

TEST(RunWalk, ClusteredCloudMatchesOneGroupWalks) {
  // 65736 particles: 1028 groups, the last of 8 particles, so the last run
  // holds 4 groups. simd walks every run; the slower scalar oracle walks the
  // first, a middle and the short last run.
  WalkSetup s = make_setup(65536 + 200, 281, 0.4);
  const std::size_t runs = num_group_runs(s.groups.size());
  ASSERT_EQ(group_run(s.groups, runs - 1).size(), 4u);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  const TreeView src = s.tree.view(s.parts);
  cfg.backend = KernelBackend::kSimd;
  EXPECT_LT(run_vs_one_group(src, s.parts, s.groups, cfg, /*self=*/true, all_runs(s.groups)),
            2e-5);  // float: measured 4.5e-6
  cfg.backend = KernelBackend::kScalar;
  const std::size_t some[] = {0, runs / 2, runs - 1};
  EXPECT_LT(run_vs_one_group(src, s.parts, s.groups, cfg, /*self=*/true, some), 1e-12);
}

TEST(RunWalk, LetViewMatchesOneGroupWalks) {
  // A remote rank's LET (multipole leaves, internal nodes, particle leaves)
  // against a neighbouring target cloud, self = false.
  ParticleSet sources = clustered_cloud(20000, 283);
  for (std::size_t i = 0; i < sources.size(); ++i) sources.x[i] += 1.5;
  sfc::KeySpace src_space(sources.bounds());
  sort_by_keys(sources, src_space);
  Octree tree;
  tree.build(sources, 16);
  tree.compute_properties(sources, 0.4);
  ParticleSet targets = clustered_cloud(5000, 284);
  sfc::KeySpace space(targets.bounds());
  sort_by_keys(targets, space);
  const domain::LetTree let = domain::build_let(tree.view(sources), targets.bounds());
  ASSERT_GT(let.num_particles(), 0u);
  ASSERT_TRUE(std::any_of(let.nodes.begin(), let.nodes.end(), [](const TreeNode& nd) {
    return nd.kind == NodeKind::kMultipoleLeaf;
  }));
  const std::vector<TargetGroup> groups = make_groups(targets, 64);
  for (const KernelBackend backend : kKernelBackends) {
    SCOPED_TRACE(kernel_backend_name(backend));
    TraversalConfig cfg;
    cfg.eps = 1e-2;
    cfg.backend = backend;
    EXPECT_LT(run_vs_one_group(let.view(), targets, groups, cfg, /*self=*/false,
                               all_runs(groups)),
              backend == KernelBackend::kScalar ? 1e-12 : 2e-6);  // simd: measured 3.3e-7
  }
}

TEST(RunWalk, EmptyAndZeroWidthGroupsTakeNoPart) {
  // Zero-width groups at the front, inside and at the end of runs walk
  // nothing and leave the other groups' interactions as they are; a run of
  // zero-width groups alone stages and drains nothing.
  WalkSetup s = make_setup(6000, 287, 0.4);
  std::vector<TargetGroup> groups;
  const auto zero_width = [](std::uint32_t at) {
    TargetGroup g;
    g.begin = g.end = at;
    return g;
  };
  groups.push_back(zero_width(0));
  for (std::size_t k = 0; k < s.groups.size(); ++k) {
    groups.push_back(s.groups[k]);
    if (k % 5 == 2) groups.push_back(zero_width(s.groups[k].end));
  }
  for (int k = 0; k < 9; ++k) groups.push_back(zero_width(s.groups.back().end));
  ASSERT_GT(num_group_runs(groups.size()), num_group_runs(s.groups.size()));
  for (const KernelBackend backend : kKernelBackends) {
    SCOPED_TRACE(kernel_backend_name(backend));
    TraversalConfig cfg;
    cfg.eps = 1e-2;
    cfg.backend = backend;
    EXPECT_LT(run_vs_one_group(s.tree.view(s.parts), s.parts, groups, cfg, /*self=*/true,
                               all_runs(groups)),
              backend == KernelBackend::kScalar ? 1e-12 : 6e-6);  // simd: measured 1.4e-6
  }
  const std::vector<TargetGroup> empty_run(kGroupRun, zero_width(6000));
  ParticleSet parts = s.parts;
  parts.zero_forces();
  InteractionQueue queue;
  const RunStats none =
      traverse_run_batched(s.tree.view(parts), parts, empty_run, TraversalConfig{}, true, queue);
  EXPECT_EQ(none.total.p2p + none.total.p2c + none.total.batches(), 0u);
  for (std::size_t k = 0; k < kGroupRun; ++k) EXPECT_EQ(none.useful_flops(k), 0u);
  for (std::size_t i = 0; i < parts.size(); ++i) EXPECT_EQ(norm(parts.acc(i)), 0.0);
}

TEST(RunWalk, CapacityFourQueueFlushesInsideTheSharedWalk) {
  // A capacity-4 queue flushes after every few staged cells or leaves, in the
  // shared walk as in each group's own: counts still equal the one-group
  // walks', and the scalar drain is order-stable under the splits.
  WalkSetup s = make_setup(3000, 289, 0.4);
  const TreeView src = s.tree.view(s.parts);
  for (const KernelBackend backend : kKernelBackends) {
    SCOPED_TRACE(kernel_backend_name(backend));
    TraversalConfig cfg;
    cfg.eps = 1e-2;
    cfg.backend = backend;
    EXPECT_LT(run_vs_one_group(src, s.parts, s.groups, cfg, /*self=*/true, all_runs(s.groups),
                               /*capacity=*/4),
              backend == KernelBackend::kScalar ? 1e-12 : 3e-6);  // simd: measured 5.9e-7
    ParticleSet roomy = s.parts, tiny = s.parts;
    roomy.zero_forces();
    tiny.zero_forces();
    InteractionQueue roomy_queue, tiny_queue(4);
    const RunStats a = traverse_run_batched(src, roomy, group_run(s.groups, 0), cfg, true,
                                            roomy_queue);
    const RunStats b = traverse_run_batched(src, tiny, group_run(s.groups, 0), cfg, true,
                                            tiny_queue);
    EXPECT_EQ(a.total.p2p, b.total.p2p);
    EXPECT_EQ(a.total.p2c, b.total.p2c);
    EXPECT_GT(b.total.batches(), a.total.batches() + 100);
    if (backend == KernelBackend::kScalar) {
      for (std::uint32_t i = 0; i < group_run(s.groups, 0).back().end; ++i)
        EXPECT_LT(norm(tiny.acc(i) - roomy.acc(i)), 1e-13 * norm(roomy.acc(i)));
    }
  }
}

TEST(RunWalk, ComputeForcesWorkEqualsPerGroupAttribution) {
  // Device::compute_forces hands out one run per claim and spreads each
  // group's useful flops over its particles: the work column must equal,
  // bit for bit, the one-group walks' flops divided by the group sizes, and
  // forces and work must not depend on the device's thread count.
  WalkSetup s = make_setup(9000, 293, 0.4);  // 141 groups: a last run of 5
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet ref = s.parts;
  ref.zero_forces();  // and work
  InteractionQueue queue;
  for (const TargetGroup& g : s.groups) {
    const RunStats gs = traverse_run_batched(s.tree.view(ref), ref, {&g, 1}, cfg, true, queue);
    const double size = g.end - g.begin;
    for (std::uint32_t i = g.begin; i < g.end; ++i)
      ref.work[i] += static_cast<double>(gs.useful_flops(0)) / size;
  }
  std::vector<ParticleSet> by_threads;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParticleSet parts = s.parts;
    parts.zero_forces();
    Device device(threads);
    device.compute_forces(s.tree.view(parts), parts, s.groups, cfg, /*self=*/true);
    for (std::size_t i = 0; i < parts.size(); ++i)
      ASSERT_EQ(parts.work[i], ref.work[i]) << "threads=" << threads << " i=" << i;
    by_threads.push_back(std::move(parts));
  }
  for (std::size_t i = 0; i < s.parts.size(); ++i) {
    ASSERT_EQ(by_threads[0].ax[i], by_threads[1].ax[i]) << i;
    ASSERT_EQ(by_threads[0].ay[i], by_threads[1].ay[i]) << i;
    ASSERT_EQ(by_threads[0].az[i], by_threads[1].az[i]) << i;
    ASSERT_EQ(by_threads[0].pot[i], by_threads[1].pot[i]) << i;
  }
}

TEST(Traverse, PCKernelMatchesPointMass) {
  // A cell whose quadrupole vanishes must reduce exactly to the p-p kernel.
  Multipole cell;
  cell.mass = 2.0;
  cell.com = {3.0, -1.0, 2.0};
  ForceAccum fc{}, fp{};
  pc_kernel({0.5, 0.5, 0.5}, cell, 0.0, fc);
  pp_kernel(0.5, 0.5, 0.5, 3.0, -1.0, 2.0, 2.0, 0.0, fp);
  EXPECT_NEAR(fc.ax, fp.ax, 1e-14);
  EXPECT_NEAR(fc.ay, fp.ay, 1e-14);
  EXPECT_NEAR(fc.az, fp.az, 1e-14);
  EXPECT_NEAR(fc.pot, fp.pot, 1e-14);
}

TEST(Traverse, PCKernelConvergesToDirectSumWithDistance) {
  // Multipole error of a fixed cluster must fall rapidly with distance
  // (remaining error is the neglected octupole, O(r^-4) in acceleration).
  Xoshiro256 rng(269);
  ParticleSet cluster;
  for (int i = 0; i < 200; ++i)
    cluster.add({rng.unit_sphere() * rng.uniform(), {0, 0, 0}, 1.0, static_cast<std::uint64_t>(i)});

  Multipole mp;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    mp.mass += cluster.mass[i];
    mp.com += cluster.mass[i] * cluster.pos(i);
  }
  mp.com /= mp.mass;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    mp.quad.add_outer(cluster.pos(i) - mp.com, cluster.mass[i]);

  double prev_err = 1e300;
  for (double dist : {4.0, 8.0, 16.0, 32.0}) {
    const Vec3d target{dist, 0.3, -0.2};
    ForceAccum approx{};
    pc_kernel(target, mp, 0.0, approx);
    ParticleSet probe;
    probe.add({target, {0, 0, 0}, 1.0, 0});
    probe.zero_forces();
    direct_forces_between(cluster, probe, 0.0);
    const double err = norm(Vec3d{approx.ax, approx.ay, approx.az} - probe.acc(0)) /
                       norm(probe.acc(0));
    EXPECT_LT(err, prev_err * 0.3) << "at distance " << dist;
    prev_err = err;
  }
}

TEST(Direct, SubsetMatchesFull) {
  ParticleSet parts = clustered_cloud(400, 271);
  ParticleSet full = parts;
  direct_forces(full, 1e-3);
  std::vector<std::uint32_t> subset{0, 17, 399, 200};
  direct_forces_subset(parts, 1e-3, subset);
  for (std::uint32_t i : subset) {
    EXPECT_DOUBLE_EQ(parts.ax[i], full.ax[i]);
    EXPECT_DOUBLE_EQ(parts.pot[i], full.pot[i]);
  }
}

TEST(Direct, NewtonThirdLawMomentumConservation) {
  ParticleSet parts = clustered_cloud(300, 277);
  direct_forces(parts, 1e-2);
  Vec3d net{};
  for (std::size_t i = 0; i < parts.size(); ++i) net += parts.mass[i] * parts.acc(i);
  EXPECT_NEAR(norm(net), 0.0, 1e-12);
}

}  // namespace
}  // namespace bonsai
