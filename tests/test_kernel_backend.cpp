// The batched interaction-list engine: backend name parsing, the `simd`
// drain (every compiled KernelIsa variant) against the scalar oracle, the
// explicit-kernel reference for multipole leaves, the AVX-512F rsqrt,
// useful-vs-padded flops accounting, batch edge cases and queue
// overflow/flush behaviour.
//
// Precision contract: `simd` computes in float (offsets from the group
// centre, float sums per batch), `scalar` in double. Every simd-vs-double
// bound below is a float bound: about 4x the worst value measured over both
// KernelIsa variants on a 4-vCPU AVX-512 Xeon (quoted at each bound), and
// still far below what a formula error gives (a dropped quadrupole term is
// ~1e-3 in MultipoleLeafBatch). scalar-vs-scalar bounds stay double.
#include "tree/kernel_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tree/kernels.hpp"
#include "tree/octree.hpp"
#include "tree/traverse.hpp"
#include "util/ic.hpp"
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

// Zero every cell's quadrupole moment, so walks of `tree` use monopoles only.
void zero_quadrupoles(Octree& tree) {
  for (TreeNode& nd : tree.mutable_nodes()) nd.mp.quad = {};
}

// Worst per-particle relative acceleration difference between two runs over
// the same (sorted) particle set.
double max_rel_acc_diff(const ParticleSet& a, const ParticleSet& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ref = std::max(norm(b.acc(i)), 1e-300);
    worst = std::max(worst, norm(a.acc(i) - b.acc(i)) / ref);
  }
  return worst;
}

// Forces + stats from the batched walk with one backend (fresh accumulators).
InteractionStats batched_forces(WalkSetup& s, ParticleSet& out, KernelBackend backend,
                                const TraversalConfig& base,
                                std::size_t queue_capacity = InteractionQueue::kDefaultCapacity,
                                KernelIsa isa = host_kernel_isa()) {
  out = s.parts;
  out.zero_forces();
  TraversalConfig cfg = base;
  cfg.backend = backend;
  InteractionQueue queue(queue_capacity, isa);
  return traverse_groups_batched(s.tree.view(out), out, s.groups, cfg, /*self=*/true,
                                 queue);
}

TEST(KernelBackendNames, RoundTripAndRejects) {
  for (const KernelBackend b : kKernelBackends) {
    const auto parsed = kernel_backend_from_name(kernel_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(kernel_backend_from_name("cuda").has_value());
  EXPECT_FALSE(kernel_backend_from_name("").has_value());
  EXPECT_FALSE(kernel_backend_from_name("SIMD").has_value());
}

TEST(KernelBackend, AllBackendsAgreeWithScalarOracle) {
  WalkSetup s = make_setup(3000, 61, 0.4);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;

  ParticleSet scalar, simd;
  const InteractionStats scalar_stats =
      batched_forces(s, scalar, KernelBackend::kScalar, cfg);
  const InteractionStats simd_stats = batched_forces(s, simd, KernelBackend::kSimd, cfg);
  ASSERT_GT(scalar_stats.p2p, 0u);
  ASSERT_GT(scalar_stats.p2c, 0u);

  // Identical useful counts: both backends drain the same emitted lists.
  EXPECT_EQ(simd_stats.p2p, scalar_stats.p2p);
  EXPECT_EQ(simd_stats.p2c, scalar_stats.p2c);
  EXPECT_GT(scalar_stats.batches(), 0u);
  EXPECT_EQ(simd_stats.batches(), scalar_stats.batches());
  // Scalar evaluates without padding; SIMD lanes pad to the batch width.
  EXPECT_EQ(scalar_stats.padded_flops(), scalar_stats.useful_flops());
  EXPECT_GE(simd_stats.p2p_padded, simd_stats.p2p);
  EXPECT_GE(simd_stats.p2c_padded, simd_stats.p2c);
  EXPECT_GT(simd_stats.padded_flops(), 0u);
  EXPECT_LE(simd_stats.fill_ratio(), 1.0);
  EXPECT_GT(simd_stats.fill_ratio(), 0.5);  // ncrit=64 groups keep batches dense

  // Forces: float arithmetic vs the double oracle (measured 2.8e-6).
  EXPECT_LT(max_rel_acc_diff(simd, scalar), 1e-5);
}

TEST(KernelBackend, DisjointSourceTargetWalkAgrees) {
  // self = false (the LET/remote-gravity path): no self-pairs to mask.
  WalkSetup src = make_setup(1200, 71, 0.4);
  ParticleSet targets = clustered_cloud(500, 72);
  sfc::KeySpace space(targets.bounds());
  sort_by_keys(targets, space);
  const std::vector<TargetGroup> groups = make_groups(targets, 64);

  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet ref = targets, got = targets;
  ref.zero_forces();
  got.zero_forces();
  cfg.backend = KernelBackend::kScalar;
  InteractionQueue queue;
  const InteractionStats ref_stats = traverse_groups_batched(
      src.tree.view(src.parts), ref, groups, cfg, /*self=*/false, queue);
  cfg.backend = KernelBackend::kSimd;
  const InteractionStats stats = traverse_groups_batched(
      src.tree.view(src.parts), got, groups, cfg, /*self=*/false, queue);
  EXPECT_GT(stats.p2p, 0u);
  EXPECT_EQ(stats.p2p, ref_stats.p2p);
  EXPECT_EQ(stats.p2c, ref_stats.p2c);
  EXPECT_LT(max_rel_acc_diff(got, ref), 3e-5);  // measured 6.5e-6
}

TEST(KernelBackend, MonopoleOnlyWalkAgrees) {
  // Every quadrupole moment zeroed: both backends run on monopoles alone.
  WalkSetup s = make_setup(1500, 83, 0.5);
  zero_quadrupoles(s.tree);
  TraversalConfig cfg;
  cfg.eps = 1e-2;

  ParticleSet scalar, simd;
  batched_forces(s, scalar, KernelBackend::kScalar, cfg);
  batched_forces(s, simd, KernelBackend::kSimd, cfg);
  EXPECT_LT(max_rel_acc_diff(simd, scalar), 1e-5);  // measured 2.2e-6
}

TEST(KernelBackend, MultipoleLeafBatch) {
  // A handcrafted LET-style view: an internal root that the MAC never accepts
  // over two multipole-leaf children. Both must be staged as cell batches and
  // match explicit pc_kernel calls per target.
  const ParticleSet targets = [] {
    ParticleSet t = clustered_cloud(100, 91);
    sfc::KeySpace space(t.bounds());
    sort_by_keys(t, space);
    return t;
  }();

  std::vector<TreeNode> nodes(3);
  nodes[0].kind = NodeKind::kInternal;
  nodes[0].part_begin = 0;
  nodes[0].part_end = 1;  // non-empty so the walk does not skip it
  nodes[0].first_child = 1;
  nodes[0].num_children = 2;
  nodes[0].rcrit = 1e30;  // never MAC-accepted
  for (int c = 1; c <= 2; ++c) {
    nodes[c].kind = NodeKind::kMultipoleLeaf;
    nodes[c].mp.mass = 1.5 * c;
    nodes[c].mp.com = {3.0 * c, -2.0, 1.0};
    nodes[c].mp.quad.add_outer({0.1, 0.2, -0.1}, nodes[c].mp.mass);
  }
  const TreeView view{nodes, {}, {}, {}, {}};
  const std::vector<TargetGroup> groups = make_groups(targets, 64);

  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet ref = targets;
  ref.zero_forces();
  for (std::uint32_t i = 0; i < ref.size(); ++i) {
    ForceAccum f{};
    for (int c = 1; c <= 2; ++c) pc_kernel(ref.pos(i), nodes[c].mp, cfg.eps * cfg.eps, f);
    ref.ax[i] = f.ax;
    ref.ay[i] = f.ay;
    ref.az[i] = f.az;
    ref.pot[i] = f.pot;
  }

  for (const KernelBackend b : kKernelBackends) {
    ParticleSet got = targets;
    got.zero_forces();
    TraversalConfig bcfg = cfg;
    bcfg.backend = b;
    InteractionQueue queue;
    const InteractionStats stats =
        traverse_groups_batched(view, got, groups, bcfg, /*self=*/false, queue);
    EXPECT_EQ(stats.p2c, 2 * targets.size());
    EXPECT_EQ(stats.p2p, 0u);
    // Multipole leaves are shared cells: one batch per run of groups.
    EXPECT_EQ(stats.pc_batches, num_group_runs(groups.size()));
    EXPECT_EQ(stats.pp_batches, 0u);
    // Double scalar; float simd (measured 2.5e-7).
    EXPECT_LT(max_rel_acc_diff(got, ref), b == KernelBackend::kScalar ? 1e-12 : 1e-6)
        << kernel_backend_name(b);
  }
}

TEST(KernelBackend, EmptyAndDegenerateWalks) {
  WalkSetup s = make_setup(200, 97, 0.4);
  TraversalConfig cfg;
  InteractionQueue queue;

  // Zero-width target range: nothing staged, nothing drained.
  TargetGroup g;
  g.begin = g.end = 7;
  s.parts.zero_forces();
  const InteractionStats empty_stats =
      traverse_run_batched(s.tree.view(s.parts), s.parts, {&g, 1}, cfg, /*self=*/true, queue)
          .total;
  EXPECT_EQ(empty_stats.p2p + empty_stats.p2c, 0u);
  EXPECT_EQ(empty_stats.batches(), 0u);

  // Empty source view: no-op.
  const InteractionStats no_src =
      traverse_run_batched(TreeView{}, s.parts, s.groups, cfg, /*self=*/true, queue).total;
  EXPECT_EQ(no_src.batches(), 0u);

  // A single self-particle system: the only candidate pair is the masked
  // self-interaction — forces must come out exactly zero and finite.
  ParticleSet one;
  one.add({{0.5, 0.5, 0.5}, {0, 0, 0}, 1.0, 0});
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(one, space);
  Octree tree;
  tree.build(one, 16);
  tree.compute_properties(one, 0.4);
  const std::vector<TargetGroup> one_group = make_groups(one, 64);
  for (const KernelBackend b : kKernelBackends) {
    one.zero_forces();
    TraversalConfig bcfg;
    bcfg.backend = b;
    bcfg.eps = 0.0;  // the masked lane must stay finite even unsoftened
    InteractionQueue q;
    const InteractionStats stats =
        traverse_groups_batched(tree.view(one), one, one_group, bcfg, /*self=*/true, q);
    EXPECT_EQ(stats.p2p, 0u) << kernel_backend_name(b);
    EXPECT_TRUE(std::isfinite(one.pot[0]));
    EXPECT_DOUBLE_EQ(one.ax[0], 0.0);
    EXPECT_DOUBLE_EQ(one.ay[0], 0.0);
    EXPECT_DOUBLE_EQ(one.az[0], 0.0);
    EXPECT_DOUBLE_EQ(one.pot[0], 0.0);
  }
}

TEST(KernelBackend, TinyCapacityFlushesMidWalkAndMatches) {
  // A queue whose capacity is far below one walk's staging demand must flush
  // mid-walk (splitting batches) and still produce the same counts and
  // forces as an unconstrained queue.
  WalkSetup s = make_setup(2000, 103, 0.4);
  TraversalConfig cfg;
  cfg.eps = 1e-2;

  for (const KernelBackend b : {KernelBackend::kScalar, KernelBackend::kSimd}) {
    ParticleSet roomy, tiny;
    const InteractionStats roomy_stats = batched_forces(s, roomy, b, cfg);
    const InteractionStats tiny_stats =
        batched_forces(s, tiny, b, cfg, /*queue_capacity=*/48);
    EXPECT_EQ(tiny_stats.p2p, roomy_stats.p2p) << kernel_backend_name(b);
    EXPECT_EQ(tiny_stats.p2c, roomy_stats.p2c);
    EXPECT_GT(tiny_stats.batches(), roomy_stats.batches());  // runs were split
    // The scalar drain is order-stable under splitting (per-cell and per-target
    // accumulation is unchanged); simd splits change the float summation
    // order (measured 2.4e-7).
    if (b == KernelBackend::kScalar) {
      EXPECT_LT(max_rel_acc_diff(tiny, roomy), 1e-13);
    } else {
      EXPECT_LT(max_rel_acc_diff(tiny, roomy), 4e-6);
    }
  }
}

// Every compiled variant of the float `simd` drain against the scalar
// oracle, over the agreement cases above. The avx512f instance skips on
// hosts without AVX-512F; the portable one runs everywhere.
class SimdDrainIsa : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (GetParam() == KernelIsa::kAvx512f && host_kernel_isa() != KernelIsa::kAvx512f)
      GTEST_SKIP() << "host lacks AVX-512F";
  }

  // Worst relative acceleration difference between this variant and the
  // scalar drain over one batched walk of `targets` against `src`.
  double diff_vs_scalar(const TreeView& src, const ParticleSet& targets,
                        std::span<const TargetGroup> groups, const TraversalConfig& base,
                        bool self,
                        std::size_t capacity = InteractionQueue::kDefaultCapacity) const {
    ParticleSet ref = targets, got = targets;
    ref.zero_forces();
    got.zero_forces();
    TraversalConfig cfg = base;
    cfg.backend = KernelBackend::kScalar;
    InteractionQueue scalar_queue;
    const InteractionStats ref_stats =
        traverse_groups_batched(src, ref, groups, cfg, self, scalar_queue);
    cfg.backend = KernelBackend::kSimd;
    InteractionQueue simd_queue(capacity, GetParam());
    const InteractionStats got_stats =
        traverse_groups_batched(src, got, groups, cfg, self, simd_queue);
    EXPECT_EQ(got_stats.p2p, ref_stats.p2p);
    EXPECT_EQ(got_stats.p2c, ref_stats.p2c);
    return max_rel_acc_diff(got, ref);
  }
};

TEST_P(SimdDrainIsa, SelfWalkAgreesWithScalarAtZeroAndFiniteSoftening) {
  // eps = 0 leaves the masked self lanes only the r2 bias to stay finite.
  // Unsoftened near pairs give the largest float error (measured 1.9e-5 at
  // eps = 0, 2.9e-6 at eps = 1e-2; 1.2e-5 and 2.8e-6 with one walk per
  // group).
  WalkSetup s = make_setup(3000, 61, 0.4);
  for (const double eps : {0.0, 1e-2}) {
    TraversalConfig cfg;
    cfg.theta = 0.4;
    cfg.eps = eps;
    EXPECT_LT(diff_vs_scalar(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true),
              5e-5)
        << "eps=" << eps;
  }
}

TEST_P(SimdDrainIsa, LoneSelfPairAmongPadLanesIsExactlyZero) {
  // One self lane plus fifteen pad lanes, unsoftened: every lane is masked.
  ParticleSet one;
  one.add({{0.5, 0.5, 0.5}, {0, 0, 0}, 1.0, 0});
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(one, space);
  Octree tree;
  tree.build(one, 16);
  tree.compute_properties(one, 0.4);
  TraversalConfig cfg;
  cfg.backend = KernelBackend::kSimd;
  cfg.eps = 0.0;
  one.zero_forces();
  InteractionQueue queue(InteractionQueue::kDefaultCapacity, GetParam());
  const InteractionStats stats =
      traverse_groups_batched(tree.view(one), one, make_groups(one, 64), cfg, true, queue);
  EXPECT_EQ(stats.p2p, 0u);
  EXPECT_EQ(stats.p2p_padded, kKernelBatchPad);
  EXPECT_EQ(one.ax[0], 0.0);
  EXPECT_EQ(one.ay[0], 0.0);
  EXPECT_EQ(one.az[0], 0.0);
  EXPECT_EQ(one.pot[0], 0.0);
}

TEST_P(SimdDrainIsa, InertBatchesLeaveAccumulatorsExactlyUnchanged) {
  // Batches whose every lane is inert must add exactly 0.0, unsoftened, to
  // accumulators that already hold forces:
  //  - a cell batch of one massless, moment-free multipole leaf plus fifteen
  //    pad lanes, over targets spread across a wide box, so the pad point
  //    sits far from the origin;
  //  - a leaf batch of one masked self lane plus fifteen pad lanes.
  ParticleSet targets;
  const Vec3d spots[] = {{-300.0, 2.0, 0.5}, {0.25, -0.5, 0.125}, {700.0, -40.0, 1e3}};
  for (std::uint64_t i = 0; i < 3; ++i) targets.add({spots[i], {0, 0, 0}, 1.0, i});
  for (std::uint32_t i = 0; i < targets.size(); ++i) {
    targets.ax[i] = 0.5 + i;
    targets.ay[i] = -1.25 * i;
    targets.az[i] = 3.0e-7;
    targets.pot[i] = -2.0 - i;
  }
  const ParticleSet before = targets;
  std::vector<TreeNode> nodes(2);
  nodes[0].kind = NodeKind::kInternal;
  nodes[0].part_end = 1;
  nodes[0].first_child = 1;
  nodes[0].num_children = 1;
  nodes[0].rcrit = 1e30;
  nodes[1].kind = NodeKind::kMultipoleLeaf;
  nodes[1].mp.com = {5.0, 5.0, 5.0};
  TraversalConfig cfg;
  cfg.backend = KernelBackend::kSimd;
  cfg.eps = 0.0;
  InteractionQueue queue(InteractionQueue::kDefaultCapacity, GetParam());
  const InteractionStats cells = traverse_groups_batched(
      TreeView{nodes, {}, {}, {}, {}}, targets, make_groups(targets, 64), cfg, false, queue);
  EXPECT_EQ(cells.p2c_padded, kKernelBatchPad * targets.size());
  for (std::uint32_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(targets.ax[i], before.ax[i]) << i;
    EXPECT_EQ(targets.ay[i], before.ay[i]) << i;
    EXPECT_EQ(targets.az[i], before.az[i]) << i;
    EXPECT_EQ(targets.pot[i], before.pot[i]) << i;
  }

  ParticleSet one;
  one.add({{1e3, -1e3, 5.0}, {0, 0, 0}, 1.0, 0});
  sfc::KeySpace space(AABB{{0, -2e3, 0}, {2e3, 0, 10}});
  sort_by_keys(one, space);
  Octree tree;
  tree.build(one, 16);
  tree.compute_properties(one, 0.4);
  one.ax[0] = 0.75;
  one.ay[0] = -0.0;
  one.az[0] = 1e-30;
  one.pot[0] = -4.5;
  const ParticleSet one_before = one;
  traverse_groups_batched(tree.view(one), one, make_groups(one, 64), cfg, true, queue);
  EXPECT_EQ(one.ax[0], one_before.ax[0]);
  EXPECT_EQ(one.az[0], one_before.az[0]);
  EXPECT_EQ(one.pot[0], one_before.pot[0]);
  EXPECT_EQ(std::signbit(one.ay[0]), std::signbit(one_before.ay[0] + 0.0));
}

TEST_P(SimdDrainIsa, DisjointWalkWithPadLanesAgrees) {
  WalkSetup src = make_setup(1200, 71, 0.4);
  ParticleSet targets = clustered_cloud(500, 72);
  sfc::KeySpace space(targets.bounds());
  sort_by_keys(targets, space);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  EXPECT_LT(diff_vs_scalar(src.tree.view(src.parts), targets, make_groups(targets, 64), cfg,
                           /*self=*/false),
            3e-5);  // measured 6.5e-6
}

TEST_P(SimdDrainIsa, LongLeafBatchAgrees) {
  // bench_kernels' p-p case: a sorted Plummer sphere under one particle leaf
  // the MAC never accepts, so each run of groups drains all 4096 sources as
  // one shared batch, 256 float steps per AVX-512 lane. Measured 3.3e-5 on
  // both variants (1.6e-5 with one walk per group: the run's box is wider
  // than a group's); CI holds bench_kernels' 16384-source batch (measured
  // 2.6e-5 avx512f) to the same bound.
  ParticleSet parts = make_plummer(4096, 42);
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  std::vector<TreeNode> nodes(1);
  nodes[0].kind = NodeKind::kParticleLeaf;
  nodes[0].part_end = static_cast<std::uint32_t>(parts.size());
  nodes[0].rcrit = 1e30;
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  const TreeView view{nodes, parts.x, parts.y, parts.z, parts.mass};
  EXPECT_LT(diff_vs_scalar(view, parts, make_groups(parts, 64), cfg, /*self=*/true), 6e-5);
}

TEST_P(SimdDrainIsa, MonopoleOnlyWalkAgrees) {
  WalkSetup s = make_setup(1500, 83, 0.5);
  zero_quadrupoles(s.tree);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  EXPECT_LT(diff_vs_scalar(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true),
            1e-5);  // measured 2.2e-6
}

TEST_P(SimdDrainIsa, MultipoleLeafBatchAgrees) {
  // Two multipole leaves under a never-accepted root: one cell batch of two
  // useful lanes and fourteen pad lanes per group.
  ParticleSet targets = clustered_cloud(100, 91);
  sfc::KeySpace space(targets.bounds());
  sort_by_keys(targets, space);
  std::vector<TreeNode> nodes(3);
  nodes[0].kind = NodeKind::kInternal;
  nodes[0].part_end = 1;
  nodes[0].first_child = 1;
  nodes[0].num_children = 2;
  nodes[0].rcrit = 1e30;
  for (int c = 1; c <= 2; ++c) {
    nodes[c].kind = NodeKind::kMultipoleLeaf;
    nodes[c].mp.mass = 1.5 * c;
    nodes[c].mp.com = {3.0 * c, -2.0, 1.0};
    nodes[c].mp.quad.add_outer({0.1, 0.2, -0.1}, nodes[c].mp.mass);
  }
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  EXPECT_LT(diff_vs_scalar(TreeView{nodes, {}, {}, {}, {}}, targets, make_groups(targets, 64),
                           cfg, /*self=*/false),
            1e-6);  // measured 2.5e-7
}

TEST_P(SimdDrainIsa, CapacityFourFlushAgreesWithDefault) {
  WalkSetup s = make_setup(2000, 103, 0.4);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet roomy, tiny;
  const InteractionStats roomy_stats = batched_forces(
      s, roomy, KernelBackend::kSimd, cfg, InteractionQueue::kDefaultCapacity, GetParam());
  const InteractionStats tiny_stats =
      batched_forces(s, tiny, KernelBackend::kSimd, cfg, /*queue_capacity=*/4, GetParam());
  EXPECT_EQ(tiny_stats.p2p, roomy_stats.p2p);
  EXPECT_EQ(tiny_stats.p2c, roomy_stats.p2c);
  EXPECT_GT(tiny_stats.batches(), roomy_stats.batches());
  EXPECT_LT(max_rel_acc_diff(tiny, roomy), 3e-6);  // measured 6.2e-7
  EXPECT_LT(diff_vs_scalar(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true, 4),
            5e-6);  // measured 2.0e-6
}

TEST_P(SimdDrainIsa, TargetBlockingIsBitwiseInvisible) {
  // The AVX-512F drains run targets in blocks of four and the rest one at a
  // time. A target's sums must not depend on the block it falls in: for every
  // nt from 1 to 9 (full blocks and every tail), each target of a drained
  // cell batch and leaf batch, self and non-self, must equal a walk over that
  // target alone with the same centre and sources, bit for bit.
  ParticleSet sources = clustered_cloud(37, 131);  // 37 lanes: three padded
  std::vector<TreeNode> nodes;
  Xoshiro256 rng(132);
  for (int c = 0; c < 21; ++c) {
    TreeNode cell;
    cell.kind = NodeKind::kMultipoleLeaf;
    cell.mp.mass = 0.5 + rng.uniform();
    cell.mp.com = rng.unit_sphere() * (2.0 + rng.uniform());
    cell.mp.quad.add_outer(rng.unit_sphere() * 0.3, cell.mp.mass);
    nodes.push_back(cell);
  }
  TreeNode leaf;
  leaf.kind = NodeKind::kParticleLeaf;
  leaf.part_end = static_cast<std::uint32_t>(sources.size());
  nodes.push_back(leaf);

  const auto view_of = [&](const ParticleSet& p) {
    return TreeView{nodes, p.x, p.y, p.z, p.mass};
  };
  WalkParams params;
  params.eps2 = 1e-4;
  params.centre = {0.125, -0.25, 0.0625};
  // Drains targets [begin, end) of `targets` against every cell, or against
  // the leaf, of `view`.
  const auto drain = [&](const TreeView& view, ParticleSet& targets, bool self, bool cells,
                         std::uint32_t begin, std::uint32_t end) {
    WalkParams p = params;
    p.self = self;
    InteractionQueue queue(InteractionQueue::kDefaultCapacity, GetParam());
    queue.begin_walk(view, targets, p, KernelBackend::kSimd, begin, end);
    if (cells) {
      for (std::size_t c = 0; c + 1 < view.nodes.size(); ++c) queue.push_cell(view.nodes[c]);
    } else {
      queue.push_leaf(view.nodes.back());
    }
    queue.finish_walk();
  };

  for (const bool self : {false, true}) {
    for (const bool cells : {true, false}) {
      for (std::uint32_t nt = 1; nt <= 9; ++nt) {
        // Self walks target a range inside the leaf; others a separate cloud.
        ParticleSet targets = self ? sources : clustered_cloud(nt + 2, 133 + nt);
        const std::uint32_t begin = self ? 5 : 1;
        const TreeView view = view_of(self ? targets : sources);
        ParticleSet block = targets;
        block.zero_forces();
        drain(view, block, self, cells, begin, begin + nt);
        for (std::uint32_t i = begin; i < begin + nt; ++i) {
          ParticleSet alone = targets;
          alone.zero_forces();
          drain(view_of(self ? alone : sources), alone, self, cells, i, i + 1);
          const std::string where = std::string(self ? "self " : "disjoint ") +
                                    (cells ? "cells" : "leaf") + " nt=" + std::to_string(nt) +
                                    " i=" + std::to_string(i);
          EXPECT_NE(block.ax[i], 0.0) << where;
          EXPECT_EQ(block.ax[i], alone.ax[i]) << where;
          EXPECT_EQ(block.ay[i], alone.ay[i]) << where;
          EXPECT_EQ(block.az[i], alone.az[i]) << where;
          EXPECT_EQ(block.pot[i], alone.pot[i]) << where;
        }
      }
    }
  }
}

TEST_P(SimdDrainIsa, MaskFreeChunksMatchTheMaskedDrainBitwise) {
  // The AVX-512F leaf drain runs the self-mask only on the 16-lane chunks
  // that hold a source index inside the batch's target range; on the others
  // keep is 1 and r2's bias is the softening alone. Targets [12, 12 + nt),
  // nt = 1..9, drain against a batch with self chunks (leaves [32, 53) then
  // [0, 32): the targets sit at lanes 33.., inside a later chunk) and one
  // without (leaf [32, 53) alone). Each target must equal, bit for bit, the
  // same target in a drain whose range [0, 53) flags every chunk, so that
  // every chunk runs the mask; and the potentials, where a self lane the
  // mask missed would add m/eps, must match the scalar oracle's.
  const ParticleSet sources = clustered_cloud(53, 151);  // 53 lanes: 4 chunks
  std::vector<TreeNode> nodes(2);
  nodes[0].kind = nodes[1].kind = NodeKind::kParticleLeaf;
  nodes[0].part_begin = 32;
  nodes[0].part_end = 53;
  nodes[1].part_begin = 0;
  nodes[1].part_end = 32;
  WalkParams params;
  params.self = true;
  params.eps2 = 1e-4;
  params.centre = {0.0625, 0.125, -0.25};
  const auto drain = [&](std::size_t leaves, std::uint32_t begin, std::uint32_t end,
                         KernelBackend backend = KernelBackend::kSimd) {
    ParticleSet out = sources;
    out.zero_forces();
    InteractionQueue queue(InteractionQueue::kDefaultCapacity, GetParam());
    queue.begin_walk(TreeView{nodes, out.x, out.y, out.z, out.mass}, out, params, backend,
                     begin, end);
    for (std::size_t k = 0; k < leaves; ++k) queue.push_leaf(nodes[k]);
    queue.finish_walk();
    return out;
  };
  for (const std::size_t leaves : {std::size_t{2}, std::size_t{1}}) {
    const ParticleSet all_masked = drain(leaves, 0, 53);
    const ParticleSet oracle = drain(leaves, 0, 53, KernelBackend::kScalar);
    for (std::uint32_t nt = 1; nt <= 9; ++nt) {
      const ParticleSet flagged = drain(leaves, 12, 12 + nt);
      for (std::uint32_t i = 12; i < 12 + nt; ++i) {
        const std::string where = std::string(leaves == 2 ? "self chunks" : "no self chunk") +
                                  " nt=" + std::to_string(nt) + " i=" + std::to_string(i);
        EXPECT_NE(flagged.ax[i], 0.0) << where;
        EXPECT_EQ(flagged.ax[i], all_masked.ax[i]) << where;
        EXPECT_EQ(flagged.ay[i], all_masked.ay[i]) << where;
        EXPECT_EQ(flagged.az[i], all_masked.az[i]) << where;
        EXPECT_EQ(flagged.pot[i], all_masked.pot[i]) << where;
        EXPECT_NEAR(flagged.pot[i], oracle.pot[i], 1e-6 * std::abs(oracle.pot[i])) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SimdDrainIsa,
                         ::testing::Values(KernelIsa::kPortable, KernelIsa::kAvx512f),
                         [](const ::testing::TestParamInfo<KernelIsa>& param_info) {
                           return std::string(kernel_isa_name(param_info.param));
                         });

TEST(KernelIsa, HostIsaIsReportedByName) {
  const std::string name = kernel_isa();
  EXPECT_TRUE(name == "avx512f" || name == "portable") << name;
  EXPECT_EQ(name, kernel_isa_name(host_kernel_isa()));
}

TEST(KernelIsa, RsqrtNewtonIsWithinFourUlpOfOneOverSqrt) {
  if (host_kernel_isa() != KernelIsa::kAvx512f) GTEST_SKIP() << "host lacks AVX-512F";
  // Log-uniform float r2 over [1e-30, 1e30], plus the self-lane bias (1.0).
  // A length that is not a multiple of 16 exercises the masked tail. The
  // rsqrt14 estimate alone is off by up to 2^-14 (~1000 float ulp); one
  // Newton step must bring it within 4 ulp of the correctly rounded value.
  std::vector<float> r2;
  constexpr int kSamples = 100003;
  for (int k = 0; k < kSamples; ++k)
    r2.push_back(static_cast<float>(std::pow(10.0, -30.0 + 60.0 * k / (kSamples - 1))));
  r2.push_back(1.0f);
  std::vector<float> rinv(r2.size());
  rsqrt_avx512f(r2, rinv);
  std::int64_t worst = 0;
  for (std::size_t k = 0; k < r2.size(); ++k) {
    const auto ref = static_cast<float>(1.0 / std::sqrt(static_cast<double>(r2[k])));
    std::int32_t got_bits = 0, ref_bits = 0;
    std::memcpy(&got_bits, &rinv[k], sizeof got_bits);
    std::memcpy(&ref_bits, &ref, sizeof ref_bits);
    worst = std::max<std::int64_t>(worst, std::abs(got_bits - ref_bits));  // both positive
  }
  EXPECT_LE(worst, 4) << "worst ulp distance";
}

TEST(KernelIsa, PortableAndAvx512fVariantsAgree) {
  // Both variants compute in float; they differ only in 1/sqrt (rsqrt14 +
  // Newton vs a correctly rounded sqrt and divide) and summation order
  // (16 vs the baseline ISA's lanes). Measured worst: 7.1e-7 at eps = 0,
  // 1.8e-6 at eps = 1e-2.
  if (host_kernel_isa() != KernelIsa::kAvx512f) GTEST_SKIP() << "host lacks AVX-512F";
  WalkSetup s = make_setup(3000, 61, 0.4);
  for (const double eps : {0.0, 1e-2}) {
    TraversalConfig cfg;
    cfg.theta = 0.4;
    cfg.eps = eps;
    ParticleSet portable, avx512f;
    batched_forces(s, portable, KernelBackend::kSimd, cfg, InteractionQueue::kDefaultCapacity,
                   KernelIsa::kPortable);
    batched_forces(s, avx512f, KernelBackend::kSimd, cfg, InteractionQueue::kDefaultCapacity,
                   KernelIsa::kAvx512f);
    EXPECT_LT(max_rel_acc_diff(portable, avx512f), 7e-6) << "eps=" << eps;
  }
}

TEST(KernelBackend, SelfPairsCountRangeOverlap) {
  // A self walk stages leaves as particle ranges and counts its masked
  // self-pairs as the overlap of each range with the target range. Leaves
  // disjoint from, partly over and wholly inside or around the targets
  // [10, 30) must give the brute-force pair counts on both backends, also
  // when a capacity-4 queue flushes between them and splits the leaves over
  // several batches.
  const ParticleSet parts = clustered_cloud(64, 141);
  const std::pair<std::uint32_t, std::uint32_t> ranges[] = {
      {0, 8}, {5, 15}, {12, 20}, {25, 40}, {0, 64}, {30, 31}};
  std::vector<TreeNode> nodes;
  for (const auto& [begin, end] : ranges) {
    TreeNode leaf;
    leaf.kind = NodeKind::kParticleLeaf;
    leaf.part_begin = begin;
    leaf.part_end = end;
    nodes.push_back(leaf);
  }
  constexpr std::uint32_t kTb = 10, kTe = 30;
  const std::uint64_t nt = kTe - kTb;

  for (const std::size_t capacity : {InteractionQueue::kDefaultCapacity, std::size_t{4}}) {
    // Brute force, batch by batch: the roomy queue stages every leaf in one
    // batch; capacity 4 flushes before each leaf after the first, as each
    // holds at least one particle and the staged ones already fill it.
    std::uint64_t p2p = 0, simd_padded = 0, batch_sources = 0, batches = 0;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      for (std::uint32_t s = ranges[k].first; s < ranges[k].second; ++s)
        for (std::uint32_t i = kTb; i < kTe; ++i) p2p += s != i ? 1 : 0;
      batch_sources += ranges[k].second - ranges[k].first;
      const bool last_in_batch = capacity != InteractionQueue::kDefaultCapacity ||
                                 k + 1 == nodes.size();
      if (last_in_batch) {
        simd_padded += (batch_sources + kKernelBatchPad - 1) / kKernelBatchPad *
                       kKernelBatchPad * nt;
        batch_sources = 0;
        ++batches;
      }
    }
    for (const KernelBackend b : kKernelBackends) {
      ParticleSet targets = parts;
      targets.zero_forces();
      WalkParams params;
      params.self = true;
      params.eps2 = 1e-4;
      InteractionQueue queue(capacity);
      queue.begin_walk(TreeView{nodes, targets.x, targets.y, targets.z, targets.mass}, targets,
                       params, b, kTb, kTe);
      for (const TreeNode& leaf : nodes) queue.push_leaf(leaf);
      const InteractionStats stats = queue.finish_walk();
      const std::string where =
          std::string(kernel_backend_name(b)) + " capacity=" + std::to_string(capacity);
      EXPECT_EQ(stats.p2p, p2p) << where;
      EXPECT_EQ(stats.p2p_padded, b == KernelBackend::kScalar ? p2p : simd_padded) << where;
      EXPECT_EQ(stats.pp_batches, batches) << where;
      EXPECT_EQ(stats.p2c, 0u) << where;
    }
  }
}

TEST(KernelBackend, FlopAccountingInvariants) {
  WalkSetup s = make_setup(1024, 113, 0.4);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet out;
  const InteractionStats stats = batched_forces(s, out, KernelBackend::kSimd, cfg);

  EXPECT_EQ(stats.useful_flops(), stats.p2p * kFlopsPerPP + stats.p2c * kFlopsPerPC);
  EXPECT_EQ(stats.padded_flops(),
            stats.p2p_padded * kFlopsPerPP + stats.p2c_padded * kFlopsPerPC);
  EXPECT_GE(stats.padded_flops(), stats.useful_flops());
  // Every drained batch appears exactly once in the histogram.
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : stats.batch_hist) hist_total += c;
  EXPECT_EQ(hist_total, stats.batches());

  // observe_batch buckets by floor(log2): bucket b covers [2^b, 2^(b+1)).
  InteractionStats h;
  h.observe_batch(1);
  h.observe_batch(7);
  h.observe_batch(8);
  h.observe_batch(~std::uint64_t{0});  // clamps into the last bucket
  EXPECT_EQ(h.batch_hist[0], 1u);
  EXPECT_EQ(h.batch_hist[2], 1u);
  EXPECT_EQ(h.batch_hist[3], 1u);
  EXPECT_EQ(h.batch_hist[kBatchHistBuckets - 1], 1u);
}

}  // namespace
}  // namespace bonsai
