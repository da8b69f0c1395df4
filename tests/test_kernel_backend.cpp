// The batched interaction-list engine: backend name parsing, cross-backend
// force agreement against the inline reference walk, every compiled `simd`
// drain variant (KernelIsa) against the scalar oracle, the AVX-512F rsqrt,
// useful-vs-padded flops accounting, batch edge cases and queue
// overflow/flush behaviour.
#include "tree/kernel_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "tree/octree.hpp"
#include "tree/traverse.hpp"
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
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kSimd, KernelBackend::kSimdFloat}) {
    const auto parsed = kernel_backend_from_name(kernel_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(kernel_backend_from_name("cuda").has_value());
  EXPECT_FALSE(kernel_backend_from_name("").has_value());
  EXPECT_FALSE(kernel_backend_from_name("SIMD").has_value());
}

TEST(KernelBackend, AllBackendsAgreeWithInlineWalk) {
  WalkSetup s = make_setup(3000, 61, 0.4);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;

  ParticleSet inlined = s.parts;
  inlined.zero_forces();
  const InteractionStats inline_stats =
      traverse_groups(s.tree.view(inlined), inlined, s.groups, cfg, /*self=*/true);
  ASSERT_GT(inline_stats.p2p, 0u);
  ASSERT_GT(inline_stats.p2c, 0u);
  EXPECT_EQ(inline_stats.p2p_padded, inline_stats.p2p);  // inline pads nothing
  EXPECT_EQ(inline_stats.batches(), 0u);

  ParticleSet scalar, simd, simd_float;
  const InteractionStats scalar_stats =
      batched_forces(s, scalar, KernelBackend::kScalar, cfg);
  const InteractionStats simd_stats = batched_forces(s, simd, KernelBackend::kSimd, cfg);
  const InteractionStats float_stats =
      batched_forces(s, simd_float, KernelBackend::kSimdFloat, cfg);

  // Identical useful counts: the emission mirrors the inline MAC decisions.
  for (const InteractionStats* bs : {&scalar_stats, &simd_stats, &float_stats}) {
    EXPECT_EQ(bs->p2p, inline_stats.p2p);
    EXPECT_EQ(bs->p2c, inline_stats.p2c);
    EXPECT_GT(bs->batches(), 0u);
  }
  // Scalar replays without padding; SIMD lanes pad to the batch width.
  EXPECT_EQ(scalar_stats.padded_flops(), scalar_stats.useful_flops());
  EXPECT_GE(simd_stats.p2p_padded, simd_stats.p2p);
  EXPECT_GE(simd_stats.p2c_padded, simd_stats.p2c);
  EXPECT_GT(simd_stats.padded_flops(), 0u);
  EXPECT_LE(simd_stats.fill_ratio(), 1.0);
  EXPECT_GT(simd_stats.fill_ratio(), 0.5);  // ncrit=64 groups keep batches dense

  // Forces: scalar replays the same kernels in near-identical order; the
  // double SIMD path differs only by summation order; the float path by
  // single-precision arithmetic.
  EXPECT_LT(max_rel_acc_diff(scalar, inlined), 1e-12);
  EXPECT_LT(max_rel_acc_diff(simd, inlined), 1e-10);
  EXPECT_LT(median_acc_error(simd_float, inlined), 1e-5);
  EXPECT_LT(max_rel_acc_diff(simd, scalar), 1e-10);
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
  ParticleSet inlined = targets;
  inlined.zero_forces();
  const InteractionStats inline_stats =
      traverse_groups(src.tree.view(src.parts), inlined, groups, cfg, /*self=*/false);

  for (const KernelBackend b : {KernelBackend::kScalar, KernelBackend::kSimd}) {
    ParticleSet got = targets;
    got.zero_forces();
    TraversalConfig bcfg = cfg;
    bcfg.backend = b;
    InteractionQueue queue;
    const InteractionStats stats = traverse_groups_batched(
        src.tree.view(src.parts), got, groups, bcfg, /*self=*/false, queue);
    EXPECT_EQ(stats.p2p, inline_stats.p2p);
    EXPECT_EQ(stats.p2c, inline_stats.p2c);
    EXPECT_LT(max_rel_acc_diff(got, inlined), 1e-10);
  }
}

TEST(KernelBackend, MonopoleOnlyWalkAgrees) {
  // quadrupole = false: scalar replays pc_kernel_monopole; the SIMD paths run
  // the quadrupole arithmetic with zeroed moments, which is identical math.
  WalkSetup s = make_setup(1500, 83, 0.5);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  cfg.quadrupole = false;

  ParticleSet inlined = s.parts;
  inlined.zero_forces();
  traverse_groups(s.tree.view(inlined), inlined, s.groups, cfg, /*self=*/true);

  ParticleSet scalar, simd;
  batched_forces(s, scalar, KernelBackend::kScalar, cfg);
  batched_forces(s, simd, KernelBackend::kSimd, cfg);
  EXPECT_LT(max_rel_acc_diff(scalar, inlined), 1e-12);
  EXPECT_LT(max_rel_acc_diff(simd, inlined), 1e-10);
}

TEST(KernelBackend, MultipoleLeafBatch) {
  // A handcrafted LET-style view: an internal root that the MAC never accepts
  // over two multipole-leaf children. Both must be staged as cell batches and
  // match the inline walk.
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
  ParticleSet inlined = targets;
  inlined.zero_forces();
  const InteractionStats inline_stats =
      traverse_groups(view, inlined, groups, cfg, /*self=*/false);
  EXPECT_EQ(inline_stats.p2c, 2 * targets.size());
  EXPECT_EQ(inline_stats.p2p, 0u);

  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kSimd, KernelBackend::kSimdFloat}) {
    ParticleSet got = targets;
    got.zero_forces();
    TraversalConfig bcfg = cfg;
    bcfg.backend = b;
    InteractionQueue queue;
    const InteractionStats stats =
        traverse_groups_batched(view, got, groups, bcfg, /*self=*/false, queue);
    EXPECT_EQ(stats.p2c, inline_stats.p2c);
    EXPECT_EQ(stats.pc_batches, groups.size());
    EXPECT_EQ(stats.pp_batches, 0u);
    const double tol = b == KernelBackend::kSimdFloat ? 1e-5 : 1e-12;
    EXPECT_LT(max_rel_acc_diff(got, inlined), tol);
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
  const InteractionStats empty_stats = traverse_one_group_batched(
      s.tree.view(s.parts), s.parts, g, cfg, /*self=*/true, queue);
  EXPECT_EQ(empty_stats.p2p + empty_stats.p2c, 0u);
  EXPECT_EQ(empty_stats.batches(), 0u);

  // Empty source view: no-op.
  const InteractionStats no_src = traverse_one_group_batched(
      TreeView{}, s.parts, s.groups[0], cfg, /*self=*/true, queue);
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
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kSimd, KernelBackend::kSimdFloat}) {
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
    // Scalar replay is order-stable under splitting (per-cell and per-target
    // accumulation is unchanged); SIMD splits change only summation order.
    if (b == KernelBackend::kScalar) {
      EXPECT_LT(max_rel_acc_diff(tiny, roomy), 1e-13);
    } else {
      EXPECT_LT(max_rel_acc_diff(tiny, roomy), 1e-11);
    }
  }
}

// Every compiled variant of the double `simd` drain against the scalar
// oracle, over the agreement cases above. The avx512f instance skips on
// hosts without AVX-512F; the portable one runs everywhere.
class SimdDrainIsa : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (GetParam() == KernelIsa::kAvx512f && host_kernel_isa() != KernelIsa::kAvx512f)
      GTEST_SKIP() << "host lacks AVX-512F";
  }

  // Worst relative acceleration difference between this variant and the
  // scalar replay over one batched walk of `targets` against `src`.
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
  WalkSetup s = make_setup(3000, 61, 0.4);
  for (const double eps : {0.0, 1e-2}) {
    TraversalConfig cfg;
    cfg.theta = 0.4;
    cfg.eps = eps;
    EXPECT_LT(diff_vs_scalar(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true),
              1e-10)
        << "eps=" << eps;
  }
}

TEST_P(SimdDrainIsa, LoneSelfPairAmongPadLanesIsExactlyZero) {
  // One self lane plus seven pad lanes, unsoftened: every lane is masked.
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

TEST_P(SimdDrainIsa, DisjointWalkWithPadLanesAgrees) {
  WalkSetup src = make_setup(1200, 71, 0.4);
  ParticleSet targets = clustered_cloud(500, 72);
  sfc::KeySpace space(targets.bounds());
  sort_by_keys(targets, space);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  EXPECT_LT(diff_vs_scalar(src.tree.view(src.parts), targets, make_groups(targets, 64), cfg,
                           /*self=*/false),
            1e-10);
}

TEST_P(SimdDrainIsa, MonopoleOnlyWalkAgrees) {
  WalkSetup s = make_setup(1500, 83, 0.5);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  cfg.quadrupole = false;
  EXPECT_LT(diff_vs_scalar(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true),
            1e-10);
}

TEST_P(SimdDrainIsa, MultipoleLeafBatchAgrees) {
  // Two multipole leaves under a never-accepted root: one cell batch of two
  // useful lanes and six pad lanes per group.
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
            1e-10);
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
  EXPECT_LT(max_rel_acc_diff(tiny, roomy), 1e-10);
  EXPECT_LT(diff_vs_scalar(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true, 4),
            1e-10);
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
  // Log-uniform r2 over [1e-20, 1e31], plus the self-lane bias (1.0) and the
  // r2 of a pad lane (3 * 1e15^2). A length that is not a multiple of 8
  // exercises the masked tail.
  std::vector<double> r2;
  constexpr int kSamples = 100003;
  for (int k = 0; k < kSamples; ++k)
    r2.push_back(std::pow(10.0, -20.0 + 51.0 * k / (kSamples - 1)));
  r2.push_back(1.0);
  r2.push_back(3e30);
  std::vector<double> rinv(r2.size());
  rsqrt_avx512f(r2, rinv);
  std::int64_t worst = 0;
  for (std::size_t k = 0; k < r2.size(); ++k) {
    const double ref = 1.0 / std::sqrt(r2[k]);
    std::int64_t got_bits = 0, ref_bits = 0;
    std::memcpy(&got_bits, &rinv[k], sizeof got_bits);
    std::memcpy(&ref_bits, &ref, sizeof ref_bits);
    worst = std::max(worst, std::abs(got_bits - ref_bits));  // both positive
  }
  EXPECT_LE(worst, 4) << "worst ulp distance";
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
