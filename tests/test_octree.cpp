// Structural and multipole invariants of the octree builder.
#include "tree/octree.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "tree/particle.hpp"
#include "util/random.hpp"

namespace bonsai {
namespace {

ParticleSet random_cloud(std::size_t n, std::uint64_t seed, double radius = 1.0) {
  Xoshiro256 rng(seed);
  ParticleSet parts;
  parts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Non-uniform (clustered) cloud: radius^2 bias concentrates the centre.
    const Vec3d dir = rng.unit_sphere();
    const double r = radius * rng.uniform() * rng.uniform();
    Particle p;
    p.pos = dir * r;
    p.vel = {0.0, 0.0, 0.0};
    p.mass = rng.uniform(0.5, 1.5);
    p.id = i;
    parts.add(p);
  }
  return parts;
}

struct BuiltTree {
  ParticleSet parts;
  sfc::KeySpace space;
  Octree tree;
};

BuiltTree build_cloud(std::size_t n, std::uint64_t seed, int nleaf,
                      double theta = 0.4) {
  BuiltTree bt;
  bt.parts = random_cloud(n, seed);
  bt.space = sfc::KeySpace(bt.parts.bounds());
  sort_by_keys(bt.parts, bt.space);
  bt.tree.build(bt.parts, nleaf);
  bt.tree.compute_properties(bt.parts, theta);
  return bt;
}

class OctreeNleafTest : public ::testing::TestWithParam<int> {};

TEST_P(OctreeNleafTest, LeavesPartitionParticles) {
  const int nleaf = GetParam();
  auto bt = build_cloud(3000, 101, nleaf);
  std::vector<int> covered(bt.parts.size(), 0);
  std::size_t leaves = 0;
  for (const TreeNode& node : bt.tree.nodes()) {
    if (!node.is_leaf()) continue;
    ++leaves;
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) ++covered[i];
  }
  EXPECT_EQ(leaves, bt.tree.num_leaves());
  for (std::size_t i = 0; i < covered.size(); ++i)
    ASSERT_EQ(covered[i], 1) << "particle " << i << " in " << covered[i] << " leaves";
}

TEST_P(OctreeNleafTest, LeafSizeRespected) {
  const int nleaf = GetParam();
  auto bt = build_cloud(3000, 103, nleaf);
  for (const TreeNode& node : bt.tree.nodes()) {
    if (!node.is_leaf()) continue;
    if (node.level < sfc::kMaxLevel) {
      ASSERT_LE(node.count(), static_cast<std::uint32_t>(nleaf));
    }
  }
}

TEST_P(OctreeNleafTest, ChildRangesPartitionParent) {
  const int nleaf = GetParam();
  auto bt = build_cloud(3000, 107, nleaf);
  const auto nodes = bt.tree.nodes();
  for (const TreeNode& node : nodes) {
    if (node.is_leaf()) continue;
    std::uint32_t covered = 0;
    sfc::Key prev_end = node.key_begin;
    for (std::uint8_t c = 0; c < node.num_children; ++c) {
      const TreeNode& ch = nodes[static_cast<std::size_t>(node.first_child) + c];
      covered += ch.count();
      ASSERT_GT(ch.count(), 0u) << "empty children must not be materialized";
      ASSERT_EQ(ch.level, node.level + 1);
      // Key ranges are nested, ordered and non-overlapping.
      ASSERT_GE(ch.key_begin, prev_end);
      ASSERT_LE(ch.key_end, node.key_end);
      prev_end = ch.key_end;
    }
    ASSERT_EQ(covered, node.count());
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, OctreeNleafTest, ::testing::Values(1, 8, 16, 64));

TEST(Octree, ParticleKeysInsideNodeKeyRange) {
  auto bt = build_cloud(2000, 109, 16);
  for (const TreeNode& node : bt.tree.nodes()) {
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) {
      ASSERT_GE(bt.parts.key[i], node.key_begin);
      ASSERT_LT(bt.parts.key[i], node.key_end);
    }
  }
}

TEST(Octree, BoxesContainParticlesAndNest) {
  auto bt = build_cloud(2000, 113, 16);
  const auto nodes = bt.tree.nodes();
  for (const TreeNode& node : nodes) {
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i)
      ASSERT_TRUE(node.box.contains(bt.parts.pos(i)));
    if (!node.is_leaf()) {
      for (std::uint8_t c = 0; c < node.num_children; ++c) {
        const TreeNode& ch = nodes[static_cast<std::size_t>(node.first_child) + c];
        ASSERT_TRUE(node.box.contains(ch.box.lo));
        ASSERT_TRUE(node.box.contains(ch.box.hi));
      }
    }
  }
}

TEST(Octree, RootMonopoleMatchesGlobal) {
  auto bt = build_cloud(5000, 127, 16);
  const TreeNode& root = bt.tree.root();
  EXPECT_NEAR(root.mp.mass, bt.parts.total_mass(), 1e-9 * bt.parts.total_mass());
  Vec3d com{};
  for (std::size_t i = 0; i < bt.parts.size(); ++i)
    com += bt.parts.mass[i] * bt.parts.pos(i);
  com /= bt.parts.total_mass();
  EXPECT_NEAR(root.mp.com.x, com.x, 1e-9);
  EXPECT_NEAR(root.mp.com.y, com.y, 1e-9);
  EXPECT_NEAR(root.mp.com.z, com.z, 1e-9);
}

TEST(Octree, InternalMultipolesMatchDirectComputation) {
  // Parallel-axis combination must equal the moment computed from scratch.
  auto bt = build_cloud(4000, 131, 16);
  const auto nodes = bt.tree.nodes();
  for (std::size_t k = 0; k < nodes.size(); k += 7) {  // sample nodes
    const TreeNode& node = nodes[k];
    if (node.count() == 0) continue;
    Multipole ref;
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) {
      ref.mass += bt.parts.mass[i];
      ref.com += bt.parts.mass[i] * bt.parts.pos(i);
    }
    ref.com /= ref.mass;
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i)
      ref.quad.add_outer(bt.parts.pos(i) - ref.com, bt.parts.mass[i]);

    ASSERT_NEAR(node.mp.mass, ref.mass, 1e-9 * ref.mass);
    ASSERT_NEAR(norm(node.mp.com - ref.com), 0.0, 1e-9);
    for (int q = 0; q < 6; ++q)
      ASSERT_NEAR(node.mp.quad.q[q], ref.quad.q[q], 1e-7 * (1.0 + std::abs(ref.quad.q[q])));
  }
}

TEST(Octree, QuadrupoleTraceNonNegative) {
  // Q = sum m r r^T is positive semi-definite, so tr(Q) >= 0 always.
  auto bt = build_cloud(3000, 137, 16);
  for (const TreeNode& node : bt.tree.nodes())
    ASSERT_GE(node.mp.quad.trace(), -1e-12);
}

TEST(Octree, RcritScalesInverselyWithTheta) {
  // The same cloud at two opening angles: identical trees, rcrit apart.
  const auto bt04 = build_cloud(1000, 139, 16, 0.4);
  const auto bt08 = build_cloud(1000, 139, 16, 0.8);
  const auto n04 = bt04.tree.nodes();
  const auto n08 = bt08.tree.nodes();
  ASSERT_EQ(n04.size(), n08.size());
  for (std::size_t i = 0; i < n04.size(); ++i) {
    if (n04[i].count() == 0) continue;
    // l/0.8 + d < l/0.4 + d.
    ASSERT_LT(n08[i].rcrit, n04[i].rcrit + 1e-12);
  }
}

TEST(Octree, EmptySetYieldsEmptyRoot) {
  ParticleSet parts;
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  Octree tree;
  tree.build(parts);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root().count(), 0u);
}

TEST(Octree, SingleParticle) {
  ParticleSet parts;
  parts.add({{0.25, 0.5, 0.75}, {0, 0, 0}, 2.5, 0});
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.4);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_EQ(tree.root().count(), 1u);
  EXPECT_DOUBLE_EQ(tree.root().mp.mass, 2.5);
  EXPECT_NEAR(norm(tree.root().mp.com - Vec3d(0.25, 0.5, 0.75)), 0.0, 1e-12);
  EXPECT_NEAR(tree.root().mp.quad.trace(), 0.0, 1e-20);
}

TEST(Octree, CoincidentParticlesTerminateAtMaxLevel) {
  // 100 particles at the same position can never be split below nleaf;
  // construction must still terminate (leaf at kMaxLevel).
  ParticleSet parts;
  for (int i = 0; i < 100; ++i) parts.add({{0.5, 0.5, 0.5}, {0, 0, 0}, 1.0, static_cast<std::uint64_t>(i)});
  parts.add({{0.1, 0.1, 0.1}, {0, 0, 0}, 1.0, 100});
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts, 16);
  tree.compute_properties(parts, 0.4);
  std::uint32_t covered = 0;
  for (const TreeNode& n : tree.nodes())
    if (n.is_leaf()) covered += n.count();
  EXPECT_EQ(covered, parts.size());
}

TEST(Octree, UnsortedInputRejected) {
  ParticleSet parts = random_cloud(100, 149);
  sfc::KeySpace space(parts.bounds());
  for (std::size_t i = 0; i < parts.size(); ++i) parts.key[i] = space.key(parts.pos(i));
  // Deliberately not sorted: builder must refuse rather than mis-build.
  bool sorted = std::is_sorted(parts.key.begin(), parts.key.end());
  if (!sorted) {
    Octree tree;
    EXPECT_THROW(tree.build(parts), std::logic_error);
  }
}

TEST(Octree, DepthGrowsWithClustering) {
  auto spread = build_cloud(2000, 151, 16);
  // Same count squeezed into a tiny ball inside a huge key space.
  ParticleSet tight;
  Xoshiro256 rng(153);
  for (int i = 0; i < 2000; ++i) {
    Particle p;
    p.pos = Vec3d{0.5, 0.5, 0.5} + rng.unit_sphere() * (1e-6 * rng.uniform());
    p.mass = 1.0;
    p.id = static_cast<std::uint64_t>(i);
    tight.add(p);
  }
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(tight, space);
  Octree tight_tree;
  tight_tree.build(tight, 16);
  EXPECT_GT(tight_tree.max_depth(), spread.tree.max_depth());
}

}  // namespace
}  // namespace bonsai
