// Property tests for the space-filling-curve machinery. The correctness of
// the whole decomposition strategy (§III-B1) rests on three invariants that
// are verified here:
//   1. encode/decode are inverse bijections (Morton and Hilbert);
//   2. keys are hierarchical: two points fall in the same geometric level-L
//      octree cell iff their keys share the top 3L bits;
//   3. the Hilbert curve is continuous: consecutive keys map to
//      grid-adjacent cells (this is what gives domains compact shapes).
// The table-driven Hilbert encoder is held bit for bit to Skilling's
// algorithm (hilbert_oracle.hpp), and the radix sort to std::sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "hilbert_oracle.hpp"
#include "sfc/hilbert.hpp"
#include "sfc/keys.hpp"
#include "sfc/morton.hpp"
#include "sfc/radix_sort.hpp"
#include "util/random.hpp"

namespace bonsai::sfc {
namespace {

TEST(Morton, KnownValues) {
  EXPECT_EQ(morton_encode(0, 0, 0), 0u);
  EXPECT_EQ(morton_encode(0, 0, 1), 1u);  // z is least significant
  EXPECT_EQ(morton_encode(0, 1, 0), 2u);
  EXPECT_EQ(morton_encode(1, 0, 0), 4u);
  EXPECT_EQ(morton_encode(1, 1, 1), 7u);
}

TEST(Morton, RoundTripRandom) {
  Xoshiro256 rng(21);
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z = static_cast<std::uint32_t>(rng() % kCoordRange);
    const Coords c = morton_decode(morton_encode(x, y, z));
    ASSERT_EQ(c.x, x);
    ASSERT_EQ(c.y, y);
    ASSERT_EQ(c.z, z);
  }
}

TEST(Morton, MaxCoordinateRoundTrip) {
  const std::uint32_t m = kCoordRange - 1;
  const Coords c = morton_decode(morton_encode(m, m, m));
  EXPECT_EQ(c.x, m);
  EXPECT_EQ(c.y, m);
  EXPECT_EQ(c.z, m);
}

TEST(Hilbert, RoundTripRandom) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z = static_cast<std::uint32_t>(rng() % kCoordRange);
    const Coords c = hilbert_decode(hilbert_encode(x, y, z));
    ASSERT_EQ(c.x, x);
    ASSERT_EQ(c.y, y);
    ASSERT_EQ(c.z, z);
  }
}

TEST(Hilbert, CornersRoundTrip) {
  const std::uint32_t m = kCoordRange - 1;
  for (std::uint32_t x : {0u, m})
    for (std::uint32_t y : {0u, m})
      for (std::uint32_t z : {0u, m}) {
        const Coords c = hilbert_decode(hilbert_encode(x, y, z));
        EXPECT_EQ(c.x, x);
        EXPECT_EQ(c.y, y);
        EXPECT_EQ(c.z, z);
      }
}

// Encode and decode one point through the tables and through Skilling's
// algorithm; both directions must agree bit for bit.
void expect_matches_oracle(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  const std::uint64_t key = oracle::hilbert_encode(x, y, z);
  ASSERT_EQ(hilbert_encode(x, y, z), key) << "(" << x << ", " << y << ", " << z << ")";
  ASSERT_EQ(hilbert_decode(key), oracle::hilbert_decode(key)) << "key " << key;
}

TEST(Hilbert, MatchesSkillingOnEveryPointOfGrids) {
  // The 32^3 grid at the origin (the finest five levels under one coarse
  // path) and a 32^3 grid spread over the whole key space (every state
  // transition of the coarse levels, with varied low bits).
  const std::uint32_t spread = kCoordRange / 32;
  for (std::uint32_t i = 0; i < 32; ++i)
    for (std::uint32_t j = 0; j < 32; ++j)
      for (std::uint32_t k = 0; k < 32; ++k) {
        expect_matches_oracle(i, j, k);
        expect_matches_oracle(i * spread + (j ^ k), j * spread + (k ^ i), k * spread + (i ^ j));
      }
}

TEST(Hilbert, MatchesSkillingAtTheCorners) {
  const std::uint32_t m = kCoordRange - 1;
  for (std::uint32_t x : {0u, 1u, m - 1, m})
    for (std::uint32_t y : {0u, 1u, m - 1, m})
      for (std::uint32_t z : {0u, 1u, m - 1, m}) expect_matches_oracle(x, y, z);
}

TEST(Hilbert, MatchesSkillingOnRandomCoordinates) {
  Xoshiro256 rng(47);
  for (int i = 0; i < (1 << 20); ++i) {
    const auto x = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z = static_cast<std::uint32_t>(rng() % kCoordRange);
    expect_matches_oracle(x, y, z);
  }
}

TEST(Hilbert, KeysAreDense) {
  // At 1 refinement level (coords restricted to 1 bit each scaled up to the
  // top bit) the 8 octants must map onto the 8 distinct top-level key groups.
  bool seen[8] = {};
  const std::uint32_t half = kCoordRange >> 1;
  for (std::uint32_t x = 0; x < 2; ++x)
    for (std::uint32_t y = 0; y < 2; ++y)
      for (std::uint32_t z = 0; z < 2; ++z) {
        const std::uint64_t key = hilbert_encode(x * half, y * half, z * half);
        const auto top = static_cast<unsigned>(key >> (3 * (kMaxLevel - 1)));
        ASSERT_LT(top, 8u);
        EXPECT_FALSE(seen[top]) << "octant key group repeated";
        seen[top] = true;
      }
}

TEST(Hilbert, CurveIsContinuous) {
  // Consecutive Hilbert indices must decode to grid-adjacent points
  // (Manhattan distance exactly 1). Check a window of the full-resolution
  // curve plus random windows.
  Xoshiro256 rng(29);
  auto manhattan = [](const Coords& a, const Coords& b) {
    auto d = [](std::uint32_t u, std::uint32_t v) {
      return u > v ? u - v : v - u;
    };
    return d(a.x, b.x) + d(a.y, b.y) + d(a.z, b.z);
  };
  Coords prev = hilbert_decode(0);
  for (std::uint64_t k = 1; k < 512; ++k) {
    const Coords cur = hilbert_decode(k);
    ASSERT_EQ(manhattan(prev, cur), 1u) << "discontinuity at key " << k;
    prev = cur;
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng() % (kKeyEnd - 1);
    ASSERT_EQ(manhattan(hilbert_decode(k), hilbert_decode(k + 1)), 1u)
        << "discontinuity at key " << k;
  }
}

// Hierarchy property, parameterized over octree level: same level-L geometric
// cell <=> same top 3L key bits.
class SfcHierarchyTest : public ::testing::TestWithParam<int> {};

TEST_P(SfcHierarchyTest, HilbertKeysAreHierarchical) {
  const int level = GetParam();
  Xoshiro256 rng(31 + static_cast<std::uint64_t>(level));
  const std::uint32_t cell = kCoordRange >> level;  // grid cells per octree cell
  for (int i = 0; i < 2000; ++i) {
    const auto x1 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y1 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z1 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto x2 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y2 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z2 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const bool same_geom_cell =
        (x1 / cell == x2 / cell) && (y1 / cell == y2 / cell) && (z1 / cell == z2 / cell);
    const bool same_key_cell =
        same_cell(hilbert_encode(x1, y1, z1), hilbert_encode(x2, y2, z2), level);
    ASSERT_EQ(same_geom_cell, same_key_cell)
        << "level " << level << ": hierarchy violated";
  }
}

TEST_P(SfcHierarchyTest, MortonKeysAreHierarchical) {
  const int level = GetParam();
  Xoshiro256 rng(37 + static_cast<std::uint64_t>(level));
  const std::uint32_t cell = kCoordRange >> level;
  for (int i = 0; i < 2000; ++i) {
    const auto x1 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y1 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z1 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto x2 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto y2 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const auto z2 = static_cast<std::uint32_t>(rng() % kCoordRange);
    const bool same_geom_cell =
        (x1 / cell == x2 / cell) && (y1 / cell == y2 / cell) && (z1 / cell == z2 / cell);
    const bool same_key_cell =
        same_cell(morton_encode(x1, y1, z1), morton_encode(x2, y2, z2), level);
    ASSERT_EQ(same_geom_cell, same_key_cell);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, SfcHierarchyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(Keys, CellRangeHelpers) {
  const Key span1 = cell_key_span(1);
  EXPECT_EQ(span1, kKeyEnd / 8);
  const Key k = span1 + 12345;  // inside octant 1
  EXPECT_EQ(cell_first_key(k, 1), span1);
  EXPECT_EQ(cell_last_key(k, 1), 2 * span1);
  EXPECT_EQ(octant_at_level(k, 1), 1u);
  EXPECT_EQ(cell_first_key(k, 0), 0u);
  EXPECT_EQ(cell_last_key(k, 0), kKeyEnd);
  EXPECT_EQ(cell_first_key(k, kMaxLevel), k);
}

TEST(Keys, KeySpaceMapsBoundsToFullRange) {
  AABB box{{-1.0, -1.0, -1.0}, {1.0, 1.0, 1.0}};
  KeySpace ks(box);
  const Coords lo = ks.to_coords(box.lo);
  const Coords hi = ks.to_coords(box.hi);
  EXPECT_LT(lo.x, 8u);  // near grid origin (pad shifts slightly)
  EXPECT_GT(hi.x, kCoordRange - 8u);
  EXPECT_GE(ks.cube().max_side(), 2.0);
}

TEST(Keys, KeySpaceClampsOutliers) {
  KeySpace ks(AABB{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}});
  const Coords below = ks.to_coords(Vec3d{-5.0, -5.0, -5.0});
  const Coords above = ks.to_coords(Vec3d{5.0, 5.0, 5.0});
  EXPECT_EQ(below.x, 0u);
  EXPECT_EQ(above.x, kCoordRange - 1);
}

TEST(Keys, CellBoxContainsGeneratingPoint) {
  KeySpace ks(AABB{{-3.0, -3.0, -3.0}, {3.0, 3.0, 3.0}});
  Xoshiro256 rng(41);
  for (int i = 0; i < 500; ++i) {
    const Vec3d p{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    const Key k = ks.key(p);
    for (int level : {0, 1, 2, 4, 8}) {
      const AABB cell = ks.cell_box(k, level);
      ASSERT_TRUE(cell.contains(p))
          << "level " << level << " cell does not contain its point";
      // Cell side must match the level.
      const double expect_side = ks.cube().max_side() / static_cast<double>(1u << level);
      ASSERT_NEAR(cell.max_side(), expect_side, 1e-9 * expect_side);
    }
  }
}

TEST(Keys, NearbyPointsShareKeyPrefixes) {
  // Locality: two points within eps of each other share coarse-level cells
  // most of the time; statistically Hilbert should beat random assignment by
  // a wide margin. We check the deterministic sub-case: identical points.
  KeySpace ks(AABB{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}});
  Xoshiro256 rng(43);
  for (int i = 0; i < 200; ++i) {
    const Vec3d p{rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_EQ(ks.key(p), ks.key(p));
  }
}

TEST(Keys, MortonAndHilbertSpacesAreDistinctButConsistent) {
  const AABB box{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
  KeySpace h(box, CurveType::kHilbert);
  KeySpace m(box, CurveType::kMorton);
  const Vec3d p{0.3, 0.7, 0.2};
  // Decode(encode(p)) lands on the same grid coordinates for both curves.
  EXPECT_EQ(h.decode(h.key(p)), m.decode(m.key(p)));
}

// The reference order: (key, id) ascending by comparison sort.
std::vector<std::uint32_t> reference_order(const std::vector<Key>& keys,
                                           const std::vector<std::uint64_t>& ids) {
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && ids[a] < ids[b]);
  });
  return order;
}

// n keys drawn from `distinct` random 63-bit values (0 = all distinct) with
// the ids 0..n-1 shuffled.
void random_keys(std::size_t n, std::size_t distinct, std::uint64_t seed, std::vector<Key>& keys,
                 std::vector<std::uint64_t>& ids) {
  Xoshiro256 rng(seed);
  std::vector<Key> values(distinct);
  for (Key& v : values) v = rng() % kKeyEnd;
  keys.resize(n);
  for (Key& k : keys) k = distinct == 0 ? rng() % kKeyEnd : values[rng() % distinct];
  ids.resize(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng() % i]);
}

TEST(RadixSort, MatchesComparisonSortWithHeavyDuplication) {
  std::vector<Key> keys;
  std::vector<std::uint64_t> ids;
  for (const std::size_t distinct : {std::size_t{64}, std::size_t{0}}) {
    random_keys(50000, distinct, 53 + distinct, keys, ids);
    EXPECT_EQ(sort_order(keys, ids), reference_order(keys, ids)) << distinct << " values";
  }
}

TEST(RadixSort, TinyInputs) {
  EXPECT_TRUE(sort_order({}, {}).empty());
  const std::vector<Key> one{42};
  const std::vector<std::uint64_t> one_id{7};
  EXPECT_EQ(sort_order(one, one_id), std::vector<std::uint32_t>{0});
  const std::vector<Key> two{9, 3};
  const std::vector<std::uint64_t> two_ids{0, 1};
  EXPECT_EQ(sort_order(two, two_ids), (std::vector<std::uint32_t>{1, 0}));
  const std::vector<Key> tied{5, 5};
  const std::vector<std::uint64_t> tied_ids{8, 2};
  EXPECT_EQ(sort_order(tied, tied_ids), (std::vector<std::uint32_t>{1, 0}));
}

TEST(RadixSort, SkipsDigitsSharedByEveryKey) {
  // Keys inside one level-4 cell share their top 12 bits, and keys on a
  // level-17 grid their bottom 12: the passes over those digits change
  // nothing, whether they run or not.
  std::vector<Key> keys;
  std::vector<std::uint64_t> ids;
  random_keys(20000, 0, 59, keys, ids);
  for (Key& k : keys) k = cell_first_key(cell_key_span(4) * 5 + (k >> 12), 17);
  EXPECT_EQ(sort_order(keys, ids), reference_order(keys, ids));
}

}  // namespace
}  // namespace bonsai::sfc
