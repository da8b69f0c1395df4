// The invariant framework itself, plus one violation probe per adopted
// seam: octree structure, decomposition boundaries and job-server pool
// slots. The framework tests pin the contract (typed
// CheckError, file:line + expression + streamed message, BNS_DCHECK
// argument non-evaluation in plain Release builds).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "domain/decomposition.hpp"
#include "serve/server.hpp"
#include "sfc/keys.hpp"
#include "tree/octree.hpp"
#include "util/check.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(BNS_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(BNS_CHECK(true, "never ", "formatted"));
}

TEST(Check, ThrowsTypedCheckErrorDerivedFromLogicError) {
  EXPECT_THROW(BNS_CHECK(false), CheckError);
  EXPECT_THROW(BNS_CHECK(false), std::logic_error);  // legacy catch sites
}

TEST(Check, MessageCarriesFileLineExpressionAndStreamedArgs) {
  try {
    const int lhs = 2, rhs = 3;
    BNS_CHECK(lhs == rhs, "population drifted: ", lhs, " vs ", rhs);
    FAIL() << "BNS_CHECK(false) did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_check.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find("check failed: lhs == rhs"), std::string::npos) << what;
    EXPECT_NE(what.find("population drifted: 2 vs 3"), std::string::npos) << what;
  }
}

TEST(Check, MessagelessCheckEndsAtTheExpression) {
  try {
    BNS_CHECK(0 > 1);
    FAIL() << "BNS_CHECK(false) did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("check failed: 0 > 1"), std::string::npos) << what;
    EXPECT_EQ(what.find("—"), std::string::npos) << what;  // no dangling em dash
  }
}

TEST(Check, DcheckEvaluatesArgumentsOnlyWhenEnabled) {
  int evaluations = 0;
  auto probe = [&evaluations] {
    ++evaluations;
    return true;
  };
  BNS_DCHECK(probe(), "side effect ", evaluations);
  static_cast<void>(probe);  // only the disabled macro leaves it unused
  // In plain Release builds the macro is ((void)0): zero cost, argument
  // untouched. In Debug and sanitizer builds it runs like BNS_CHECK.
  EXPECT_EQ(evaluations, kDcheckEnabled ? 1 : 0);
}

// --- Adopted seam: octree structural invariants ------------------------------

Octree make_tree(ParticleSet& parts) {
  const sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  return tree;
}

TEST(CheckSeams, BuiltOctreePassesInvariants) {
  ParticleSet parts = make_plummer(512, 3);
  const Octree tree = make_tree(parts);
  EXPECT_NO_THROW(tree.check_invariants());
}

TEST(CheckSeams, CorruptedChildPointerIsCaught) {
  ParticleSet parts = make_plummer(512, 3);
  Octree tree = make_tree(parts);
  ASSERT_FALSE(tree.root().is_leaf());
  tree.mutable_nodes()[0].first_child = 0;  // self-referential child block
  EXPECT_THROW(tree.check_invariants(), CheckError);
}

TEST(CheckSeams, ChildlessInternalNodeIsCaught) {
  ParticleSet parts = make_plummer(512, 3);
  Octree tree = make_tree(parts);
  tree.mutable_nodes()[0].num_children = 0;
  EXPECT_THROW(tree.check_invariants(), CheckError);
}

TEST(CheckSeams, LeafClaimingChildrenIsCaught) {
  ParticleSet parts = make_plummer(512, 3);
  Octree tree = make_tree(parts);
  for (TreeNode& node : tree.mutable_nodes()) {
    if (!node.is_leaf()) continue;
    node.num_children = 2;
    break;
  }
  EXPECT_THROW(tree.check_invariants(), CheckError);
}

// --- Adopted seam: decomposition boundary monotonicity -----------------------

TEST(CheckSeams, DecompositionInvariantsHoldAfterUpdateDomain) {
  const ParticleSet a = make_plummer(400, 5);
  const ParticleSet b = make_plummer(300, 6);
  const ParticleSet* ranks[] = {&a, &b};
  const domain::DomainUpdate upd =
      domain::update_domain(ranks, 2, sfc::CurveType::kHilbert, 64, 8, {});
  EXPECT_NO_THROW(upd.decomp.check_invariants(2));
  EXPECT_THROW(upd.decomp.check_invariants(3), CheckError);
}

TEST(CheckSeams, NonMonotoneBoundariesAreCaught) {
  EXPECT_THROW(
      domain::Decomposition::from_boundaries({0, sfc::kKeyEnd / 2, 1, sfc::kKeyEnd}),
      CheckError);
  EXPECT_THROW(domain::Decomposition::from_boundaries({1, sfc::kKeyEnd}), CheckError);
}

// --- Adopted seam: job-server pool-slot accounting ---------------------------

TEST(CheckSeams, BalancedPoolLedgerPasses) {
  const std::vector<int> running = {2, 3};
  EXPECT_NO_THROW(serve::check_pool_slots(8, 3, running));
  EXPECT_NO_THROW(serve::check_pool_slots(4, 4, {}));
}

TEST(CheckSeams, PoolLedgerViolationsAreCaught) {
  const std::vector<int> running = {2, 3};
  EXPECT_THROW(serve::check_pool_slots(8, 4, running), CheckError);   // leak
  EXPECT_THROW(serve::check_pool_slots(8, -1, {}), CheckError);       // negative free
  EXPECT_THROW(serve::check_pool_slots(4, 8, {}), CheckError);        // free > total
  const std::vector<int> zombie = {0};
  EXPECT_THROW(serve::check_pool_slots(4, 4, zombie), CheckError);    // slotless runner
}

}  // namespace
}  // namespace bonsai
