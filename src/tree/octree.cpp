#include "tree/octree.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bonsai {

namespace {

// Children of the cell [key_begin, key_end) at `level` are the eight equal
// key sub-ranges at level+1. Particle sub-ranges are located with
// std::upper_bound over the sorted key array.
struct BuildItem {
  std::int32_t node;
  std::uint8_t level;
};

}  // namespace

void Octree::build(const ParticleSet& parts, int nleaf) {
  BNS_CHECK(nleaf >= 1);
  const std::size_t n = parts.size();
  nodes_.clear();
  num_leaves_ = 0;
  max_depth_ = 0;

  BNS_CHECK(std::is_sorted(parts.key.begin(), parts.key.end()),
                   "particles must be SFC-sorted before tree construction");

  TreeNode root;
  root.key_begin = 0;
  root.key_end = sfc::kKeyEnd;
  root.part_begin = 0;
  root.part_end = static_cast<std::uint32_t>(n);
  root.level = 0;
  root.kind = NodeKind::kParticleLeaf;
  nodes_.push_back(root);
  if (n == 0) return;

  std::vector<BuildItem> stack;
  stack.push_back({0, 0});

  while (!stack.empty()) {
    const BuildItem item = stack.back();
    stack.pop_back();
    // Copy the fields needed before nodes_ may reallocate.
    const sfc::Key kb = nodes_[item.node].key_begin;
    const std::uint32_t pb = nodes_[item.node].part_begin;
    const std::uint32_t pe = nodes_[item.node].part_end;
    const int level = item.level;
    max_depth_ = std::max(max_depth_, level);

    if (pe - pb <= static_cast<std::uint32_t>(nleaf) || level == sfc::kMaxLevel) {
      ++num_leaves_;
      continue;  // stays a ParticleLeaf
    }

    const sfc::Key child_span = sfc::cell_key_span(level + 1);
    const auto first_child = static_cast<std::int32_t>(nodes_.size());
    std::uint8_t created = 0;

    std::uint32_t lo = pb;
    for (unsigned oct = 0; oct < 8; ++oct) {
      const sfc::Key child_end = kb + child_span * (oct + 1);
      const auto it = std::upper_bound(parts.key.begin() + lo, parts.key.begin() + pe,
                                       child_end - 1);
      const auto hi = static_cast<std::uint32_t>(it - parts.key.begin());
      if (hi > lo) {
        TreeNode child;
        child.key_begin = kb + child_span * oct;
        child.key_end = child_end;
        child.part_begin = lo;
        child.part_end = hi;
        child.level = static_cast<std::uint8_t>(level + 1);
        child.kind = NodeKind::kParticleLeaf;
        nodes_.push_back(child);
        ++created;
      }
      lo = hi;
    }
    BNS_DCHECK(lo == pe);

    nodes_[item.node].kind = NodeKind::kInternal;
    nodes_[item.node].first_child = first_child;
    nodes_[item.node].num_children = created;
    for (std::uint8_t c = 0; c < created; ++c)
      stack.push_back({first_child + c, static_cast<std::uint8_t>(level + 1)});
  }

  if constexpr (kDcheckEnabled) check_invariants();
}

void Octree::check_invariants() const {
  BNS_CHECK(!nodes_.empty(), "built tree must have a root");
  const TreeNode& root = nodes_.front();
  BNS_CHECK(root.part_begin == 0);
  BNS_CHECK(root.key_begin == 0 && root.key_end == sfc::kKeyEnd);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& node = nodes_[i];
    BNS_CHECK(node.part_begin <= node.part_end, "node ", i, " has inverted particle range");
    BNS_CHECK(node.key_begin < node.key_end, "node ", i, " has empty key range");
    if (node.is_leaf()) {
      BNS_CHECK(node.num_children == 0, "leaf node ", i, " claims children");
      continue;
    }
    BNS_CHECK(node.num_children >= 1 && node.num_children <= 8,
              "internal node ", i, " has ", int(node.num_children), " children");
    BNS_CHECK(node.first_child > static_cast<std::int32_t>(i),
              "child pointer of node ", i, " does not point forward");
    const auto end_child =
        static_cast<std::size_t>(node.first_child) + node.num_children;
    BNS_CHECK(end_child <= nodes_.size(), "child block of node ", i, " out of range");
    // Children partition the parent's particle range and nest in its key
    // range, in ascending key order, one level deeper.
    std::uint32_t part_cursor = node.part_begin;
    sfc::Key key_cursor = node.key_begin;
    for (std::uint8_t c = 0; c < node.num_children; ++c) {
      const TreeNode& ch = nodes_[static_cast<std::size_t>(node.first_child) + c];
      BNS_CHECK(ch.level == node.level + 1, "child of node ", i, " skips a level");
      BNS_CHECK(ch.part_begin == part_cursor,
                "children of node ", i, " leave a particle gap");
      BNS_CHECK(ch.part_end > ch.part_begin, "child of node ", i, " is empty");
      BNS_CHECK(ch.key_begin >= key_cursor && ch.key_end <= node.key_end,
                "child key range of node ", i, " escapes the parent");
      part_cursor = ch.part_end;
      key_cursor = ch.key_end;
    }
    BNS_CHECK(part_cursor == node.part_end,
              "children of node ", i, " do not cover the parent's particles");
  }
}

void Octree::compute_properties(const ParticleSet& parts, double theta) {
  BNS_CHECK(theta > 0.0);
  // Children always have larger indices than their parent (DFS pre-order
  // construction), so a reverse sweep is a valid bottom-up pass.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    TreeNode& node = *it;
    node.box = AABB{};
    node.mp = Multipole{};

    if (node.is_leaf()) {
      for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) {
        node.box.expand(parts.pos(i));
        node.mp.mass += parts.mass[i];
        node.mp.com += parts.mass[i] * parts.pos(i);
      }
      if (node.mp.mass > 0.0) node.mp.com /= node.mp.mass;
      for (std::uint32_t i = node.part_begin; i < node.part_end; ++i)
        node.mp.quad.add_outer(parts.pos(i) - node.mp.com, parts.mass[i]);
    } else {
      // Two-pass combine: monopole first, then quadrupoles shifted to the
      // parent COM (parallel-axis theorem).
      for (std::uint8_t c = 0; c < node.num_children; ++c) {
        const TreeNode& ch = nodes_[node.first_child + c];
        node.box.expand(ch.box);
        node.mp.mass += ch.mp.mass;
        node.mp.com += ch.mp.mass * ch.mp.com;
      }
      if (node.mp.mass > 0.0) node.mp.com /= node.mp.mass;
      for (std::uint8_t c = 0; c < node.num_children; ++c)
        node.mp.add_shifted(nodes_[node.first_child + c].mp);
    }

    if (node.count() > 0) {
      const double l = node.box.max_side();
      const double delta = norm(node.mp.com - node.box.center());
      node.rcrit = l / theta + delta;
    } else {
      node.rcrit = 0.0;
    }
  }
}

}  // namespace bonsai
