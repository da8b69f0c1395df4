#include "tree/traverse.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bonsai {

std::vector<TargetGroup> make_groups(const ParticleSet& parts, int ncrit) {
  BNS_CHECK(ncrit >= 1, "target groups need a positive capacity");
  if (parts.empty()) return {};
  const auto n = static_cast<std::uint32_t>(parts.size());
  std::vector<TargetGroup> groups;
  groups.reserve((n + ncrit - 1) / ncrit);
  for (std::uint32_t b = 0; b < n; b += static_cast<std::uint32_t>(ncrit)) {
    TargetGroup g;
    g.begin = b;
    g.end = std::min(n, b + static_cast<std::uint32_t>(ncrit));
    for (std::uint32_t i = g.begin; i < g.end; ++i) g.box.expand(parts.pos(i));
    groups.push_back(g);
  }
  return groups;
}

namespace {

// MAC: the cell may be used as a multipole if the minimum distance between
// the target region and the cell COM exceeds rcrit = l/theta + delta.
inline bool mac_accept(const AABB& target_region, const TreeNode& node) {
  return target_region.min_dist2(node.mp.com) > node.rcrit * node.rcrit;
}

}  // namespace

InteractionStats traverse_one_group_batched(const TreeView& src, ParticleSet& targets,
                                            const TargetGroup& group,
                                            const TraversalConfig& config, bool self,
                                            InteractionQueue& queue) {
  if (src.empty() || group.begin == group.end) return InteractionStats{};
  WalkParams params;
  params.eps2 = config.eps * config.eps;
  params.quadrupole = config.quadrupole;
  params.self = self;
  params.centre = group.box.center();
  queue.begin_walk(src, targets, params, config.backend, group.begin, group.end);

  // One node stack per thread, reused by every group it walks.
  thread_local std::vector<std::int32_t> stack;
  stack.assign(1, 0);
  while (!stack.empty()) {
    const TreeNode& node = src.nodes[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    // Only a particle leaf is skippable when empty: LET internal nodes carry
    // no opened particles of their own but still hold live children, and
    // multipole leaves carry none by construction.
    if (node.count() == 0 && node.kind == NodeKind::kParticleLeaf) continue;

    if (mac_accept(group.box, node)) {
      queue.push_cell(node);
      continue;
    }
    switch (node.kind) {
      case NodeKind::kInternal:
        for (std::uint8_t c = 0; c < node.num_children; ++c)
          stack.push_back(node.first_child + c);
        break;
      case NodeKind::kParticleLeaf:
        queue.push_leaf(node);
        break;
      case NodeKind::kMultipoleLeaf:
        // Pruned LET branch: the sender guaranteed the MAC holds for every
        // point of our domain, so the multipole is always usable.
        queue.push_cell(node);
        break;
    }
  }
  return queue.finish_walk();
}

InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue) {
  InteractionStats stats;
  for (const TargetGroup& g : groups)
    stats += traverse_one_group_batched(src, targets, g, config, self, queue);
  return stats;
}

}  // namespace bonsai
