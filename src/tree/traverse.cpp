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

std::span<const TargetGroup> group_run(std::span<const TargetGroup> groups, std::size_t r) {
  BNS_CHECK(r < num_group_runs(groups.size()), "run index past the last run");
  const std::size_t first = r * kGroupRun;
  return groups.subspan(first, std::min(kGroupRun, groups.size() - first));
}

namespace {

// MAC: the cell may be used as a multipole if the minimum distance between
// the target region and the cell COM exceeds rcrit = l/theta + delta.
inline bool mac_accept(const AABB& target_region, const TreeNode& node) {
  return target_region.min_dist2(node.mp.com) > node.rcrit * node.rcrit;
}

WalkParams walk_params(const TraversalConfig& config, bool self, const AABB& box) {
  WalkParams params;
  params.eps2 = config.eps * config.eps;
  params.self = self;
  params.centre = box.center();
  return params;
}

// What a walk of several groups staged into the queue's current walk: its
// cells and leaf sources (each met by every group of the walk) and, for
// self walks, each group's masked self-pairs among those sources.
struct SharedCounts {
  std::uint64_t cells = 0, sources = 0;
  std::array<std::uint64_t, kGroupRun> self_pairs{};
};

// Walks the nodes on `stack` and their subtrees for the groups run[members[a]]
// (a < n) together, staging into the queue's current walk: a node every
// group accepts as a cell, a node every group opens is opened (a particle
// leaf staged), and a node the groups disagree on goes onto own[a] for every
// group a. With one member it is the plain walk of that group.
SharedCounts walk_nodes(const TreeView& src, std::span<const TargetGroup> run,
                        const std::size_t* members, std::size_t n, bool self,
                        std::vector<std::int32_t>& stack,
                        std::array<std::vector<std::int32_t>, kGroupRun>& own,
                        InteractionQueue& queue) {
  SharedCounts counts;
  const std::uint32_t lo_target = run[members[0]].begin, hi_target = run[members[n - 1]].end;
  const unsigned all = (1u << n) - 1u;
  while (!stack.empty()) {
    const std::int32_t index = stack.back();
    stack.pop_back();
    const TreeNode& node = src.nodes[static_cast<std::size_t>(index)];
    // Only a particle leaf is skippable when empty: LET internal nodes carry
    // no opened particles of their own but still hold live children, and
    // multipole leaves carry none by construction.
    if (node.count() == 0 && node.kind == NodeKind::kParticleLeaf) continue;
    // Bit a holds group members[a]'s verdict. A multipole leaf is a pruned
    // LET branch: the sender guaranteed the MAC holds for every point of our
    // domain, so every group uses the multipole.
    unsigned accepted = all;
    if (node.kind != NodeKind::kMultipoleLeaf) {
      accepted = 0;
      for (std::size_t a = 0; a < n; ++a)
        accepted |= static_cast<unsigned>(mac_accept(run[members[a]].box, node)) << a;
    }
    if (accepted == all) {
      queue.push_cell(node);
      ++counts.cells;
    } else if (accepted != 0) {
      for (std::size_t a = 0; a < n; ++a) own[a].push_back(index);
    } else if (node.kind == NodeKind::kInternal) {
      for (std::uint8_t c = 0; c < node.num_children; ++c) stack.push_back(node.first_child + c);
    } else {
      queue.push_leaf(node);
      counts.sources += node.count();
      if (self && node.part_begin < hi_target && node.part_end > lo_target) {
        for (std::size_t a = 0; a < n; ++a) {
          const TargetGroup& g = run[members[a]];
          const std::uint32_t lo = std::max(node.part_begin, g.begin);
          const std::uint32_t hi = std::min(node.part_end, g.end);
          if (hi > lo) counts.self_pairs[a] += hi - lo;
        }
      }
    }
  }
  return counts;
}

}  // namespace

RunStats traverse_run_batched(const TreeView& src, ParticleSet& targets,
                              std::span<const TargetGroup> run, const TraversalConfig& config,
                              bool self, InteractionQueue& queue) {
  BNS_CHECK(run.size() <= kGroupRun, "a run holds at most kGroupRun groups");
  for (std::size_t k = 1; k < run.size(); ++k)
    BNS_CHECK(run[k - 1].end == run[k].begin, "the groups of a run must be contiguous");
  RunStats out;
  if (src.empty()) return out;
  // The groups with targets take part: members[a] is the a-th one's index.
  std::array<std::size_t, kGroupRun> members{};
  std::size_t n = 0;
  AABB box;
  for (std::size_t k = 0; k < run.size(); ++k) {
    if (run[k].begin == run[k].end) continue;
    members[n++] = k;
    box.expand(run[k].box);
  }
  if (n == 0) return out;

  // Per thread: one node stack, and each group's list of the nodes the run
  // disagreed on, reused by every run it walks.
  thread_local std::vector<std::int32_t> stack;
  thread_local std::array<std::vector<std::int32_t>, kGroupRun> own;
  for (auto& nodes : own) nodes.clear();

  // The shared walk, against the run's whole target range.
  queue.begin_walk(src, targets, walk_params(config, self, box), config.backend,
                   run.front().begin, run.back().end);
  stack.assign(1, 0);
  const SharedCounts shared =
      walk_nodes(src, run, members.data(), n, self, stack, own, queue);
  out.total = queue.finish_walk();

  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t k = members[a];
    const TargetGroup& g = run[k];
    const std::uint64_t nt = g.end - g.begin;
    out.p2c[k] = shared.cells * nt;
    out.p2p[k] = shared.sources * nt - shared.self_pairs[a];
    if (own[a].empty()) continue;
    // The group's own walk of the nodes the run disagreed on.
    queue.begin_walk(src, targets, walk_params(config, self, g.box), config.backend, g.begin,
                     g.end);
    stack.assign(own[a].begin(), own[a].end());
    walk_nodes(src, run, &k, 1, self, stack, own, queue);
    const InteractionStats s = queue.finish_walk();
    out.p2p[k] += s.p2p;
    out.p2c[k] += s.p2c;
    out.total += s;
  }
  return out;
}

InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue) {
  InteractionStats stats;
  for (std::size_t r = 0; r < num_group_runs(groups.size()); ++r)
    stats += traverse_run_batched(src, targets, group_run(groups, r), config, self, queue).total;
  return stats;
}

}  // namespace bonsai
