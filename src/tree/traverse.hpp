// Group-based Barnes-Hut tree walk.
//
// Targets are processed in groups of consecutive (SFC-sorted) particles, the
// CPU analogue of Bonsai's warp-cooperative CUDA kernel: one traversal is
// shared by the whole group, with the multipole acceptance criterion (MAC)
// evaluated against the group's bounding box. Accepted cells contribute
// particle-cell interactions; opened leaves contribute particle-particle
// interactions.
//
// Consecutive groups are walked in runs of up to kGroupRun. Hilbert-adjacent
// groups open nearly the same nodes, so one walk tests each node against
// every group box of the run: a node every group accepts is staged once as a
// shared cell, a node every group opens is opened once (a particle leaf
// becomes a shared leaf), and a node the groups disagree on goes to each
// group's own walk, which accepts it or walks its subtree as a lone group
// would. The shared lists drain once against the run's whole target range,
// as float offsets from the centre of the run's box; each group's own lists
// drain against its own range and box centre. Every group therefore meets
// exactly the interactions a walk of that group alone emits; only the
// batches, and with them the float sums, are regrouped.
//
// The walk evaluates nothing itself: it emits interaction lists into an
// InteractionQueue and a pluggable kernel backend (tree/kernel_backend.*)
// drains them in SoA batches — the paper's traversal/evaluation split
// (§III-A) that turns the walk's output into wide, regular FLOPs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tree/kernel_backend.hpp"
#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"

namespace bonsai {

struct TraversalConfig {
  double theta = 0.4;       // opening angle (paper production value, §IV)
  double eps = 0.0;         // Plummer softening length
  int ncrit = 64;           // max particles per target group
  KernelBackend backend = KernelBackend::kSimd;  // force backend draining the lists
};

// A contiguous range of target particles walked together.
struct TargetGroup {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  AABB box;
};

// Partition [0, parts.size()) into groups of at most `ncrit` particles and
// compute their bounding boxes. Particles should be SFC-sorted so groups are
// spatially compact. An empty set yields no groups; `ncrit <= 0` is a
// contract violation and throws std::logic_error.
std::vector<TargetGroup> make_groups(const ParticleSet& parts, int ncrit);

// Groups per run walk (see the header comment). A run of one group is the
// plain per-group walk.
inline constexpr std::size_t kGroupRun = 8;

// Runs of `groups`: run r is groups [r * kGroupRun, min(size, (r + 1) *
// kGroupRun)), the unit of work the device scheduler dispatches.
constexpr std::size_t num_group_runs(std::size_t groups) {
  return (groups + kGroupRun - 1) / kGroupRun;
}
std::span<const TargetGroup> group_run(std::span<const TargetGroup> groups, std::size_t r);

// What one run walk did: the run's interaction statistics, and the useful
// p-p and p-c counts of its k-th group at index k, which equal those of a
// walk of that group alone.
struct RunStats {
  InteractionStats total;
  std::array<std::uint64_t, kGroupRun> p2p{}, p2c{};

  std::uint64_t useful_flops(std::size_t k) const {
    return p2p[k] * kFlopsPerPP + p2c[k] * kFlopsPerPC;
  }
};

// Walk one run of at most kGroupRun contiguous groups (run[k].end ==
// run[k + 1].begin; checked) through `queue`, and let `config.backend` drain
// the staged batches into the target set's accelerations and potentials.
// Empty groups take no part. If `self` is true, `src` references the same
// particle array as `targets` and exact self-interactions (same index) are
// skipped.
RunStats traverse_run_batched(const TreeView& src, ParticleSet& targets,
                              std::span<const TargetGroup> run, const TraversalConfig& config,
                              bool self, InteractionQueue& queue);

// Every run of `groups` through one queue (convenience / tests).
InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue);

}  // namespace bonsai
