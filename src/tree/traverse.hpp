// Group-based Barnes-Hut tree walk.
//
// Targets are processed in groups of consecutive (SFC-sorted) particles, the
// CPU analogue of Bonsai's warp-cooperative CUDA kernel: one traversal is
// shared by the whole group, with the multipole acceptance criterion (MAC)
// evaluated against the group's bounding box. Accepted cells contribute
// particle-cell interactions; opened leaves contribute particle-particle
// interactions.
//
// The walk evaluates nothing itself: it emits interaction lists into an
// InteractionQueue and a pluggable kernel backend (tree/kernel_backend.*)
// drains them in SoA batches — the paper's traversal/evaluation split
// (§III-A) that turns the walk's output into wide, regular FLOPs.
#pragma once

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
  bool quadrupole = true;   // include quadrupole corrections in p-c kernels
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

// Single-group walk (the unit of work the device scheduler dispatches): emits
// interaction lists into `queue`, and `config.backend` drains the staged
// batches into the target set's accelerations and potentials. If `self` is
// true, `src` references the same particle array as `targets` and exact
// self-interactions (same index) are skipped. Returns the interaction counts
// for performance accounting.
InteractionStats traverse_one_group_batched(const TreeView& src, ParticleSet& targets,
                                            const TargetGroup& group,
                                            const TraversalConfig& config, bool self,
                                            InteractionQueue& queue);

// Batched walk over every group through one queue (convenience / tests).
InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue);

}  // namespace bonsai
