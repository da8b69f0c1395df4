// The "GPU" of this reproduction.
//
// Bonsai's defining design decision (§III-A) is that *every* stage of the
// tree algorithm — key sort, tree construction, multipole computation and the
// tree walk — executes on the device, leaving the CPU only communication and
// orchestration. Device reproduces that architecture on host threads: it owns
// a worker pool (the "SMs"), dispatches target groups the way Bonsai
// dispatches warps, and is the only component allowed to touch particle data
// during a step. The interaction counts it records feed the flops accounting
// in util/flops.hpp, the same force-only convention the paper's performance
// numbers use (§VI-A).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "device/thread_pool.hpp"
#include "sfc/keys.hpp"
#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "tree/traverse.hpp"
#include "util/flops.hpp"

namespace bonsai {

class Device {
 public:
  // `num_threads` counts the thread that calls the stages: it runs parallel
  // loops together with num_threads - 1 pool workers, so a one-thread device
  // has no workers and computes on its caller.
  explicit Device(std::size_t num_threads);

  std::size_t num_threads() const { return pool_->num_threads() + 1; }

  // Rank id stamped onto this device's trace spans (-1 = untagged).
  void set_trace_rank(int rank) { trace_rank_ = rank; }

  // --- Pipeline stages (Table II rows) -----------------------------------

  // Fill every particle's `key` through `space`, in parallel (the rank
  // program's one key pass per step; see run_spmd_redistribute).
  void compute_keys(ParticleSet& parts, const sfc::KeySpace& space);

  // "Sorting SFC": order the particle arrays by (key, id) with the radix
  // sort. The keys must already be those of `space` (checked in Debug and
  // sanitizer builds).
  void sort_particles(ParticleSet& parts, const sfc::KeySpace& space);

  // "Tree-construction": build the octree over the sorted particles.
  void build_tree(const ParticleSet& parts, Octree& tree,
                  int nleaf = Octree::kDefaultNLeaf);

  // "Tree-properties": boxes, multipoles and MAC radii.
  void compute_properties(const ParticleSet& parts, Octree& tree, double theta);

  // "Compute gravity": walk `src` for all groups in parallel, accumulating
  // accelerations into `targets` and each group's useful flops, divided by
  // its size, into its particles' `work`. Runs of kGroupRun consecutive
  // groups (tree/traverse.hpp) are dispatched across workers one at a time,
  // the way warps are scheduled onto SMs. Each worker walks its run into a
  // thread-local InteractionQueue and `config.backend` drains the staged
  // batches (tree/kernel_backend.hpp); emits a `gravity.eval` trace span on
  // the calling thread.
  InteractionStats compute_forces(const TreeView& src, ParticleSet& targets,
                                  std::span<const TargetGroup> groups,
                                  const TraversalConfig& config, bool self);

  // Generic data-parallel loop (integration, diagnostics, key generation).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool_->parallel_for(n, fn);
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int trace_rank_ = -1;
};

}  // namespace bonsai
