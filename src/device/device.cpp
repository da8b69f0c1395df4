#include "device/device.hpp"

#include <mutex>

#include "sfc/radix_sort.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai {

Device::Device(std::size_t num_threads) {
  BNS_CHECK(num_threads >= 1);
  pool_ = std::make_unique<ThreadPool>(num_threads - 1);
}

void Device::compute_keys(ParticleSet& parts, const sfc::KeySpace& space) {
  pool_->parallel_for(parts.size(), [&](std::size_t i) { parts.key[i] = space.key(parts.pos(i)); });
}

void Device::sort_particles(ParticleSet& parts, const sfc::KeySpace& space) {
  if constexpr (kDcheckEnabled)
    for (std::size_t i = 0; i < parts.size(); ++i)
      BNS_CHECK(parts.key[i] == space.key(parts.pos(i)), "particle ", i,
                " reached the sort with a key of another KeySpace");
  parts.apply_permutation(sfc::sort_order(parts.key, parts.id));
}

void Device::build_tree(const ParticleSet& parts, Octree& tree, int nleaf) {
  tree.build(parts, nleaf);
}

void Device::compute_properties(const ParticleSet& parts, Octree& tree, double theta) {
  tree.compute_properties(parts, theta);
}

InteractionStats Device::compute_forces(const TreeView& src, ParticleSet& targets,
                                        std::span<const TargetGroup> groups,
                                        const TraversalConfig& config, bool self) {
  // Span on the calling (lane) thread, the one with the rank's log bound;
  // pool threads record nothing.
  trace::ScopedSpan span("gravity.eval", trace_rank_);

  // Each run of kGroupRun groups writes a disjoint particle range (forces,
  // and each group's useful flops spread evenly over its particles into
  // `work`), so workers need no locking on the outputs; stats merge under a
  // mutex after each run. A claim is one run: larger chunks leave one thread
  // a long tail at the end of the pass. Each pool thread keeps one staging
  // queue alive across runs (and calls) so the SoA buffers are allocated
  // once per thread, not once per run.
  std::mutex stats_mutex;
  InteractionStats total;
  pool_->parallel_for(
      num_group_runs(groups.size()),
      [&](std::size_t r) {
        thread_local InteractionQueue queue;
        const std::span<const TargetGroup> run = group_run(groups, r);
        const RunStats s = traverse_run_batched(src, targets, run, config, self, queue);
        for (std::size_t k = 0; k < run.size(); ++k) {
          const double size = run[k].end - run[k].begin;
          for (std::uint32_t i = run[k].begin; i < run[k].end; ++i)
            targets.work[i] += static_cast<double>(s.useful_flops(k)) / size;
        }
        std::lock_guard lock(stats_mutex);
        total += s.total;
      },
      /*chunk=*/1);
  span.set_bytes(static_cast<std::uint64_t>(total.p2p + total.p2c));
  return total;
}

}  // namespace bonsai
