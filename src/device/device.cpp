#include "device/device.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai {

Device::Device(std::size_t num_threads) {
  BNS_CHECK(num_threads >= 1);
  pool_ = std::make_unique<ThreadPool>(num_threads - 1);
}

void Device::sort_particles(ParticleSet& parts, const sfc::KeySpace& space) {
  const std::size_t n = parts.size();
  if (n == 0) return;

  // Key generation is embarrassingly parallel.
  pool_->parallel_for(n, [&](std::size_t i) { parts.key[i] = space.key(parts.pos(i)); });

  // Parallel chunk sort + serial multiway merge of the permutation.
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    return parts.key[a] < parts.key[b] ||
           (parts.key[a] == parts.key[b] && parts.id[a] < parts.id[b]);
  };

  const std::size_t chunks = num_threads();
  const std::size_t chunk_len = (n + chunks - 1) / chunks;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t b = 0; b < n; b += chunk_len)
    ranges.emplace_back(b, std::min(n, b + chunk_len));

  pool_->parallel_for(ranges.size(), [&](std::size_t r) {
    std::sort(perm.begin() + static_cast<std::ptrdiff_t>(ranges[r].first),
              perm.begin() + static_cast<std::ptrdiff_t>(ranges[r].second), cmp);
  });

  // Iterative pairwise in-place merges (log2(chunks) passes).
  for (std::size_t step = 1; step < ranges.size(); step *= 2) {
    for (std::size_t r = 0; r + step < ranges.size(); r += 2 * step) {
      const auto begin = perm.begin() + static_cast<std::ptrdiff_t>(ranges[r].first);
      const auto mid = perm.begin() + static_cast<std::ptrdiff_t>(ranges[r + step].first);
      const auto end =
          perm.begin() +
          static_cast<std::ptrdiff_t>(ranges[std::min(r + 2 * step, ranges.size()) - 1].second);
      std::inplace_merge(begin, mid, end, cmp);
    }
  }

  parts.apply_permutation(perm);
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

  // Each group writes a disjoint particle range (forces, and its useful flops
  // spread evenly over its particles into `work`), so workers need no locking
  // on the outputs; stats merge under a mutex at the end of each chunk. Each
  // pool thread keeps one staging queue alive across groups (and calls) so
  // the SoA buffers are allocated once per thread, not once per group.
  std::mutex stats_mutex;
  InteractionStats total;
  pool_->parallel_for(groups.size(), [&](std::size_t g) {
    thread_local InteractionQueue queue;
    const InteractionStats s =
        traverse_one_group_batched(src, targets, groups[g], config, self, queue);
    const TargetGroup& group = groups[g];
    const double size = group.end - group.begin;
    for (std::uint32_t i = group.begin; i < group.end; ++i)
      targets.work[i] += static_cast<double>(s.useful_flops()) / size;
    std::lock_guard lock(stats_mutex);
    total += s;
  });
  span.set_bytes(static_cast<std::uint64_t>(total.p2p + total.p2c));
  return total;
}

}  // namespace bonsai
