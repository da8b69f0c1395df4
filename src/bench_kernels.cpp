// bench_kernels: times the interaction-list batch drain in isolation, without
// a simulation around it, so kernel regressions are visible per backend and
// per interaction kind.
//
// Two handcrafted source trees force the walk to emit exactly one kind of
// interaction:
//
//   p-p  — a single particle-leaf root with an infinite opening radius: every
//          group stages all n source particles as one leaf batch.
//   p-c  — an internal root (never MAC-accepted) whose children are multipole
//          leaves: every group stages every cell as one cell batch.
//
// Usage: bench_kernels [n] [iters]   (default n=16384, iters=8)
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "tree/octree.hpp"
#include "tree/traverse.hpp"
#include "util/ic.hpp"
#include "util/timer.hpp"

namespace {

using namespace bonsai;

// Pure p-p source: one particle leaf covering all of `parts`, with rcrit so
// large the group MAC can never accept it as a multipole.
std::vector<TreeNode> make_pp_tree(const ParticleSet& parts) {
  TreeNode root;
  root.kind = NodeKind::kParticleLeaf;
  root.part_begin = 0;
  root.part_end = static_cast<std::uint32_t>(parts.size());
  root.rcrit = 1e30;
  return {root};
}

// Pure p-c source: an unacceptable internal root over `ncells` multipole
// leaves, each carrying the moments of one slice of `parts`.
std::vector<TreeNode> make_pc_tree(const ParticleSet& parts, std::uint32_t ncells) {
  std::vector<TreeNode> nodes;
  TreeNode root;
  root.kind = NodeKind::kInternal;
  root.part_begin = 0;
  root.part_end = static_cast<std::uint32_t>(parts.size());
  root.first_child = 1;
  root.num_children = static_cast<std::uint8_t>(ncells);
  root.rcrit = 1e30;
  nodes.push_back(root);

  const auto n = static_cast<std::uint32_t>(parts.size());
  const std::uint32_t slice = (n + ncells - 1) / ncells;
  for (std::uint32_t c = 0; c < ncells; ++c) {
    const std::uint32_t begin = std::min(n, c * slice);
    const std::uint32_t end = std::min(n, begin + slice);
    TreeNode cell;
    cell.kind = NodeKind::kMultipoleLeaf;
    cell.level = 1;
    for (std::uint32_t i = begin; i < end; ++i) {
      cell.mp.com = cell.mp.com + parts.pos(i) * parts.mass[i];
      cell.mp.mass += parts.mass[i];
    }
    if (cell.mp.mass > 0.0) cell.mp.com = cell.mp.com * (1.0 / cell.mp.mass);
    for (std::uint32_t i = begin; i < end; ++i)
      cell.mp.quad.add_outer(parts.pos(i) - cell.mp.com, parts.mass[i]);
    nodes.push_back(cell);
  }
  return nodes;
}

struct BenchResult {
  double seconds = 0.0;
  InteractionStats stats;
};

BenchResult run_case(const std::vector<TreeNode>& nodes, ParticleSet& targets,
                     std::span<const TargetGroup> groups, KernelBackend backend,
                     bool self, int iters) {
  const TreeView src{nodes, targets.x, targets.y, targets.z, targets.mass};
  TraversalConfig config;
  config.backend = backend;
  config.eps = 1e-2;
  InteractionQueue queue;

  // One untimed warm-up pass so allocation of the staging buffers (and the
  // first page touches) stay out of the measurement.
  traverse_groups_batched(src, targets, groups, config, self, queue);

  BenchResult r;
  WallTimer timer;
  for (int it = 0; it < iters; ++it)
    r.stats += traverse_groups_batched(src, targets, groups, config, self, queue);
  r.seconds = timer.elapsed();
  return r;
}

void print_row(const char* kind, KernelBackend backend, const BenchResult& r) {
  std::cout << kind << "  " << kernel_backend_name(backend) << ": "
            << gflops_rate(r.stats.flops(), r.seconds) << " Gflop/s useful ("
            << gflops_rate(r.stats.padded_flops(), r.seconds) << " padded, fill "
            << 100.0 * r.stats.fill_ratio() << "%), "
            << r.stats.batches() << " batches, " << r.seconds << " s\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 16384;
  const int iters = argc > 2 ? std::atoi(argv[2]) : 8;
  if (n == 0 || iters <= 0) {
    std::cerr << "usage: bench_kernels [n] [iters]\n";
    return 2;
  }

  ParticleSet parts = make_plummer(n, 42);
  const std::vector<TargetGroup> groups = make_groups(parts, 64);
  const std::vector<TreeNode> pp_tree = make_pp_tree(parts);
  const std::vector<TreeNode> pc_tree =
      make_pc_tree(parts, static_cast<std::uint32_t>(std::min<std::size_t>(n, 192)));

  std::cout << "bench_kernels: n=" << n << " groups=" << groups.size()
            << " iters=" << iters << " kernel_isa=" << kernel_isa() << "\n";

  for (const KernelBackend backend : kKernelBackends) {
    // Fresh accumulators per case so repeated accumulation cannot overflow
    // into NaN comparisons; forces are not inspected here, only timed.
    for (std::size_t i = 0; i < parts.size(); ++i)
      parts.ax[i] = parts.ay[i] = parts.az[i] = parts.pot[i] = 0.0;
    print_row("p-p", backend, run_case(pp_tree, parts, groups, backend, true, iters));
    for (std::size_t i = 0; i < parts.size(); ++i)
      parts.ax[i] = parts.ay[i] = parts.az[i] = parts.pot[i] = 0.0;
    print_row("p-c", backend, run_case(pc_tree, parts, groups, backend, false, iters));
  }
  return 0;
}
