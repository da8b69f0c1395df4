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
// Each `simd` row also reports its accuracy: the median and max relative
// |a_simd - a_scalar| / |a_scalar| over the targets of one pass, against the
// `scalar` pass on the same case.
//
// Usage: bench_kernels [n] [iters]   (default n=16384, iters=8; both must be
// whole positive decimal numbers, otherwise the usage is printed, exit 2)
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <vector>

#include "tree/octree.hpp"
#include "tree/traverse.hpp"
#include "util/ic.hpp"
#include "util/stats.hpp"
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

// A whole positive decimal number, or nothing.
template <class T>
std::optional<T> parse_positive(const char* arg) {
  T value{};
  const char* const end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, value);
  if (ec != std::errc{} || ptr != end || value <= 0) return std::nullopt;
  return value;
}

struct BenchResult {
  double seconds = 0.0;
  InteractionStats stats;
  std::vector<Vec3d> acc;  // every target's acceleration after one pass
};

BenchResult run_case(const std::vector<TreeNode>& nodes, ParticleSet& targets,
                     std::span<const TargetGroup> groups, KernelBackend backend,
                     bool self, int iters) {
  const TreeView src{nodes, targets.x, targets.y, targets.z, targets.mass};
  TraversalConfig config;
  config.backend = backend;
  config.eps = 1e-2;
  InteractionQueue queue;

  // One untimed warm-up pass from zeroed accumulators, so allocation of the
  // staging buffers (and the first page touches) stay out of the
  // measurement; its forces are the accuracy sample.
  targets.zero_forces();
  traverse_groups_batched(src, targets, groups, config, self, queue);

  BenchResult r;
  r.acc.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) r.acc.push_back(targets.acc(i));
  WallTimer timer;
  for (int it = 0; it < iters; ++it)
    r.stats += traverse_groups_batched(src, targets, groups, config, self, queue);
  r.seconds = timer.elapsed();
  return r;
}

// Prints one row; a `simd` row also gets its error against `scalar`.
void print_row(const char* kind, KernelBackend backend, const BenchResult& r,
               const BenchResult& scalar) {
  std::cout << kind << "  " << kernel_backend_name(backend) << ": "
            << gflops_rate(r.stats.flops(), r.seconds) << " Gflop/s useful ("
            << gflops_rate(r.stats.padded_flops(), r.seconds) << " padded, fill "
            << 100.0 * r.stats.fill_ratio() << "%), "
            << r.stats.batches() << " batches, " << r.seconds << " s";
  if (backend != KernelBackend::kScalar) {
    std::vector<double> rel;
    rel.reserve(r.acc.size());
    for (std::size_t i = 0; i < r.acc.size(); ++i)
      rel.push_back(norm(r.acc[i] - scalar.acc[i]) / std::max(norm(scalar.acc[i]), 1e-300));
    std::cout << ", rel err vs scalar: median " << percentile(rel, 0.5) << " max "
              << percentile(rel, 1.0);
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::uint32_t> n_arg =
      argc > 1 ? parse_positive<std::uint32_t>(argv[1]) : 16384u;
  const std::optional<int> iters_arg = argc > 2 ? parse_positive<int>(argv[2]) : 8;
  if (argc > 3 || !n_arg || !iters_arg) {
    std::cerr << "usage: bench_kernels [n] [iters]   (whole positive numbers)\n";
    return 2;
  }
  const std::size_t n = *n_arg;
  const int iters = *iters_arg;

  // Hilbert-sorted like a simulation's particles, so target groups are
  // spatially compact and the p-c cells are compact slices.
  ParticleSet parts = make_plummer(n, 42);
  sort_by_keys(parts, sfc::KeySpace(parts.bounds()));
  const std::vector<TargetGroup> groups = make_groups(parts, 64);
  const std::vector<TreeNode> pp_tree = make_pp_tree(parts);
  const std::vector<TreeNode> pc_tree =
      make_pc_tree(parts, static_cast<std::uint32_t>(std::min<std::size_t>(n, 192)));

  std::cout << "bench_kernels: n=" << n << " groups=" << groups.size()
            << " iters=" << iters << " kernel_isa=" << kernel_isa() << "\n";

  // kKernelBackends starts with scalar, the reference of the later rows.
  BenchResult pp_scalar, pc_scalar;
  for (const KernelBackend backend : kKernelBackends) {
    BenchResult pp = run_case(pp_tree, parts, groups, backend, true, iters);
    if (backend == KernelBackend::kScalar) pp_scalar = pp;
    print_row("p-p", backend, pp, pp_scalar);
    BenchResult pc = run_case(pc_tree, parts, groups, backend, false, iters);
    if (backend == KernelBackend::kScalar) pc_scalar = pc;
    print_row("p-c", backend, pc, pc_scalar);
  }
  return 0;
}
