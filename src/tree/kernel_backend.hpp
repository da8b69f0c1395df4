// Pluggable force-kernel backends draining staged interaction lists.
//
// This is the paper's traversal/evaluation split (§III-A, §VI-A): the group
// walk no longer evaluates forces inline but *emits* interaction lists —
// (target-group × accepted-cell) and (target-group × leaf-particle) records —
// into an InteractionQueue, and a kernel backend burns the staged batches
// down as wide, regular FLOPs over structure-of-arrays buffers. The same
// seam is where a CUDA/SYCL backend drops in later: the queue is the host
// side of the device interaction buffer, the drain is the kernel launch.
//
// Backends:
//   scalar     — replays today's pp_kernel/pc_kernel per staged interaction,
//                in staged order: the correctness reference.
//   simd       — dense double-precision SoA inner loops over padded batches.
//                On hosts with AVX-512F one zmm covers a batch's 8 lanes and
//                1/sqrt is the rsqrt14 estimate plus two Newton steps; other
//                hosts run the portable #pragma omp simd loops (explicit
//                reductions, so they vectorize under strict FP semantics).
//                The variant is picked once per process (KernelIsa).
//   simd-float — the paper's single-precision device path: float sources and
//                float batch arithmetic, accumulated into the double target
//                arrays once per batch.
//
// Batches are padded to the SIMD width with inert lanes (zero mass, far-away
// position) and self-interactions are masked per lane instead of branched
// around, so the inner loops are branch-free. InteractionStats carries both
// the useful and the padded interaction counts (util/flops.hpp) so the
// Gflop/s accounting stays honest.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"

namespace bonsai {

enum class KernelBackend : std::uint8_t {
  kScalar = 0,
  kSimd = 1,
  kSimdFloat = 2,
};

// Stable CLI / wire / report names: "scalar", "simd", "simd-float".
const char* kernel_backend_name(KernelBackend backend);
std::optional<KernelBackend> kernel_backend_from_name(std::string_view name);

// Lanes a batch is padded to. 8 doubles = one AVX-512 vector (two AVX2).
inline constexpr std::size_t kKernelBatchPad = 8;

// Instruction set the double-precision `simd` drain runs on. One binary
// carries both variants; host_kernel_isa() picks the widest the host supports
// once per process. The variants differ only in the last bits of the forces,
// so bitwise-equality guarantees hold between runs on hosts of one ISA.
enum class KernelIsa : std::uint8_t {
  kPortable = 0,  // #pragma omp simd loops at the build's baseline ISA
  kAvx512f = 1,   // AVX-512F intrinsics, rsqrt14 + two Newton steps
};

// Report names: "portable", "avx512f".
const char* kernel_isa_name(KernelIsa isa);
KernelIsa host_kernel_isa();
// Name of the variant this process dispatches to.
inline const char* kernel_isa() { return kernel_isa_name(host_kernel_isa()); }

// rinv[k] = 1/sqrt(r2[k]) computed exactly as the AVX-512F drain computes it
// (rsqrt14 estimate, two Newton steps). Requires host_kernel_isa() ==
// KernelIsa::kAvx512f and r2.size() == rinv.size().
void rsqrt_avx512f(std::span<const double> r2, std::span<double> rinv);

// Per-walk parameters shared by every batch of one group walk.
struct WalkParams {
  double eps2 = 0.0;
  bool quadrupole = true;
  bool self = false;  // targets alias the source particle array
};

// Staging queue for one worker thread. Usage per target group:
//
//   queue.begin_walk(src, targets, params, backend, target_begin, target_end);
//   ... push_cell / push_leaf while walking ...
//   InteractionStats s = queue.finish_walk();
//
// Staged data persists across walks (one drain can cover several groups);
// when the staged source slots exceed `capacity` the queue flushes — drains
// every pending batch through the backend and resets the buffers — so the
// staging memory stays bounded no matter how deep a walk opens the tree.
//
// `isa` selects the `simd` backend's drain variant; it defaults to the host's
// and exists so tests can run both variants in one process. It must be
// kPortable or host_kernel_isa().
class InteractionQueue {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  explicit InteractionQueue(std::size_t capacity = kDefaultCapacity,
                            KernelIsa isa = host_kernel_isa());

  void begin_walk(const TreeView& src, ParticleSet& targets, const WalkParams& params,
                  KernelBackend backend, std::uint32_t target_begin,
                  std::uint32_t target_end);

  // Stage one MAC-accepted cell (internal node or multipole leaf) against the
  // current walk's target range.
  void push_cell(const TreeNode& node);

  // Stage an opened particle leaf's source particles against the current
  // walk's target range.
  void push_leaf(const TreeNode& leaf);

  // Close the current walk's batches, drain everything still staged and
  // return (and reset) the interaction statistics accumulated since
  // begin_walk. The queue is reusable afterwards.
  InteractionStats finish_walk();

  std::size_t capacity() const { return capacity_; }

 private:
  struct Batch {
    std::uint32_t target_begin = 0, target_end = 0;
    std::uint32_t begin = 0;         // staged-slot range [begin, end)
    std::uint32_t end = 0;           // useful slots
    std::uint32_t padded_end = 0;    // end of the padded range
    std::uint64_t self_pairs = 0;    // masked self-interactions (leaf batches)
  };

  void close_cell_run();
  void close_leaf_run();
  void flush();
  void drain_cell_batch(const Batch& b) const;
  void drain_leaf_batch(const Batch& b) const;
  void pad_cells();
  void pad_leaves();

  std::size_t capacity_;
  KernelIsa isa_;

  // Walk context (set by begin_walk).
  TreeView src_{};
  ParticleSet* targets_ = nullptr;
  WalkParams params_{};
  KernelBackend backend_ = KernelBackend::kSimd;
  std::uint32_t target_begin_ = 0, target_end_ = 0;
  std::uint32_t cell_run_begin_ = 0, leaf_run_begin_ = 0;

  // Staged cell SoA: COM, mass and the six unique quadrupole entries
  // (order xx, xy, xz, yy, yz, zz, matching Quadrupole::q).
  std::vector<double> cx_, cy_, cz_, cm_;
  std::vector<double> cq_[6];
  std::vector<float> fcx_, fcy_, fcz_, fcm_;
  std::vector<float> fcq_[6];

  // Staged leaf-particle SoA. sidx_ holds the source's global particle index
  // for self-masking; kInvalidSource for non-self walks and padding lanes.
  std::vector<double> sx_, sy_, sz_, sm_;
  std::vector<float> fsx_, fsy_, fsz_, fsm_;
  std::vector<std::uint32_t> sidx_;

  std::vector<Batch> cell_batches_, leaf_batches_;
  InteractionStats stats_{};
};

}  // namespace bonsai
