// Pluggable force-kernel backends draining staged interaction lists.
//
// This is the paper's traversal/evaluation split (§III-A, §VI-A): the group
// walk evaluates no forces itself but *emits* interaction lists —
// (target-group × accepted-cell) and (target-group × leaf-particle) records —
// into an InteractionQueue, and a kernel backend burns the staged batches
// down as wide, regular FLOPs over structure-of-arrays buffers. The same
// seam is where a CUDA/SYCL backend drops in later: the queue is the host
// side of the device interaction buffer, the drain is the kernel launch.
//
// The lists hold indices, as Bonsai's do: an accepted cell is staged as its
// node index and an opened leaf as its particle range [part_begin,
// part_end). Each drain gathers what it needs straight from the walk's
// TreeView, so staging costs the walk one store per cell or leaf.
//
// One queue walk is one target range with one float origin. The run walk
// (tree/traverse.hpp) makes two kinds: a run's shared lists, the cells and
// leaves every group of a run of consecutive groups meets, drained once
// against the run's whole range with offsets from the centre of the run's
// box; and each group's own lists, drained against its own range and box
// centre. A shared batch thus gathers its sources once for up to
// kGroupRun groups.
//
// Backends:
//   scalar     — evaluates pp_kernel/pc_kernel per staged interaction,
//                without padding: the correctness oracle the simd drains are
//                tested against.
//   simd       — mixed precision, the paper's production kernels (§VI-A):
//                each drained batch gathers its sources as float offsets
//                from its walk's centre (the box centre of the group, or of
//                the run for shared lists; subtracted in double, then
//                cast), so float keeps the digits that matter for near
//                pairs. Arithmetic is float, 16 lanes per batch step; each
//                target sums a batch in float and adds the sum to its double
//                accumulators. On hosts with AVX-512F one zmm covers a batch
//                step and 1/sqrt is the rsqrt14 estimate plus one Newton
//                step; targets run in blocks of four, so each source vector
//                is loaded once per block (the CPU analogue of a warp
//                sharing one source tile), and each target keeps its own
//                accumulators, so blocking never changes a bit. Other hosts
//                run the portable #pragma omp simd float loops (explicit
//                reductions, so they vectorize under strict FP semantics).
//                The variant is picked once per process (KernelIsa).
//
// `simd` batches are padded to the SIMD width with inert lanes (zero mass and
// moments at a point no target of the walk can reach) and self-interactions
// are masked per lane instead of branched around, so the inner loops are
// branch-free. The AVX-512F leaf drain runs the mask only on the 16-lane
// chunks the gather flagged as holding a source index inside the walk's
// target range; on the others the mask would keep every lane, so skipping
// it changes no bit. InteractionStats carries both the useful and the padded
// interaction counts (util/flops.hpp) so the Gflop/s accounting stays honest.
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
};

// Every backend, in enum order.
inline constexpr KernelBackend kKernelBackends[] = {KernelBackend::kScalar,
                                                    KernelBackend::kSimd};

// Stable CLI / wire / report names: "scalar", "simd".
const char* kernel_backend_name(KernelBackend backend);
std::optional<KernelBackend> kernel_backend_from_name(std::string_view name);

// Lanes a `simd` batch is padded to: 16 floats = one AVX-512 vector.
inline constexpr std::size_t kKernelBatchPad = 16;

// Instruction set the float `simd` drain runs on. One binary carries both
// variants; host_kernel_isa() picks the widest the host supports once per
// process. Both compute in float, so precision does not depend on the host;
// they differ only in the last float bits of 1/sqrt and summation order, so
// bitwise-equality guarantees hold between runs on hosts of one ISA.
enum class KernelIsa : std::uint8_t {
  kPortable = 0,  // #pragma omp simd float loops at the build's baseline ISA
  kAvx512f = 1,   // AVX-512F intrinsics, rsqrt14 + one Newton step
};

// Report names: "portable", "avx512f".
const char* kernel_isa_name(KernelIsa isa);
KernelIsa host_kernel_isa();
// Name of the variant this process dispatches to.
inline const char* kernel_isa() { return kernel_isa_name(host_kernel_isa()); }

// rinv[k] = 1/sqrt(r2[k]) computed exactly as the AVX-512F drain computes it
// (rsqrt14 estimate, one Newton step). Requires host_kernel_isa() ==
// KernelIsa::kAvx512f and r2.size() == rinv.size().
void rsqrt_avx512f(std::span<const float> r2, std::span<float> rinv);

// Per-walk parameters shared by every batch of one queue walk.
struct WalkParams {
  double eps2 = 0.0;
  bool self = false;  // targets alias the source particle array
  Vec3d centre{};     // origin of the `simd` drain's float offsets: the box
                      // centre of the walk's targets (a group or a run)
};

// Staging queue for one worker thread. Usage per walk (a run's shared lists,
// or one group's own):
//
//   queue.begin_walk(src, targets, params, backend, target_begin, target_end);
//   ... push_cell / push_leaf while walking ...
//   InteractionStats s = queue.finish_walk();
//
// finish_walk drains everything the walk staged, so every drained batch
// belongs to one walk and shares its float origin (WalkParams::centre). When
// the staged sources (cells plus leaf particles) exceed `capacity` mid-walk
// the queue flushes early — drains every pending batch through the backend
// and resets the lists — so each batch, and the float lanes gathered for it,
// stay bounded no matter how deep a walk opens the tree. The flush points fix
// the batch bounds, and with them every float sum.
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

  // Stage one MAC-accepted cell (internal node or multipole leaf) of the
  // walk's TreeView against the current walk's target range: the queue keeps
  // its node index, so `node` must be an element of that view's nodes.
  void push_cell(const TreeNode& node);

  // Stage an opened particle leaf's source particle range against the
  // current walk's target range.
  void push_leaf(const TreeNode& leaf);

  // Close the current walk's batches, drain everything still staged and
  // return (and reset) the interaction statistics accumulated since
  // begin_walk. The queue is reusable afterwards.
  InteractionStats finish_walk();

  std::size_t capacity() const { return capacity_; }

 private:
  // An opened leaf's source particles [begin, end) in the walk's TreeView.
  struct LeafRange {
    std::uint32_t begin = 0, end = 0;
  };

  struct Batch {
    std::uint32_t target_begin = 0, target_end = 0;
    std::uint32_t begin = 0;         // staged-entry range [begin, end) of
    std::uint32_t end = 0;           // cells_ or leaves_
    std::uint32_t sources = 0;       // leaf batches: particles in the ranges
    std::uint64_t self_pairs = 0;    // masked self-interactions (leaf batches)
  };

  void close_cell_run();
  void close_leaf_run();
  void flush();
  void stage_targets();
  std::uint32_t gather_cells(const Batch& b);
  std::uint32_t gather_leaves(const Batch& b);
  void drain_cell_batch(const Batch& b);
  void drain_leaf_batch(const Batch& b);

  std::size_t capacity_;
  KernelIsa isa_;

  // Walk context (set by begin_walk).
  TreeView src_{};
  ParticleSet* targets_ = nullptr;
  WalkParams params_{};
  KernelBackend backend_ = KernelBackend::kSimd;
  std::uint32_t target_begin_ = 0, target_end_ = 0;
  std::uint32_t cell_run_begin_ = 0, leaf_run_begin_ = 0;

  // The staged lists: accepted cells as indices into src_.nodes, opened
  // leaves as particle ranges, and the particles those ranges hold.
  std::vector<std::uint32_t> cells_;
  std::vector<LeafRange> leaves_;
  std::size_t leaf_sources_ = 0;

  // `simd` drain buffers: the walk's targets as float offsets from
  // params_.centre (refreshed per flush), and the batch being drained as
  // padded float lanes gathered from src_ (x, y, z, m, then 3q0..3q5 and
  // tr(Q)/2 for cells) plus, for leaf batches, the padded source indices and
  // a flag per 16-lane chunk that holds one of the batch's targets.
  std::vector<float> target_off_[3];
  float pad_off_ = 0.0f;  // pad lanes sit at (pad_off_, pad_off_, pad_off_)
  std::vector<float> lane_[11];
  std::vector<std::uint32_t> lane_idx_;
  std::vector<std::uint8_t> self_chunk_;

  std::vector<Batch> cell_batches_, leaf_batches_;
  InteractionStats stats_{};
};

}  // namespace bonsai
