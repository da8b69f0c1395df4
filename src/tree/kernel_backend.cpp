#include "tree/kernel_backend.hpp"

#include <algorithm>
#include <cmath>

#include "tree/kernels.hpp"
#include "util/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BONSAI_KERNEL_AVX512F 1
#include <immintrin.h>
#else
#define BONSAI_KERNEL_AVX512F 0
#endif

namespace bonsai {

namespace {

// Source index that never equals a target index: non-self walks and padding
// lanes use it so the self-mask compare stays uniform and never fires.
constexpr std::uint32_t kInvalidSource = 0xffffffffu;

std::size_t pad_to(std::size_t n) {
  return (n + kKernelBatchPad - 1) / kKernelBatchPad * kKernelBatchPad;
}

// One batch as the float drains see it: `lanes` source lanes (a multiple of
// kKernelBatchPad) and the targets, all as float offsets from the walk's
// centre. Target i reads its offset at index i - target_begin and adds its
// float batch sums to the double accumulators of `t`.
struct FloatBatch {
  // x, y, z, m; cell batches add g = 3q (Quadrupole::q order) and h = tr(Q)/2,
  // the prescaled moments the rearranged p-c kernel takes.
  const std::vector<float>* src;
  const std::uint32_t* sidx;      // leaf batches: global source index per lane
  // Leaf batches: per 16-lane chunk, 1 if it holds a source index inside
  // [target_begin, target_end), so a target may meet itself there.
  const std::uint8_t* self_chunk;
  std::uint32_t lanes;
  const std::vector<float>* toff;  // target x, y, z offsets
  std::uint32_t target_begin, target_end;
  float eps2;
  ParticleSet* t;
};

// One float lane value: the double `value` becomes (value - shift) * scale,
// computed in double and then cast.
inline float to_lane(double value, double shift, double scale) {
  return static_cast<float>((value - shift) * scale);
}

// The portable variant of the `simd` drains: float loops the compiler
// vectorizes at the build's baseline ISA.
void drain_cells_portable(const FloatBatch& b) {
  const float* const cx = b.src[0].data();
  const float* const cy = b.src[1].data();
  const float* const cz = b.src[2].data();
  const float* const cm = b.src[3].data();
  const float* const g0 = b.src[4].data();
  const float* const g1 = b.src[5].data();
  const float* const g2 = b.src[6].data();
  const float* const g3 = b.src[7].data();
  const float* const g4 = b.src[8].data();
  const float* const g5 = b.src[9].data();
  const float* const ch = b.src[10].data();
  const float eps2 = b.eps2;
  ParticleSet& t = *b.t;
  for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
    const std::uint32_t k = i - b.target_begin;
    const float tx = b.toff[0][k], ty = b.toff[1][k], tz = b.toff[2][k];
    float ax = 0.0f, ay = 0.0f, az = 0.0f, pot = 0.0f;
#pragma omp simd reduction(+ : ax, ay, az, pot)
    for (std::uint32_t j = 0; j < b.lanes; ++j) {
      const float dx = cx[j] - tx;
      const float dy = cy[j] - ty;
      const float dz = cz[j] - tz;
      const float r2 = dx * dx + dy * dy + dz * dz + eps2;
      const float rinv = 1.0f / std::sqrt(r2);
      const float u = rinv * rinv;
      const float rinv3 = rinv * u;
      const float rinv5 = rinv3 * u;
      const float gx = g0[j] * dx + g1[j] * dy + g2[j] * dz;
      const float gy = g1[j] * dx + g3[j] * dy + g4[j] * dz;
      const float gz = g2[j] * dx + g4[j] * dy + g5[j] * dz;
      const float y = ch[j] * u;
      const float x = (dx * gx + dy * gy + dz * gz) * (u * u);
      pot += rinv * (y - cm[j] - 0.5f * x);
      const float s = rinv3 * (cm[j] - 3.0f * y + 2.5f * x);
      ax += s * dx - rinv5 * gx;
      ay += s * dy - rinv5 * gy;
      az += s * dz - rinv5 * gz;
    }
    t.ax[i] += ax;
    t.ay[i] += ay;
    t.az[i] += az;
    t.pot[i] += pot;
  }
}

void drain_leaves_portable(const FloatBatch& b) {
  const float* const sx = b.src[0].data();
  const float* const sy = b.src[1].data();
  const float* const sz = b.src[2].data();
  const float* const sm = b.src[3].data();
  const std::uint32_t* const sidx = b.sidx;
  const float eps2 = b.eps2;
  ParticleSet& t = *b.t;
  for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
    const std::uint32_t k = i - b.target_begin;
    const float tx = b.toff[0][k], ty = b.toff[1][k], tz = b.toff[2][k];
    float ax = 0.0f, ay = 0.0f, az = 0.0f, pot = 0.0f;
#pragma omp simd reduction(+ : ax, ay, az, pot)
    for (std::uint32_t j = 0; j < b.lanes; ++j) {
      // Branch-free self-mask: the self lane gets zero mass and a biased
      // r2 so the rsqrt stays finite even at eps = 0.
      const float keep = sidx[j] == i ? 0.0f : 1.0f;
      const float dx = sx[j] - tx;
      const float dy = sy[j] - ty;
      const float dz = sz[j] - tz;
      const float r2 = dx * dx + dy * dy + dz * dz + eps2 + (1.0f - keep);
      const float rinv = 1.0f / std::sqrt(r2);
      const float m = sm[j] * keep;
      const float mr3 = m * rinv * rinv * rinv;
      ax += mr3 * dx;
      ay += mr3 * dy;
      az += mr3 * dz;
      pot -= m * rinv;
    }
    t.ax[i] += ax;
    t.ay[i] += ay;
    t.az[i] += az;
    t.pot[i] += pot;
  }
}

#if BONSAI_KERNEL_AVX512F
// The AVX-512F variant of the `simd` drains. Only these functions carry the
// ISA (target attribute), so the rest of the binary stays baseline x86-64 and
// host_kernel_isa() decides at run time whether they may be called. They keep
// the portable loops' batch shape: 16 float lanes per zmm, the branch-free
// keep/r2 bias self-mask, inert pad lanes, one horizontal reduce per target.
static_assert(kKernelBatchPad == 16, "one zmm of floats per batch step");

// GCC 12's avx512fintrin.h raises false -Wmaybe-uninitialized positives from
// _mm512_setzero_ps/_mm512_reduce_add_ps once they inline here, and
// -Wuninitialized ones once the target blocks' accumulator arrays are
// unrolled into registers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#define BONSAI_TARGET_AVX512F __attribute__((target("avx512f")))

// 1/sqrt(r2): the 14-bit hardware estimate, then one Newton step
// y += y * (1 - r2 y^2) / 2, which doubles the correct bits past float's 24.
BONSAI_TARGET_AVX512F inline __m512 rsqrt_newton(__m512 r2) {
  const __m512 y = _mm512_rsqrt14_ps(r2);
  const __m512 e = _mm512_fnmadd_ps(_mm512_mul_ps(r2, y), y, _mm512_set1_ps(1.0f));
  return _mm512_fmadd_ps(y, _mm512_mul_ps(e, _mm512_set1_ps(0.5f)), y);
}

// Targets [i0, i0 + NT) against every lane of a cell batch. Each source
// vector is loaded once for the block; each target runs the one-target
// arithmetic on its own accumulators, so a target's sums do not depend on
// the block it falls in.
template <int NT>
BONSAI_TARGET_AVX512F inline void drain_cells_block_avx512f(const FloatBatch& b,
                                                            std::uint32_t i0) {
  const __m512 veps2 = _mm512_set1_ps(b.eps2);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 three = _mm512_set1_ps(3.0f);
  const __m512 five_halves = _mm512_set1_ps(2.5f);
  const std::uint32_t k0 = i0 - b.target_begin;
  __m512 tx[NT], ty[NT], tz[NT], ax[NT], ay[NT], az[NT], pot[NT];
  for (int t = 0; t < NT; ++t) {
    tx[t] = _mm512_set1_ps(b.toff[0][k0 + t]);
    ty[t] = _mm512_set1_ps(b.toff[1][k0 + t]);
    tz[t] = _mm512_set1_ps(b.toff[2][k0 + t]);
    ax[t] = ay[t] = az[t] = pot[t] = _mm512_setzero_ps();
  }
  for (std::uint32_t j = 0; j < b.lanes; j += kKernelBatchPad) {
    const __m512 cx = _mm512_loadu_ps(b.src[0].data() + j);
    const __m512 cy = _mm512_loadu_ps(b.src[1].data() + j);
    const __m512 cz = _mm512_loadu_ps(b.src[2].data() + j);
    const __m512 m = _mm512_loadu_ps(b.src[3].data() + j);
    const __m512 g0 = _mm512_loadu_ps(b.src[4].data() + j);
    const __m512 g1 = _mm512_loadu_ps(b.src[5].data() + j);
    const __m512 g2 = _mm512_loadu_ps(b.src[6].data() + j);
    const __m512 g3 = _mm512_loadu_ps(b.src[7].data() + j);
    const __m512 g4 = _mm512_loadu_ps(b.src[8].data() + j);
    const __m512 g5 = _mm512_loadu_ps(b.src[9].data() + j);
    const __m512 h = _mm512_loadu_ps(b.src[10].data() + j);
    for (int t = 0; t < NT; ++t) {
      const __m512 dx = _mm512_sub_ps(cx, tx[t]);
      const __m512 dy = _mm512_sub_ps(cy, ty[t]);
      const __m512 dz = _mm512_sub_ps(cz, tz[t]);
      const __m512 r2 =
          _mm512_fmadd_ps(dx, dx, _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dz, dz, veps2)));
      const __m512 rinv = rsqrt_newton(r2);
      const __m512 u = _mm512_mul_ps(rinv, rinv);
      const __m512 rinv3 = _mm512_mul_ps(rinv, u);
      const __m512 rinv5 = _mm512_mul_ps(rinv3, u);
      const __m512 gx = _mm512_fmadd_ps(g0, dx, _mm512_fmadd_ps(g1, dy, _mm512_mul_ps(g2, dz)));
      const __m512 gy = _mm512_fmadd_ps(g1, dx, _mm512_fmadd_ps(g3, dy, _mm512_mul_ps(g4, dz)));
      const __m512 gz = _mm512_fmadd_ps(g2, dx, _mm512_fmadd_ps(g4, dy, _mm512_mul_ps(g5, dz)));
      const __m512 dgd = _mm512_fmadd_ps(dx, gx, _mm512_fmadd_ps(dy, gy, _mm512_mul_ps(dz, gz)));
      const __m512 y = _mm512_mul_ps(h, u);
      const __m512 x = _mm512_mul_ps(dgd, _mm512_mul_ps(u, u));
      // pot += rinv (y - m - x/2)
      pot[t] = _mm512_fmadd_ps(rinv, _mm512_fnmadd_ps(half, x, _mm512_sub_ps(y, m)), pot[t]);
      // s = rinv^3 (m - 3y + 5x/2); a += s d - rinv^5 g
      const __m512 s =
          _mm512_mul_ps(rinv3, _mm512_fmadd_ps(five_halves, x, _mm512_fnmadd_ps(three, y, m)));
      ax[t] = _mm512_fnmadd_ps(rinv5, gx, _mm512_fmadd_ps(s, dx, ax[t]));
      ay[t] = _mm512_fnmadd_ps(rinv5, gy, _mm512_fmadd_ps(s, dy, ay[t]));
      az[t] = _mm512_fnmadd_ps(rinv5, gz, _mm512_fmadd_ps(s, dz, az[t]));
    }
  }
  ParticleSet& out = *b.t;
  for (int t = 0; t < NT; ++t) {
    out.ax[i0 + t] += _mm512_reduce_add_ps(ax[t]);
    out.ay[i0 + t] += _mm512_reduce_add_ps(ay[t]);
    out.az[i0 + t] += _mm512_reduce_add_ps(az[t]);
    out.pot[i0 + t] += _mm512_reduce_add_ps(pot[t]);
  }
}

// One target's p-p update from one 16-lane source chunk: `m` the lanes'
// masses and `bias` what r2 adds to |d|^2 (the softening, plus 1 on a
// masked self lane).
BONSAI_TARGET_AVX512F inline void pp_chunk_avx512f(__m512 sx, __m512 sy, __m512 sz, __m512 m,
                                                   __m512 bias, __m512 tx, __m512 ty,
                                                   __m512 tz, __m512& ax, __m512& ay,
                                                   __m512& az, __m512& pot) {
  const __m512 dx = _mm512_sub_ps(sx, tx);
  const __m512 dy = _mm512_sub_ps(sy, ty);
  const __m512 dz = _mm512_sub_ps(sz, tz);
  const __m512 r2 =
      _mm512_fmadd_ps(dx, dx, _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dz, dz, bias)));
  const __m512 rinv = rsqrt_newton(r2);
  const __m512 mr = _mm512_mul_ps(m, rinv);
  const __m512 mr3 = _mm512_mul_ps(_mm512_mul_ps(mr, rinv), rinv);
  ax = _mm512_fmadd_ps(mr3, dx, ax);
  ay = _mm512_fmadd_ps(mr3, dy, ay);
  az = _mm512_fmadd_ps(mr3, dz, az);
  pot = _mm512_sub_ps(pot, mr);
}

// The leaf-batch block: as drain_cells_block_avx512f, with the self-mask
// compare per target on the chunks gathering flagged (FloatBatch::
// self_chunk). On the others every lane keeps its mass and r2 its softening
// alone, which is what the mask gives them, bit for bit.
template <int NT>
BONSAI_TARGET_AVX512F inline void drain_leaves_block_avx512f(const FloatBatch& b,
                                                             std::uint32_t i0) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 zero = _mm512_setzero_ps();
  const __m512 veps2 = _mm512_set1_ps(b.eps2);
  const std::uint32_t k0 = i0 - b.target_begin;
  __m512 tx[NT], ty[NT], tz[NT], ax[NT], ay[NT], az[NT], pot[NT];
  __m512i self[NT];
  for (int t = 0; t < NT; ++t) {
    tx[t] = _mm512_set1_ps(b.toff[0][k0 + t]);
    ty[t] = _mm512_set1_ps(b.toff[1][k0 + t]);
    tz[t] = _mm512_set1_ps(b.toff[2][k0 + t]);
    self[t] = _mm512_set1_epi32(static_cast<int>(i0 + static_cast<std::uint32_t>(t)));
    ax[t] = ay[t] = az[t] = pot[t] = zero;
  }
  for (std::uint32_t j = 0; j < b.lanes; j += kKernelBatchPad) {
    const __m512 sx = _mm512_loadu_ps(b.src[0].data() + j);
    const __m512 sy = _mm512_loadu_ps(b.src[1].data() + j);
    const __m512 sz = _mm512_loadu_ps(b.src[2].data() + j);
    const __m512 sm = _mm512_loadu_ps(b.src[3].data() + j);
    if (b.self_chunk[j / kKernelBatchPad] == 0) {
      for (int t = 0; t < NT; ++t)
        pp_chunk_avx512f(sx, sy, sz, sm, veps2, tx[t], ty[t], tz[t], ax[t], ay[t], az[t],
                         pot[t]);
      continue;
    }
    const __m512i sidx = _mm512_loadu_si512(b.sidx + j);
    for (int t = 0; t < NT; ++t) {
      // keep = 0 on the self lane, 1 elsewhere; as in the portable loop the
      // self lane gets zero mass and a +1 r2 bias so rinv stays finite.
      const __mmask16 is_self = _mm512_cmpeq_epi32_mask(sidx, self[t]);
      const __m512 keep = _mm512_mask_blend_ps(is_self, one, zero);
      pp_chunk_avx512f(sx, sy, sz, _mm512_mul_ps(sm, keep),
                       _mm512_add_ps(veps2, _mm512_sub_ps(one, keep)), tx[t], ty[t], tz[t],
                       ax[t], ay[t], az[t], pot[t]);
    }
  }
  ParticleSet& out = *b.t;
  for (int t = 0; t < NT; ++t) {
    out.ax[i0 + t] += _mm512_reduce_add_ps(ax[t]);
    out.ay[i0 + t] += _mm512_reduce_add_ps(ay[t]);
    out.az[i0 + t] += _mm512_reduce_add_ps(az[t]);
    out.pot[i0 + t] += _mm512_reduce_add_ps(pot[t]);
  }
}

// Targets per block of the AVX-512F drains; the last targets of a batch run
// one at a time through the same template.
constexpr std::uint32_t kTargetBlock = 4;

BONSAI_TARGET_AVX512F void drain_cells_avx512f(const FloatBatch& b) {
  std::uint32_t i = b.target_begin;
  for (; i + kTargetBlock <= b.target_end; i += kTargetBlock)
    drain_cells_block_avx512f<kTargetBlock>(b, i);
  for (; i < b.target_end; ++i) drain_cells_block_avx512f<1>(b, i);
}

BONSAI_TARGET_AVX512F void drain_leaves_avx512f(const FloatBatch& b) {
  std::uint32_t i = b.target_begin;
  for (; i + kTargetBlock <= b.target_end; i += kTargetBlock)
    drain_leaves_block_avx512f<kTargetBlock>(b, i);
  for (; i < b.target_end; ++i) drain_leaves_block_avx512f<1>(b, i);
}

BONSAI_TARGET_AVX512F void rsqrt_avx512f_impl(std::span<const float> r2,
                                              std::span<float> rinv) {
  const __m512 one = _mm512_set1_ps(1.0f);
  for (std::size_t k = 0; k < r2.size(); k += kKernelBatchPad) {
    const std::size_t lanes = std::min(kKernelBatchPad, r2.size() - k);
    const auto mask = static_cast<__mmask16>((1u << lanes) - 1u);
    _mm512_mask_storeu_ps(rinv.data() + k, mask,
                          rsqrt_newton(_mm512_mask_loadu_ps(one, mask, r2.data() + k)));
  }
}

#undef BONSAI_TARGET_AVX512F
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // BONSAI_KERNEL_AVX512F

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable: return "portable";
    case KernelIsa::kAvx512f: return "avx512f";
  }
  return "unknown";
}

KernelIsa host_kernel_isa() {
#if BONSAI_KERNEL_AVX512F
  static const KernelIsa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") ? KernelIsa::kAvx512f : KernelIsa::kPortable;
  }();
  return isa;
#else
  return KernelIsa::kPortable;
#endif
}

void rsqrt_avx512f(std::span<const float> r2, std::span<float> rinv) {
  BNS_CHECK(host_kernel_isa() == KernelIsa::kAvx512f, "the host lacks AVX-512F");
  BNS_CHECK(r2.size() == rinv.size(), "r2 and rinv must have the same length");
#if BONSAI_KERNEL_AVX512F
  rsqrt_avx512f_impl(r2, rinv);
#endif
}

InteractionQueue::InteractionQueue(std::size_t capacity, KernelIsa isa)
    : capacity_(capacity == 0 ? 1 : capacity), isa_(isa) {
  BNS_CHECK(isa == KernelIsa::kPortable || isa == host_kernel_isa(),
            "kernel ISA not supported by this host");
}

const char* kernel_backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kSimd: return "simd";
  }
  return "unknown";
}

std::optional<KernelBackend> kernel_backend_from_name(std::string_view name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "simd") return KernelBackend::kSimd;
  return std::nullopt;
}

void InteractionQueue::begin_walk(const TreeView& src, ParticleSet& targets,
                                  const WalkParams& params, KernelBackend backend,
                                  std::uint32_t target_begin, std::uint32_t target_end) {
  BNS_CHECK(targets_ == nullptr, "finish_walk() must close the previous walk");
  src_ = src;
  targets_ = &targets;
  params_ = params;
  backend_ = backend;
  target_begin_ = target_begin;
  target_end_ = target_end;
  cell_run_begin_ = static_cast<std::uint32_t>(cells_.size());
  leaf_run_begin_ = static_cast<std::uint32_t>(leaves_.size());
}

void InteractionQueue::push_cell(const TreeNode& node) {
  if (cells_.size() + leaf_sources_ >= capacity_) flush();
  const auto index = static_cast<std::size_t>(&node - src_.nodes.data());
  BNS_DCHECK(index < src_.nodes.size(), "push_cell() takes a node of the walk's view");
  cells_.push_back(static_cast<std::uint32_t>(index));
}

void InteractionQueue::push_leaf(const TreeNode& leaf) {
  const std::size_t count = leaf.part_end - leaf.part_begin;
  if (count == 0) return;
  BNS_DCHECK(leaf.part_end <= src_.x.size(), "leaf range past the view's particles");
  if (cells_.size() + leaf_sources_ + count >= capacity_ &&
      (leaves_.size() > leaf_run_begin_ || cells_.size() > cell_run_begin_ ||
       !cell_batches_.empty() || !leaf_batches_.empty()))
    flush();
  leaves_.push_back({leaf.part_begin, leaf.part_end});
  leaf_sources_ += count;
}

void InteractionQueue::close_cell_run() {
  const std::uint32_t end = static_cast<std::uint32_t>(cells_.size());
  if (end == cell_run_begin_) return;
  Batch b;
  b.target_begin = target_begin_;
  b.target_end = target_end_;
  b.begin = cell_run_begin_;
  b.end = end;
  const std::uint64_t nt = b.target_end - b.target_begin;
  const std::uint64_t cells = b.end - b.begin;
  const std::uint64_t useful = cells * nt;
  stats_.p2c += useful;
  stats_.p2c_padded += (backend_ == KernelBackend::kScalar ? cells : pad_to(cells)) * nt;
  stats_.pc_batches += 1;
  stats_.observe_batch(useful);
  cell_batches_.push_back(b);
  cell_run_begin_ = end;
}

void InteractionQueue::close_leaf_run() {
  const std::uint32_t end = static_cast<std::uint32_t>(leaves_.size());
  if (end == leaf_run_begin_) return;
  Batch b;
  b.target_begin = target_begin_;
  b.target_end = target_end_;
  b.begin = leaf_run_begin_;
  b.end = end;
  for (std::uint32_t r = b.begin; r < b.end; ++r) {
    const LeafRange& leaf = leaves_[r];
    b.sources += leaf.end - leaf.begin;
    // Self-pairs: sources whose index falls inside the target range. They
    // are masked lanes, not useful interactions.
    if (params_.self) {
      const std::uint32_t lo = std::max(leaf.begin, target_begin_);
      const std::uint32_t hi = std::min(leaf.end, target_end_);
      if (hi > lo) b.self_pairs += hi - lo;
    }
  }
  const std::uint64_t nt = b.target_end - b.target_begin;
  const std::uint64_t sources = b.sources;
  const std::uint64_t useful = sources * nt - b.self_pairs;
  stats_.p2p += useful;
  // The scalar drain skips self-pairs; the SIMD drain evaluates every padded
  // lane and masks, so its pad count includes both the alignment lanes and
  // the masked self-pairs.
  stats_.p2p_padded += backend_ == KernelBackend::kScalar ? useful : pad_to(sources) * nt;
  stats_.pp_batches += 1;
  stats_.observe_batch(useful);
  leaf_batches_.push_back(b);
  leaf_run_begin_ = end;
}

InteractionStats InteractionQueue::finish_walk() {
  BNS_CHECK(targets_ != nullptr, "finish_walk() without begin_walk()");
  close_cell_run();
  close_leaf_run();
  flush();
  targets_ = nullptr;
  InteractionStats out = stats_;
  stats_ = InteractionStats{};
  return out;
}

void InteractionQueue::flush() {
  if (targets_ == nullptr) return;
  close_cell_run();
  close_leaf_run();
  if (backend_ != KernelBackend::kScalar &&
      (!cell_batches_.empty() || !leaf_batches_.empty()))
    stage_targets();
  for (const Batch& b : cell_batches_) drain_cell_batch(b);
  for (const Batch& b : leaf_batches_) drain_leaf_batch(b);
  cell_batches_.clear();
  leaf_batches_.clear();
  cells_.clear();
  leaves_.clear();
  leaf_sources_ = 0;
  cell_run_begin_ = 0;
  leaf_run_begin_ = 0;
}

// The walk's targets as float offsets from its centre, and the pad point: a
// corner of the box of side 2 (1 + 2 max|offset|) around the centre, at least
// 1 + max|offset| from every target along every axis. Pad lanes there have a
// positive r2 at any softening, and every power of rinv the drains form stays
// a normal float for groups spanning up to ~1e4 length units.
void InteractionQueue::stage_targets() {
  const ParticleSet& t = *targets_;
  const Vec3d& c = params_.centre;
  const std::uint32_t nt = target_end_ - target_begin_;
  for (auto& off : target_off_) off.resize(nt);
  float reach = 0.0f;
  for (std::uint32_t k = 0; k < nt; ++k) {
    const std::uint32_t i = target_begin_ + k;
    target_off_[0][k] = static_cast<float>(t.x[i] - c.x);
    target_off_[1][k] = static_cast<float>(t.y[i] - c.y);
    target_off_[2][k] = static_cast<float>(t.z[i] - c.z);
    for (const auto& off : target_off_) reach = std::max(reach, std::abs(off[k]));
  }
  pad_off_ = 1.0f + 2.0f * reach;
}

// Gathers a cell batch's padded float lanes from the staged node indices:
// offsets of the COM from the walk's centre, the mass, g = 3q (Quadrupole::q
// order) and h = tr(Q)/2, the prescaled moments
// the rearranged p-c kernel takes. Returns the padded lane count.
std::uint32_t InteractionQueue::gather_cells(const Batch& b) {
  const std::uint32_t n = b.end - b.begin;
  const auto lanes = static_cast<std::uint32_t>(pad_to(n));
  for (auto& lane : lane_) lane.resize(lanes);
  const Vec3d& o = params_.centre;
  for (std::uint32_t j = 0; j < n; ++j) {
    const Multipole& mp = src_.nodes[cells_[b.begin + j]].mp;
    lane_[0][j] = to_lane(mp.com.x, o.x, 1.0);
    lane_[1][j] = to_lane(mp.com.y, o.y, 1.0);
    lane_[2][j] = to_lane(mp.com.z, o.z, 1.0);
    lane_[3][j] = to_lane(mp.mass, 0.0, 1.0);
    for (int k = 0; k < 6; ++k)
      lane_[4 + k][j] = to_lane(mp.quad.q[k], 0.0, 3.0);
  }
  for (int c = 0; c < 10; ++c)
    std::fill(lane_[c].begin() + n, lane_[c].end(), c < 3 ? pad_off_ : 0.0f);
  const float* const g0 = lane_[4].data();
  const float* const g3 = lane_[7].data();
  const float* const g5 = lane_[9].data();
  float* const h = lane_[10].data();
  for (std::uint32_t j = 0; j < lanes; ++j) h[j] = (g0[j] + g3[j] + g5[j]) * (1.0f / 6.0f);
  return lanes;
}

// Gathers a leaf batch's padded float lanes (offsets from the walk's centre
// and mass) from the staged particle ranges, with each lane's source index
// for the self-mask and each 16-lane chunk's self flag. Pad lanes carry
// kInvalidSource so the mask never fires on them. Returns the padded lane
// count.
std::uint32_t InteractionQueue::gather_leaves(const Batch& b) {
  const auto lanes = static_cast<std::uint32_t>(pad_to(b.sources));
  for (int c = 0; c < 4; ++c) lane_[c].resize(lanes);
  lane_idx_.resize(lanes);
  self_chunk_.assign(lanes / kKernelBatchPad, 0);
  const Vec3d& o = params_.centre;
  std::uint32_t j = 0;
  for (std::uint32_t r = b.begin; r < b.end; ++r) {
    const LeafRange& leaf = leaves_[r];
    // Flag the chunks holding the range's overlap with the targets.
    const std::uint32_t lo = std::max(leaf.begin, b.target_begin);
    const std::uint32_t hi = std::min(leaf.end, b.target_end);
    if (params_.self && hi > lo) {
      const auto last = static_cast<std::uint32_t>((j + (hi - 1 - leaf.begin)) / kKernelBatchPad);
      for (auto c = static_cast<std::uint32_t>((j + (lo - leaf.begin)) / kKernelBatchPad);
           c <= last; ++c)
        self_chunk_[c] = 1;
    }
    for (std::uint32_t s = leaf.begin; s < leaf.end; ++s, ++j) {
      lane_[0][j] = to_lane(src_.x[s], o.x, 1.0);
      lane_[1][j] = to_lane(src_.y[s], o.y, 1.0);
      lane_[2][j] = to_lane(src_.z[s], o.z, 1.0);
      lane_[3][j] = to_lane(src_.m[s], 0.0, 1.0);
      lane_idx_[j] = params_.self ? s : kInvalidSource;
    }
  }
  for (int c = 0; c < 4; ++c)
    std::fill(lane_[c].begin() + j, lane_[c].end(), c < 3 ? pad_off_ : 0.0f);
  std::fill(lane_idx_.begin() + j, lane_idx_.end(), kInvalidSource);
  return lanes;
}

void InteractionQueue::drain_cell_batch(const Batch& b) {
  ParticleSet& t = *targets_;
  const double eps2 = params_.eps2;

  if (backend_ == KernelBackend::kScalar) {
    // The reference kernels in staged (stack) order: cell-outer,
    // target-inner, one pc_kernel call per interaction.
    for (std::uint32_t j = b.begin; j < b.end; ++j) {
      const Multipole& mp = src_.nodes[cells_[j]].mp;
      for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
        ForceAccum f{};
        pc_kernel(t.pos(i), mp, eps2, f);
        t.ax[i] += f.ax;
        t.ay[i] += f.ay;
        t.az[i] += f.az;
        t.pot[i] += f.pot;
      }
    }
    return;
  }

  const std::uint32_t lanes = gather_cells(b);
  const FloatBatch fb{lane_,       nullptr,        nullptr,      lanes,
                      target_off_, b.target_begin, b.target_end, static_cast<float>(eps2),
                      &t};
#if BONSAI_KERNEL_AVX512F
  if (isa_ == KernelIsa::kAvx512f) return drain_cells_avx512f(fb);
#endif
  drain_cells_portable(fb);
}

void InteractionQueue::drain_leaf_batch(const Batch& b) {
  ParticleSet& t = *targets_;
  const double eps2 = params_.eps2;

  if (backend_ == KernelBackend::kScalar) {
    for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
      const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
      ForceAccum f{};
      for (std::uint32_t r = b.begin; r < b.end; ++r) {
        for (std::uint32_t s = leaves_[r].begin; s < leaves_[r].end; ++s) {
          if (params_.self && s == i) continue;  // exact self-interaction
          pp_kernel(tx, ty, tz, src_.x[s], src_.y[s], src_.z[s], src_.m[s], eps2, f);
        }
      }
      t.ax[i] += f.ax;
      t.ay[i] += f.ay;
      t.az[i] += f.az;
      t.pot[i] += f.pot;
    }
    return;
  }

  const std::uint32_t lanes = gather_leaves(b);
  const FloatBatch fb{lane_,       lane_idx_.data(), self_chunk_.data(),
                      lanes,       target_off_,      b.target_begin,
                      b.target_end, static_cast<float>(eps2), &t};
#if BONSAI_KERNEL_AVX512F
  if (isa_ == KernelIsa::kAvx512f) return drain_leaves_avx512f(fb);
#endif
  drain_leaves_portable(fb);
}

}  // namespace bonsai
