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

// Inert padding lane: zero mass at a far-away position, so padded lanes
// contribute exactly zero without dividing by zero (finite in float too).
constexpr double kPadPos = 1e15;

// Source index that never equals a target index: non-self walks and padding
// lanes use it so the self-mask compare stays uniform and never fires.
constexpr std::uint32_t kInvalidSource = 0xffffffffu;

std::size_t pad_to(std::size_t n) {
  return (n + kKernelBatchPad - 1) / kKernelBatchPad * kKernelBatchPad;
}

#if BONSAI_KERNEL_AVX512F
// The AVX-512F variant of the `simd` drains. Only these functions carry the
// ISA (target attribute), so the rest of the binary stays baseline x86-64 and
// host_kernel_isa() decides at run time whether they may be called. They keep
// the portable loops' batch shape: 8 lanes per zmm, the branch-free keep/r2
// bias self-mask, inert pad lanes, one horizontal reduce per target.
static_assert(kKernelBatchPad == 8, "one zmm of doubles per batch step");

// GCC 12's avx512fintrin.h raises false -Wmaybe-uninitialized positives from
// _mm512_setzero_pd/_mm512_reduce_add_pd once they inline here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define BONSAI_TARGET_AVX512F __attribute__((target("avx512f")))

// 1/sqrt(r2): the 14-bit hardware estimate, then two Newton steps
// y += y * (1 - r2 y^2) / 2, each doubling the correct bits (14 -> 28 -> 53).
BONSAI_TARGET_AVX512F inline __m512d rsqrt_newton(__m512d r2) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  __m512d y = _mm512_rsqrt14_pd(r2);
  for (int step = 0; step < 2; ++step) {
    const __m512d e = _mm512_fnmadd_pd(_mm512_mul_pd(r2, y), y, one);
    y = _mm512_fmadd_pd(y, _mm512_mul_pd(e, half), y);
  }
  return y;
}

BONSAI_TARGET_AVX512F void drain_cells_avx512f(const double* const cell[10],
                                               std::uint32_t begin, std::uint32_t end,
                                               ParticleSet& t, std::uint32_t target_begin,
                                               std::uint32_t target_end, double eps2) {
  const __m512d veps2 = _mm512_set1_pd(eps2);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d three_halves = _mm512_set1_pd(1.5);
  const __m512d three = _mm512_set1_pd(3.0);
  const __m512d fifteen_halves = _mm512_set1_pd(7.5);
  for (std::uint32_t i = target_begin; i < target_end; ++i) {
    const __m512d tx = _mm512_set1_pd(t.x[i]);
    const __m512d ty = _mm512_set1_pd(t.y[i]);
    const __m512d tz = _mm512_set1_pd(t.z[i]);
    __m512d ax = _mm512_setzero_pd(), ay = ax, az = ax, pot = ax;
    for (std::uint32_t j = begin; j < end; j += kKernelBatchPad) {
      const __m512d dx = _mm512_sub_pd(_mm512_loadu_pd(cell[0] + j), tx);
      const __m512d dy = _mm512_sub_pd(_mm512_loadu_pd(cell[1] + j), ty);
      const __m512d dz = _mm512_sub_pd(_mm512_loadu_pd(cell[2] + j), tz);
      const __m512d m = _mm512_loadu_pd(cell[3] + j);
      const __m512d q0 = _mm512_loadu_pd(cell[4] + j);
      const __m512d q1 = _mm512_loadu_pd(cell[5] + j);
      const __m512d q2 = _mm512_loadu_pd(cell[6] + j);
      const __m512d q3 = _mm512_loadu_pd(cell[7] + j);
      const __m512d q4 = _mm512_loadu_pd(cell[8] + j);
      const __m512d q5 = _mm512_loadu_pd(cell[9] + j);
      const __m512d r2 =
          _mm512_fmadd_pd(dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_fmadd_pd(dz, dz, veps2)));
      const __m512d rinv = rsqrt_newton(r2);
      const __m512d rinv2 = _mm512_mul_pd(rinv, rinv);
      const __m512d rinv3 = _mm512_mul_pd(rinv, rinv2);
      const __m512d rinv5 = _mm512_mul_pd(rinv3, rinv2);
      const __m512d rinv7 = _mm512_mul_pd(rinv5, rinv2);
      const __m512d qx =
          _mm512_fmadd_pd(q0, dx, _mm512_fmadd_pd(q1, dy, _mm512_mul_pd(q2, dz)));
      const __m512d qy =
          _mm512_fmadd_pd(q1, dx, _mm512_fmadd_pd(q3, dy, _mm512_mul_pd(q4, dz)));
      const __m512d qz =
          _mm512_fmadd_pd(q2, dx, _mm512_fmadd_pd(q4, dy, _mm512_mul_pd(q5, dz)));
      const __m512d rqr =
          _mm512_fmadd_pd(dx, qx, _mm512_fmadd_pd(dy, qy, _mm512_mul_pd(dz, qz)));
      const __m512d trq = _mm512_add_pd(_mm512_add_pd(q0, q3), q5);
      // pot += -m rinv + trq rinv^3 / 2 - 3 rqr rinv^5 / 2
      __m512d p = _mm512_fmsub_pd(_mm512_mul_pd(half, trq), rinv3, _mm512_mul_pd(m, rinv));
      p = _mm512_fnmadd_pd(_mm512_mul_pd(three_halves, rqr), rinv5, p);
      pot = _mm512_add_pd(pot, p);
      // s = m rinv^3 - 3 trq rinv^5 / 2 + 15 rqr rinv^7 / 2
      __m512d s = _mm512_mul_pd(m, rinv3);
      s = _mm512_fnmadd_pd(_mm512_mul_pd(three_halves, trq), rinv5, s);
      s = _mm512_fmadd_pd(_mm512_mul_pd(fifteen_halves, rqr), rinv7, s);
      const __m512d q_scale = _mm512_mul_pd(three, rinv5);
      ax = _mm512_fnmadd_pd(q_scale, qx, _mm512_fmadd_pd(s, dx, ax));
      ay = _mm512_fnmadd_pd(q_scale, qy, _mm512_fmadd_pd(s, dy, ay));
      az = _mm512_fnmadd_pd(q_scale, qz, _mm512_fmadd_pd(s, dz, az));
    }
    t.ax[i] += _mm512_reduce_add_pd(ax);
    t.ay[i] += _mm512_reduce_add_pd(ay);
    t.az[i] += _mm512_reduce_add_pd(az);
    t.pot[i] += _mm512_reduce_add_pd(pot);
  }
}

BONSAI_TARGET_AVX512F void drain_leaves_avx512f(const double* sx, const double* sy,
                                                const double* sz, const double* sm,
                                                const std::uint32_t* sidx, std::uint32_t begin,
                                                std::uint32_t end, ParticleSet& t,
                                                std::uint32_t target_begin,
                                                std::uint32_t target_end, double eps2) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d veps2 = _mm512_set1_pd(eps2);
  for (std::uint32_t i = target_begin; i < target_end; ++i) {
    const __m512d tx = _mm512_set1_pd(t.x[i]);
    const __m512d ty = _mm512_set1_pd(t.y[i]);
    const __m512d tz = _mm512_set1_pd(t.z[i]);
    const __m512i self = _mm512_set1_epi64(i);
    __m512d ax = zero, ay = zero, az = zero, pot = zero;
    for (std::uint32_t j = begin; j < end; j += kKernelBatchPad) {
      // keep = 0 on the self lane, 1 elsewhere; as in the portable loop the
      // self lane gets zero mass and a +1 r2 bias so rinv stays finite.
      const __m512i idx = _mm512_cvtepu32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sidx + j)));
      const __m512d keep = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(idx, self), one, zero);
      const __m512d dx = _mm512_sub_pd(_mm512_loadu_pd(sx + j), tx);
      const __m512d dy = _mm512_sub_pd(_mm512_loadu_pd(sy + j), ty);
      const __m512d dz = _mm512_sub_pd(_mm512_loadu_pd(sz + j), tz);
      const __m512d bias = _mm512_add_pd(veps2, _mm512_sub_pd(one, keep));
      const __m512d r2 =
          _mm512_fmadd_pd(dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_fmadd_pd(dz, dz, bias)));
      const __m512d rinv = rsqrt_newton(r2);
      const __m512d mr = _mm512_mul_pd(_mm512_mul_pd(_mm512_loadu_pd(sm + j), keep), rinv);
      const __m512d mr3 = _mm512_mul_pd(_mm512_mul_pd(mr, rinv), rinv);
      ax = _mm512_fmadd_pd(mr3, dx, ax);
      ay = _mm512_fmadd_pd(mr3, dy, ay);
      az = _mm512_fmadd_pd(mr3, dz, az);
      pot = _mm512_sub_pd(pot, mr);
    }
    t.ax[i] += _mm512_reduce_add_pd(ax);
    t.ay[i] += _mm512_reduce_add_pd(ay);
    t.az[i] += _mm512_reduce_add_pd(az);
    t.pot[i] += _mm512_reduce_add_pd(pot);
  }
}

BONSAI_TARGET_AVX512F void rsqrt_avx512f_impl(std::span<const double> r2,
                                              std::span<double> rinv) {
  const __m512d one = _mm512_set1_pd(1.0);
  for (std::size_t k = 0; k < r2.size(); k += kKernelBatchPad) {
    const std::size_t lanes = std::min(kKernelBatchPad, r2.size() - k);
    const auto mask = static_cast<__mmask8>((1u << lanes) - 1u);
    _mm512_mask_storeu_pd(rinv.data() + k, mask,
                          rsqrt_newton(_mm512_mask_loadu_pd(one, mask, r2.data() + k)));
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

void rsqrt_avx512f(std::span<const double> r2, std::span<double> rinv) {
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
    case KernelBackend::kSimdFloat: return "simd-float";
  }
  return "unknown";
}

std::optional<KernelBackend> kernel_backend_from_name(std::string_view name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "simd") return KernelBackend::kSimd;
  if (name == "simd-float") return KernelBackend::kSimdFloat;
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
  cell_run_begin_ = static_cast<std::uint32_t>(cx_.size());
  leaf_run_begin_ = static_cast<std::uint32_t>(sx_.size());
}

void InteractionQueue::push_cell(const TreeNode& node) {
  if (cx_.size() + sx_.size() >= capacity_) flush();
  const Multipole& mp = node.mp;
  cx_.push_back(mp.com.x);
  cy_.push_back(mp.com.y);
  cz_.push_back(mp.com.z);
  cm_.push_back(mp.mass);
  for (int k = 0; k < 6; ++k) cq_[k].push_back(params_.quadrupole ? mp.quad.q[k] : 0.0);
  if (backend_ == KernelBackend::kSimdFloat) {
    fcx_.push_back(static_cast<float>(mp.com.x));
    fcy_.push_back(static_cast<float>(mp.com.y));
    fcz_.push_back(static_cast<float>(mp.com.z));
    fcm_.push_back(static_cast<float>(mp.mass));
    for (int k = 0; k < 6; ++k)
      fcq_[k].push_back(params_.quadrupole ? static_cast<float>(mp.quad.q[k]) : 0.0f);
  }
}

void InteractionQueue::push_leaf(const TreeNode& leaf) {
  const std::size_t count = leaf.part_end - leaf.part_begin;
  if (count == 0) return;
  if (cx_.size() + sx_.size() + count >= capacity_ &&
      (sx_.size() > leaf_run_begin_ || cx_.size() > cell_run_begin_ ||
       !cell_batches_.empty() || !leaf_batches_.empty()))
    flush();
  for (std::uint32_t j = leaf.part_begin; j < leaf.part_end; ++j) {
    sx_.push_back(src_.x[j]);
    sy_.push_back(src_.y[j]);
    sz_.push_back(src_.z[j]);
    sm_.push_back(src_.m[j]);
    sidx_.push_back(params_.self ? j : kInvalidSource);
    if (backend_ == KernelBackend::kSimdFloat) {
      fsx_.push_back(static_cast<float>(src_.x[j]));
      fsy_.push_back(static_cast<float>(src_.y[j]));
      fsz_.push_back(static_cast<float>(src_.z[j]));
      fsm_.push_back(static_cast<float>(src_.m[j]));
    }
  }
}

void InteractionQueue::pad_cells() {
  const std::size_t padded = pad_to(cx_.size());
  while (cx_.size() < padded) {
    cx_.push_back(kPadPos);
    cy_.push_back(kPadPos);
    cz_.push_back(kPadPos);
    cm_.push_back(0.0);
    for (auto& q : cq_) q.push_back(0.0);
    if (backend_ == KernelBackend::kSimdFloat) {
      fcx_.push_back(static_cast<float>(kPadPos));
      fcy_.push_back(static_cast<float>(kPadPos));
      fcz_.push_back(static_cast<float>(kPadPos));
      fcm_.push_back(0.0f);
      for (auto& q : fcq_) q.push_back(0.0f);
    }
  }
}

void InteractionQueue::pad_leaves() {
  const std::size_t padded = pad_to(sx_.size());
  while (sx_.size() < padded) {
    sx_.push_back(kPadPos);
    sy_.push_back(kPadPos);
    sz_.push_back(kPadPos);
    sm_.push_back(0.0);
    sidx_.push_back(kInvalidSource);
    if (backend_ == KernelBackend::kSimdFloat) {
      fsx_.push_back(static_cast<float>(kPadPos));
      fsy_.push_back(static_cast<float>(kPadPos));
      fsz_.push_back(static_cast<float>(kPadPos));
      fsm_.push_back(0.0f);
    }
  }
}

void InteractionQueue::close_cell_run() {
  const std::uint32_t end = static_cast<std::uint32_t>(cx_.size());
  if (end == cell_run_begin_) return;
  Batch b;
  b.target_begin = target_begin_;
  b.target_end = target_end_;
  b.begin = cell_run_begin_;
  b.end = end;
  if (backend_ == KernelBackend::kScalar) {
    b.padded_end = end;
  } else {
    pad_cells();
    b.padded_end = static_cast<std::uint32_t>(cx_.size());
  }
  const std::uint64_t nt = b.target_end - b.target_begin;
  const std::uint64_t useful = static_cast<std::uint64_t>(b.end - b.begin) * nt;
  stats_.p2c += useful;
  stats_.p2c_padded += static_cast<std::uint64_t>(b.padded_end - b.begin) * nt;
  stats_.pc_batches += 1;
  stats_.observe_batch(useful);
  cell_batches_.push_back(b);
  cell_run_begin_ = static_cast<std::uint32_t>(cx_.size());
}

void InteractionQueue::close_leaf_run() {
  const std::uint32_t end = static_cast<std::uint32_t>(sx_.size());
  if (end == leaf_run_begin_) return;
  Batch b;
  b.target_begin = target_begin_;
  b.target_end = target_end_;
  b.begin = leaf_run_begin_;
  b.end = end;
  if (params_.self) {
    // Self-pairs in this run: staged sources whose global index falls inside
    // the target range. They are masked lanes, not useful interactions.
    for (std::uint32_t s = b.begin; s < b.end; ++s)
      if (sidx_[s] >= target_begin_ && sidx_[s] < target_end_ &&
          sidx_[s] != kInvalidSource)
        ++b.self_pairs;
  }
  if (backend_ == KernelBackend::kScalar) {
    b.padded_end = end;
  } else {
    pad_leaves();
    b.padded_end = static_cast<std::uint32_t>(sx_.size());
  }
  const std::uint64_t nt = b.target_end - b.target_begin;
  const std::uint64_t useful =
      static_cast<std::uint64_t>(b.end - b.begin) * nt - b.self_pairs;
  stats_.p2p += useful;
  // The scalar replay skips self-pairs the way the inline walk does; the SIMD
  // paths evaluate every padded lane and mask, so the pad count includes both
  // the alignment lanes and the masked self-pairs.
  stats_.p2p_padded += backend_ == KernelBackend::kScalar
                           ? useful
                           : static_cast<std::uint64_t>(b.padded_end - b.begin) * nt;
  stats_.pp_batches += 1;
  stats_.observe_batch(useful);
  leaf_batches_.push_back(b);
  leaf_run_begin_ = static_cast<std::uint32_t>(sx_.size());
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
  for (const Batch& b : cell_batches_) drain_cell_batch(b);
  for (const Batch& b : leaf_batches_) drain_leaf_batch(b);
  cell_batches_.clear();
  leaf_batches_.clear();
  cx_.clear();
  cy_.clear();
  cz_.clear();
  cm_.clear();
  for (auto& q : cq_) q.clear();
  fcx_.clear();
  fcy_.clear();
  fcz_.clear();
  fcm_.clear();
  for (auto& q : fcq_) q.clear();
  sx_.clear();
  sy_.clear();
  sz_.clear();
  sm_.clear();
  sidx_.clear();
  fsx_.clear();
  fsy_.clear();
  fsz_.clear();
  fsm_.clear();
  cell_run_begin_ = 0;
  leaf_run_begin_ = 0;
}

void InteractionQueue::drain_cell_batch(const Batch& b) const {
  ParticleSet& t = *targets_;
  const double eps2 = params_.eps2;

  if (backend_ == KernelBackend::kScalar) {
    // Straight replay of the inline walk's kernels, in staged (stack) order:
    // cell-outer, target-inner, exactly like apply_cell once did.
    for (std::uint32_t j = b.begin; j < b.end; ++j) {
      Multipole mp;
      mp.mass = cm_[j];
      mp.com = {cx_[j], cy_[j], cz_[j]};
      for (int k = 0; k < 6; ++k) mp.quad.q[k] = cq_[k][j];
      for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
        ForceAccum<double> f{};
        if (params_.quadrupole) {
          pc_kernel(t.pos(i), mp, eps2, f);
        } else {
          pc_kernel_monopole(t.pos(i), mp, eps2, f);
        }
        t.ax[i] += f.ax;
        t.ay[i] += f.ay;
        t.az[i] += f.az;
        t.pot[i] += f.pot;
      }
    }
    return;
  }

  if (backend_ == KernelBackend::kSimd) {
    const double* const cx = cx_.data();
    const double* const cy = cy_.data();
    const double* const cz = cz_.data();
    const double* const cm = cm_.data();
    const double* const q0 = cq_[0].data();
    const double* const q1 = cq_[1].data();
    const double* const q2 = cq_[2].data();
    const double* const q3 = cq_[3].data();
    const double* const q4 = cq_[4].data();
    const double* const q5 = cq_[5].data();
#if BONSAI_KERNEL_AVX512F
    if (isa_ == KernelIsa::kAvx512f) {
      BNS_DCHECK((b.padded_end - b.begin) % kKernelBatchPad == 0);
      const double* const cell[10] = {cx, cy, cz, cm, q0, q1, q2, q3, q4, q5};
      drain_cells_avx512f(cell, b.begin, b.padded_end, t, b.target_begin, b.target_end, eps2);
      return;
    }
#endif
    for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
      const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
      double ax = 0.0, ay = 0.0, az = 0.0, pot = 0.0;
#pragma omp simd reduction(+ : ax, ay, az, pot)
      for (std::uint32_t j = b.begin; j < b.padded_end; ++j) {
        const double dx = cx[j] - tx;
        const double dy = cy[j] - ty;
        const double dz = cz[j] - tz;
        const double r2 = dx * dx + dy * dy + dz * dz + eps2;
        const double rinv = 1.0 / std::sqrt(r2);
        const double rinv2 = rinv * rinv;
        const double rinv3 = rinv * rinv2;
        const double rinv5 = rinv3 * rinv2;
        const double rinv7 = rinv5 * rinv2;
        const double qx = q0[j] * dx + q1[j] * dy + q2[j] * dz;
        const double qy = q1[j] * dx + q3[j] * dy + q4[j] * dz;
        const double qz = q2[j] * dx + q4[j] * dy + q5[j] * dz;
        const double rqr = dx * qx + dy * qy + dz * qz;
        const double trq = q0[j] + q3[j] + q5[j];
        pot += -cm[j] * rinv + 0.5 * trq * rinv3 - 1.5 * rqr * rinv5;
        const double s = cm[j] * rinv3 - 1.5 * trq * rinv5 + 7.5 * rqr * rinv7;
        ax += s * dx - 3.0 * rinv5 * qx;
        ay += s * dy - 3.0 * rinv5 * qy;
        az += s * dz - 3.0 * rinv5 * qz;
      }
      t.ax[i] += ax;
      t.ay[i] += ay;
      t.az[i] += az;
      t.pot[i] += pot;
    }
    return;
  }

  // kSimdFloat: the paper's single-precision device arithmetic, accumulated
  // into the double target arrays once per batch.
  const float feps2 = static_cast<float>(eps2);
  const float* const cx = fcx_.data();
  const float* const cy = fcy_.data();
  const float* const cz = fcz_.data();
  const float* const cm = fcm_.data();
  const float* const q0 = fcq_[0].data();
  const float* const q1 = fcq_[1].data();
  const float* const q2 = fcq_[2].data();
  const float* const q3 = fcq_[3].data();
  const float* const q4 = fcq_[4].data();
  const float* const q5 = fcq_[5].data();
  for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
    const float tx = static_cast<float>(t.x[i]);
    const float ty = static_cast<float>(t.y[i]);
    const float tz = static_cast<float>(t.z[i]);
    float ax = 0.0f, ay = 0.0f, az = 0.0f, pot = 0.0f;
#pragma omp simd reduction(+ : ax, ay, az, pot)
    for (std::uint32_t j = b.begin; j < b.padded_end; ++j) {
      const float dx = cx[j] - tx;
      const float dy = cy[j] - ty;
      const float dz = cz[j] - tz;
      const float r2 = dx * dx + dy * dy + dz * dz + feps2;
      const float rinv = 1.0f / std::sqrt(r2);
      const float rinv2 = rinv * rinv;
      const float rinv3 = rinv * rinv2;
      const float rinv5 = rinv3 * rinv2;
      const float rinv7 = rinv5 * rinv2;
      const float qx = q0[j] * dx + q1[j] * dy + q2[j] * dz;
      const float qy = q1[j] * dx + q3[j] * dy + q4[j] * dz;
      const float qz = q2[j] * dx + q4[j] * dy + q5[j] * dz;
      const float rqr = dx * qx + dy * qy + dz * qz;
      const float trq = q0[j] + q3[j] + q5[j];
      pot += -cm[j] * rinv + 0.5f * trq * rinv3 - 1.5f * rqr * rinv5;
      const float s = cm[j] * rinv3 - 1.5f * trq * rinv5 + 7.5f * rqr * rinv7;
      ax += s * dx - 3.0f * rinv5 * qx;
      ay += s * dy - 3.0f * rinv5 * qy;
      az += s * dz - 3.0f * rinv5 * qz;
    }
    t.ax[i] += static_cast<double>(ax);
    t.ay[i] += static_cast<double>(ay);
    t.az[i] += static_cast<double>(az);
    t.pot[i] += static_cast<double>(pot);
  }
}

void InteractionQueue::drain_leaf_batch(const Batch& b) const {
  ParticleSet& t = *targets_;
  const double eps2 = params_.eps2;

  if (backend_ == KernelBackend::kScalar) {
    for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
      const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
      ForceAccum<double> f{};
      for (std::uint32_t j = b.begin; j < b.end; ++j) {
        if (sidx_[j] == i) continue;  // exact self-interaction
        pp_kernel<double>(tx, ty, tz, sx_[j], sy_[j], sz_[j], sm_[j], eps2, f);
      }
      t.ax[i] += f.ax;
      t.ay[i] += f.ay;
      t.az[i] += f.az;
      t.pot[i] += f.pot;
    }
    return;
  }

  const std::uint32_t* const sidx = sidx_.data();

  if (backend_ == KernelBackend::kSimd) {
    const double* const sx = sx_.data();
    const double* const sy = sy_.data();
    const double* const sz = sz_.data();
    const double* const sm = sm_.data();
#if BONSAI_KERNEL_AVX512F
    if (isa_ == KernelIsa::kAvx512f) {
      BNS_DCHECK((b.padded_end - b.begin) % kKernelBatchPad == 0);
      drain_leaves_avx512f(sx, sy, sz, sm, sidx, b.begin, b.padded_end, t, b.target_begin,
                           b.target_end, eps2);
      return;
    }
#endif
    for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
      const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
      double ax = 0.0, ay = 0.0, az = 0.0, pot = 0.0;
#pragma omp simd reduction(+ : ax, ay, az, pot)
      for (std::uint32_t j = b.begin; j < b.padded_end; ++j) {
        // Branch-free self-mask: the self lane gets zero mass and a biased
        // r2 so the rsqrt stays finite even at eps = 0.
        const double keep = sidx[j] == i ? 0.0 : 1.0;
        const double dx = sx[j] - tx;
        const double dy = sy[j] - ty;
        const double dz = sz[j] - tz;
        const double r2 = dx * dx + dy * dy + dz * dz + eps2 + (1.0 - keep);
        const double rinv = 1.0 / std::sqrt(r2);
        const double m = sm[j] * keep;
        const double mr3 = m * rinv * rinv * rinv;
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
    return;
  }

  const float feps2 = static_cast<float>(eps2);
  const float* const sx = fsx_.data();
  const float* const sy = fsy_.data();
  const float* const sz = fsz_.data();
  const float* const sm = fsm_.data();
  for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
    const float tx = static_cast<float>(t.x[i]);
    const float ty = static_cast<float>(t.y[i]);
    const float tz = static_cast<float>(t.z[i]);
    float ax = 0.0f, ay = 0.0f, az = 0.0f, pot = 0.0f;
#pragma omp simd reduction(+ : ax, ay, az, pot)
    for (std::uint32_t j = b.begin; j < b.padded_end; ++j) {
      const float keep = sidx[j] == i ? 0.0f : 1.0f;
      const float dx = sx[j] - tx;
      const float dy = sy[j] - ty;
      const float dz = sz[j] - tz;
      const float r2 = dx * dx + dy * dy + dz * dz + feps2 + (1.0f - keep);
      const float rinv = 1.0f / std::sqrt(r2);
      const float m = sm[j] * keep;
      const float mr3 = m * rinv * rinv * rinv;
      ax += mr3 * dx;
      ay += mr3 * dy;
      az += mr3 * dz;
      pot -= m * rinv;
    }
    t.ax[i] += static_cast<double>(ax);
    t.ay[i] += static_cast<double>(ay);
    t.az[i] += static_cast<double>(az);
    t.pot[i] += static_cast<double>(pot);
  }
}

}  // namespace bonsai
