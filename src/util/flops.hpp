// Floating-point operation accounting, following §VI-A of the paper exactly:
//
//   particle-particle (p-p): 4 sub, 3 mul, 6 fma, 1 rsqrt  -> 23 flops
//   particle-cell    (p-c): 4 sub, 6 add, 17 mul, 17 fma, 1 rsqrt -> 65 flops
//
// with the reciprocal square root counted as 4 flops. Performance numbers are
// obtained by multiplying recorded interaction counts by these constants and
// dividing by execution time, as the paper does (force-only flops).
//
// Since the batched interaction-list engine (PR 7), counts come in two
// flavours: *useful* interactions (the physics: the pairs the walk emitted,
// self-pairs excluded) and *padded* interactions (every lane the device
// actually burned, including SIMD padding lanes and masked self-pairs). Gflop/s figures are derived from useful flops so
// padding can never inflate the reported rate; the padded count is reported
// alongside as the batch fill ratio.
#pragma once

#include <array>
#include <cstdint>

namespace bonsai {

// Flop cost of one particle-particle interaction (monopole, softened).
inline constexpr std::uint64_t kFlopsPerPP = 23;

// Flop cost of one particle-cell interaction (with quadrupole corrections).
inline constexpr std::uint64_t kFlopsPerPC = 65;

// Flop count attributed to one reciprocal-square-root instruction.
inline constexpr std::uint64_t kFlopsPerRsqrt = 4;

// Buckets of the interactions-per-drained-batch histogram: bucket b counts
// batches whose useful interaction count lies in [2^b, 2^(b+1)).
inline constexpr std::size_t kBatchHistBuckets = 24;

// Interaction counters recorded during tree walks and batch drains.
struct InteractionStats {
  std::uint64_t p2p = 0;  // useful particle-particle interactions
  std::uint64_t p2c = 0;  // useful particle-cell (multipole) interactions

  // Lanes actually evaluated: useful plus SIMD padding and masked self-pairs.
  // The scalar backend and direct summation pad nothing (padded == useful).
  std::uint64_t p2p_padded = 0;
  std::uint64_t p2c_padded = 0;

  // Drained interaction-list batches (zero for direct summation).
  std::uint64_t pp_batches = 0;
  std::uint64_t pc_batches = 0;

  // log2 histogram of useful interactions per drained batch.
  std::array<std::uint64_t, kBatchHistBuckets> batch_hist{};

  constexpr std::uint64_t flops() const { return p2p * kFlopsPerPP + p2c * kFlopsPerPC; }
  constexpr std::uint64_t useful_flops() const { return flops(); }
  constexpr std::uint64_t padded_flops() const {
    return p2p_padded * kFlopsPerPP + p2c_padded * kFlopsPerPC;
  }

  constexpr std::uint64_t batches() const { return pp_batches + pc_batches; }

  // Useful fraction of the evaluated lanes (1.0 when nothing was padded).
  constexpr double fill_ratio() const {
    const std::uint64_t padded = p2p_padded + p2c_padded;
    return padded == 0 ? 1.0
                       : static_cast<double>(p2p + p2c) / static_cast<double>(padded);
  }

  // Record one drained batch with `interactions` useful interactions.
  constexpr void observe_batch(std::uint64_t interactions) {
    std::size_t b = 0;
    while ((interactions >> (b + 1)) != 0 && b + 1 < kBatchHistBuckets) ++b;
    ++batch_hist[b];
  }

  constexpr InteractionStats& operator+=(const InteractionStats& o) {
    p2p += o.p2p;
    p2c += o.p2c;
    p2p_padded += o.p2p_padded;
    p2c_padded += o.p2c_padded;
    pp_batches += o.pp_batches;
    pc_batches += o.pc_batches;
    for (std::size_t b = 0; b < kBatchHistBuckets; ++b) batch_hist[b] += o.batch_hist[b];
    return *this;
  }

  friend constexpr InteractionStats operator+(InteractionStats a, const InteractionStats& b) {
    return a += b;
  }

  // Average interactions per particle, the quantity Table II reports.
  constexpr double p2p_per_particle(std::uint64_t n) const {
    return n == 0 ? 0.0 : static_cast<double>(p2p) / static_cast<double>(n);
  }
  constexpr double p2c_per_particle(std::uint64_t n) const {
    return n == 0 ? 0.0 : static_cast<double>(p2c) / static_cast<double>(n);
  }
};

// flops -> Gflop/s given elapsed seconds.
constexpr double gflops_rate(std::uint64_t flops, double seconds) {
  return seconds > 0.0 ? static_cast<double>(flops) / seconds * 1e-9 : 0.0;
}

// flops -> Tflop/s given elapsed seconds.
constexpr double tflops_rate(std::uint64_t flops, double seconds) {
  return seconds > 0.0 ? static_cast<double>(flops) / seconds * 1e-12 : 0.0;
}

}  // namespace bonsai
