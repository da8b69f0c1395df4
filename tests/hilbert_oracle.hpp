// Skilling's transpose algorithm ("Programming the Hilbert curve", AIP Conf.
// Proc. 707, 2004) for n = 3 dimensions at 21 bits per axis: the definition
// of the curve that the table-driven sfc::hilbert_encode / hilbert_decode
// must reproduce bit for bit.
#pragma once

#include <cstdint>

#include "sfc/morton.hpp"

namespace bonsai::sfc::oracle {

inline constexpr int kBits = kMaxLevel;  // bits per dimension
inline constexpr int kDims = 3;

// Map axes values into the "transpose" Hilbert representation, in place.
// X[i] holds every kDims-th bit of the Hilbert index.
inline void axes_to_transpose(std::uint32_t X[kDims]) {
  std::uint32_t P, Q, t;
  // Inverse undo of the excess work.
  for (Q = 1u << (kBits - 1); Q > 1; Q >>= 1) {
    P = Q - 1;
    for (int i = 0; i < kDims; ++i) {
      if (X[i] & Q) {
        X[0] ^= P;  // invert low bits of X[0]
      } else {
        t = (X[0] ^ X[i]) & P;
        X[0] ^= t;
        X[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < kDims; ++i) X[i] ^= X[i - 1];
  t = 0;
  for (Q = 1u << (kBits - 1); Q > 1; Q >>= 1)
    if (X[kDims - 1] & Q) t ^= Q - 1;
  for (int i = 0; i < kDims; ++i) X[i] ^= t;
}

// Inverse of axes_to_transpose.
inline void transpose_to_axes(std::uint32_t X[kDims]) {
  std::uint32_t P, Q, t;
  // Gray decode by H ^ (H/2).
  t = X[kDims - 1] >> 1;
  for (int i = kDims - 1; i > 0; --i) X[i] ^= X[i - 1];
  X[0] ^= t;
  // Undo excess work.
  for (Q = 2; Q != (1u << kBits); Q <<= 1) {
    P = Q - 1;
    for (int i = kDims - 1; i >= 0; --i) {
      if (X[i] & Q) {
        X[0] ^= P;
      } else {
        t = (X[0] ^ X[i]) & P;
        X[0] ^= t;
        X[i] ^= t;
      }
    }
  }
}

// Key bit (3*b + 2 - i) <- bit b of X[i]: each 3-bit group of the key holds
// one refinement level, most significant level first.
inline std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  std::uint32_t X[kDims] = {x & (kCoordRange - 1), y & (kCoordRange - 1),
                            z & (kCoordRange - 1)};
  axes_to_transpose(X);
  std::uint64_t key = 0;
  for (int b = kBits - 1; b >= 0; --b)
    for (int i = 0; i < kDims; ++i) key = (key << 1) | ((X[i] >> b) & 1u);
  return key;
}

inline Coords hilbert_decode(std::uint64_t key) {
  std::uint32_t X[kDims] = {0, 0, 0};
  for (int b = kBits - 1; b >= 0; --b)
    for (int i = 0; i < kDims; ++i)
      X[i] = (X[i] << 1) | static_cast<std::uint32_t>((key >> (3 * b + 2 - i)) & 1u);
  transpose_to_axes(X);
  return {X[0], X[1], X[2]};
}

}  // namespace bonsai::sfc::oracle
