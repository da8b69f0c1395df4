// The key sort of the "Sorting SFC" stage (Table II): an LSD radix sort of
// 63-bit SFC keys, the sort Bonsai runs on the GPU (Bédorf, Gaburov &
// Portegies Zwart 2012, arXiv:1204.2280).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/keys.hpp"

namespace bonsai::sfc {

// The permutation that orders particles by (key, id): entry i is the old
// index of the i-th smallest pair. Stable 8-bit LSD passes over the keys,
// with every digit histogrammed in one sweep (a pass whose digit is the same
// for every key is skipped), then each run of equal keys is ordered by id.
std::vector<std::uint32_t> sort_order(std::span<const Key> keys,
                                      std::span<const std::uint64_t> ids);

}  // namespace bonsai::sfc
