// 3-D Peano-Hilbert space-filling-curve keys (21 levels, 63-bit keys).
//
// The domain decomposition of the paper (§III-B1, Fig. 2) orders particles
// along a Peano-Hilbert curve and cuts the curve into per-process pieces; the
// curve's locality keeps each piece geometrically compact and guarantees that
// sub-domain boundaries are branches of a hypothetical global octree.
//
// Implementation: the curve of Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP Conf. Proc. 707, 2004) at 21 bits per axis, walked
// top-down as a state machine over the orientations of its sub-cubes, two
// levels per table lookup. The keys are bit-identical to Skilling's; the
// tests hold the tables to that algorithm.
#pragma once

#include <cstdint>

#include "sfc/morton.hpp"

namespace bonsai::sfc {

// Encode integer coordinates (each < 2^21) into a 63-bit Hilbert key.
// The top 3L bits of the key identify the level-L cell of the octree in
// curve order; keys of a cell's interior form one contiguous range.
std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z);

// Inverse of hilbert_encode.
Coords hilbert_decode(std::uint64_t key);

}  // namespace bonsai::sfc
