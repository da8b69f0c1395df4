#include "sfc/hilbert.hpp"

#include <array>

namespace bonsai::sfc {
namespace {

constexpr int kStates = 24;

// The curve as a finite-state machine over the 24 orientations its
// sub-cubes take. In a cell of orientation s, the child in octant
// o = 4*xbit + 2*ybit + zbit is visited kDigit[s][o]-th of the eight and has
// orientation kNext[s][o]; the root cube has orientation 0.
constexpr std::uint8_t kDigit[kStates][8] = {
    {0, 1, 3, 2, 7, 6, 4, 5}, {0, 7, 1, 6, 3, 4, 2, 5}, {0, 1, 7, 6, 3, 2, 4, 5},
    {6, 1, 5, 2, 7, 0, 4, 3}, {4, 3, 5, 2, 7, 0, 6, 1}, {4, 5, 3, 2, 7, 6, 0, 1},
    {0, 7, 3, 4, 1, 6, 2, 5}, {0, 3, 7, 4, 1, 2, 6, 5}, {4, 7, 3, 0, 5, 6, 2, 1},
    {0, 3, 1, 2, 7, 4, 6, 5}, {4, 7, 5, 6, 3, 0, 2, 1}, {6, 7, 1, 0, 5, 4, 2, 3},
    {4, 3, 7, 0, 5, 2, 6, 1}, {4, 5, 7, 6, 3, 2, 0, 1}, {6, 1, 7, 0, 5, 2, 4, 3},
    {6, 5, 1, 2, 7, 4, 0, 3}, {2, 1, 5, 6, 3, 0, 4, 7}, {6, 7, 5, 4, 1, 0, 2, 3},
    {2, 3, 5, 4, 1, 0, 6, 7}, {2, 5, 3, 4, 1, 6, 0, 7}, {2, 5, 1, 6, 3, 4, 0, 7},
    {6, 5, 7, 4, 1, 2, 0, 3}, {2, 1, 3, 0, 5, 6, 4, 7}, {2, 3, 1, 0, 5, 4, 6, 7},
};
constexpr std::uint8_t kNext[kStates][8] = {
    {1, 2, 3, 0, 4, 5, 6, 0},         {7, 8, 9, 10, 11, 2, 1, 1},
    {6, 0, 12, 13, 14, 2, 1, 2},      {15, 16, 3, 3, 9, 10, 17, 0},
    {18, 5, 4, 4, 15, 16, 9, 10},     {19, 5, 4, 5, 3, 0, 20, 13},
    {9, 10, 17, 0, 7, 8, 6, 6},       {0, 21, 13, 9, 6, 7, 12, 7},
    {22, 17, 10, 23, 8, 6, 8, 12},    {2, 15, 1, 9, 5, 7, 4, 9},
    {16, 11, 10, 1, 8, 18, 10, 4},    {17, 6, 23, 12, 11, 14, 11, 1},
    {23, 13, 21, 22, 12, 12, 7, 8},   {20, 13, 14, 2, 12, 13, 19, 5},
    {21, 22, 7, 8, 14, 14, 11, 2},    {3, 15, 20, 15, 0, 21, 13, 9},
    {16, 3, 16, 20, 22, 17, 10, 23},  {11, 1, 17, 3, 18, 4, 17, 6},
    {18, 19, 18, 4, 17, 3, 23, 20},   {19, 19, 18, 5, 21, 22, 15, 16},
    {20, 20, 15, 16, 23, 13, 21, 22}, {14, 21, 2, 15, 19, 21, 5, 7},
    {22, 14, 16, 11, 22, 19, 8, 18},  {23, 20, 11, 14, 23, 12, 18, 19},
};

// Two levels per lookup. encode[s*64 + octant pair] packs the digit pair
// (bits 0-5) and the orientation after both levels (bits 6-10); decode is
// indexed by the digit pair and packs the octant pair the same way.
// root_octant inverts kDigit[0] for the odd top level.
struct Tables {
  std::array<std::uint16_t, kStates * 64> encode{}, decode{};
  std::array<std::uint8_t, 8> root_octant{};
};

constexpr Tables make_tables() {
  Tables t;
  for (int hi = 0; hi < 8; ++hi) t.root_octant[kDigit[0][hi]] = static_cast<std::uint8_t>(hi);
  for (int s = 0; s < kStates; ++s)
    for (int hi = 0; hi < 8; ++hi) {
      const int mid = kNext[s][hi];
      for (int lo = 0; lo < 8; ++lo) {
        const int digits = kDigit[s][hi] * 8 + kDigit[mid][lo];
        const int end = kNext[mid][lo] << 6;
        t.encode[static_cast<std::size_t>(s * 64 + hi * 8 + lo)] =
            static_cast<std::uint16_t>(digits | end);
        t.decode[static_cast<std::size_t>(s * 64 + digits)] =
            static_cast<std::uint16_t>((hi * 8 + lo) | end);
      }
    }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

// 21 levels: the top one alone, then ten pairs. The octant stream of a point
// is its Morton key, and a key's octant stream decodes through morton_decode.
std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  const std::uint64_t octants = morton_encode(x, y, z);
  const auto top = static_cast<unsigned>(octants >> 60);
  std::uint64_t key = kDigit[0][top];
  unsigned state = kNext[0][top];
  for (int shift = 54; shift >= 0; shift -= 6) {
    const unsigned e = kTables.encode[state * 64 + ((octants >> shift) & 63u)];
    key = (key << 6) | (e & 63u);
    state = e >> 6;
  }
  return key;
}

Coords hilbert_decode(std::uint64_t key) {
  const unsigned top = kTables.root_octant[(key >> 60) & 7u];
  std::uint64_t octants = top;
  unsigned state = kNext[0][top];
  for (int shift = 54; shift >= 0; shift -= 6) {
    const unsigned e = kTables.decode[state * 64 + ((key >> shift) & 63u)];
    octants = (octants << 6) | (e & 63u);
    state = e >> 6;
  }
  return morton_decode(octants);
}

}  // namespace bonsai::sfc
