#include "tree/particle.hpp"

#include "sfc/radix_sort.hpp"

namespace bonsai {

std::vector<std::uint32_t> sort_by_keys(ParticleSet& parts, const sfc::KeySpace& space) {
  for (std::size_t i = 0; i < parts.size(); ++i) parts.key[i] = space.key(parts.pos(i));
  std::vector<std::uint32_t> perm = sfc::sort_order(parts.key, parts.id);
  parts.apply_permutation(perm);
  return perm;
}

}  // namespace bonsai
