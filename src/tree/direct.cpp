#include "tree/direct.hpp"

#include "tree/kernels.hpp"

namespace bonsai {

InteractionStats direct_forces(ParticleSet& parts, double eps) {
  const std::size_t n = parts.size();
  const double eps2 = eps * eps;
  InteractionStats stats;
  for (std::size_t i = 0; i < n; ++i) {
    ForceAccum f{};
    const double tx = parts.x[i], ty = parts.y[i], tz = parts.z[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      pp_kernel(tx, ty, tz, parts.x[j], parts.y[j], parts.z[j], parts.mass[j], eps2, f);
    }
    parts.ax[i] = f.ax;
    parts.ay[i] = f.ay;
    parts.az[i] = f.az;
    parts.pot[i] = f.pot;
    stats.p2p += n - 1;
    stats.p2p_padded += n - 1;
  }
  return stats;
}

InteractionStats direct_forces_between(const ParticleSet& sources, ParticleSet& targets,
                                       double eps) {
  const double eps2 = eps * eps;
  InteractionStats stats;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ForceAccum f{};
    const double tx = targets.x[i], ty = targets.y[i], tz = targets.z[i];
    for (std::size_t j = 0; j < sources.size(); ++j) {
      pp_kernel(tx, ty, tz, sources.x[j], sources.y[j], sources.z[j], sources.mass[j],
                eps2, f);
    }
    targets.ax[i] += f.ax;
    targets.ay[i] += f.ay;
    targets.az[i] += f.az;
    targets.pot[i] += f.pot;
    stats.p2p += sources.size();
    stats.p2p_padded += sources.size();
  }
  return stats;
}

InteractionStats direct_forces_subset(ParticleSet& parts, double eps,
                                      std::span<const std::uint32_t> target_indices) {
  const std::size_t n = parts.size();
  const double eps2 = eps * eps;
  InteractionStats stats;
  for (const std::uint32_t i : target_indices) {
    ForceAccum f{};
    const double tx = parts.x[i], ty = parts.y[i], tz = parts.z[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      pp_kernel(tx, ty, tz, parts.x[j], parts.y[j], parts.z[j], parts.mass[j], eps2, f);
    }
    parts.ax[i] = f.ax;
    parts.ay[i] = f.ay;
    parts.az[i] = f.az;
    parts.pot[i] = f.pot;
    stats.p2p += n - 1;
    stats.p2p_padded += n - 1;
  }
  return stats;
}

}  // namespace bonsai
