#include "domain/rank.hpp"

#include "util/trace.hpp"

namespace bonsai::domain {

void Rank::build(const sfc::KeySpace& space, const SimConfig& cfg) {
  {
    trace::ScopedSpan span("rank.sort", id_, id_);
    device_.sort_particles(parts_, space);
  }
  {
    trace::ScopedSpan span("rank.build", id_, id_);
    device_.build_tree(parts_, tree_, cfg.nleaf);
  }
  {
    trace::ScopedSpan span("rank.properties", id_, id_);
    device_.compute_properties(parts_, tree_, cfg.theta);
    groups_ = make_groups(parts_, cfg.ncrit);
  }
  box_ = parts_.empty() ? AABB{} : tree_.root().box;
}

InteractionStats Rank::gravity_local(const SimConfig& cfg) {
  trace::ScopedSpan span("gravity.local", id_, id_);
  if (parts_.empty()) return {};
  return device_.compute_forces(tree_.view(parts_), parts_, groups_, cfg.traversal(),
                                /*self=*/true);
}

InteractionStats Rank::gravity_remote(const TreeView& let, const SimConfig& cfg) {
  if (parts_.empty() || let.empty()) return {};
  return device_.compute_forces(let, parts_, groups_, cfg.traversal(),
                                /*self=*/false);
}

void Rank::integrate(double dt, TimeBreakdown&) {
  trace::ScopedSpan span("rank.integrate", id_, id_);
  ParticleSet& p = parts_;
  device_.parallel_for(p.size(), [&](std::size_t i) {
    p.vx[i] += p.ax[i] * dt;
    p.vy[i] += p.ay[i] * dt;
    p.vz[i] += p.az[i] * dt;
    p.x[i] += p.vx[i] * dt;
    p.y[i] += p.vy[i] * dt;
    p.z[i] += p.vz[i] * dt;
  });
}

}  // namespace bonsai::domain
