// Energy-conservation regression: KE + PE drift of an integrated Plummer
// model stays bounded over many steps. Single-step force checks compare
// against references at one instant; only a multi-step energy budget catches
// integrator bugs (wrong kick/drift order, stale accelerations, force zeroing
// at the wrong time) and slow force corruption across redistributions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "domain/simulation.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

using domain::SimConfig;
using domain::Simulation;

// Relative total-energy drift over `steps` steps of a virialized Plummer
// sphere. E is sampled after every step: KE from post-kick velocities, PE
// from the potentials of that step's force pass — consistent to O(dt), which
// the tolerance absorbs.
double max_energy_drift(SimConfig cfg, int steps) {
  Simulation sim(cfg);
  sim.init(make_plummer(1000, 5));
  sim.step();  // first forces + kick
  const double e0 = sim.kinetic_energy() + sim.potential_energy();
  EXPECT_LT(e0, 0.0);  // bound system
  double worst = 0.0;
  for (int s = 1; s < steps; ++s) {
    sim.step();
    const double e = sim.kinetic_energy() + sim.potential_energy();
    EXPECT_TRUE(std::isfinite(e));
    worst = std::max(worst, std::abs(e - e0) / std::abs(e0));
  }
  return worst;
}

TEST(Energy, PlummerDriftBoundedAsync) {
  SimConfig cfg;
  cfg.nranks = 2;
  cfg.theta = 0.4;
  cfg.eps = 0.05;
  cfg.dt = 1e-3;
  EXPECT_LT(max_energy_drift(cfg, 24), 0.01);
}

TEST(Energy, PlummerDriftBoundedOnThreeRanks) {
  SimConfig cfg;
  cfg.nranks = 3;
  cfg.theta = 0.4;
  cfg.eps = 0.05;
  cfg.dt = 1e-3;
  EXPECT_LT(max_energy_drift(cfg, 24), 0.01);
}

}  // namespace
}  // namespace bonsai
