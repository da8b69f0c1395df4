// One in-process "rank": the unit of the paper's parallelization. A rank
// owns a particle slice (a contiguous Hilbert-key interval), its own Device,
// and its own octree and target groups; each stage closes one span on the
// calling thread's bound log (util/trace.hpp), which is where the per-stage
// timings come from. The multi-rank
// Simulation orchestrates ranks the way the paper's MPI layer orchestrates
// processes; swapping this emulation for real MPI/GPU backends changes the
// transport, not the dataflow.
#pragma once

#include <cstddef>

#include "device/device.hpp"
#include "domain/let.hpp"
#include "sfc/keys.hpp"
#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "tree/traverse.hpp"
#include "util/aabb.hpp"
#include "util/timer.hpp"

namespace bonsai::domain {

// bench/ remnant; src/ ignores it (the domain update always weighs counted
// walk work, see run_spmd_redistribute).
enum class BalanceMode { kCount };

// Per-step knobs shared by every rank (the Simulation owns the authoritative
// copy; ranks receive it by const reference each stage).
struct SimConfig {
  int nranks = 1;
  double theta = 0.4;  // opening angle (paper production value, §IV)
  double eps = 1e-2;   // Plummer softening
  int nleaf = Octree::kDefaultNLeaf;
  int ncrit = 64;  // target-group size
  double dt = 0.0;  // 0 disables integration (forces-only steps)
  sfc::CurveType curve = sfc::CurveType::kHilbert;  // bench/ remnant; src/ ignores it
  std::size_t samples_per_rank = 4096;        // boundary-key samples per rank
  int snap_level = 8;                         // boundary snap (0 = off)
  std::size_t threads_per_rank = 0;           // 0: hardware threads / nranks
  bool async = true;                          // bench/ remnant; src/ ignores it
  BalanceMode balance = BalanceMode::kCount;  // bench/ remnant; src/ ignores it
  KernelBackend kernel = KernelBackend::kSimd;  // batched force backend
                                                // (--kernel); shipped to
                                                // workers in the Config frame
  bool let_cache = false;   // bench/ remnant; src/ ignores it
  double let_churn = 0.75;  // bench/ remnant; src/ ignores it

  TraversalConfig traversal() const {
    TraversalConfig t;
    t.theta = theta;
    t.eps = eps;
    t.ncrit = ncrit;
    t.backend = kernel;
    return t;
  }
};

class Rank {
 public:
  Rank(int id, std::size_t num_threads) : id_(id), device_(num_threads) {
    device_.set_trace_rank(id);
  }

  int id() const { return id_; }
  Device& device() { return device_; }
  ParticleSet& parts() { return parts_; }
  const ParticleSet& parts() const { return parts_; }
  const Octree& tree() const { return tree_; }
  std::span<const TargetGroup> groups() const { return groups_; }

  // Tight AABB of the rank's particles (valid only when non-empty); this is
  // the box remote ranks build LETs against.
  const AABB& domain_box() const { return box_; }

  // Sort by SFC key, build the octree, compute multipoles/MAC radii and
  // target groups (spans rank.sort, rank.build, rank.properties).
  void build(const sfc::KeySpace& space, const SimConfig& cfg);

  // Extract this rank's LET for a remote domain box (sender-side work).
  LetTree export_let(const AABB& remote_box) const {
    return build_let(tree_.view(parts_), remote_box);
  }

  // Forces from the rank's own tree (exact self-interactions skipped; span
  // gravity.local).
  InteractionStats gravity_local(const SimConfig& cfg);

  // Forces from one imported LET (any self-contained tree view). The caller
  // spans it (gravity.remote), naming the peer.
  InteractionStats gravity_remote(const TreeView& let, const SimConfig& cfg);

  // Symplectic-Euler kick-drift using the freshly computed accelerations
  // (span rank.integrate). The TimeBreakdown is unused; the traced bench
  // replay still passes one.
  void integrate(double dt, TimeBreakdown&);

 private:
  int id_;
  Device device_;
  ParticleSet parts_;
  Octree tree_;
  std::vector<TargetGroup> groups_;
  AABB box_;
};

}  // namespace bonsai::domain
