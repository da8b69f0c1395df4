// Compact sparse octree built over SFC-sorted particles.
//
// Because particle keys are hierarchical SFC keys, the children of a cell are
// eight contiguous key sub-ranges; construction is therefore a sequence of
// binary searches over the sorted key array — the same data-parallel
// formulation Bonsai uses on the GPU. Cells are split until they hold at most
// `nleaf` particles (the paper uses 16).
//
// The same node layout is reused for received Local Essential Trees: a LET
// contains Internal nodes, ParticleLeaf nodes (with particle payload) and
// MultipoleLeaf nodes (pruned branches that the receiving domain is
// guaranteed to accept via the MAC).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/keys.hpp"
#include "tree/multipole.hpp"
#include "tree/particle.hpp"
#include "util/aabb.hpp"

namespace bonsai {

enum class NodeKind : std::uint8_t {
  kInternal,       // has children
  kParticleLeaf,   // owns a particle range
  kMultipoleLeaf,  // pruned branch: only the multipole is available
};

struct TreeNode {
  sfc::Key key_begin = 0;          // first SFC key of the cell
  sfc::Key key_end = 0;            // one past the last key of the cell
  std::uint32_t part_begin = 0;    // particle range [part_begin, part_end)
  std::uint32_t part_end = 0;
  std::int32_t first_child = -1;   // children are contiguous node indices
  std::uint8_t num_children = 0;
  std::uint8_t level = 0;          // octree depth (0 = root)
  NodeKind kind = NodeKind::kParticleLeaf;

  AABB box;        // tight bounding box of contained particles
  Multipole mp;    // monopole + quadrupole about the COM
  double rcrit = 0.0;  // MAC opening radius: l/theta + delta (squared compare)

  bool is_leaf() const { return kind != NodeKind::kInternal; }
  std::uint32_t count() const { return part_end - part_begin; }
};

// Read-only view of a tree plus its source particle arrays; the traversal
// accepts any TreeView, so local trees and received LETs share one code path.
// Note: a LET view can carry zero particles yet still exert force (pruned
// branches are pure multipoles), so emptiness is "no nodes", not "no
// particles".
struct TreeView {
  std::span<const TreeNode> nodes;
  std::span<const double> x, y, z, m;

  const TreeNode& root() const { return nodes[0]; }
  bool empty() const { return nodes.empty(); }
};

class Octree {
 public:
  // Leaf capacity used in the paper ([9], §I).
  static constexpr int kDefaultNLeaf = 16;

  // Build the topology from particles whose `key` array is computed and
  // sorted ascending (see sort_by_keys). Particles are not copied: nodes
  // store index ranges into `parts`.
  void build(const ParticleSet& parts, int nleaf = kDefaultNLeaf);

  // Compute tight boxes, multipoles and MAC radii; `theta` is the opening
  // angle. Must be called after build() and before traversal.
  void compute_properties(const ParticleSet& parts, double theta);

  std::span<const TreeNode> nodes() const { return nodes_; }
  std::vector<TreeNode>& mutable_nodes() { return nodes_; }
  const TreeNode& root() const { return nodes_.front(); }
  bool empty() const { return nodes_.empty() || nodes_.front().count() == 0; }
  std::size_t num_leaves() const { return num_leaves_; }
  int max_depth() const { return max_depth_; }

  TreeView view(const ParticleSet& parts) const {
    return {nodes_, parts.x, parts.y, parts.z, parts.mass};
  }

  // Structural invariants: child pointers forward and in range, each internal
  // node's children partition its particle range and nest inside its key
  // range, leaves childless. Throws CheckError on violation. build() runs
  // this automatically in Debug and sanitizer builds.
  void check_invariants() const;

 private:
  std::vector<TreeNode> nodes_;
  std::size_t num_leaves_ = 0;
  int max_depth_ = 0;
};

}  // namespace bonsai
