// Local Essential Trees (§III-B2 of the paper).
//
// Before the force pass, every rank sends each remote rank the *essential*
// part of its local octree: walking the local tree against the remote
// domain's bounding box with the MAC, branches the remote rank is guaranteed
// to accept are pruned to bare multipoles (kMultipoleLeaf), and leaves that
// may be opened ship their particles. The receiver walks each imported LET
// with the *same* group tree-walk used for the local tree — remote forces need
// no special-case traversal code.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/octree.hpp"
#include "util/aabb.hpp"

namespace bonsai::domain {

// A self-contained, traversable slice of a remote tree: nodes reference the
// particle arrays held alongside them, so a LET is also the unit that would
// be serialized onto the wire in a distributed build.
struct LetTree {
  std::vector<TreeNode> nodes;
  std::vector<double> x, y, z, m;  // particles of opened (exported) leaves

  std::size_t num_cells() const { return nodes.size(); }
  std::size_t num_particles() const { return x.size(); }

  // A LET with a single empty particle leaf (from an empty sender) exerts no
  // force; a single multipole leaf does.
  bool empty() const {
    return nodes.empty() ||
           (nodes.size() == 1 && nodes[0].kind == NodeKind::kParticleLeaf &&
            nodes[0].count() == 0);
  }

  TreeView view() const { return {nodes, x, y, z, m}; }
};

// Extract the LET of a local tree for a remote domain. `local` must have
// properties computed (boxes, multipoles, rcrit); `remote_box` is the tight
// AABB of the remote rank's particles. Pruning uses the sender-side MAC
// against the whole remote box, which is conservative for every target group
// inside it — the receiver's group MAC can only re-accept, never wrongly
// open, a pruned branch.
LetTree build_let(const TreeView& local, const AABB& remote_box);

}  // namespace bonsai::domain
