#include "domain/let.hpp"

#include "util/check.hpp"

namespace bonsai::domain {

namespace {

// Sender-side MAC: the remote rank will accept this cell from anywhere in its
// domain, so the branch can be pruned to its multipole.
inline bool remote_accepts(const AABB& remote_box, const TreeNode& node) {
  return remote_box.min_dist2(node.mp.com) > node.rcrit * node.rcrit;
}

}  // namespace

LetTree build_let(const TreeView& local, const AABB& remote_box) {
  LetTree let;
  if (local.empty()) return let;
  BNS_CHECK(remote_box.valid());

  struct Item {
    std::int32_t src;  // node index in the local tree
    std::int32_t dst;  // node index in the LET
  };
  let.nodes.push_back(local.nodes[0]);
  std::vector<Item> stack{{0, 0}};

  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const TreeNode& src = local.nodes[static_cast<std::size_t>(item.src)];
    TreeNode out = src;

    if (src.count() > 0 && remote_accepts(remote_box, src)) {
      out.kind = NodeKind::kMultipoleLeaf;
      out.first_child = -1;
      out.num_children = 0;
      out.part_begin = out.part_end = 0;
    } else if (src.kind == NodeKind::kInternal) {
      // Children occupy contiguous LET slots, appended now and filled when
      // popped; internal nodes own no exported particles themselves.
      out.first_child = static_cast<std::int32_t>(let.nodes.size());
      out.part_begin = out.part_end = 0;
      for (std::uint8_t c = 0; c < src.num_children; ++c) {
        stack.push_back({src.first_child + c, out.first_child + c});
        let.nodes.emplace_back();
      }
    } else {
      // Leaf the remote rank may open: export its particles.
      out.part_begin = static_cast<std::uint32_t>(let.x.size());
      for (std::uint32_t j = src.part_begin; j < src.part_end; ++j) {
        let.x.push_back(local.x[j]);
        let.y.push_back(local.y[j]);
        let.z.push_back(local.z[j]);
        let.m.push_back(local.m[j]);
      }
      out.part_end = static_cast<std::uint32_t>(let.x.size());
    }
    let.nodes[static_cast<std::size_t>(item.dst)] = out;
  }
  return let;
}

}  // namespace bonsai::domain
