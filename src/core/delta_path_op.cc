#include "core/delta_path_op.h"

#include <algorithm>

namespace sgq {

void DeltaPathOp::OnTimeAdvance(Timestamp now) {
  // Window memory is reclaimed calendar-cheaply regardless of whether any
  // tree node expired.
  window_->PurgeExpired(now);
  if (!node_expiry_.AnyDue(now)) return;

  // Drain the node calendar, verifying each hint against the live node
  // (hints can be stale: re-derived nodes, extended intervals).
  expired_scratch_.clear();
  node_expiry_.DrainDue(now, [&](const std::pair<VertexId, NodeKey>& hint) {
    auto tree_it = trees_.find(hint.first);
    if (tree_it == trees_.end()) return;
    auto node_it = tree_it->second.nodes.find(hint.second);
    if (node_it == tree_it->second.nodes.end()) return;
    const TreeNode& node = node_it->second;
    if (node.is_root) return;
    if (node.iv.exp <= now) {
      expired_scratch_.push_back(hint);
    } else if (node_expiry_.NeedsReAdd(node.iv.exp, now)) {
      node_expiry_.Add(node.iv.exp, hint);
    }
  });
  if (expired_scratch_.empty()) return;

  // Canonical (root, key) order, duplicates removed (a node may carry
  // several due hints after interval changes).
  std::sort(expired_scratch_.begin(), expired_scratch_.end());
  expired_scratch_.erase(
      std::unique(expired_scratch_.begin(), expired_scratch_.end()),
      expired_scratch_.end());

  // DRed over the spanning forest: every expired derivation is deleted and
  // the operator re-derives alternatives from the snapshot graph. Expired
  // sets are closed under descendants (a child's interval is contained in
  // its parent's at attach time and is never widened), so detaching them
  // together is sound.
  std::vector<NodeKey> expired;
  for (std::size_t i = 0; i < expired_scratch_.size();) {
    const VertexId root = expired_scratch_[i].first;
    expired.clear();
    for (; i < expired_scratch_.size() && expired_scratch_[i].first == root;
         ++i) {
      expired.push_back(expired_scratch_[i].second);
    }
    auto tree_it = trees_.find(root);
    if (tree_it == trees_.end()) continue;
    ++rederivation_rounds_;
    RederiveSubtree(tree_it->second, expired, now, /*emit_negatives=*/false);
  }
  expired_scratch_.clear();
}

void DeltaPathOp::Purge(Timestamp now) {
  OnTimeAdvance(now);
  PathOpBase::Purge(now);
}

}  // namespace sgq
