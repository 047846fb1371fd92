#include "core/path_base.h"

#include <algorithm>

#include "common/logging.h"
#include "common/sorted_entries.h"

namespace sgq {

PathOpBase::PathOpBase(Dfa dfa, LabelId out_label, AcceptRule accept)
    : dfa_(std::move(dfa)), out_label_(out_label), accept_(accept) {
  out_transitions_.resize(dfa_.NumStates());
  in_transitions_.resize(dfa_.NumStates());
  for (const auto& [from, label, to] : dfa_.Transitions()) {
    out_transitions_[from].emplace_back(label, to);
    in_transitions_[to].emplace_back(label, from);
  }
}

void PathOpBase::OnTuple(int port, const Sgt& tuple) {
  (void)port;
  if (tuple.is_deletion) {
    HandleExplicitDeletion(tuple);
    return;
  }
  if (tuple.validity.Empty()) return;
  window_->Insert(tuple.src, tuple.trg, tuple.label, tuple.validity);

  for (const auto& [s, q] : dfa_.TransitionsOnLabel(tuple.label)) {
    if (s == dfa_.start() && OwnsRoot(tuple.src)) {
      // S-PATH lines 7-8: root a new spanning tree at the source vertex
      // (under sharding, only on the shard owning the root).
      EnsureTree(tuple.src);
    }
    const NodeKey parent_key{tuple.src, s};
    const NodeKey child_key{tuple.trg, q};
    if (child_key == parent_key) continue;  // self-loop in the same state
    auto inv_it = inverted_.find(parent_key);
    if (inv_it == inverted_.end()) continue;
    // Seeding only reads the index, so its run is walked in place.
    for (const VertexId root : inv_it->second) {
      auto tree_it = trees_.find(root);
      if (tree_it == trees_.end()) continue;
      const auto& nodes = tree_it->second.nodes;
      auto node_it = nodes.find(parent_key);
      if (node_it == nodes.end()) continue;
      const Interval iv = node_it->second.iv.Intersect(tuple.validity);
      if (iv.Empty()) continue;  // parent expired w.r.t. this edge: ignore
      PushCandidate(Candidate{iv, child_key, parent_key, root, tuple.label});
    }
  }
  DrainInsertion();
}

void PathOpBase::DrainInsertion() {
  while (!queue_.empty()) {
    const Candidate c = PopCandidate();
    SpanningTree& tree = trees_.find(c.root)->second;
    const Interval iv = Accept(tree, c);
    if (iv.Empty()) continue;
    if (dfa_.IsAccepting(c.child.second)) EmitResult(tree, c.child, iv);

    // Continue the traversal of the snapshot graph from the new/updated
    // node (Expand/Propagate lines 8-12). Candidates the node's current
    // derivation already beats are never queued.
    for (const auto& [label, q] : out_transitions_[c.child.second]) {
      for (const StoredEdge& e : window_->OutEdges(c.child.first, label)) {
        const Candidate next{iv.Intersect(e.validity), NodeKey{e.trg, q},
                             c.child, c.root, label};
        if (next.iv.Empty() || next.child == c.child) continue;
        auto it = tree.nodes.find(next.child);
        if (it != tree.nodes.end() && Rejects(it->second, next)) continue;
        PushCandidate(next);
      }
    }
  }
}

Interval PathOpBase::Accept(SpanningTree& tree, const Candidate& c) {
  auto it = tree.nodes.find(c.child);
  if (it != tree.nodes.end() && Rejects(it->second, c)) return Interval();
  if (it == tree.nodes.end() || it->second.iv.exp <= c.iv.ts) {
    // Expand: the target is absent, or its derivation already expired
    // relative to the new one and is replaced wholesale.
    TreeNode node;
    node.iv = c.iv;
    node.parent = c.parent;
    node.via = c.via();
    SetNode(tree, c.child, std::move(node));
    return c.iv;
  }
  // Propagate (S-PATH line 18): adopt the derivation that expires later.
  // Old and new intervals overlap here (the old one has not expired), so
  // the span introduces no validity gap. The in-place update bypasses
  // SetNode, so the expiry calendar is told directly.
  TreeNode& node = it->second;
  const NodeKey old_parent = node.parent;
  node.parent = c.parent;
  node.via = c.via();
  node.iv = node.iv.Span(c.iv);
  const Interval iv = node.iv;
  node_expiry_.Add(iv.exp, {c.root, c.child});
  ReparentNode(tree, c.child, old_parent, c.parent);
  return iv;
}

PathOpBase::SpanningTree& PathOpBase::EnsureTree(VertexId x) {
  auto [it, inserted] = trees_.try_emplace(x);
  SpanningTree& tree = it->second;
  if (inserted) {
    tree.root = x;
    TreeNode root_node;
    root_node.iv = Interval::All();
    root_node.is_root = true;
    const NodeKey key{x, dfa_.start()};
    tree.nodes.emplace(key, std::move(root_node));
    ++num_tree_nodes_;
    inverted_[key].push_back(&inverted_pool_, x);
    // Until a child attaches this tree is root-only; a later Purge drops
    // it again unless it grew (root intervals never expire, so the node
    // calendar cannot find it).
    empty_tree_candidates_.push_back(x);
  }
  return tree;
}

void PathOpBase::AddChildLink(SpanningTree& tree, const NodeKey& parent,
                              const NodeKey& child) {
  auto it = tree.nodes.find(parent);
  if (it == tree.nodes.end()) return;
  it->second.children.push_back(&children_pool_, child);
}

void PathOpBase::RemoveChildLink(SpanningTree& tree, const NodeKey& parent,
                                 const NodeKey& child) {
  auto it = tree.nodes.find(parent);
  if (it == tree.nodes.end()) return;
  auto& children = it->second.children;
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (children[i] == child) {
      children.swap_pop(i);
      return;
    }
  }
}

void PathOpBase::SetNode(SpanningTree& tree, const NodeKey& child,
                         TreeNode node) {
  const Timestamp exp = node.iv.exp;
  auto it = tree.nodes.find(child);
  if (it == tree.nodes.end()) {
    const NodeKey parent = node.parent;
    const bool link = !node.is_root;
    tree.nodes.emplace(child, std::move(node));
    ++num_tree_nodes_;
    if (link) AddChildLink(tree, parent, child);
    auto& roots = inverted_[child];
    bool present = false;
    for (const VertexId r : roots) {
      if (r == tree.root) {
        present = true;
        break;
      }
    }
    if (!present) roots.push_back(&inverted_pool_, tree.root);
    node_expiry_.Add(exp, {tree.root, child});
  } else {
    TreeNode& slot = it->second;
    const Timestamp old_exp = slot.iv.exp;
    const NodeKey old_parent = slot.parent;
    // The node keeps its subtree across an overwrite; only its own
    // parent link may move.
    node.children = std::move(slot.children);
    slot = std::move(node);
    ReparentNode(tree, child, old_parent, slot.parent);
    // The node already has a hint at old_exp; a changed expiry needs a
    // fresh registration (the stale hint is verified away on drain).
    if (exp != old_exp) node_expiry_.Add(exp, {tree.root, child});
  }
}

void PathOpBase::RemoveNode(SpanningTree& tree, const NodeKey& key) {
  auto node_it = tree.nodes.find(key);
  if (node_it != tree.nodes.end()) {
    TreeNode& node = node_it->second;
    if (!node.is_root) RemoveChildLink(tree, node.parent, key);
    // RemoveChildLink mutates a sibling slot's run in place — the map
    // itself does not shift, so node_it stays valid.
    node_it->second.children.Release(&children_pool_);
    tree.nodes.erase(node_it);
    --num_tree_nodes_;
  }
  auto it = inverted_.find(key);
  if (it != inverted_.end()) {
    auto& roots = it->second;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (roots[i] == tree.root) {
        roots.swap_pop(i);
        break;
      }
    }
    if (roots.empty()) {
      roots.Release(&inverted_pool_);
      inverted_.erase(it);
    }
  }
  if (tree.nodes.size() == 1) empty_tree_candidates_.push_back(tree.root);
}

std::vector<VertexId> PathOpBase::TreesContaining(const NodeKey& key) const {
  auto it = inverted_.find(key);
  if (it == inverted_.end()) return {};
  return std::vector<VertexId>(it->second.begin(), it->second.end());
}

Payload PathOpBase::RecoverPath(const SpanningTree& tree,
                                const NodeKey& key) const {
  Payload path;
  path.reserve(8);  // most witness paths are short; avoids realloc churn
  NodeKey current = key;
  while (true) {
    auto it = tree.nodes.find(current);
    SGQ_CHECK(it != tree.nodes.end()) << "broken parent chain";
    const TreeNode& node = it->second;
    if (node.is_root) break;
    path.push_back(node.via);
    current = node.parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void PathOpBase::EmitResult(const SpanningTree& tree, const NodeKey& key,
                            Interval iv) {
  if (iv.Empty()) return;
  Sgt out(tree.root, key.first, out_label_, iv, {});
  if (!out_coalescer_.Offer(out)) return;
  out.payload = RecoverPath(tree, key);
  EmitTuple(out);
}

void PathOpBase::RetractAndReassert(SpanningTree& tree, VertexId v,
                                    Timestamp t) {
  Sgt negative(tree.root, v, out_label_, Interval(t, kMaxTimestamp), {},
               /*del=*/true);
  out_coalescer_.Forget(negative.edge(), t);
  EmitTuple(negative);
  // Another accepting (v, s) witness may survive; re-assert the pair so
  // downstream state reflects the remaining derivation. The candidate
  // keys (v, s) are enumerated by automaton state — O(|Q|) point lookups
  // instead of a scan of the whole tree — which is also an ascending,
  // hash-order-independent emission order.
  for (StateId s = 0; s < static_cast<StateId>(dfa_.NumStates()); ++s) {
    if (!dfa_.IsAccepting(s)) continue;
    auto it = tree.nodes.find(NodeKey{v, s});
    if (it == tree.nodes.end()) continue;
    const TreeNode& node = it->second;
    if (!node.is_root && node.iv.exp > t) {
      EmitResult(tree, NodeKey{v, s}, node.iv);
    }
  }
}

std::vector<NodeKey> PathOpBase::CollectSubtree(const SpanningTree& tree,
                                                const NodeKey& key) const {
  // BFS over the maintained child links: O(subtree), not O(tree).
  std::vector<NodeKey> out;
  if (tree.nodes.count(key) == 0) return out;
  out.push_back(key);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto it = tree.nodes.find(out[i]);
    if (it == tree.nodes.end()) continue;
    for (const NodeKey& child : it->second.children) {
      out.push_back(child);
    }
  }
  // Canonical order: detach/re-derive processing must not depend on the
  // discovery order.
  std::sort(out.begin(), out.end());
  return out;
}

void PathOpBase::RederiveSubtree(SpanningTree& tree,
                                 const std::vector<NodeKey>& subtree,
                                 Timestamp now, bool emit_negatives) {
  if (subtree.empty()) return;
  FlatSet<NodeKey, PairHash> detached;
  detached.reserve(subtree.size());
  for (const NodeKey& k : subtree) detached.insert(k);

  // Remember the accepting vertices whose previously reported validity may
  // shrink: every one of them is retracted and re-asserted below (sorted
  // drain at the end).
  FlatSet<VertexId> affected_vertices;
  if (emit_negatives) {
    for (const NodeKey& k : subtree) {
      if (dfa_.IsAccepting(k.second)) affected_vertices.insert(k.first);
    }
  }

  // Detach: remove the subtree from the tree (Dijkstra reattaches below).
  for (const NodeKey& k : subtree) RemoveNode(tree, k);

  // Dijkstra on maximal expiry (§6.2.5), in the Candidate order: the
  // first reattachment of a node is its best alternative.
  auto relax_from = [&](const NodeKey& parent_key, const Interval& piv) {
    for (const auto& [label, q] : out_transitions_[parent_key.second]) {
      for (const StoredEdge& e :
           window_->OutEdges(parent_key.first, label)) {
        const NodeKey child{e.trg, q};
        if (!detached.contains(child)) continue;
        const Interval iv = piv.Intersect(e.validity);
        if (iv.Empty() || iv.exp <= now) continue;
        PushCandidate(Candidate{iv, child, parent_key, tree.root, label});
      }
    }
  };
  // Seed candidates by walking the detached nodes' *in-edges* against the
  // surviving tree — O(subtree x in-degree) instead of a scan of every
  // surviving node's out-edges. The candidate set is identical: a seed
  // (p -> c) pairs a surviving node with a detached child over a window
  // edge either way, and the queue's canonical order fixes the processing
  // order regardless of how candidates were found. The reverse index is
  // enabled lazily: the first delete/re-derive pays one re-index of the
  // partition, every later one is a point probe.
  window_->EnableInIndex();
  for (const NodeKey& child : subtree) {
    for (const auto& [label, s] : in_transitions_[child.second]) {
      // Reverse-index entries store the *source* vertex in `trg`.
      for (const StoredEdge& e : window_->InEdges(child.first, label)) {
        const NodeKey parent_key{e.trg, s};
        auto pit = tree.nodes.find(parent_key);
        if (pit == tree.nodes.end()) continue;  // detached or absent
        const TreeNode& pnode = pit->second;
        if (pnode.iv.exp <= now && !pnode.is_root) continue;
        const Interval iv = pnode.iv.Intersect(e.validity);
        if (iv.Empty() || iv.exp <= now) continue;
        PushCandidate(Candidate{iv, child, parent_key, tree.root, label});
      }
    }
  }

  FlatSet<NodeKey, PairHash> reattached;
  std::vector<NodeKey> reattached_order;
  while (!queue_.empty()) {
    const Candidate c = PopCandidate();
    if (reattached.contains(c.child)) continue;
    TreeNode node;
    node.iv = c.iv;
    node.parent = c.parent;
    node.via = c.via();
    SetNode(tree, c.child, std::move(node));
    reattached.insert(c.child);
    reattached_order.push_back(c.child);
    // Under expiry-driven re-derivation the old result intervals ended
    // naturally, so a fresh positive suffices. Under explicit deletions
    // the affected vertices are retracted-and-reasserted wholesale below.
    if (!emit_negatives && dfa_.IsAccepting(c.child.second)) {
      EmitResult(tree, c.child, c.iv);
    }
    relax_from(c.child, c.iv);
  }

  if (emit_negatives) {
    // An explicit deletion may shrink previously reported validity even
    // for surviving results; retract every affected (root, v) pair and
    // re-assert it from the witnesses that remain in the tree. Sorted
    // drains keep the emission order canonical.
    std::vector<VertexId> affected(affected_vertices.begin(),
                                   affected_vertices.end());
    std::sort(affected.begin(), affected.end());
    for (VertexId v : affected) {
      RetractAndReassert(tree, v, now);
    }
    // Re-derived nodes for vertices that were not previously reported
    // still need their positives.
    std::sort(reattached_order.begin(), reattached_order.end());
    for (const NodeKey& k : reattached_order) {
      if (dfa_.IsAccepting(k.second) &&
          !affected_vertices.contains(k.first)) {
        auto it = tree.nodes.find(k);
        if (it != tree.nodes.end()) EmitResult(tree, k, it->second.iv);
      }
    }
  }
}

void PathOpBase::HandleExplicitDeletion(const Sgt& t) {
  const Timestamp td = t.validity.ts;
  // A shared partition may already have been truncated by a sibling
  // consumer of the same deletion, so DeleteAt's "affected" bit alone
  // cannot gate the tree repair: the forest can reference the edge as
  // `via` regardless of who truncated the store first.
  const bool affected = window_->DeleteAt(t.src, t.trg, t.label, td);
  // A deleted *tree* edge disconnects the subtree under its child node;
  // non-tree edges leave the forest unchanged (§6.2.5).
  for (const auto& [s, q] : dfa_.TransitionsOnLabel(t.label)) {
    const NodeKey parent_key{t.src, s};
    const NodeKey child_key{t.trg, q};
    for (VertexId root : TreesContaining(child_key)) {
      auto tree_it = trees_.find(root);
      if (tree_it == trees_.end()) continue;
      SpanningTree& tree = tree_it->second;
      auto node_it = tree.nodes.find(child_key);
      if (node_it == tree.nodes.end() || node_it->second.is_root) continue;
      const TreeNode& node = node_it->second;
      if (node.parent != parent_key || node.via != t.edge()) continue;
      // When the store had no live entry (the edge expired or was deleted
      // before), only still-live references need repair — the sibling-
      // truncated-first case. Dead references ended naturally with the
      // window; re-deriving them would emit spurious retractions.
      if (!affected && node.iv.exp <= td) continue;
      RederiveSubtree(tree, CollectSubtree(tree, child_key), td,
                      /*emit_negatives=*/true);
    }
  }
}

void PathOpBase::Purge(Timestamp now) {
  window_->PurgeExpired(now);
  // Calendar drain: remove exactly the nodes whose derivation expired.
  node_expiry_.DrainDue(now, [&](const std::pair<VertexId, NodeKey>& hint) {
    auto tree_it = trees_.find(hint.first);
    if (tree_it == trees_.end()) return;  // tree already dropped
    SpanningTree& tree = tree_it->second;
    auto node_it = tree.nodes.find(hint.second);
    if (node_it == tree.nodes.end()) return;  // stale hint: node is gone
    const TreeNode& node = node_it->second;
    if (node.is_root) return;
    if (node.iv.exp <= now) {
      RemoveNode(tree, hint.second);
    } else if (node_expiry_.NeedsReAdd(node.iv.exp, now)) {
      node_expiry_.Add(node.iv.exp, hint);
    }
  });
  // Drop trees reduced to just their root (recreated on demand by
  // EnsureTree). Candidates were recorded when the trees shrank. Indexed
  // loop: RemoveNode may append candidates (not for root removals today,
  // but the loop must not depend on that).
  for (std::size_t c = 0; c < empty_tree_candidates_.size(); ++c) {
    const VertexId root = empty_tree_candidates_[c];
    auto tree_it = trees_.find(root);
    if (tree_it == trees_.end()) continue;
    SpanningTree& tree = tree_it->second;
    if (tree.nodes.size() > 1) continue;  // grew again: keep
    RemoveNode(tree, NodeKey{tree.root, dfa_.start()});
    trees_.erase(tree_it);
  }
  empty_tree_candidates_.clear();
  out_coalescer_.PurgeBefore(now);
}

namespace {

void PutNodeKey(std::string* out, const NodeKey& key) {
  PutU64(out, key.first);
  PutU32(out, key.second);
}

NodeKey GetNodeKey(ByteReader* in) {
  const VertexId v = in->U64();
  const StateId s = in->U32();
  return NodeKey{v, s};
}

void PutEdgeRef(std::string* out, const EdgeRef& e) {
  PutU64(out, e.src);
  PutU64(out, e.trg);
  PutU32(out, e.label);
}

EdgeRef GetEdgeRef(ByteReader* in) {
  EdgeRef e;
  e.src = in->U64();
  e.trg = in->U64();
  e.label = in->U32();
  return e;
}

}  // namespace

void PathOpBase::SerializeState(std::string* out) const {
  PutU8(out, shares_window() ? 1 : 0);
  if (!shares_window()) owned_window_.SerializeState(out);

  PutU64(out, trees_.size());
  for (const auto* tree_entry : SortedEntries(trees_)) {
    const auto& [root, tree] = *tree_entry;
    PutU64(out, root);
    PutU64(out, tree.nodes.size());
    for (const auto* node_entry : SortedEntries(tree.nodes)) {
      const auto& [key, node] = *node_entry;
      PutNodeKey(out, key);
      PutI64(out, node.iv.ts);
      PutI64(out, node.iv.exp);
      PutNodeKey(out, node.parent);
      PutEdgeRef(out, node.via);
      PutU8(out, node.is_root ? 1 : 0);
      PutU32(out, static_cast<std::uint32_t>(node.children.size()));
      for (const NodeKey& child : node.children) PutNodeKey(out, child);
    }
  }

  PutU64(out, inverted_.size());
  for (const auto* entry : SortedEntries(inverted_)) {
    const auto& [key, roots] = *entry;
    PutNodeKey(out, key);
    PutU32(out, static_cast<std::uint32_t>(roots.size()));
    for (const VertexId r : roots) PutU64(out, r);
  }

  PutU64(out, node_expiry_.num_hints());
  node_expiry_.VisitEntries(
      [&](Timestamp exp, const std::pair<VertexId, NodeKey>& hint) {
        PutI64(out, exp);
        PutU64(out, hint.first);
        PutNodeKey(out, hint.second);
      });

  PutU64(out, num_tree_nodes_);
  PutU64(out, empty_tree_candidates_.size());
  for (const VertexId v : empty_tree_candidates_) PutU64(out, v);
  out_coalescer_.SerializeState(out);
}

Status PathOpBase::DeserializeState(ByteReader* in) {
  if (!trees_.empty() || num_tree_nodes_ != 0) {
    return in->Fail("PATH operator not empty before restore");
  }
  const bool shared = in->U8() != 0;
  if (in->ok() && shared != shares_window()) {
    return in->Fail("window-sharing mismatch (checkpoint was taken with a "
                    "different plan topology)");
  }
  if (!shared) SGQ_RETURN_NOT_OK(owned_window_.DeserializeState(in));

  const std::uint64_t num_trees = in->U64();
  for (std::uint64_t t = 0; t < num_trees && in->ok(); ++t) {
    const VertexId root = in->U64();
    auto [it, inserted] = trees_.try_emplace(root);
    if (!inserted) return in->Fail("duplicate tree root");
    SpanningTree& tree = it->second;
    tree.root = root;
    const std::uint64_t num_nodes = in->U64();
    for (std::uint64_t n = 0; n < num_nodes && in->ok(); ++n) {
      const NodeKey key = GetNodeKey(in);
      TreeNode node;
      node.iv.ts = in->I64();
      node.iv.exp = in->I64();
      node.parent = GetNodeKey(in);
      node.via = GetEdgeRef(in);
      node.is_root = in->U8() != 0;
      const std::uint32_t num_children = in->U32();
      for (std::uint32_t c = 0; c < num_children && in->ok(); ++c) {
        node.children.push_back(&children_pool_, GetNodeKey(in));
      }
      if (!in->ok()) break;
      tree.nodes.emplace(key, std::move(node));
    }
  }

  const std::uint64_t num_inverted = in->U64();
  for (std::uint64_t k = 0; k < num_inverted && in->ok(); ++k) {
    const NodeKey key = GetNodeKey(in);
    const std::uint32_t n = in->U32();
    if (!in->ok()) break;
    auto& roots = inverted_[key];
    for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
      roots.push_back(&inverted_pool_, in->U64());
    }
  }

  const std::uint64_t num_hints = in->U64();
  for (std::uint64_t i = 0; i < num_hints && in->ok(); ++i) {
    const Timestamp exp = in->I64();
    const VertexId root = in->U64();
    const NodeKey key = GetNodeKey(in);
    node_expiry_.Add(exp, {root, key});
  }

  num_tree_nodes_ = in->U64();
  const std::uint64_t num_candidates = in->U64();
  for (std::uint64_t i = 0; i < num_candidates && in->ok(); ++i) {
    empty_tree_candidates_.push_back(in->U64());
  }
  SGQ_RETURN_NOT_OK(in->status());
  return out_coalescer_.DeserializeState(in);
}

std::size_t PathOpBase::StateSize() const {
  return window_->NumEntries() + out_coalescer_.NumKeys() + num_tree_nodes_;
}

std::size_t PathOpBase::StateBytes() const {
  std::size_t n = window_->StateBytes() + trees_.capacity_bytes() +
                  inverted_.capacity_bytes() +
                  inverted_pool_.reserved_bytes() +
                  children_pool_.reserved_bytes() +
                  node_expiry_.ApproxBytes() + out_coalescer_.ApproxBytes();
  for (const auto& [root, tree] : trees_) {
    (void)root;
    n += tree.nodes.capacity_bytes();
  }
  return n;
}

}  // namespace sgq
