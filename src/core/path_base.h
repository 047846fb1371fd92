// Shared machinery of the PATH physical operators (§6.2.3-§6.2.5):
// the Δ-PATH spanning forest (Defs. 21-22), the inverted (vertex, state)
// index, the insertion traversal, witness-path recovery, result emission,
// and the Dijkstra-style delete/re-derive procedure used for explicit
// deletions (and, by the negative-tuple variant, for window expirations).
// Insertion and re-derivation drain one candidate queue in one
// widest-first order; S-PATH and the Δ-tree differ on insertion only in
// their AcceptRule.
//
// State layout (DESIGN.md §"State layout"): forests and the inverted
// index live on flat hash maps; inverted-index root lists are
// small-size-inlined runs backed by the operator's slab pool. Node expiry
// is indexed by a slide-aligned calendar — every finite-expiry tree node
// registers a (root, key) hint at its expiry bucket, so Purge and the
// Δ-tree's expiry re-derivation touch only the expiring bucket instead of
// re-scanning the whole forest. Where hash iteration order would be
// observable in emissions (re-derivation, retract/re-assert), the drains
// are sorted, keeping output deterministic across runs and builds.

#ifndef SGQ_CORE_PATH_BASE_H_
#define SGQ_CORE_PATH_BASE_H_

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/expiry_calendar.h"
#include "common/flat_map.h"
#include "core/physical.h"
#include "core/window_store.h"
#include "model/coalesce.h"
#include "regex/dfa.h"

namespace sgq {

/// \brief A node of a spanning tree: a (vertex, automaton state) pair.
using NodeKey = std::pair<VertexId, StateId>;

/// \brief Base of the S-PATH and Δ-tree PATH operators.
class PathOpBase : public PhysicalOp {
 public:
  /// \brief What an arriving derivation does to a node that is present and
  /// still valid — the one point where the two operators' insertion
  /// differs (paper Example 10).
  enum class AcceptRule {
    kExpandOrPropagate,  ///< S-PATH: adopt a derivation that expires later
    kExpandOnly,         ///< Δ-tree: keep the existing derivation
  };

  PathOpBase(Dfa dfa, LabelId out_label, AcceptRule accept);

  /// \brief Insertion (S-PATH lines 5-18): adds the edge to the window,
  /// seeds one candidate per tree holding a co-valid (src, s) node, and
  /// drains the candidates widest first (largest expiry, then earliest
  /// start), so each tree node settles on its longest-lived derivation
  /// the first time it is accepted. Accepting nodes emit a result.
  /// Deletions go to HandleExplicitDeletion.
  void OnTuple(int port, const Sgt& tuple) override;

  std::string Name() const override { return "PATH"; }
  std::size_t StateSize() const override;
  std::size_t StateBytes() const override;

  /// \brief Sharded execution: every input tuple is broadcast to every
  /// shard — spanning trees are keyed by *root* vertex, but any edge can
  /// extend any tree, so each shard maintains the full window adjacency
  /// (its own shard-suffixed partition) and owns the trees whose root
  /// hashes to it.
  RoutingKey InputRouting(int port) const override {
    (void)port;
    return RoutingKey::kBroadcast;
  }

  /// \brief Declares this instance shard `shard` of `num_shards`. With
  /// num_shards == 1 (the default) the operator owns every tree root —
  /// the unsharded behavior, untouched.
  void ConfigureShard(ShardId shard, std::size_t num_shards) {
    shard_ = shard;
    num_shards_ = num_shards == 0 ? 1 : num_shards;
  }

  /// \brief True when this shard owns the spanning tree rooted at `v`.
  /// Results for (root, v) pairs are emitted only by the owner, so each
  /// output value — including its retractions — stays on one shard.
  bool OwnsRoot(VertexId v) const {
    return num_shards_ == 1 || ShardOfVertex(v, num_shards_) == shard_;
  }

  /// \brief Probes and maintains window state through a partition of the
  /// runtime WindowStore instead of a private copy. Must be called before
  /// the first tuple; the caller keeps `store` alive. Safe to share with
  /// other PATH operators over the same input: inserts coalesce
  /// idempotently, deletions truncate idempotently, and repeated purges
  /// are cheap.
  void BindSharedWindow(WindowEdgeStore* store) { window_ = store; }

  bool shares_window() const { return window_ != &owned_window_; }

  /// \brief Aligns the node-expiry calendar (and the owned window's) to
  /// the engine slide.
  void ConfigureExpirySlide(Timestamp slide) override {
    node_expiry_.ConfigureSlide(slide);
    owned_window_.ConfigureExpirySlide(slide);
  }

  /// \brief Frees window edges, tree nodes and coalescer state that
  /// expired before `now` (memory only; results are unaffected because
  /// probes intersect intervals). Calendar-driven: cost is proportional
  /// to what actually expired, not to the forest size.
  void Purge(Timestamp now) override;

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7):
  /// forest, inverted index, node-expiry calendar, output coalescer, and
  /// the owned window when not shared (shared partitions are checkpointed
  /// once by the WindowStore registry). Tree/key enumeration is sorted
  /// for deterministic bytes, but child links and inverted-index runs are
  /// serialized *verbatim* — they are maintained by swap-and-pop, so
  /// their order is history-dependent and observable (TreesContaining,
  /// CollectSubtree seeds); restoring them byte-for-byte keeps resumed
  /// emission order identical.
  void SerializeState(std::string* out) const override;
  Status DeserializeState(ByteReader* in) override;

 protected:
  /// \brief Tree-node bookkeeping (Def. 21). The path from the root to a
  /// node is recovered by following parent pointers; `via` is the edge that
  /// connects the parent to this node. `children` is the inverse of
  /// `parent`, maintained by SetNode/RemoveNode/ReparentNode, so
  /// CollectSubtree is a BFS over the subtree instead of a scan of the
  /// whole tree.
  struct TreeNode {
    Interval iv;
    NodeKey parent{kInvalidVertex, 0};
    EdgeRef via;
    bool is_root = false;
    SmallRun<NodeKey, 1> children;
  };

  /// \brief Spanning tree T_x (Def. 21), rooted at (x, s0).
  struct SpanningTree {
    VertexId root = kInvalidVertex;
    FlatMap<NodeKey, TreeNode, PairHash> nodes;
  };

  /// \brief Creates T_x with root (x, s0) if absent (S-PATH lines 7-8).
  SpanningTree& EnsureTree(VertexId x);

  /// \brief Writes/overwrites `child` in `tree`, maintains the inverted
  /// index from node keys to tree roots, and registers the node's expiry
  /// in the calendar.
  void SetNode(SpanningTree& tree, const NodeKey& child, TreeNode node);

  /// \brief Removes `key` from `tree` and the inverted index.
  void RemoveNode(SpanningTree& tree, const NodeKey& key);

  /// \brief Moves `child`'s child-link from `old_parent` to `new_parent`
  /// (SetNode overwrites and Propagate adopt a new parent in place).
  void ReparentNode(SpanningTree& tree, const NodeKey& child,
                    const NodeKey& old_parent, const NodeKey& new_parent) {
    if (old_parent == new_parent) return;
    RemoveChildLink(tree, old_parent, child);
    AddChildLink(tree, new_parent, child);
  }

  /// \brief Roots of the trees currently containing `key` (copy: callers
  /// mutate the index while iterating).
  std::vector<VertexId> TreesContaining(const NodeKey& key) const;

  /// \brief Witness path from the root of `tree` to `key`: the sequence of
  /// `via` edges along parent pointers (cost O(path length), §6.2.4).
  Payload RecoverPath(const SpanningTree& tree, const NodeKey& key) const;

  /// \brief Emits the result sgt (root, v, out_label, iv, witness path),
  /// suppressing snapshot-redundant repeats.
  void EmitResult(const SpanningTree& tree, const NodeKey& key, Interval iv);

  /// \brief Emits a negative result tuple for value (root -> v) at `t`,
  /// then re-asserts the pair if another accepting witness for v survives
  /// in the tree (sorted drain: emission order is key order, not hash
  /// order).
  void RetractAndReassert(SpanningTree& tree, VertexId v, Timestamp t);

  /// \brief All keys in the subtree rooted at `key` (inclusive), found by
  /// walking parent chains of every node. Sorted (canonical order).
  std::vector<NodeKey> CollectSubtree(const SpanningTree& tree,
                                      const NodeKey& key) const;

  /// \brief Delete/re-derive (§6.2.5): detaches `subtree` from `tree`,
  /// then reattaches every node for which an alternative valid path with
  /// maximal expiry exists (Dijkstra on expiry order); nodes without an
  /// alternative are removed. When `emit_negatives`, removed accepting
  /// nodes retract their (root, v) result at instant `now`; reattached
  /// accepting nodes re-emit with the interval of the alternative path.
  void RederiveSubtree(SpanningTree& tree, const std::vector<NodeKey>& subtree,
                       Timestamp now, bool emit_negatives);

  /// \brief Explicit deletion of the edge carried by the negative sgt `t`:
  /// truncates the window store, then re-derives every subtree hanging off
  /// a deleted tree edge (deleting a non-tree edge changes nothing).
  void HandleExplicitDeletion(const Sgt& t);

  /// Window adjacency: points at the operator's own store, or at a shared
  /// WindowStore partition after BindSharedWindow(). Shared maintenance is
  /// safe without coordination: inserts coalesce idempotently and repeated
  /// purges are cheap (calendar-driven).
  WindowEdgeStore* window_ = &owned_window_;
  FlatMap<VertexId, SpanningTree> trees_;

  /// Node-expiry calendar: (root, key) hints at the node's expiry bucket.
  /// The Δ-tree operator drains it to find the nodes to re-derive;
  /// Purge() drains it to reclaim memory.
  ExpiryCalendar<std::pair<VertexId, NodeKey>> node_expiry_;

 private:
  WindowEdgeStore owned_window_;
  Dfa dfa_;
  LabelId out_label_;
  ShardId shard_ = 0;
  std::size_t num_shards_ = 1;
  /// Inverted index (Def. 22): node key -> roots of trees containing it.
  /// Small inlined runs, deduplicated on insert and erased by
  /// swap-and-pop: root sets are small and the index is probed on every
  /// arriving sgt.
  FlatMap<NodeKey, SmallRun<VertexId, 2>, PairHash> inverted_;
  SlabPool inverted_pool_;  ///< overflow storage of inverted_ runs
  SlabPool children_pool_;  ///< overflow storage of child-link runs

  /// \brief A candidate derivation: `child` under `parent` in the tree
  /// rooted at `root`, over the window edge parent.first -label->
  /// child.first, with joint validity `iv` (already intersected with the
  /// parent's interval). The order is the widest-path (Dijkstra on
  /// maximal expiry) order of both the insertion drain and
  /// re-derivation: a max-heap pops the largest expiry, then the earliest
  /// start, then the smallest (child, parent, label, root), so the result
  /// never depends on the order candidates were found in.
  struct Candidate {
    Interval iv;
    NodeKey child;
    NodeKey parent;
    VertexId root;
    LabelId label;

    EdgeRef via() const { return EdgeRef(parent.first, child.first, label); }
    bool operator<(const Candidate& o) const {
      if (iv.exp != o.iv.exp) return iv.exp < o.iv.exp;
      if (iv.ts != o.iv.ts) return iv.ts > o.iv.ts;
      return std::tie(o.child, o.parent, o.label, o.root) <
             std::tie(child, parent, label, root);
    }
  };

  /// Insertion drain (see OnTuple): pops `queue_` until it is empty.
  void DrainInsertion();
  /// Applies the accept rule to `c`: Expand when c.child is absent or
  /// stale, Propagate when the rule allows and `c` expires later. Returns
  /// the node's new interval, or an empty one when `c` is rejected.
  Interval Accept(SpanningTree& tree, const Candidate& c);
  /// True when `c` can never be accepted over `node`, which stays at
  /// least as good for the rest of a drain.
  bool Rejects(const TreeNode& node, const Candidate& c) const {
    if (node.is_root) return true;
    if (node.iv.exp <= c.iv.ts) return false;  // stale: Expand replaces it
    return accept_ == AcceptRule::kExpandOnly || node.iv.exp >= c.iv.exp;
  }
  void PushCandidate(const Candidate& c) {
    queue_.push_back(c);
    std::push_heap(queue_.begin(), queue_.end());
  }
  Candidate PopCandidate() {
    std::pop_heap(queue_.begin(), queue_.end());
    Candidate c = queue_.back();
    queue_.pop_back();
    return c;
  }

  void AddChildLink(SpanningTree& tree, const NodeKey& parent,
                    const NodeKey& child);
  void RemoveChildLink(SpanningTree& tree, const NodeKey& parent,
                       const NodeKey& child);
  /// Per-state outgoing transitions, precomputed from the DFA.
  std::vector<std::vector<std::pair<LabelId, StateId>>> out_transitions_;
  /// Per-state *incoming* transitions (label, source state): used by
  /// delete/re-derive to seed candidates from the detached nodes' in-edges
  /// instead of scanning every surviving node's out-edges.
  std::vector<std::vector<std::pair<LabelId, StateId>>> in_transitions_;
  StreamingCoalescer out_coalescer_;
  AcceptRule accept_;
  /// Candidate max-heap of the insertion drain and of re-derivation;
  /// empty between calls, its capacity reused.
  std::vector<Candidate> queue_;
  /// Total nodes across trees_ (roots included): O(1) StateSize.
  std::size_t num_tree_nodes_ = 0;
  /// Roots whose tree shrank to (or was created with) just the root node;
  /// Purge verifies and drops them instead of scanning every tree.
  std::vector<VertexId> empty_tree_candidates_;
};

}  // namespace sgq

#endif  // SGQ_CORE_PATH_BASE_H_
