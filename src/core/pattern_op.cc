#include "core/pattern_op.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/sorted_entries.h"

namespace sgq {

PatternOp::PatternOp(const LogicalOp& pattern,
                     std::vector<PatternPortState> port_state) {
  SGQ_CHECK(pattern.kind == LogicalOpKind::kPattern);
  num_ports_ = static_cast<int>(pattern.child_vars.size());
  out_label_ = pattern.output_label;

  // Assign dense indexes to variables in order of first appearance.
  FlatMap<std::string, int> var_index;
  auto index_of = [&](const std::string& name) {
    auto [it, inserted] =
        var_index.try_emplace(name, static_cast<int>(var_index.size()));
    (void)inserted;
    return it->second;
  };
  for (const auto& [src, trg] : pattern.child_vars) {
    port_vars_.emplace_back(index_of(src), index_of(trg));
  }
  out_src_var_ = index_of(pattern.out_src_var);
  out_trg_var_ = index_of(pattern.out_trg_var);
  num_vars_ = var_index.size();

  // Level j joins acc(ports 0..j) with port j+1 on their shared variables.
  std::set<int> acc_vars = {port_vars_[0].first, port_vars_[0].second};
  for (int p = 1; p < num_ports_; ++p) {
    Level level;
    for (int v : {port_vars_[p].first, port_vars_[p].second}) {
      if (acc_vars.count(v) > 0) level.key_vars.push_back(v);
    }
    std::sort(level.key_vars.begin(), level.key_vars.end());
    level.key_vars.erase(
        std::unique(level.key_vars.begin(), level.key_vars.end()),
        level.key_vars.end());

    // Move the port's single-atom state into the runtime WindowStore when
    // a partition was provided, the port's label is static, and the level
    // has a join key to probe the index with.
    if (static_cast<std::size_t>(p) < port_state.size() &&
        port_state[static_cast<std::size_t>(p)].store != nullptr &&
        port_state[static_cast<std::size_t>(p)].label != kInvalidLabel &&
        !level.key_vars.empty()) {
      level.store = port_state[static_cast<std::size_t>(p)].store;
      level.store_label = port_state[static_cast<std::size_t>(p)].label;
      const auto& [sv, tv] = port_vars_[static_cast<std::size_t>(p)];
      const bool has_src =
          std::binary_search(level.key_vars.begin(), level.key_vars.end(),
                             sv);
      const bool has_trg =
          std::binary_search(level.key_vars.begin(), level.key_vars.end(),
                             tv);
      if (has_src && has_trg) {
        level.probe = ProbeKind::kOutFiltered;
      } else if (has_src) {
        level.probe = ProbeKind::kOut;
      } else {
        level.probe = ProbeKind::kIn;
        level.store->EnableInIndex();
      }
    }

    levels_.push_back(std::move(level));
    acc_vars.insert(port_vars_[p].first);
    acc_vars.insert(port_vars_[p].second);
  }
}

bool PatternOp::BindPort(int port, const Sgt& tuple, Binding* out) const {
  const auto& [src_var, trg_var] = port_vars_[port];
  if (src_var == trg_var && tuple.src != tuple.trg) return false;
  out->vals.assign(num_vars_, kInvalidVertex);
  out->vals[static_cast<std::size_t>(src_var)] = tuple.src;
  out->vals[static_cast<std::size_t>(trg_var)] = tuple.trg;
  out->iv = tuple.validity;
  return true;
}

PatternOp::Key PatternOp::ExtractKey(const Level& level,
                                     const Binding& b) const {
  Key key;
  for (int v : level.key_vars) {
    key.push_back(b.vals[static_cast<std::size_t>(v)]);
  }
  return key;
}

template <typename Fn>
void PatternOp::ForEachRightMatch(std::size_t level_idx, const Key& key,
                                  Fn&& fn) const {
  const Level& lv = levels_[level_idx];
  const int port = static_cast<int>(level_idx) + 1;
  if (lv.store == nullptr) {
    auto it = lv.right.find(key);
    if (it == lv.right.end()) return;
    for (const Binding& other : it->second) fn(other);
    return;
  }
  // The key vector is aligned with the sorted key_vars.
  auto key_val = [&](int var) {
    const auto pos =
        std::lower_bound(lv.key_vars.begin(), lv.key_vars.end(), var);
    return key[static_cast<std::size_t>(pos - lv.key_vars.begin())];
  };
  const auto& [src_var, trg_var] = port_vars_[static_cast<std::size_t>(port)];
  Binding b;
  auto try_edge = [&](VertexId s, VertexId g, const Interval& iv) {
    const Sgt tuple(s, g, lv.store_label, iv);
    if (BindPort(port, tuple, &b)) fn(b);
  };
  switch (lv.probe) {
    case ProbeKind::kOutFiltered: {
      const VertexId s = key_val(src_var);
      const VertexId g = key_val(trg_var);
      for (const StoredEdge& e : lv.store->OutEdges(s, lv.store_label)) {
        if (e.trg == g) try_edge(s, e.trg, e.validity);
      }
      break;
    }
    case ProbeKind::kOut: {
      const VertexId s = key_val(src_var);
      for (const StoredEdge& e : lv.store->OutEdges(s, lv.store_label)) {
        try_edge(s, e.trg, e.validity);
      }
      break;
    }
    case ProbeKind::kIn: {
      const VertexId g = key_val(trg_var);
      // Reverse-index entries store the *source* in `trg`.
      for (const StoredEdge& e : lv.store->InEdges(g, lv.store_label)) {
        try_edge(e.trg, g, e.validity);
      }
      break;
    }
  }
}

void PatternOp::InsertCoalesced(int level, bool left, const Key& key,
                                Binding b) {
  Level& lv = levels_[static_cast<std::size_t>(level)];
  Table& table = left ? lv.left : lv.right;
  std::size_t& entries = left ? lv.left_entries : lv.right_entries;
  auto [it, inserted] = table.try_emplace(key);
  (void)inserted;
  Bucket& bucket = it->second;
  for (Binding& existing : bucket) {
    if (existing.vals == b.vals && existing.iv.OverlapsOrAdjacent(b.iv)) {
      const Timestamp old_exp = existing.iv.exp;
      existing.iv = existing.iv.Span(b.iv);
      if (existing.iv.exp > old_exp) {
        binding_expiry_.Add(existing.iv.exp, BucketRef{level, left, key});
      }
      return;
    }
  }
  binding_expiry_.Add(b.iv.exp, BucketRef{level, left, key});
  bucket.push_back(&bucket_pool_, std::move(b));
  ++entries;
}

PatternOp::Binding PatternOp::Merge(const Binding& a, const Binding& b) {
  Binding out;
  out.vals = a.vals;
  for (std::size_t i = 0; i < out.vals.size(); ++i) {
    if (out.vals[i] == kInvalidVertex) out.vals[i] = b.vals[i];
  }
  out.iv = a.iv.Intersect(b.iv);
  return out;
}

bool PatternOp::MayReassert(const Binding& b) const {
  const VertexId s = b.vals[static_cast<std::size_t>(out_src_var_)];
  const VertexId t = b.vals[static_cast<std::size_t>(out_trg_var_)];
  if (s != kInvalidVertex && t != kInvalidVertex) {
    return retracted_values_.contains(EdgeRef(s, t, out_label_));
  }
  if (s != kInvalidVertex) return retracted_srcs_.contains(s);
  if (t != kInvalidVertex) return retracted_trgs_.contains(t);
  return true;
}

void PatternOp::Cascade(std::size_t level, const Binding& acc, Mode mode) {
  if (acc.iv.Empty()) return;
  // Reassert replay prune: state writes below are idempotent, so only
  // bindings that can reach a retracted output value matter.
  if (mode == Mode::kReassert && !MayReassert(acc)) return;
  if (level >= levels_.size()) {
    Project(acc, mode);
    return;
  }
  Level& lv = levels_[level];
  const Key key = ExtractKey(lv, acc);
  // kRetract must not touch state; kReassert re-inserts idempotently
  // (identical bindings coalesce away).
  if (mode != Mode::kRetract) {
    InsertCoalesced(static_cast<int>(level), /*left=*/true, key, acc);
  }
  ForEachRightMatch(level, key, [&](const Binding& other) {
    Binding merged = Merge(acc, other);
    Cascade(level + 1, merged, mode);
  });
}

void PatternOp::Project(const Binding& b, Mode mode) {
  const VertexId src = b.vals[static_cast<std::size_t>(out_src_var_)];
  const VertexId trg = b.vals[static_cast<std::size_t>(out_trg_var_)];
  // Payload: the derived edge itself (Def. 19). Positives are offered to
  // the coalescer bare and get their payload only once accepted.
  const EdgeRef derived(src, trg, out_label_);
  if (mode == Mode::kRetract) {
    Sgt out(src, trg, out_label_, b.iv, {derived}, /*del=*/true);
    out_coalescer_.Forget(derived, b.iv.ts);
    retracted_values_.insert(derived);
    EmitTuple(out);
    return;
  }
  if (mode == Mode::kReassert && !retracted_values_.contains(derived)) return;
  Sgt out(src, trg, out_label_, b.iv, {});
  if (!out_coalescer_.Offer(out)) return;
  out.payload = {derived};
  EmitTuple(out);
}

void PatternOp::OnTuple(int port, const Sgt& tuple) {
  SGQ_CHECK_GE(port, 0);
  SGQ_CHECK_LT(port, num_ports_);
  if (num_ports_ > 1 && tuple.is_deletion) {
    // Unsharded deletion: the two coordination phases composed
    // back-to-back on this instance reproduce the original
    // single-threaded retract + reassert exactly (the extra Forget in
    // ReassertRetracted is a no-op on values already forgotten by the
    // retract cascade).
    ReassertRetracted(RetractForDeletion(port, tuple));
    return;
  }
  Binding b;
  if (!BindPort(port, tuple, &b)) return;

  if (num_ports_ == 1) {
    // A single-atom pattern is a rename/projection: it preserves the input
    // payload so materialized paths stay first-class through it (R3).
    const VertexId src = b.vals[static_cast<std::size_t>(out_src_var_)];
    const VertexId trg = b.vals[static_cast<std::size_t>(out_trg_var_)];
    Sgt out(src, trg, out_label_, b.iv, {}, tuple.is_deletion);
    if (tuple.is_deletion) {
      out_coalescer_.Forget(out.edge(), out.validity.ts);
    } else if (!out_coalescer_.Offer(out)) {
      return;
    }
    out.payload = tuple.payload;
    EmitTuple(out);
    return;
  }

  if (port == 0) {
    Cascade(0, b, Mode::kInsert);
    return;
  }
  // Symmetric side: store the port tuple, then probe the accumulated side.
  Level& lv = levels_[static_cast<std::size_t>(port - 1)];
  const Key key = ExtractKey(lv, b);
  if (lv.store != nullptr) {
    SGQ_DCHECK(tuple.label == lv.store_label);
    lv.store->Insert(tuple.src, tuple.trg, lv.store_label, b.iv);
  } else {
    InsertCoalesced(port - 1, /*left=*/false, key, b);
  }
  auto it = lv.left.find(key);
  if (it == lv.left.end()) return;
  for (const Binding& acc : it->second) {
    Binding merged = Merge(acc, b);
    Cascade(static_cast<std::size_t>(port), merged, Mode::kInsert);
  }
}

template <typename Pred>
void PatternOp::ScrubTable(Table* table, std::size_t* entries, Pred&& pred) {
  for (auto it = table->begin(); it != table->end();) {
    Bucket& bucket = it->second;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (pred(bucket[i])) continue;
      if (keep != i) bucket[keep] = std::move(bucket[i]);
      ++keep;
    }
    *entries -= bucket.size() - keep;
    bucket.truncate(keep);
    if (bucket.empty()) {
      bucket.Release(&bucket_pool_);
      it = table->erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<EdgeRef> PatternOp::RetractForDeletion(int port,
                                                   const Sgt& tuple) {
  Binding b;
  if (!BindPort(port, tuple, &b)) return {};
  // 1. Emit negative tuples for every live output containing the deleted
  //    tuple, by replaying the join cascade without inserting.
  retracted_values_.clear();
  if (port == 0) {
    Cascade(0, b, Mode::kRetract);
  } else {
    Level& lv = levels_[static_cast<std::size_t>(port - 1)];
    const Key key = ExtractKey(lv, b);
    auto it = lv.left.find(key);
    if (it != lv.left.end()) {
      for (const Binding& acc : it->second) {
        Binding merged = Merge(acc, b);
        Cascade(static_cast<std::size_t>(port), merged, Mode::kRetract);
      }
    }
  }

  // 2. Remove the tuple and every accumulated binding that embeds it.
  //    A binding embeds the deleted tuple iff it agrees with it on the
  //    tuple's variable positions (set semantics make that sufficient).
  auto matches = [&](const Binding& candidate) {
    for (std::size_t i = 0; i < num_vars_; ++i) {
      if (b.vals[i] != kInvalidVertex && candidate.vals[i] != b.vals[i]) {
        return false;
      }
    }
    return true;
  };
  if (port == 0) {
    if (!levels_.empty()) {
      ScrubTable(&levels_[0].left, &levels_[0].left_entries, matches);
    }
  } else {
    Level& lv = levels_[static_cast<std::size_t>(port - 1)];
    if (lv.store != nullptr) {
      const auto& [src_var, trg_var] =
          port_vars_[static_cast<std::size_t>(port)];
      lv.store->RemoveValue(b.vals[static_cast<std::size_t>(src_var)],
                            b.vals[static_cast<std::size_t>(trg_var)],
                            lv.store_label);
    } else {
      ScrubTable(&lv.right, &lv.right_entries, matches);
    }
  }
  // Accumulated bindings at levels >= port embed port tuples.
  for (std::size_t j = static_cast<std::size_t>(std::max(1, port));
       j < levels_.size(); ++j) {
    ScrubTable(&levels_[j].left, &levels_[j].left_entries, matches);
  }

  // Sorted drain: the returned order is deterministic, so the sharded
  // executor's cross-shard union is reproducible.
  std::vector<EdgeRef> out(retracted_values_.begin(),
                           retracted_values_.end());
  std::sort(out.begin(), out.end());
  retracted_values_.clear();
  return out;
}

void PatternOp::ReassertRetracted(const std::vector<EdgeRef>& retracted) {
  // Re-assert: an output value retracted (on this shard or, under sharded
  // execution, on a sibling shard) may still hold via a derivation in the
  // surviving local state. Replay the surviving port-0 bindings through
  // the pipeline and re-emit positives for the retracted values.
  // Deletions are rare (§6.2.5), so the full replay is acceptable.
  if (retracted.empty() || levels_.empty()) return;
  retracted_values_.clear();
  retracted_srcs_.clear();
  retracted_trgs_.clear();
  for (const EdgeRef& value : retracted) {
    // A sibling shard's retraction must not leave this shard's coalescer
    // suppressing the re-assertion (no-op for values this shard
    // retracted itself — the retract cascade already forgot them).
    out_coalescer_.Forget(value);
    retracted_values_.insert(value);
    retracted_srcs_.insert(value.src);
    retracted_trgs_.insert(value.trg);
  }
  // Copy (kReassert re-inserts, idempotently, while iterating), sorted by
  // join key so the replay order — and with it the emission order — does
  // not depend on hash-iteration order.
  std::vector<std::pair<Key, const Bucket*>> buckets;
  buckets.reserve(levels_[0].left.size());
  for (const auto& [key, bucket] : levels_[0].left) {
    buckets.emplace_back(key, &bucket);
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) {
              return std::lexicographical_compare(
                  a.first.begin(), a.first.end(), b.first.begin(),
                  b.first.end());
            });
  std::vector<Binding> port0;
  for (const auto& [key, bucket] : buckets) {
    (void)key;
    port0.insert(port0.end(), bucket->begin(), bucket->end());
  }
  for (const Binding& acc : port0) {
    Cascade(0, acc, Mode::kReassert);
  }
  retracted_values_.clear();
}

void PatternOp::Purge(Timestamp now) {
  binding_expiry_.DrainDue(now, [&](const BucketRef& ref) {
    Level& lv = levels_[static_cast<std::size_t>(ref.level)];
    Table& table = ref.left ? lv.left : lv.right;
    std::size_t& entries = ref.left ? lv.left_entries : lv.right_entries;
    auto it = table.find(ref.key);
    if (it == table.end()) return;  // stale hint: bucket is gone
    Bucket& bucket = it->second;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      Binding& b = bucket[i];
      if (b.iv.exp <= now) continue;  // expired: drop
      if (binding_expiry_.NeedsReAdd(b.iv.exp, now)) {
        binding_expiry_.Add(b.iv.exp, ref);
      }
      if (keep != i) bucket[keep] = std::move(b);
      ++keep;
    }
    entries -= bucket.size() - keep;
    bucket.truncate(keep);
    if (bucket.empty()) {
      bucket.Release(&bucket_pool_);
      table.erase(it);
    }
  });
  for (Level& lv : levels_) {
    if (lv.store != nullptr) lv.store->PurgeExpired(now);
  }
  out_coalescer_.PurgeBefore(now);
}

std::size_t PatternOp::StateSize() const {
  std::size_t n = out_coalescer_.NumKeys();
  for (const Level& lv : levels_) {
    n += lv.left_entries;
    n += lv.store != nullptr ? lv.store->NumEntries() : lv.right_entries;
  }
  return n;
}

std::size_t PatternOp::StateBytes() const {
  // Bucket overflow is pool-backed: count the pool's slabs once instead
  // of per-bucket capacities (inline bucket storage is part of the slot
  // array, covered by capacity_bytes).
  std::size_t n = out_coalescer_.ApproxBytes() +
                  binding_expiry_.ApproxBytes() +
                  bucket_pool_.reserved_bytes();
  auto table_bytes = [](const Table& table) {
    std::size_t bytes = table.capacity_bytes();
    for (const auto& [key, bucket] : table) {
      (void)bucket;
      bytes += key.overflow_bytes();
    }
    return bytes;
  };
  for (const Level& lv : levels_) {
    n += table_bytes(lv.left);
    n += lv.store != nullptr ? lv.store->StateBytes() : table_bytes(lv.right);
  }
  return n;
}

std::size_t PatternOp::num_store_backed_ports() const {
  std::size_t n = 0;
  for (const Level& lv : levels_) {
    if (lv.store != nullptr) ++n;
  }
  return n;
}

namespace {

void PutPatternKey(std::string* out, const SmallVec<uint64_t, 3>& key) {
  PutU32(out, static_cast<std::uint32_t>(key.size()));
  for (uint64_t v : key) PutU64(out, v);
}

SmallVec<uint64_t, 3> GetPatternKey(ByteReader* in) {
  SmallVec<uint64_t, 3> key;
  const std::uint32_t n = in->U32();
  for (std::uint32_t i = 0; i < n && in->ok(); ++i) key.push_back(in->U64());
  return key;
}

bool KeyLess(const SmallVec<uint64_t, 3>& a, const SmallVec<uint64_t, 3>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

void PatternOp::SerializeTable(const Table& table, std::string* out) {
  // Keys sorted (deterministic checkpoint bytes); bucket contents verbatim
  // — every bucket mutation (ScrubTable, Purge) compacts order-preservingly,
  // so restoring bindings in stored order reproduces probe order exactly.
  PutU64(out, table.size());
  for (const auto* entry : SortedEntries(table, KeyLess)) {
    const auto& [key, bucket] = *entry;
    PutPatternKey(out, key);
    PutU32(out, static_cast<std::uint32_t>(bucket.size()));
    for (const Binding& b : bucket) {
      PutU32(out, static_cast<std::uint32_t>(b.vals.size()));
      for (VertexId v : b.vals) PutU64(out, v);
      PutI64(out, b.iv.ts);
      PutI64(out, b.iv.exp);
    }
  }
}

Status PatternOp::DeserializeTable(Table* table, ByteReader* in) {
  const std::uint64_t num_keys = in->U64();
  for (std::uint64_t k = 0; k < num_keys && in->ok(); ++k) {
    Key key = GetPatternKey(in);
    const std::uint32_t n = in->U32();
    if (!in->ok()) break;
    auto [it, inserted] = table->try_emplace(std::move(key));
    if (!inserted) return in->Fail("duplicate join key");
    Bucket& bucket = it->second;
    for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
      Binding b;
      const std::uint32_t nvals = in->U32();
      for (std::uint32_t v = 0; v < nvals && in->ok(); ++v) {
        b.vals.push_back(in->U64());
      }
      b.iv.ts = in->I64();
      b.iv.exp = in->I64();
      bucket.push_back(&bucket_pool_, std::move(b));
    }
  }
  return in->status();
}

void PatternOp::SerializeState(std::string* out) const {
  PutU32(out, static_cast<std::uint32_t>(levels_.size()));
  for (const Level& lv : levels_) {
    SerializeTable(lv.left, out);
    PutU64(out, lv.left_entries);
    // Store-backed right sides live in WindowStore partitions checkpointed
    // by the registry; only the flag round-trips (topology verification).
    PutU8(out, lv.store != nullptr ? 1 : 0);
    if (lv.store == nullptr) {
      SerializeTable(lv.right, out);
      PutU64(out, lv.right_entries);
    }
  }
  PutU64(out, binding_expiry_.num_hints());
  binding_expiry_.VisitEntries([&](Timestamp exp, const BucketRef& ref) {
    PutI64(out, exp);
    PutU32(out, static_cast<std::uint32_t>(ref.level));
    PutU8(out, ref.left ? 1 : 0);
    PutPatternKey(out, ref.key);
  });
  out_coalescer_.SerializeState(out);
}

Status PatternOp::DeserializeState(ByteReader* in) {
  // Only the *private* state must be empty: store-backed ports view the
  // shared WindowStore, whose partitions restore before the ops section.
  std::size_t private_entries = out_coalescer_.NumKeys();
  for (const Level& lv : levels_) {
    private_entries += lv.left_entries;
    private_entries += lv.store != nullptr ? 0 : lv.right_entries;
  }
  if (private_entries != 0) {
    return in->Fail("PATTERN operator not empty before restore");
  }
  const std::uint32_t num_levels = in->U32();
  if (in->ok() && num_levels != levels_.size()) {
    return in->Fail("PATTERN level count mismatch (checkpoint was taken "
                    "with a different plan topology)");
  }
  for (Level& lv : levels_) {
    SGQ_RETURN_NOT_OK(DeserializeTable(&lv.left, in));
    lv.left_entries = in->U64();
    const bool store_backed = in->U8() != 0;
    if (in->ok() && store_backed != (lv.store != nullptr)) {
      return in->Fail("PATTERN store-backed flag mismatch (checkpoint was "
                      "taken with a different plan topology)");
    }
    if (lv.store == nullptr) {
      SGQ_RETURN_NOT_OK(DeserializeTable(&lv.right, in));
      lv.right_entries = in->U64();
    }
  }
  const std::uint64_t num_hints = in->U64();
  for (std::uint64_t i = 0; i < num_hints && in->ok(); ++i) {
    const Timestamp exp = in->I64();
    BucketRef ref;
    ref.level = static_cast<int>(in->U32());
    ref.left = in->U8() != 0;
    ref.key = GetPatternKey(in);
    if (in->ok() &&
        static_cast<std::size_t>(ref.level) >= levels_.size()) {
      return in->Fail("expiry hint references a level out of range");
    }
    binding_expiry_.Add(exp, std::move(ref));
  }
  return out_coalescer_.DeserializeState(in);
}

}  // namespace sgq
