#pragma once
// Group-operations (Section 6.1): after stably sorting a batch by key, all
// operations on the same key are combined into one group-operation that is
// "treated as a single operation with the same effect as the whole group of
// operations in the given order". Resolving a group against the key's state
// at the moment the group meets the item yields every individual result
// plus the group's net effect (present-with-value / absent).
//
// This is the mechanism that turns b duplicate accesses into O(log n + b)
// work instead of Ω(b log n) (Section 3).
//
// The delivery `Target` is a template parameter: M1 delivers results by
// batch index (size_t), M2 by per-operation ticket pointer.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/ops.hpp"
#include "util/small_vec.hpp"

namespace pwss::core {

/// One client operation in flight through a batched map, carrying where its
/// result must be delivered. key2 is kRangeCount's inclusive high bound;
/// ordered kinds never enter group-operations (they are resolved in
/// read-only phases), but they do ride the same submission plumbing.
template <typename K, typename V, typename Target>
struct PendingOp {
  OpType type;
  K key;
  V value{};
  K key2{};
  Target target{};
  /// Absolute deadline on the now_ns() clock; 0 = none. Checked only at
  /// the batch-cut boundary (submission plumbing) — an op that enters a
  /// group-operation always executes.
  std::uint64_t deadline_ns = 0;
};

/// All pending operations on one key within a batch, in program order.
/// Under low-duplication workloads almost every group is a singleton, so
/// the first op lives inline in the group — no per-group heap allocation.
template <typename K, typename V, typename Target>
struct GroupOp {
  K key;
  util::SmallVec<PendingOp<K, V, Target>, 1> ops;

  /// The group's rank in its cut's key order (coalesce_sorted_into numbers
  /// groups after the cut is sorted). M2 orders a cut's arrivals at the
  /// front of a segment by it: the first slab's hits and the final slab's
  /// finished items.
  std::size_t seq = 0;

  // M2 bookkeeping: a deletion that already succeeded in an earlier segment
  // is tagged and keeps flowing to the terminal segment (Section 7.1 step 3:
  // "Successful deletions are tagged to indicate success").
  bool deletion_succeeded = false;
};

/// Applies `ops` in order against `initial` (the key's value where the
/// group met the item, or nullopt if absent), emitting one Result per op
/// through `emit(target, Result<V>)`. Returns the net final state.
/// Accepts any contiguous op sequence (GroupOp::ops, filter-entry lists).
template <typename K, typename V, typename Target, typename Emit>
std::optional<V> resolve_ops(std::optional<V> initial,
                             std::span<const PendingOp<K, V, Target>> ops,
                             Emit&& emit) {
  std::optional<V> cur = std::move(initial);
  for (const auto& op : ops) {
    Result<V, K> r;
    switch (op.type) {
      case OpType::kSearch:
        r.status = cur.has_value() ? ResultStatus::kFound
                                   : ResultStatus::kNotFound;
        r.value = cur;
        break;
      case OpType::kInsert:
      case OpType::kUpsert:
        r.status = cur.has_value() ? ResultStatus::kUpdated
                                   : ResultStatus::kInserted;
        cur = op.value;
        break;
      case OpType::kErase:
        r.status = cur.has_value() ? ResultStatus::kErased
                                   : ResultStatus::kNotFound;
        r.value = std::move(cur);
        cur.reset();
        break;
      case OpType::kPredecessor:
      case OpType::kSuccessor:
      case OpType::kRangeCount:
        assert(false && "ordered kinds never enter group-operations");
        break;
    }
    emit(op.target, std::move(r));
  }
  return cur;
}

/// Coalesces a key-sorted batch (per-key program order preserved — the
/// caller's sort is stable) into `groups`, numbering them in key order.
/// `sorted`'s elements are consumed; `groups` is cleared first, so a
/// caller-owned buffer keeps its capacity across batches.
template <typename K, typename V, typename Target>
void coalesce_sorted_into(std::vector<PendingOp<K, V, Target>>& sorted,
                          std::vector<GroupOp<K, V, Target>>& groups) {
  groups.clear();
  for (auto& op : sorted) {
    if (groups.empty() || !(groups.back().key == op.key)) {
      GroupOp<K, V, Target> g;
      g.key = op.key;
      g.seq = groups.size();
      groups.push_back(std::move(g));
    }
    groups.back().ops.push_back(std::move(op));
  }
}

/// Index-based group: the ops live at positions [begin, end) of the
/// stable-sorted batch they were coalesced from (same-key ops are
/// contiguous after the sort). 16 bytes, trivially movable, no per-group
/// allocation — the representation M1's sweep churns through. M2 keeps the
/// owning GroupOp because its groups outlive the batch frame (filter
/// entries, stage inboxes).
template <typename K>
struct IndexGroup {
  K key;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Coalesces a key-sorted batch into index groups (cleared `groups` buffer
/// reused across batches). The batch itself is not consumed — groups
/// reference it by position.
template <typename K, typename V, typename Target>
void coalesce_sorted_index(std::span<const PendingOp<K, V, Target>> sorted,
                           std::vector<IndexGroup<K>>& groups) {
  assert(sorted.size() <= 0xffffffffu && "batch exceeds index-group range");
  groups.clear();
  for (std::uint32_t i = 0; i < sorted.size(); ++i) {
    if (groups.empty() || !(groups.back().key == sorted[i].key)) {
      groups.push_back(IndexGroup<K>{sorted[i].key, i, i + 1});
    } else {
      groups.back().end = i + 1;
    }
  }
}

}  // namespace pwss::core
