#pragma once
// MapBackend — the one batched-map concept every map in the library
// satisfies: the paper's structures (M0 sequential, M1 batch-parallel, M2
// pipelined) and the baselines' batched adapters (splay, AVL, Iacono,
// locked). A backend executes a key-ordered-combinable batch of operations,
// runs one operation on its own, and reports its size. The per-op
// conveniences come from core::MapCalls (core/future.hpp); scheduler
// lifetime and asynchronous front ends are layered on top by driver/.
//
// Which front end a backend sits behind is chosen where it is registered
// (driver/registry.hpp).
//
// Every backend executes the full protocol, ordered kinds included.

#include <concepts>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"

namespace pwss::core {

/// The unified batched-map concept. `execute_batch` must realize a legal
/// linearization of the batch: per-key program order preserved, results in
/// submission order (Definition 8). Ordered kinds observe every earlier
/// point operation of the batch and none of the later ones
/// (phase slicing — see M1Map::execute_batch). Results go into a
/// caller-owned buffer (cleared first) whose capacity a steady stream of
/// batches reuses; the allocating form comes from core::MapCalls.
/// `run_blocking(op)` runs one operation and returns its result; the
/// driver's sequential step path calls it.
///
/// Both remaining members must be called quiescent:
///   * validate() — deep structural validation with a failure description
///     ("" = sound); drivers surface it through Driver::validate() so
///     cross-backend fuzzers report WHAT broke;
///   * export_entries(out) — appends the full contents to `out` in
///     ascending key order, the sorted export the checkpoint writer
///     (store/snapshot.hpp) serializes.
template <typename B, typename K, typename V>
concept MapBackend = requires(B b, std::span<const Op<K, V>> ops,
                              Op<K, V> op, std::vector<Result<V, K>>& results,
                              std::vector<std::pair<K, V>>& out) {
  b.execute_batch(ops, results);
  { b.run_blocking(op) } -> std::same_as<Result<V, K>>;
  { b.size() } -> std::convertible_to<std::size_t>;
  { b.validate() } -> std::convertible_to<std::string>;
  b.export_entries(out);
};

/// One batch into a caller-owned results buffer.
template <typename K, typename V, typename B>
void execute_batch_into(B& backend, std::span<const Op<K, V>> ops,
                        std::vector<Result<V, K>>& out) {
  backend.execute_batch(ops, out);
}

/// One op through a point map's own calls (search, insert, erase and the
/// ordered queries) as a Result: the one switch from OpType to
/// ResultStatus for point maps. M0's and the baselines' batches are loops
/// over it. A map whose run_blocking is apply_point must define those
/// calls itself: MapCalls' versions would call back into run_blocking.
template <typename K, typename V, typename M>
Result<V, K> apply_point(M& map, const Op<K, V>& op) {
  Result<V, K> r;
  switch (op.type) {
    case OpType::kSearch:
      r.value = map.search(op.key);
      r.status = r.value ? ResultStatus::kFound : ResultStatus::kNotFound;
      break;
    case OpType::kInsert:
    case OpType::kUpsert:
      r.status = map.insert(op.key, op.value) ? ResultStatus::kInserted
                                              : ResultStatus::kUpdated;
      break;
    case OpType::kErase:
      r.value = map.erase(op.key);
      r.status = r.value ? ResultStatus::kErased : ResultStatus::kNotFound;
      break;
    case OpType::kPredecessor:
    case OpType::kSuccessor:
      if (auto hit = op.type == OpType::kPredecessor ? map.predecessor(op.key)
                                                     : map.successor(op.key)) {
        r.status = ResultStatus::kFound;
        r.matched_key = std::move(hit->first);
        r.value = std::move(hit->second);
      }
      break;
    case OpType::kRangeCount:
      r.status = ResultStatus::kFound;
      r.count = map.range_count(op.key, op.key2);
      break;
  }
  return r;
}

/// True when the backend reports which segment currently holds a key — the
/// working-set structures' recency depth. Drivers surface it through
/// Driver::depth_of(); non-adjusting backends report nullopt.
template <typename B, typename K>
concept HasRecencyDepth = requires(B b, const K& k) {
  { b.segment_of(k) } -> std::convertible_to<std::optional<std::size_t>>;
};

}  // namespace pwss::core
