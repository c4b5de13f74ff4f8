#pragma once
// Batched adapters: lift the baselines' point-operation maps (splay, AVL,
// Iacono, locked) to the core::MapBackend concept by executing a batch as
// a sequential loop of point operations. No combining, no parallelism —
// that is the point: these are the comparators M0/M1/M2 are measured
// against, exposed through the same interface so benches, examples, and
// typed tests can treat every backend identically.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/avl_map.hpp"
#include "baseline/iacono_map.hpp"
#include "baseline/locked_map.hpp"
#include "baseline/splay_tree.hpp"
#include "core/backend.hpp"
#include "core/future.hpp"
#include "core/ops.hpp"

namespace pwss::baseline {

/// PointMap must provide insert(K, V) -> bool (true iff newly inserted),
/// erase(K) -> optional<V> (the removed value), and search(K) returning
/// either an optional<V>-convertible value or a pointer to V (IaconoMap's
/// stable-pointer style), plus the ordered surface: predecessor(K) and
/// successor(K) -> optional<pair<K, V>> (the matched entry),
/// range_count(K lo, K hi) -> the size of [lo, hi], for_each over
/// (key, value), and validate() -> "" when sound.
template <typename K, typename V, typename PointMap>
class Batched : public core::MapCalls<Batched<K, V, PointMap>, K, V> {
 public:
  Batched() = default;
  explicit Batched(PointMap map) : map_(std::move(map)) {}

  std::size_t size() const { return map_.size(); }

  /// Results into a caller-owned buffer (capacity reused across batches).
  void execute_batch(std::span<const core::Op<K, V>> ops,
                     std::vector<core::Result<V, K>>& results) {
    results.clear();
    results.reserve(ops.size());
    for (const auto& op : ops) results.push_back(core::apply_point(*this, op));
  }
  using core::MapCalls<Batched, K, V>::execute_batch;

  /// One op through the point passthroughs below.
  core::Result<V, K> run_blocking(const core::Op<K, V>& op) {
    return core::apply_point(*this, op);
  }

  // Point passthroughs, normalized to the optional<V> shape.
  std::optional<V> search(const K& key) {
    if constexpr (std::is_pointer_v<decltype(map_.search(key))>) {
      const auto* p = map_.search(key);
      return p ? std::optional<V>(*p) : std::nullopt;
    } else {
      return map_.search(key);
    }
  }
  bool insert(const K& key, V value) {
    return map_.insert(key, std::move(value));
  }
  std::optional<V> erase(const K& key) { return map_.erase(key); }

  std::optional<std::pair<K, V>> predecessor(const K& key) {
    return map_.predecessor(key);
  }
  std::optional<std::pair<K, V>> successor(const K& key) {
    return map_.successor(key);
  }
  std::uint64_t range_count(const K& lo, const K& hi) {
    return map_.range_count(lo, hi);
  }

  /// Recency depth passthrough for working-set point maps (Iacono).
  template <typename PM = PointMap>
    requires core::HasRecencyDepth<PM, K>
  std::optional<std::size_t> segment_of(const K& key) const {
    return map_.segment_of(key);
  }

  /// Deep-validation passthrough ("" = sound). The deduced return type
  /// makes MapBackend's check see through to the point map's validator.
  auto validate() const { return map_.validate(); }

  /// Sorted drain for the checkpoint writer (store/snapshot.hpp):
  /// collects via the point map's for_each, then sorts by key (the
  /// working-set point maps yield in recency order, not key order).
  void export_entries(std::vector<std::pair<K, V>>& out) const {
    const std::size_t first = out.size();
    out.reserve(first + map_.size());
    map_.for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  PointMap& inner() { return map_; }
  const PointMap& inner() const { return map_; }

 private:
  PointMap map_;
};

template <typename K, typename V>
using BatchedSplay = Batched<K, V, SplayTree<K, V>>;
template <typename K, typename V>
using BatchedAvl = Batched<K, V, AvlMap<K, V>>;
template <typename K, typename V>
using BatchedIacono = Batched<K, V, IaconoMap<K, V>>;
template <typename K, typename V>
using BatchedLocked = Batched<K, V, LockedMap<K, V>>;

static_assert(core::MapBackend<BatchedSplay<int, int>, int, int>);
static_assert(core::MapBackend<BatchedAvl<int, int>, int, int>);
static_assert(core::MapBackend<BatchedIacono<int, int>, int, int>);
static_assert(core::MapBackend<BatchedLocked<int, int>, int, int>);

}  // namespace pwss::baseline
