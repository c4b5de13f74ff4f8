#pragma once
// Non-adjusting balanced-BST baseline: a thin point-operation facade over
// the join-based AVL tree. Every access costs Θ(log n) regardless of the
// access distribution — the comparator the working-set structures must beat
// under skew and roughly match under uniform access (experiment E8).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "tree/jtree.hpp"

namespace pwss::baseline {

template <typename K, typename V>
class AvlMap {
 public:
  std::size_t size() const noexcept { return tree_.size(); }
  bool empty() const noexcept { return tree_.empty(); }

  std::optional<V> search(const K& key) const {
    const V* v = tree_.find(key);
    if (!v) return std::nullopt;
    return *v;
  }

  bool insert(const K& key, V value) {
    return tree_.insert(key, std::move(value));
  }

  std::optional<V> erase(const K& key) { return tree_.erase(key); }

  // ---- ordered queries (protocol v2): direct tree passthroughs ----------

  std::optional<std::pair<K, V>> predecessor(const K& key) const {
    auto [k, v] = tree_.predecessor(key);
    if (k == nullptr) return std::nullopt;
    return std::pair<K, V>{*k, *v};
  }

  std::optional<std::pair<K, V>> successor(const K& key) const {
    auto [k, v] = tree_.successor(key);
    if (k == nullptr) return std::nullopt;
    return std::pair<K, V>{*k, *v};
  }

  std::uint64_t range_count(const K& lo, const K& hi) const {
    return tree_.range_count(lo, hi);
  }

  /// In-order traversal over (key, value) — the sorted-export surface the
  /// checkpoint writer drains through the batched adapter.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    tree_.for_each(fn);
  }

  /// The tree's deep validator. Empty string = OK.
  std::string validate() const { return tree_.validate(); }

 private:
  tree::JTree<K, V> tree_;
};

}  // namespace pwss::baseline
