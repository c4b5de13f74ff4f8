#pragma once
// Coarse-grained concurrent baseline: a single mutex around the AVL map.
// This is the "software combining without the combining" strawman — every
// parallel caller serializes on the lock, so it bounds what a naive
// concurrent map achieves in E5/E8's multi-threaded comparisons.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "baseline/avl_map.hpp"

namespace pwss::baseline {

template <typename K, typename V>
class LockedMap {
 public:
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();
  }

  std::optional<V> search(const K& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.search(key);
  }

  bool insert(const K& key, V value) {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.insert(key, std::move(value));
  }

  std::optional<V> erase(const K& key) {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.erase(key);
  }

  // ---- ordered queries (protocol v2), serialized like everything else ----

  std::optional<std::pair<K, V>> predecessor(const K& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.predecessor(key);
  }

  std::optional<std::pair<K, V>> successor(const K& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.successor(key);
  }

  std::uint64_t range_count(const K& lo, const K& hi) const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.range_count(lo, hi);
  }

  /// In-order traversal over (key, value) with the lock held for the
  /// whole walk — the checkpoint export drains an atomic snapshot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<std::mutex> lk(mu_);
    map_.for_each(fn);
  }

  /// The AVL map's deep validator, run under the lock. Empty string = OK.
  std::string validate() const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.validate();
  }

 private:
  mutable std::mutex mu_;
  AvlMap<K, V> map_;
};

}  // namespace pwss::baseline
