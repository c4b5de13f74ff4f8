#pragma once
// Iacono's working-set structure [29]: a sequence of balanced trees
// t_1, t_2, ... where t_i holds 2^(2^i) items, maintaining the invariant
// that the r most recently accessed items live in the first O(log log r)
// trees. An access found in t_k moves the item to the front of t_1 and
// demotes one least-recently-used item from each of t_1..t_{k-1} to the
// next tree. Every operation on an item with recency r costs O(log r + 1).
//
// Used both as the sequential baseline for E8 and as the dictionary inside
// ESort (Definition 29), whose entropy bound (Theorem 30) depends on
// exactly this working-set property.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/segment.hpp"
#include "util/validate.hpp"

namespace pwss::baseline {

template <typename K, typename V>
class IaconoMap {
 public:
  using Item = typename core::Segment<K, V>::Item;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  /// Search with the working-set move-to-front: promotes the found item to
  /// the most recent position. Returns a pointer to the value (stable until
  /// the next operation), or nullptr.
  V* search(const K& key) {
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      auto item = segments_[k].extract(key);
      if (!item) continue;
      promote_to_front(std::move(*item));
      rebalance_after_promotion(k);
      return segments_[0].peek(key);
    }
    return nullptr;
  }

  /// Search without self-adjustment (for tests and read-only probes).
  const V* peek(const K& key) const {
    for (const auto& seg : segments_) {
      if (const V* v = seg.peek(key)) return v;
    }
    return nullptr;
  }

  /// Inserts (or overwrites) a key; the item becomes the most recent.
  /// Returns true iff newly inserted.
  bool insert(const K& key, V value) {
    // Overwrite in place counts as an access.
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      auto item = segments_[k].extract(key);
      if (!item) continue;
      item->value = std::move(value);
      promote_to_front(std::move(*item));
      rebalance_after_promotion(k);
      return false;
    }
    promote_to_front(Item{key, std::move(value), 0});
    ++size_;
    rebalance_after_promotion(segments_.size() - 1);
    return true;
  }

  /// Removes a key; holes are filled by pulling the most recent item of
  /// each later segment forward (the working-set structure's deletion
  /// repair). Returns the removed value.
  std::optional<V> erase(const K& key) {
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      auto item = segments_[k].extract(key);
      if (!item) continue;
      --size_;
      for (std::size_t i = k; i + 1 < segments_.size(); ++i) {
        auto pulled = segments_[i + 1].extract_most_recent();
        if (!pulled) break;
        segments_[i].insert_back(std::move(*pulled));
      }
      while (!segments_.empty() && segments_.back().empty()) {
        segments_.pop_back();
      }
      return std::move(item->value);
    }
    return std::nullopt;
  }

  // ---- ordered queries (protocol v2; read-only, no promotion) ------------

  /// Greatest (key, value) strictly below `key`, across all segments.
  std::optional<std::pair<K, V>> predecessor(const K& key) const {
    return ordered_pair(ordered(core::OpType::kPredecessor, key, key));
  }

  /// Least (key, value) strictly above `key`, across all segments.
  std::optional<std::pair<K, V>> successor(const K& key) const {
    return ordered_pair(ordered(core::OpType::kSuccessor, key, key));
  }

  /// Number of keys in the inclusive range [lo, hi].
  std::uint64_t range_count(const K& lo, const K& hi) const {
    return ordered(core::OpType::kRangeCount, lo, hi).count;
  }

  /// Segments in order; each segment's contents sorted by key. Used by
  /// ESort's merge phase and by invariant checks.
  const std::vector<core::Segment<K, V>>& segments() const {
    return segments_;
  }

  /// Every (key, value) across all segments, no order guarantee — the
  /// checkpoint export sorts after collecting.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& seg : segments_) {
      seg.for_each([&](const K& k, const V& v, std::uint64_t) { fn(k, v); });
    }
  }

  /// Segment index currently holding `key` (recency depth), or nullopt.
  std::optional<std::size_t> segment_of(const K& key) const {
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (segments_[k].peek(key)) return k;
    }
    return std::nullopt;
  }

  /// Deep validation: every segment structurally sound, all segments full
  /// to capacity except possibly the last. Empty string = OK.
  std::string validate() const {
    util::Validator v("iacono: ");
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      const std::size_t held = segments_[k].size();
      const auto cap = core::segment_capacity(k);
      if (!v.absorb(segments_[k].validate(), "segment[", k, "]: ") ||
          !v.require(held <= cap, "segment[", k, "] holds ", held,
                     " items, over its capacity ", cap) ||
          !v.require(k + 1 == segments_.size() || held == cap, "segment[",
                     k, "] holds ", held,
                     " items but only the last segment may be partial")) {
        break;
      }
    }
    return std::move(v).take();
  }

 private:
  core::Result<V, K> ordered(core::OpType type, const K& key,
                             const K& key2) const {
    return core::ordered_query_over<K, V>(type, key, key2, [&](auto&& fn) {
      for (const auto& seg : segments_) fn(seg);
    });
  }

  void promote_to_front(Item item) {
    if (segments_.empty()) segments_.emplace_back();
    segments_[0].insert_front(std::move(item));
  }

  /// After inserting at the front, cascade demotions: any over-full segment
  /// among S[0..k] demotes its least recent item to the next segment.
  void rebalance_after_promotion(std::size_t touched) {
    for (std::size_t i = 0; i <= touched && i < segments_.size(); ++i) {
      if (segments_[i].size() <= core::segment_capacity(i)) break;
      auto demoted = segments_[i].extract_least_recent();
      if (i + 1 == segments_.size()) segments_.emplace_back();
      segments_[i + 1].insert_front(std::move(*demoted));
    }
    // An over-full last segment can cascade past `touched`.
    while (!segments_.empty() &&
           segments_.back().size() >
               core::segment_capacity(segments_.size() - 1)) {
      auto demoted = segments_.back().extract_least_recent();
      segments_.emplace_back();
      segments_.back().insert_front(std::move(*demoted));
    }
  }

  std::vector<core::Segment<K, V>> segments_;
  std::size_t size_ = 0;
};

}  // namespace pwss::baseline
