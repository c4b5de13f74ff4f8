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

#include "core/ladder.hpp"
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
      move_to_front(std::move(*item));
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
      move_to_front(std::move(*item));
      return false;
    }
    move_to_front(Item{key, std::move(value), 0});
    ++size_;
    return true;
  }

  /// Removes a key; holes are filled by pulling the most recent item of
  /// each later segment forward (the working-set structure's deletion
  /// repair). Returns the removed value.
  std::optional<V> erase(const K& key) {
    auto item = core::erase_with_hole_repair<K, V>(segments_, key);
    if (!item) return std::nullopt;
    --size_;
    return std::move(item->value);
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
    core::for_each_entry<K, V>(segments_, fn);
  }

  /// Segment index currently holding `key` (recency depth), or nullopt.
  std::optional<std::size_t> segment_of(const K& key) const {
    return core::depth_of<K, V>(segments_, key);
  }

  /// Deep validation: every segment structurally sound, all segments full
  /// to capacity except possibly the last, and the size accounting.
  /// Empty string = OK.
  std::string validate() const {
    util::Validator v("iacono: ");
    auto occupancy = [&](std::size_t k) {
      return core::full_except_last<K, V>(v, segments_, k);
    };
    core::validate_ladder<K, V>(v, segments_, size_, nullptr, occupancy);
    return std::move(v).take();
  }

 private:
  core::Result<V, K> ordered(core::OpType type, const K& key,
                             const K& key2) const {
    return core::ordered_query_over<K, V>(segments_, type, key, key2);
  }

  /// Inserts `item` at the front of S[0], then cascades demotions: each
  /// over-full segment demotes its least recent item to the front of the
  /// next, growing the ladder past its end. The cascade stops at the
  /// segment the item came from (it regained the item it lost) or at a new
  /// last segment.
  void move_to_front(Item item) {
    if (segments_.empty()) segments_.emplace_back();
    segments_[0].insert_front(std::move(item));
    for (std::size_t i = 0; segments_[i].size() > core::segment_capacity(i);
         ++i) {
      auto demoted = segments_[i].extract_least_recent();
      if (i + 1 == segments_.size()) segments_.emplace_back();
      segments_[i + 1].insert_front(std::move(*demoted));
    }
  }

  std::vector<core::Segment<K, V>> segments_;
  std::size_t size_ = 0;
};

}  // namespace pwss::baseline
