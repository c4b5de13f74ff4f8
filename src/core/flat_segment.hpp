#pragma once
// FlatSegment — the branchless sorted-array representation for the *front*
// segments of a working-set structure. The doubly-exponential sizing makes
// S[0..2] tiny (2/4/16 items), yet they absorb almost every probe under
// working-set-friendly workloads; paying a pointer-chasing JTree descent
// per probe there is pure constant-factor waste. This layout keeps a small
// segment as two parallel arrays:
//
//   keys_    : sorted, contiguous — probes are a branchless binary search
//              over one or two cache lines, no pointer chasing;
//   entries_ : (value, stamp) pairs parallel to keys_ — recency queries are
//              linear min/max scans, batch recency extraction a partial
//              selection over at most kFlatSegmentMax elements.
//
// Point inserts/erases memmove the tail — O(n) with n <= kFlatSegmentMax,
// cheaper than a tree rebalance at these sizes and allocation-free once the
// arrays are reserved (one reservation per segment, ever).
//
// core::Segment dispatches between this layout (size <= kFlatSegmentMax,
// i.e. depth k <= 2 plus M2's 3x slack on S[2]) and the linked JTree (deep
// segments); the promote/demote machinery lives in segment.hpp.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/prefetch.hpp"
#include "util/validate.hpp"

namespace pwss::core {

/// One item of a segment: the key, its value, and a recency stamp (larger =
/// more recent). Shared by both segment representations: a flat segment
/// stores the stamp; a tree segment reads an arriving batch's stamps only
/// as an order and keeps that order in its recency list.
template <typename K, typename V>
struct SegmentItem {
  K key;
  V value;
  std::uint64_t stamp;
};

/// Occupancy bound for the flat representation: covers S[0]/S[1]/S[2]
/// (2 + 4 + 16 by the doubly-exponential sizing) including M2's transient
/// 3x2^(2^k) slack on S[2] (48), with headroom so batch arrivals rarely
/// force a spill. S[3] (256) always takes the tree representation.
inline constexpr std::size_t kFlatSegmentMax = 64;

/// Hysteresis bound: a tree-represented segment converts back to flat only
/// once it shrinks to half the flat capacity, so a segment oscillating
/// around kFlatSegmentMax does not thrash between representations.
inline constexpr std::size_t kFlatSegmentDemote = kFlatSegmentMax / 2;

template <typename K, typename V>
class FlatSegment {
 public:
  using Entry = std::pair<V, std::uint64_t>;  // (value, stamp)
  using Item = SegmentItem<K, V>;

  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }

  /// Drops every item; keeps the arrays' capacity (a demoted segment
  /// re-fills without touching the heap).
  void clear() noexcept {
    keys_.clear();
    entries_.clear();
  }

  /// One-time reservation: the flat arrays never grow past
  /// kFlatSegmentMax, so after this no flat operation allocates.
  void ensure_capacity() {
    if (keys_.capacity() < kFlatSegmentMax) keys_.reserve(kFlatSegmentMax);
    if (entries_.capacity() < kFlatSegmentMax) {
      entries_.reserve(kFlatSegmentMax);
    }
  }

  /// Pulls the segment's header lines toward the cache (used by the batch
  /// sweeps to overlap the next segment's probe with the current one).
  void prefetch() const noexcept {
    util::prefetch_read(keys_.data());
    util::prefetch_read(entries_.data());
  }

  // ---- probes ------------------------------------------------------------

  /// First index i with keys_[i] >= key (branchless: the mask-advance
  /// form — a ternary here compiles to a real conditional jump on gcc,
  /// which mispredicts ~50% per halving on random probe streams).
  std::size_t lower_bound_idx(const K& key) const {
    const K* base = keys_.data();
    std::size_t n = keys_.size();
    if (n == 0) return 0;
    while (n > 1) {
      const std::size_t half = n / 2;
      base += (0 - static_cast<std::size_t>(base[half - 1] < key)) & half;
      n -= half;
    }
    return static_cast<std::size_t>(base - keys_.data()) +
           static_cast<std::size_t>(*base < key);
  }

  /// Index of `key`, or size() when absent.
  std::size_t find_idx(const K& key) const {
    const std::size_t i = lower_bound_idx(key);
    return i < keys_.size() && !(key < keys_[i]) ? i : keys_.size();
  }

  const V* peek(const K& key) const {
    const std::size_t i = find_idx(key);
    return i < keys_.size() ? &entries_[i].first : nullptr;
  }

  /// Greatest key strictly below `key`, as {&key, &value}; nulls if none.
  std::pair<const K*, const V*> predecessor(const K& key) const {
    const std::size_t i = lower_bound_idx(key);
    if (i == 0) return {nullptr, nullptr};
    return {&keys_[i - 1], &entries_[i - 1].first};
  }

  /// Least key strictly above `key`; nulls if none.
  std::pair<const K*, const V*> successor(const K& key) const {
    std::size_t i = lower_bound_idx(key);
    if (i < keys_.size() && !(key < keys_[i])) ++i;  // skip an exact match
    if (i >= keys_.size()) return {nullptr, nullptr};
    return {&keys_[i], &entries_[i].first};
  }

  /// Number of keys in the inclusive range [lo, hi] (0 when hi < lo).
  std::size_t range_count(const K& lo, const K& hi) const {
    if (hi < lo) return 0;
    std::size_t ub = lower_bound_idx(hi);
    if (ub < keys_.size() && !(hi < keys_[ub])) ++ub;
    return ub - lower_bound_idx(lo);
  }

  // ---- point mutation ----------------------------------------------------

  /// Inserts an item whose key is absent (asserted). The caller has
  /// already assigned the stamp.
  void insert(Item item) {
    assert(keys_.size() < kFlatSegmentMax && "flat segment over capacity");
    ensure_capacity();
    const std::size_t i = lower_bound_idx(item.key);
    assert((i == keys_.size() || item.key < keys_[i]) &&
           "flat segment keys must be distinct");
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i),
                 std::move(item.key));
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                    Entry{std::move(item.value), item.stamp});
  }

  /// Removes `key` if present.
  std::optional<Item> extract(const K& key) {
    const std::size_t i = find_idx(key);
    if (i == keys_.size()) return std::nullopt;
    Item out = take_at(i);
    erase_at(i);
    return out;
  }

  // ---- recency -----------------------------------------------------------

  std::size_t least_recent_idx() const noexcept {
    assert(!empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].second < entries_[best].second) best = i;
    }
    return best;
  }

  std::size_t most_recent_idx() const noexcept {
    assert(!empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[best].second < entries_[i].second) best = i;
    }
    return best;
  }

  const K& key_at(std::size_t i) const noexcept { return keys_[i]; }

  Item extract_at(std::size_t i) {
    Item out = take_at(i);
    erase_at(i);
    return out;
  }

  // ---- batched operations ------------------------------------------------

  /// Merges `items` (sorted by key, distinct, disjoint from the present
  /// keys) in one backward pass; values are moved out of the span.
  void merge_insert(std::span<Item> items) {
    if (items.empty()) return;
    const std::size_t old_n = keys_.size();
    const std::size_t add = items.size();
    assert(old_n + add <= kFlatSegmentMax && "flat merge over capacity");
    ensure_capacity();
    keys_.resize(old_n + add);
    entries_.resize(old_n + add);
    std::size_t i = old_n;  // old elements left to place
    std::size_t j = add;    // new elements left to place
    std::size_t w = old_n + add;
    while (j > 0) {
      if (i > 0 && items[j - 1].key < keys_[i - 1]) {
        --w;
        --i;
        keys_[w] = std::move(keys_[i]);
        entries_[w] = std::move(entries_[i]);
      } else {
        --w;
        --j;
        assert((i == 0 || keys_[i - 1] < items[j].key) &&
               "flat segment keys must be distinct");
        keys_[w] = std::move(items[j].key);
        entries_[w] = Entry{std::move(items[j].value), items[j].stamp};
      }
    }
  }

  /// Removes every present key of `keys` (sorted, distinct); appends the
  /// removed items to `out` in key order and compacts in place. One
  /// two-pointer pass — both sequences are sorted.
  void extract_by_keys(std::span<const K> keys, std::vector<Item>& out) {
    if (keys.empty() || keys_.empty()) return;
    std::size_t w = 0;  // write cursor into the surviving prefix
    std::size_t j = 0;  // cursor into the probe keys
    const std::size_t n = keys_.size();
    for (std::size_t r = 0; r < n; ++r) {
      while (j < keys.size() && keys[j] < keys_[r]) ++j;
      if (j < keys.size() && !(keys_[r] < keys[j])) {
        out.push_back(take_at(r));
        ++j;
        continue;
      }
      if (w != r) {
        keys_[w] = std::move(keys_[r]);
        entries_[w] = std::move(entries_[r]);
      }
      ++w;
    }
    keys_.resize(w);
    entries_.resize(w);
  }

  /// Removes the `c` least-recent (least=true) or most-recent items into
  /// `out` (appended in key order) and compacts. Selection runs over an
  /// on-stack index array — never allocates.
  void extract_by_recency(std::size_t c, bool least, std::vector<Item>& out) {
    const std::size_t n = keys_.size();
    c = std::min(c, n);
    if (c == 0) return;
    std::array<std::uint32_t, kFlatSegmentMax> idx;
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
    const auto by_stamp = [&](std::uint32_t a, std::uint32_t b) {
      return least ? entries_[a].second < entries_[b].second
                   : entries_[b].second < entries_[a].second;
    };
    std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(c),
                      idx.begin() + static_cast<std::ptrdiff_t>(n), by_stamp);
    // Ascending index = ascending key (keys_ is sorted).
    std::sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(c));
    for (std::size_t i = 0; i < c; ++i) out.push_back(take_at(idx[i]));
    // Compact the survivors in one pass.
    std::size_t w = idx[0];
    std::size_t next_removed = 0;
    for (std::size_t r = idx[0]; r < n; ++r) {
      if (next_removed < c && idx[next_removed] == r) {
        ++next_removed;
        continue;
      }
      keys_[w] = std::move(keys_[r]);
      entries_[w] = std::move(entries_[r]);
      ++w;
    }
    keys_.resize(w);
    entries_.resize(w);
  }

  /// In-order (by key) visit of (key, value, stamp).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i], entries_[i].first, entries_[i].second);
    }
  }

  /// Moves every item out in key order as sink(key, value, stamp), leaving
  /// the segment empty. Used when promoting to the tree representation.
  template <typename Sink>
  void drain_sorted(Sink&& sink) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      sink(std::move(keys_[i]), std::move(entries_[i].first),
           entries_[i].second);
    }
    clear();
  }

  /// Deep representation check with a precise failure description:
  /// parallel arrays in lockstep, occupancy within kFlatSegmentMax, and
  /// keys strictly ascending. Empty string = OK. Requires K streamable.
  std::string validate() const {
    util::Validator v("flat_segment: ");
    if (!v.require(keys_.size() == entries_.size(),
                   "parallel arrays diverged: ", keys_.size(), " keys vs ",
                   entries_.size(), " entries")) {
      return std::move(v).take();
    }
    if (!v.require(keys_.size() <= kFlatSegmentMax, "over capacity: ",
                   keys_.size(), " items > kFlatSegmentMax=",
                   kFlatSegmentMax)) {
      return std::move(v).take();
    }
    for (std::size_t i = 1; i < keys_.size(); ++i) {
      if (!v.require(keys_[i - 1] < keys_[i], "keys not strictly ascending: ",
                     "keys_[", i - 1, "]=", keys_[i - 1], " !< keys_[", i,
                     "]=", keys_[i])) {
        return std::move(v).take();
      }
    }
    return std::move(v).take();
  }

 private:
  Item take_at(std::size_t i) {
    return Item{std::move(keys_[i]), std::move(entries_[i].first),
                entries_[i].second};
  }

  void erase_at(std::size_t i) {
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  std::vector<K> keys_;        // sorted ascending, distinct
  std::vector<Entry> entries_; // parallel (value, stamp)
};

}  // namespace pwss::core
