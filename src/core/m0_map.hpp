#pragma once
// M0 — the amortized sequential working-set map of Section 5. Like
// Iacono's structure it keeps segments S[0..l] with |S[k]| = 2^(2^k), every
// segment full except possibly the last; unlike Iacono it localizes the
// self-adjustment:
//   * a search hit in S[k] (k > 0) moves the item only to the front of
//     S[k-1] (not all the way to S[0]), and the least recent item of
//     S[k-1] is shifted back to the front of S[k];
//   * an insertion goes to the *back* of the last segment;
//   * a deletion pulls the most recent item of each later segment back by
//     one segment to refill the hole.
// Theorem 7: the total cost satisfies the working-set bound. This localized
// scheme is exactly what M2 pipelines, so M0 doubles as the reference
// implementation ("model") in M1/M2 equivalence tests.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/future.hpp"
#include "core/ladder.hpp"
#include "core/ops.hpp"
#include "core/segment.hpp"
#include "util/validate.hpp"

namespace pwss::core {

template <typename K, typename V>
class M0Map : public MapCalls<M0Map<K, V>, K, V> {
 public:
  using Item = typename Segment<K, V>::Item;

  /// Sequential map: a single-shard pool domain (no scheduler). The pools
  /// live behind a unique_ptr so the map stays movable (AsyncMap takes it
  /// by value) without invalidating the segments' pool pointers.
  M0Map() : pools_(std::make_unique<SegmentPools<K, V>>(nullptr)) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  /// Sorted drain of the full contents for the checkpoint writer
  /// (store/snapshot.hpp): appends every (key, value) in ascending key
  /// order. Recency stamps are NOT exported — a restored map starts with
  /// a fresh working set (documented in DESIGN.md "Durability").
  void export_entries(std::vector<std::pair<K, V>>& out) const {
    out.reserve(out.size() + size_);
    export_ladder<K, V>(segments_, out);
  }

  /// Search with self-adjustment. Returns the value if found.
  std::optional<V> search(const K& key) {
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      // Overlap S[k+1]'s probe with S[k]'s: segment order is static, so
      // the next candidate's entry lines can be requested early.
      if (k + 1 < segments_.size()) segments_[k + 1].prefetch();
      auto item = segments_[k].extract(key);
      if (!item) continue;
      probes_.note_hit(k);
      V result = item->value;
      if (k == 0) {
        segments_[0].insert_front(std::move(*item));
      } else {
        // Promote by one segment; the least recent item of S[k-1] swaps
        // back to the *front* of S[k] (it is more recent, in the abstract
        // list R, than everything already in S[k]).
        auto demoted = segments_[k - 1].extract_least_recent();
        segments_[k - 1].insert_front(std::move(*item));
        if (demoted) segments_[k].insert_front(std::move(*demoted));
      }
      return result;
    }
    probes_.note_miss();
    return std::nullopt;
  }

  /// Read-only lookup (no self-adjustment).
  const V* peek(const K& key) const {
    for (const auto& seg : segments_) {
      if (const V* v = seg.peek(key)) return v;
    }
    return nullptr;
  }

  /// Per-depth accounting of self-adjusting searches (hits bucketed by the
  /// segment that answered, misses counted separately). Single-owner, like
  /// every other M0 operation.
  const ProbeDepthCounts& probe_depth_counts() const noexcept {
    return probes_;
  }
  void reset_probe_depth_counts() noexcept { probes_.reset(); }

  /// Insert at the back of the last segment; an existing key is treated as
  /// an update-access (M1's rule, Section 6.1). Returns true iff new.
  bool insert(const K& key, V value) {
    if (depth_of<K, V>(segments_, key)) {
      // Update = access: run the search promotion, then overwrite.
      search(key);
      overwrite(key, std::move(value));
      return false;
    }
    if (segments_.empty()) segments_.emplace_back(pools_.get());
    std::size_t last = segments_.size() - 1;
    if (segments_[last].size() >= segment_capacity(last)) {
      segments_.emplace_back(pools_.get());
      ++last;
    }
    segments_[last].insert_back(Item{key, std::move(value), 0});
    ++size_;
    return true;
  }

  /// Deletion with hole repair: the most recent item of each later segment
  /// moves to the back of the previous one. Returns the removed value.
  std::optional<V> erase(const K& key) {
    auto item = erase_with_hole_repair<K, V>(segments_, key);
    if (!item) return std::nullopt;
    --size_;
    return std::move(item->value);
  }

  // ---- ordered queries (protocol v2; read-only, no recency effect) -------

  /// Greatest (key, value) strictly below `key`, across all segments.
  std::optional<std::pair<K, V>> predecessor(const K& key) const {
    return ordered_pair(ordered(OpType::kPredecessor, key, key));
  }

  /// Least (key, value) strictly above `key`, across all segments.
  std::optional<std::pair<K, V>> successor(const K& key) const {
    return ordered_pair(ordered(OpType::kSuccessor, key, key));
  }

  /// Number of keys in the inclusive range [lo, hi].
  std::uint64_t range_count(const K& lo, const K& hi) const {
    return ordered(OpType::kRangeCount, lo, hi).count;
  }

  /// Executes a batch sequentially (reference semantics for M1/M2 tests),
  /// results into a caller-owned buffer whose capacity is reused across
  /// batches (cleared first).
  void execute_batch(std::span<const Op<K, V>> ops,
                     std::vector<Result<V, K>>& results) {
    results.clear();
    results.reserve(ops.size());
    for (const auto& op : ops) results.push_back(apply_point(*this, op));
  }
  using MapCalls<M0Map, K, V>::execute_batch;

  /// One op through the point calls above.
  Result<V, K> run_blocking(const Op<K, V>& op) {
    return apply_point(*this, op);
  }

  /// Index of the segment currently holding `key` (for rank-invariant
  /// tests), or nullopt.
  std::optional<std::size_t> segment_of(const K& key) const {
    return depth_of<K, V>(segments_, key);
  }

  const std::vector<Segment<K, V>>& segments() const { return segments_; }

  /// Deep structural check with a precise failure description: every
  /// segment's own invariants, the doubly-exponential capacity bound, the
  /// all-full-except-last occupancy rule, the size_ accounting, and the
  /// pool-domain accounting (every tree-represented segment holds exactly
  /// one node per item, and nothing else draws from this instance's
  /// pool). Empty string = OK.
  std::string validate() const {
    util::Validator v("m0: ");
    auto occupancy = [&](std::size_t k) {
      return full_except_last<K, V>(v, segments_, k);
    };
    validate_ladder<K, V>(v, segments_, size_, pools_.get(), occupancy);
    return std::move(v).take();
  }

 private:
  Result<V, K> ordered(OpType type, const K& key, const K& key2) const {
    return ordered_query_over<K, V>(segments_, type, key, key2);
  }

  void overwrite(const K& key, V value) {
    for (auto& seg : segments_) {
      if (V* v = seg.peek(key)) {
        *v = std::move(value);
        return;
      }
    }
  }

  // Pool domain first: segments (declared after) die before their pools.
  std::unique_ptr<SegmentPools<K, V>> pools_;
  std::vector<Segment<K, V>> segments_;
  std::size_t size_ = 0;
  ProbeDepthCounts probes_;
};

static_assert(MapBackend<M0Map<int, int>, int, int>);

}  // namespace pwss::core
