#pragma once
// M1 — the simple batched parallel working-set map (Section 6).
//
// A batch is processed as:
//   1. parallel-entropy-sort the batch by key (stable: per-key program
//      order preserved) and coalesce duplicate keys into group-operations;
//   2. sweep the segments S[0]..S[l]: at S[k], batch-extract the groups'
//      keys; groups that find their item resolve there (successful
//      searches/updates shift to the front of S[k-1], net deletions remove
//      the item); then the capacity invariant of S[0..k-1] is restored by
//      transfers across segment boundaries; unfinished groups continue;
//   3. groups that reach the end unfound resolve against an absent item;
//      their net insertions append at the back of the last segment,
//      overflowing into newly created segments.
//
// Theorems 12/13: total work O(W_L + e_L log p), span
// O(N/p + d((log p)^2 + log n)). This class is the synchronous batch core;
// the implicit-batching front end (parallel buffer + feed buffer of
// p^2-sized bunches, cut batches of ceil(log n / p) bunches) lives in
// core/async_map.hpp.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/group.hpp"
#include "core/ladder.hpp"
#include "core/ops.hpp"
#include "core/scratch.hpp"
#include "core/segment.hpp"
#include "sched/scheduler.hpp"
#include "sort/pesort.hpp"
#include "tree/jtree.hpp"
#include "util/validate.hpp"

namespace pwss::core {

template <typename K, typename V>
class M1Map {
 public:
  /// scheduler may be null for a fully sequential map (used in tests to
  /// differentiate logic bugs from concurrency bugs).
  explicit M1Map(sched::Scheduler* scheduler = nullptr)
      : pools_(std::make_unique<SegmentPools<K, V>>(scheduler)),
        scheduler_(scheduler) {
    ctx_.scheduler = scheduler;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  /// Sorted drain of the full contents for the checkpoint writer
  /// (store/snapshot.hpp): appends every (key, value) in ascending key
  /// order. Callable only between batches (the driver quiesces first);
  /// recency stamps are not exported — a restored map starts with a
  /// fresh working set.
  void export_entries(std::vector<std::pair<K, V>>& out) const {
    out.reserve(out.size() + size_);
    export_ladder<K, V>(segments_, out);
  }

  /// Executes one batch; results returned in submission order. Operations
  /// on the same key take effect in submission order; operations on
  /// different keys commute (they are on distinct items). Ordered kinds do
  /// NOT commute with mutations on other keys, so the batch is sliced into
  /// maximal point/ordered phases executed in submission order: every
  /// ordered query observes exactly the point operations that precede it.
  /// The result is a legal linearization of the batch (Definition 8)
  /// matching a sequential replay in submission order.
  std::vector<Result<V, K>> execute_batch(std::span<const Op<K, V>> ops) {
    std::vector<Result<V, K>> results;
    execute_batch(ops, results);
    return results;
  }

  /// Same batch, results into a caller-owned buffer (cleared, then sized
  /// to the batch): a steady stream of batches reuses the results
  /// capacity the same way it reuses the instance arena.
  void execute_batch(std::span<const Op<K, V>> ops,
                     std::vector<Result<V, K>>& results) {
    results.clear();
    results.resize(ops.size());
    for_each_phase(
        ops,
        [&](std::size_t b, std::size_t e) { point_phase(ops, b, e, results); },
        [&](std::size_t b, std::size_t e) {
          // Read-only queries against the phase-quiescent segments.
          answer_ordered<K, V>(segments_, ops.subspan(b, e - b),
                               scratch_.ordered, scheduler_,
                               [&](std::size_t i, const Result<V, K>& r) {
                                 results[b + i] = r;
                               });
        });
  }

  /// Convenience point ops (each a singleton batch on the caller's stack —
  /// no per-op vector) — for tests/examples and the driver's step path.
  std::optional<V> search(const K& key) {
    const Op<K, V> one[1] = {Op<K, V>::search(key)};
    return execute_batch(std::span<const Op<K, V>>(one))[0].value;
  }
  bool insert(const K& key, V value) {
    const Op<K, V> one[1] = {Op<K, V>::insert(key, std::move(value))};
    return execute_batch(std::span<const Op<K, V>>(one))[0].success();
  }
  std::optional<V> erase(const K& key) {
    const Op<K, V> one[1] = {Op<K, V>::erase(key)};
    return execute_batch(std::span<const Op<K, V>>(one))[0].value;
  }

  std::vector<Result<V, K>> execute_batch(const std::vector<Op<K, V>>& ops) {
    return execute_batch(std::span<const Op<K, V>>(ops));
  }

  /// Per-depth accounting of batch group resolution (one hit per group
  /// resolved at S[k], one miss per group whose key was absent
  /// everywhere). Owned by the batch path's single owner — plain
  /// counters, same contract as the instance arena.
  const ProbeDepthCounts& probe_depth_counts() const noexcept {
    return probes_;
  }
  void reset_probe_depth_counts() noexcept { probes_.reset(); }

  /// Segment index holding `key` (for invariant tests).
  std::optional<std::size_t> segment_of(const K& key) const {
    return depth_of<K, V>(segments_, key);
  }

  /// Deep structural check with a precise failure description: every
  /// segment's own invariants, the size_ accounting, the restore-capacity
  /// prefix rule (each capacity prefix is full until the items run out),
  /// and the pool-domain accounting (one node per item in a
  /// tree-represented segment, its recency links checked by the segment).
  /// Empty string = OK.
  std::string validate() const {
    util::Validator v("m1: ");
    std::size_t cum = 0;
    auto prefix_rule = [&](std::size_t i) {
      cum += segments_[i].size();
      const std::size_t cap_prefix = capacity_prefix(i + 1);
      return v.require(cum == std::min(size_, cap_prefix) ||
                           (cum == size_ && segments_[i].size() > 0),
                       "prefix occupancy rule broken at segment ", i,
                       ": prefix holds ", cum, " items, expected min(size_=",
                       size_, ", capacity prefix ", cap_prefix, ")");
    };
    validate_ladder<K, V>(v, segments_, size_, pools_.get(), prefix_rule);
    return std::move(v).take();
  }

 private:
  using Item = typename Segment<K, V>::Item;

  /// One point phase [begin, end): tag with result indices, entropy-sort
  /// by key, coalesce, sweep — all through the instance arena, so a steady
  /// stream of batches reuses capacity.
  void point_phase(std::span<const Op<K, V>> ops, std::size_t begin,
                   std::size_t end, std::vector<Result<V, K>>& results) {
    auto& tagged = scratch_.tagged;
    tagged.clear();
    tagged.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      tagged.push_back({ops[i].type, ops[i].key, ops[i].value, K{}, i});
    }
    sort::pesort(
        tagged, [](const PendingOp<K, V, std::size_t>& p) { return p.key; },
        scheduler_, {}, &scratch_.sort);
    coalesce_sorted_index(std::span<const PendingOp<K, V, std::size_t>>(tagged),
                          scratch_.pending);
    process_groups(results);
  }

  /// Ops of one index group within the sorted batch.
  std::span<const PendingOp<K, V, std::size_t>> ops_of(
      const IndexGroup<K>& g) const {
    return std::span<const PendingOp<K, V, std::size_t>>(scratch_.tagged)
        .subspan(g.begin, g.end - g.begin);
  }

  /// Processes scratch_.pending (the coalesced batch) against the segment
  /// sweep; every temporary lives in the instance arena. Groups are index
  /// ranges into scratch_.tagged — 16 bytes each, no per-group list.
  void process_groups(std::vector<Result<V, K>>& results) {
    auto emit = [&](std::size_t idx, Result<V, K> r) {
      results[idx] = std::move(r);
    };

    auto& pending = scratch_.pending;
    auto& unfinished = scratch_.unfinished;
    for (std::size_t k = 0; k < segments_.size() && !pending.empty(); ++k) {
      // Overlap memory latency: request S[k+1]'s entry lines (flat arrays
      // or tree root) while this iteration chews on S[k]. The sweep
      // order is static, so the prefetch is never wasted on a mispredicted
      // target — at worst the batch resolves before reaching S[k+1].
      if (k + 1 < segments_.size()) segments_[k + 1].prefetch();
      // Found groups resolve here; a net deletion leaves its item removed.
      unfinished.clear();
      sweep_segment<K, V>(segments_, k, pending, unfinished, scratch_, ctx_,
                          [&](const IndexGroup<K>& g, V value) {
                            probes_.note_hit(k);
                            return resolve_ops<K, V, std::size_t>(
                                std::move(value), ops_of(g), emit);
                          });
      restore_capacity(k);
      std::swap(pending, unfinished);
    }

    // Groups whose keys are absent everywhere.
    auto& to_insert = scratch_.promote;
    to_insert.clear();
    for (const auto& g : pending) {
      probes_.note_miss();
      std::optional<V> fin =
          resolve_ops<K, V, std::size_t>(std::nullopt, ops_of(g), emit);
      if (fin) {
        // M0's rule: each insertion goes *behind* the previous one, so an
        // earlier batch position is more recent. The inverted batch index
        // is restamped at insertion but preserves that relative order.
        to_insert.push_back(
            Item{g.key, std::move(*fin), ~scratch_.tagged[g.begin].target});
      }
    }
    pending.clear();
    append_new_items(to_insert);
    restore_capacity(segments_.size());
    pop_empty_tail(segments_);
  }

  /// Appends fresh items (consumed in place) at the back of the last
  /// segment, creating new segments for overflow (Section 6.1's final
  /// insertion step).
  void append_new_items(std::vector<Item>& items) {
    if (items.empty()) return;
    size_ += items.size();
    if (segments_.empty()) segments_.emplace_back(pools_.get());
    std::size_t last = segments_.size() - 1;
    segments_[last].insert_back_batch(std::span<Item>(items), ctx_,
                                      &scratch_.seg);
    // Carve overflow into new segments back-to-front.
    auto& spill = scratch_.moved;
    while (segments_[last].size() > segment_capacity(last)) {
      const std::size_t excess =
          segments_[last].size() -
          static_cast<std::size_t>(segment_capacity(last));
      segments_[last].extract_least_recent(excess, spill, ctx_, &scratch_.seg);
      segments_.emplace_back(pools_.get());
      ++last;
      segments_[last].insert_front_batch(std::span<Item>(spill), ctx_,
                                         &scratch_.seg);
    }
  }

  /// Restores the capacity invariant for prefixes S[0..i-1], boundaries
  /// i = upto down to 1 (restore_prefix_capacity).
  void restore_capacity(std::size_t upto) {
    size_ = recompute_size();  // group resolution may have deleted items
    restore_prefix_capacity<K, V>(segments_, upto, scratch_, ctx_);
  }

  std::size_t recompute_size() const {
    std::size_t total = 0;
    for (const auto& seg : segments_) total += seg.size();
    return total;
  }

  // Pool domain first: segments (declared after) die before their pools.
  // unique_ptr keeps the domain's address stable across M1Map moves
  // (AsyncMap takes the backend by value).
  std::unique_ptr<SegmentPools<K, V>> pools_;
  std::vector<Segment<K, V>> segments_;
  sched::Scheduler* scheduler_;
  tree::ParCtx ctx_;
  std::size_t size_ = 0;
  // Per-instance batch arena; safe because execute_batch has a single
  // owner (the AsyncMap front end). Never shared across instances.
  BatchScratch<K, V, std::size_t> scratch_;
  ProbeDepthCounts probes_;
};

static_assert(MapBackend<M1Map<int, int>, int, int>);

}  // namespace pwss::core
