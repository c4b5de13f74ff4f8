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
    const std::size_t first = out.size();
    out.reserve(first + size_);
    for (const auto& seg : segments_) {
      seg.for_each([&](const K& k, const V& v, std::uint64_t) {
        out.emplace_back(k, v);
      });
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
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
          ordered_phase(ops, b, e, results);
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
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (segments_[k].peek(key)) return k;
    }
    return std::nullopt;
  }

  /// Deep structural check with a precise failure description: every
  /// segment's own invariants, the size_ accounting, the restore-capacity
  /// prefix rule (each capacity prefix is full until the items run out),
  /// and the pool-domain accounting (one node per item in a
  /// tree-represented segment, its recency links checked by the segment).
  /// Empty string = OK.
  std::string validate() const {
    util::Validator v("m1: ");
    std::size_t total = 0;
    std::uint64_t tree_items = 0;
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (!v.absorb(segments_[k].validate(), "segment[", k, "]: ")) {
        return std::move(v).take();
      }
      total += segments_[k].size();
      if (!segments_[k].is_flat()) tree_items += segments_[k].size();
    }
    if (!v.require(total == size_, "size accounting broken: segments hold ",
                   total, " items but size_=", size_)) {
      return std::move(v).take();
    }
    std::size_t cum = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      cum += segments_[i].size();
      const std::size_t cap_prefix = capacity_prefix(i + 1);
      if (!v.require(cum == std::min<std::size_t>(size_, cap_prefix) ||
                         (cum == size_ && segments_[i].size() > 0),
                     "prefix occupancy rule broken at segment ", i,
                     ": prefix holds ", cum, " items, expected min(size_=",
                     size_, ", capacity prefix ", cap_prefix, ")")) {
        return std::move(v).take();
      }
    }
    v.absorb(pools_->validate(tree_items));
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

  /// One ordered phase [begin, end): read-only queries against the current
  /// (phase-quiescent) segment state. Duplicate queries combine the same
  /// way duplicate point operations do: identical (type, key, key2) tuples
  /// are answered once and the answer fanned out, and the distinct
  /// representatives are answered in parallel when a scheduler is present
  /// (per-segment trees allow concurrent reads).
  void ordered_phase(std::span<const Op<K, V>> ops, std::size_t begin,
                     std::size_t end, std::vector<Result<V, K>>& results) {
    auto& idx = scratch_.ordered_idx;
    idx.clear();
    idx.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) idx.push_back(i);
    auto same = [&](std::size_t a, std::size_t b) {
      return ops[a].type == ops[b].type && ops[a].key == ops[b].key &&
             ops[a].key2 == ops[b].key2;
    };
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (ops[a].type != ops[b].type) return ops[a].type < ops[b].type;
      if (ops[a].key != ops[b].key) return ops[a].key < ops[b].key;
      return ops[a].key2 < ops[b].key2;
    });
    auto& reps = scratch_.ordered_reps;
    reps.clear();
    for (std::size_t r = 0; r < idx.size(); ++r) {
      if (r == 0 || !same(idx[r - 1], idx[r])) reps.push_back(idx[r]);
    }

    auto answer = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const Op<K, V>& op = ops[reps[r]];
        results[reps[r]] = ordered_query_over<K, V>(
            op.type, op.key, op.key2, [&](auto&& fn) {
              for (const auto& seg : segments_) fn(seg);
            });
      }
    };
    constexpr std::size_t kGrain = 64;
    if (scheduler_ != nullptr && reps.size() > kGrain) {
      if (!scheduler_->on_worker()) {
        scheduler_->run_sync([&] {
          scheduler_->parallel_for(0, reps.size(), kGrain, answer);
        });
      } else {
        scheduler_->parallel_for(0, reps.size(), kGrain, answer);
      }
    } else {
      answer(0, reps.size());
    }

    // Fan the representative answers out to their duplicates.
    std::size_t rep = 0;
    for (std::size_t r = 0; r < idx.size(); ++r) {
      if (r > 0 && !same(idx[r - 1], idx[r])) ++rep;
      if (idx[r] != reps[rep]) results[idx[r]] = results[reps[rep]];
    }
  }

  static std::size_t capacity_prefix(std::size_t count) {
    std::size_t cum = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t c = segment_capacity(j);
      if (c > (~std::size_t{0}) - cum) return ~std::size_t{0};
      cum += static_cast<std::size_t>(c);
    }
    return cum;
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
    auto& keys = scratch_.keys;
    auto& found = scratch_.found;
    auto& to_promote = scratch_.promote;
    for (std::size_t k = 0; k < segments_.size() && !pending.empty(); ++k) {
      // Overlap memory latency: request S[k+1]'s entry lines (flat arrays
      // or tree root) while this iteration chews on S[k]. The sweep
      // order is static, so the prefetch is never wasted on a mispredicted
      // target — at worst the batch resolves before reaching S[k+1].
      if (k + 1 < segments_.size()) segments_[k + 1].prefetch();
      // Batch-extract the groups' keys from S[k].
      keys.clear();
      keys.reserve(pending.size());
      for (const auto& g : pending) keys.push_back(g.key);
      segments_[k].extract_by_keys(keys, found, ctx_, &scratch_.seg);

      // found is key-sorted, as is pending: walk them together.
      unfinished.clear();
      to_promote.clear();  // successful searches/updates
      std::size_t fi = 0;
      for (const auto& g : pending) {
        if (fi < found.size() && found[fi].key == g.key) {
          probes_.note_hit(k);
          Item item = std::move(found[fi++]);
          std::optional<V> fin = resolve_ops<K, V, std::size_t>(
              std::move(item.value), ops_of(g), emit);
          if (fin) {
            item.value = std::move(*fin);
            to_promote.push_back(std::move(item));  // keeps S[k] stamp order
          }
          // Net deletion: item stays removed; group finished.
        } else {
          unfinished.push_back(g);
        }
      }

      // Shift found items to the front of the previous segment, keeping
      // their relative (recency) order.
      if (!to_promote.empty()) {
        const std::size_t dest = k == 0 ? 0 : k - 1;
        segments_[dest].insert_front_batch(std::span<Item>(to_promote), ctx_,
                                           &scratch_.seg);
      }
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
    while (!segments_.empty() && segments_.back().empty()) {
      segments_.pop_back();
    }
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
  /// i = upto down to 1: transfer between the back of S[i-1] and the front
  /// of S[i] until the prefix is exactly at capacity or S[i] is empty.
  void restore_capacity(std::size_t upto) {
    size_ = recompute_size();  // group resolution may have deleted items
    upto = std::min(upto, segments_.empty() ? 0 : segments_.size() - 1);
    auto& moved = scratch_.moved;
    for (std::size_t i = upto; i >= 1; --i) {
      const std::size_t target = capacity_prefix(i);
      std::size_t prefix = 0;
      for (std::size_t j = 0; j < i; ++j) prefix += segments_[j].size();
      if (prefix > target) {
        // Demote the excess: back of S[i-1] -> front of S[i].
        segments_[i - 1].extract_least_recent(prefix - target, moved, ctx_,
                                              &scratch_.seg);
        segments_[i].insert_front_batch(std::span<Item>(moved), ctx_,
                                        &scratch_.seg);
      } else if (prefix < target) {
        // Pull forward: front of S[i] -> back of S[i-1].
        const std::size_t want = target - prefix;
        segments_[i].extract_most_recent(std::min(want, segments_[i].size()),
                                         moved, ctx_, &scratch_.seg);
        segments_[i - 1].insert_back_batch(std::span<Item>(moved), ctx_,
                                           &scratch_.seg);
      }
    }
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
