#pragma once
// M1 — the simple batched parallel working-set map (Section 6).
//
// A batch's point phase is processed (walk_point_phase in core/ladder.hpp,
// shared with M2's bulk batches, at most kBatchChunk ops at a time) as:
//   1. sort the chunk by (key, submission index), so per-key program
//      order is preserved (a chunk already in key order is not sorted;
//      DESIGN.md Section-8 simplification 8), and coalesce duplicate keys
//      into group-operations;
//   2. sweep the segments S[0]..S[l]: at S[k], batch-extract the keys of
//      the groups inside S[k]'s key range (two binary searches over the
//      sorted groups; a segment whose range holds none is not probed);
//      groups that find their item resolve there (successful
//      searches/updates shift to the front of S[k-1], net deletions remove
//      the item) and leave the pending list in place; then the capacity
//      invariant of S[0..k-1] is restored by transfers across segment
//      boundaries, swept or not; unfinished groups continue;
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
#include "core/future.hpp"
#include "core/group.hpp"
#include "core/ladder.hpp"
#include "core/ops.hpp"
#include "core/segment.hpp"
#include "sched/scheduler.hpp"
#include "tree/jtree.hpp"
#include "util/validate.hpp"

namespace pwss::core {

template <typename K, typename V>
class M1Map : public MapCalls<M1Map<K, V>, K, V> {
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

  /// Executes one batch; results into a caller-owned buffer (cleared,
  /// then sized to the batch), in submission order, so a steady stream of
  /// batches reuses the results capacity the same way it reuses the
  /// instance arena. Operations on the same key take effect in submission
  /// order; operations on different keys commute (they are on distinct
  /// items). Ordered kinds do NOT commute with mutations on other keys, so
  /// the batch is sliced into maximal point/ordered phases executed in
  /// submission order: every ordered query observes exactly the point
  /// operations that precede it. The result is a legal linearization of
  /// the batch (Definition 8) matching a sequential replay in submission
  /// order.
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
  using MapCalls<M1Map, K, V>::execute_batch;

  /// One op as a singleton batch on the caller's stack (no per-op ops
  /// vector): the per-op calls for tests, examples and the driver's step
  /// path.
  Result<V, K> run_blocking(Op<K, V> op) {
    const Op<K, V> one[1] = {std::move(op)};
    return std::move(execute_batch(std::span<const Op<K, V>>(one))[0]);
  }

  /// Per-depth accounting of batch resolution, in ops: a group resolved
  /// at S[k] adds one hit per op, a group whose key was absent everywhere
  /// one miss per op. Owned by the batch path's single owner — plain
  /// counters, same contract as the instance arena.
  const ProbeDepthCounts& probe_depth_counts() const noexcept {
    return probes_;
  }
  void reset_probe_depth_counts() noexcept { probes_.reset(); }

  /// Segment index holding `key` (for invariant tests).
  std::optional<std::size_t> segment_of(const K& key) const {
    return depth_of<K, V>(segments_, key);
  }

  /// The ladder S[0..l], for inspection between batches.
  const std::vector<Segment<K, V>>& segments() const { return segments_; }

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
  /// One point phase [begin, end): the ladder walk (walk_point_phase)
  /// tags each chunk with result indices, sorts, coalesces and sweeps it
  /// through the instance arena, so a steady stream of batches reuses
  /// capacity.
  void point_phase(std::span<const Op<K, V>> ops, std::size_t begin,
                   std::size_t end, std::vector<Result<V, K>>& results) {
    auto fill = [&](std::size_t b, std::size_t e,
                    std::vector<PendingOp<K, V, std::size_t>>& tagged) {
      for (std::size_t i = begin + b; i < begin + e; ++i) {
        tagged.push_back({ops[i].type, ops[i].key, ops[i].value, K{}, i});
      }
    };
    walk_point_phase<K, V>(
        segments_, segments_.size(), pools_.get(), end - begin, fill, scratch_,
        ctx_,
        [&](std::size_t idx, Result<V, K>&& r) { results[idx] = std::move(r); },
        &probes_);
    pop_empty_tail(segments_);
    size_ = 0;
    for (const auto& seg : segments_) size_ += seg.size();
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
  BatchScratch<K, V> scratch_;
  ProbeDepthCounts probes_;
};

static_assert(MapBackend<M1Map<int, int>, int, int>);

}  // namespace pwss::core
