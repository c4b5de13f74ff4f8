#pragma once
// The segment ladder S[0..l], |S[k]| = 2^(2^k), that M0 (Section 5), M1
// (Section 6), M2 (Section 7) and Iacono's structure all keep. The maps
// differ only in how an operation walks the ladder; the walks they share
// live here, as free functions over a span of segments, so each map keeps
// only its own occupancy invariant:
//   * M0 and Iacono: every segment full except possibly the last
//     (full_except_last);
//   * M1: every capacity prefix full until the items run out;
//   * M2: Lemma 16's lenient bound |S[k]| <= 3·2^(2^k) on the final slab.
// M1's point-phase walk (walk_point_phase) lives here too: M1 runs every
// batch through it, M2 every bulk batch (under its full lock chain).
// Callers name <K, V> explicitly so a std::vector of segments converts to
// the span parameter.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/group.hpp"
#include "core/ops.hpp"
#include "core/segment.hpp"
#include "sched/scheduler.hpp"
#include "sort/parallel_primitives.hpp"
#include "util/validate.hpp"

namespace pwss::core {

/// The buffers one runner needs to sweep the ladder: keys probed (one
/// segment's key window of the pending groups), items
/// found, items shifting forward, capacity-repair transfers and the
/// segments' own scratch. Used by one runner at a time (the BatchScratch
/// of M1 or M2's interface, or one M2 stage).
template <typename K, typename V>
struct SweepScratch {
  std::vector<K> keys;
  std::vector<SegmentItem<K, V>> found;
  std::vector<SegmentItem<K, V>> promote;  // bound for an earlier front
  std::vector<SegmentItem<K, V>> moved;    // capacity-repair transfers
  SegmentScratch<K, V> seg;
};

/// Capacity of the prefix S[0..count-1], saturated so it never overflows.
inline std::size_t capacity_prefix(std::size_t count) noexcept {
  std::size_t cum = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t c = segment_capacity(j);
    if (c > (~std::size_t{0}) - cum) return ~std::size_t{0};
    cum += static_cast<std::size_t>(c);
  }
  return cum;
}

/// The depth walk: index of the segment holding `key`, or nullopt.
template <typename K, typename V>
std::optional<std::size_t> depth_of(std::span<const Segment<K, V>> segs,
                                    const K& key) {
  for (std::size_t k = 0; k < segs.size(); ++k) {
    if (segs[k].peek(key)) return k;
  }
  return std::nullopt;
}

/// Visits every (key, value) on the ladder, segment by segment.
template <typename K, typename V, typename Fn>
void for_each_entry(std::span<const Segment<K, V>> segs, Fn&& fn) {
  for (const auto& seg : segs) seg.for_each(fn);
}

/// The export walk behind export_entries (store/snapshot.hpp's checkpoint
/// drain): appends every (key, value) to `out` in ascending key order.
/// Recency stamps are not exported — a restored map starts with a fresh
/// working set (DESIGN.md "Durability").
template <typename K, typename V>
void export_ladder(std::span<const Segment<K, V>> segs,
                   std::vector<std::pair<K, V>>& out) {
  const std::size_t first = out.size();
  for_each_entry<K, V>(segs, [&](const K& k, const V& v) {
    out.emplace_back(k, v);
  });
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

/// One segment of a batch sweep (Section 6.1; M2's first slab) over the
/// key-sorted `pending` groups. Only the window of groups whose keys lie
/// within S[k]'s key bounds (inclusive) is probed: no other key can be in
/// S[k], so an empty segment or an empty window costs two binary searches
/// and no probe. A group that finds its item gets `resolve(g, value)`,
/// which returns the group's final value or nullopt for a net deletion;
/// surviving items shift to the front of S[k-1] (S[0] stays put) in access
/// order: `rank(g)` is the group's place in the batch, and a larger rank
/// lands nearer the front (DESIGN.md "The order of a sweep's hits"). Found
/// groups are compacted out of `pending` in place — except net deletions
/// when `keep_deletions` is set (M2's tagged deletions, which flow on) —
/// so it stays key-sorted.
template <typename K, typename V, typename Group, typename Rank,
          typename Resolve>
void sweep_segment(std::span<Segment<K, V>> segs, std::size_t k,
                   std::vector<Group>& pending, bool keep_deletions,
                   SweepScratch<K, V>& sc, const tree::ParCtx& ctx,
                   Rank&& rank, Resolve&& resolve) {
  const auto [least, greatest] = segs[k].key_bounds();
  if (least == nullptr) return;
  const auto lo = std::lower_bound(
      pending.begin(), pending.end(), *least,
      [](const Group& g, const K& key) { return g.key < key; });
  const auto hi = std::upper_bound(
      lo, pending.end(), *greatest,
      [](const K& key, const Group& g) { return key < g.key; });
  if (lo == hi) return;
  sc.keys.clear();
  for (auto g = lo; g != hi; ++g) sc.keys.push_back(g->key);
  segs[k].extract_by_keys(sc.keys, sc.found, ctx, &sc.seg);
  sc.promote.clear();
  std::size_t fi = 0;
  auto kept = lo;
  for (auto g = lo; g != hi; ++g) {
    if (fi < sc.found.size() && sc.found[fi].key == g->key) {
      auto& item = sc.found[fi++];
      if (std::optional<V> fin = resolve(*g, std::move(item.value))) {
        item.value = std::move(*fin);
        item.stamp = rank(*g);
        sc.promote.push_back(std::move(item));
        continue;
      }
      if (!keep_deletions) continue;
    }
    if (kept != g) *kept = std::move(*g);
    ++kept;
  }
  pending.erase(kept, hi);  // shifts the groups past the window down
  if (!sc.promote.empty()) {
    segs[k == 0 ? 0 : k - 1].insert_front_batch(std::span(sc.promote), ctx,
                                                &sc.seg);
  }
}

/// Prefix capacity repair: for boundaries i = upto down to 1 (clamped to
/// the ladder), transfers between the back of S[i-1] and the front of S[i]
/// until the prefix S[0..i-1] holds exactly capacity_prefix(i) items or
/// S[i] runs dry.
template <typename K, typename V>
void restore_prefix_capacity(std::span<Segment<K, V>> segs, std::size_t upto,
                             SweepScratch<K, V>& sc, const tree::ParCtx& ctx) {
  upto = std::min(upto, segs.empty() ? 0 : segs.size() - 1);
  for (std::size_t i = upto; i >= 1; --i) {
    const std::size_t target = capacity_prefix(i);
    std::size_t prefix = 0;
    for (std::size_t j = 0; j < i; ++j) prefix += segs[j].size();
    if (prefix > target) {
      // Demote the excess: back of S[i-1] -> front of S[i].
      segs[i - 1].extract_least_recent(prefix - target, sc.moved, ctx,
                                       &sc.seg);
      segs[i].insert_front_batch(std::span(sc.moved), ctx, &sc.seg);
    } else if (prefix < target) {
      // Pull forward: front of S[i] -> back of S[i-1].
      segs[i].extract_most_recent(std::min(target - prefix, segs[i].size()),
                                  sc.moved, ctx, &sc.seg);
      segs[i - 1].insert_back_batch(std::span(sc.moved), ctx, &sc.seg);
    }
  }
}

/// Drops the empty segments at the end of the ladder.
template <typename K, typename V>
void pop_empty_tail(std::vector<Segment<K, V>>& segs) {
  while (!segs.empty() && segs.back().empty()) segs.pop_back();
}

/// Deletion with hole repair: removes `key`, then the most recent item of
/// each later segment moves to the back of the previous one and the
/// emptied tail is popped. Returns the removed item, or nullopt.
template <typename K, typename V>
std::optional<SegmentItem<K, V>> erase_with_hole_repair(
    std::vector<Segment<K, V>>& segs, const K& key) {
  for (std::size_t k = 0; k < segs.size(); ++k) {
    auto item = segs[k].extract(key);
    if (!item) continue;
    for (std::size_t i = k; i + 1 < segs.size(); ++i) {
      auto pulled = segs[i + 1].extract_most_recent();
      if (!pulled) break;
      segs[i].insert_back(std::move(*pulled));
    }
    pop_empty_tail(segs);
    return item;
  }
  return std::nullopt;
}

/// M0's and Iacono's occupancy rule for S[k]: within capacity, and full
/// unless it is the last segment.
template <typename K, typename V>
bool full_except_last(util::Validator& v, std::span<const Segment<K, V>> segs,
                      std::size_t k) {
  const std::size_t held = segs[k].size();
  const std::uint64_t cap = segment_capacity(k);
  return v.require(held <= cap, "segment[", k, "] holds ", held,
                   " items, over its capacity ", cap) &&
         v.require(k + 1 == segs.size() || held == cap, "segment[", k,
                   "] holds ", held, " items but only the last segment may "
                   "be partial (capacity ", cap, ")");
}

/// The deep-check walk shared by the maps' validate(): every segment's own
/// invariants, then the map's occupancy rule `rule(k)` (which reports
/// through `v`), the size accounting, and — when the map has a pool domain
/// — one pool node per item held in a tree-represented segment. Returns
/// false at the first failure, recorded in `v`.
template <typename K, typename V, typename Rule>
bool validate_ladder(util::Validator& v, std::span<const Segment<K, V>> segs,
                     std::size_t size, const SegmentPools<K, V>* pools,
                     Rule&& rule) {
  std::size_t total = 0;
  std::size_t tree_items = 0;
  for (std::size_t k = 0; k < segs.size(); ++k) {
    if (!v.absorb(segs[k].validate(), "segment[", k, "]: ") || !rule(k)) {
      return false;
    }
    total += segs[k].size();
    if (!segs[k].is_flat()) tree_items += segs[k].size();
  }
  if (!v.require(total == size, "size accounting broken: segments hold ",
                 total, " items but size_=", size)) {
    return false;
  }
  if (pools == nullptr) return true;
  const auto& pool = pools->node_pool;
  return v.require(pool.live_nodes() == tree_items,
                   "node-pool accounting broken: ", pool.live_nodes(),
                   " live nodes but ", tree_items,
                   " items live in tree-represented segments") &&
         v.absorb(pool.validate(), "node-pool: ");
}

/// Answers one read-only ordered query (kPredecessor / kSuccessor /
/// kRangeCount) against the union of the ladder's segments. A key lives in
/// exactly one segment, so predecessor is the max of per-segment
/// predecessors, successor the min of per-segment successors, and
/// range-count the sum of per-segment counts.
template <typename K, typename V>
Result<V, K> ordered_query_over(std::span<const Segment<K, V>> segs,
                                OpType type, const K& key, const K& key2) {
  Result<V, K> r;
  if (type == OpType::kRangeCount) {
    std::uint64_t total = 0;
    for (const auto& seg : segs) total += seg.range_count(key, key2);
    r.status = ResultStatus::kFound;
    r.count = total;
    return r;
  }
  const K* best_key = nullptr;
  const V* best_value = nullptr;
  for (const auto& seg : segs) {
    auto [k, v] = type == OpType::kPredecessor ? seg.predecessor(key)
                                               : seg.successor(key);
    if (k == nullptr) continue;
    const bool better =
        best_key == nullptr ||
        (type == OpType::kPredecessor ? *best_key < *k : *k < *best_key);
    if (better) {
      best_key = k;
      best_value = v;
    }
  }
  if (best_key != nullptr) {
    r.status = ResultStatus::kFound;
    r.matched_key = *best_key;
    r.value = *best_value;
  }
  return r;
}

/// Reusable buffers of answer_ordered, owned by one single-owner runner.
template <typename K, typename V>
struct OrderedScratch {
  std::vector<std::size_t> idx;       // queries sorted by (type, key, key2)
  std::vector<std::size_t> reps;      // one query per distinct tuple
  std::vector<Result<V, K>> answers;  // parallel to reps
};

/// Answers a phase of ordered queries (any Q with type, key and key2
/// members) against the quiescent ladder. Identical (type, key, key2)
/// tuples combine the way duplicate point operations do: each distinct
/// tuple is answered once — in parallel on `scheduler` when there are more
/// than 64 of them (per-segment trees allow concurrent reads) — and
/// `deliver(i, answer)` then hands query i its answer, one call per query
/// on the calling thread.
template <typename K, typename V, typename Q, typename Deliver>
void answer_ordered(std::span<const Segment<K, V>> segs,
                    std::span<const Q> queries, OrderedScratch<K, V>& sc,
                    sched::Scheduler* scheduler, Deliver&& deliver) {
  auto& idx = sc.idx;
  idx.clear();
  for (std::size_t i = 0; i < queries.size(); ++i) idx.push_back(i);
  auto same = [&](std::size_t a, std::size_t b) {
    return queries[a].type == queries[b].type &&
           queries[a].key == queries[b].key &&
           queries[a].key2 == queries[b].key2;
  };
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const Q& x = queries[a];
    const Q& y = queries[b];
    if (x.type != y.type) return x.type < y.type;
    if (x.key != y.key) return x.key < y.key;
    return x.key2 < y.key2;
  });
  auto& reps = sc.reps;
  reps.clear();
  for (std::size_t r = 0; r < idx.size(); ++r) {
    if (r == 0 || !same(idx[r - 1], idx[r])) reps.push_back(idx[r]);
  }
  sc.answers.resize(reps.size());

  auto answer = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const Q& q = queries[reps[r]];
      sc.answers[r] = ordered_query_over<K, V>(segs, q.type, q.key, q.key2);
    }
  };
  constexpr std::size_t kGrain = 64;
  if (scheduler != nullptr && reps.size() > kGrain) {
    if (!scheduler->on_worker()) {
      scheduler->run_sync(
          [&] { scheduler->parallel_for(0, reps.size(), kGrain, answer); });
    } else {
      scheduler->parallel_for(0, reps.size(), kGrain, answer);
    }
  } else {
    answer(0, reps.size());
  }

  std::size_t rep = 0;
  for (std::size_t r = 0; r < idx.size(); ++r) {
    if (r > 0 && !same(idx[r - 1], idx[r])) ++rep;
    deliver(idx[r], sc.answers[rep]);
  }
}

/// One op of a chunk being sorted: its key and its position in the chunk.
/// The merge passes move these 16-B pairs (for a u64 key), not the ops.
template <typename K>
struct KeyPos {
  K key;
  std::uint32_t pos;
};

/// Stable merge sort of `v` by key, with `buf` as the second merge buffer
/// (resized, so a reused buffer keeps its capacity): insertion-sorted
/// runs of 16, then bottom-up merge passes that alternate between the two.
template <typename K>
void stable_sort_by_key(std::vector<KeyPos<K>>& v,
                        std::vector<KeyPos<K>>& buf) {
  constexpr std::size_t kRun = 16;
  const std::size_t n = v.size();
  auto less = [](const KeyPos<K>& a, const KeyPos<K>& b) {
    return a.key < b.key;
  };
  for (std::size_t b = 0; b < n; b += kRun) {
    sort::insertion_sort(std::span(v).subspan(b, std::min(kRun, n - b)),
                         [](const KeyPos<K>& kp) -> const K& { return kp.key; });
  }
  buf.resize(n);
  KeyPos<K>* src = v.data();
  KeyPos<K>* dst = buf.data();
  for (std::size_t w = kRun; w < n; w *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * w) {
      const std::size_t mid = std::min(lo + w, n);
      const std::size_t hi = std::min(lo + 2 * w, n);
      // std::merge takes the first range's element on ties: stable.
      std::merge(std::make_move_iterator(src + lo),
                 std::make_move_iterator(src + mid),
                 std::make_move_iterator(src + mid),
                 std::make_move_iterator(src + hi), dst + lo, less);
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::move(src, src + n, v.data());
}

/// sort_chunk's buffers for inputs past kInPlaceSortMax: (key, position)
/// pairs, their merge buffer, and the gathered ops. Each map keeps its own.
template <typename K, typename V, typename Target>
struct ChunkSortScratch {
  std::vector<KeyPos<K>> order;
  std::vector<KeyPos<K>> order_buf;
  std::vector<PendingOp<K, V, Target>> gathered;
};

/// Out-of-order inputs of at most this many ops are insertion-sorted in
/// place; longer ones take the (key, position) merge sort and a gather.
/// Measured on 48-B PendingOps with random keys (EXPERIMENTS.md "One cut
/// sort for both maps"): in place won by 2.9-4.4 ns/op up to 64 ops in
/// every run, and the pairs won from 112 ops.
inline constexpr std::size_t kInPlaceSortMax = 64;

/// The one sort of a cut or a walk chunk (either map): a stable sort by
/// key, so same-key ops keep their order in `ops` — arrival order, which
/// is per-key submission order (Definition 8). An input already in key
/// order (one pass checks) is left alone. Inputs are at most kBatchChunk
/// walk ops or one M2 cut, so this is O(b log b) comparisons per input
/// (DESIGN.md section 8, simplification 8).
template <typename K, typename V, typename Target>
void sort_chunk(std::vector<PendingOp<K, V, Target>>& ops,
                ChunkSortScratch<K, V, Target>& sc) {
  using Op = PendingOp<K, V, Target>;
  auto key_of = [](const Op& op) -> const K& { return op.key; };
  if (std::is_sorted(ops.begin(), ops.end(),
                     [](const Op& a, const Op& b) { return a.key < b.key; })) {
    return;
  }
  if (ops.size() <= kInPlaceSortMax) {
    sort::insertion_sort(std::span<Op>(ops), key_of);
    return;
  }
  assert(ops.size() <= 0xffffffffu && "input exceeds KeyPos positions");
  sc.order.clear();
  sc.order.reserve(ops.size());
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    sc.order.push_back({ops[i].key, i});
  }
  stable_sort_by_key(sc.order, sc.order_buf);
  sc.gathered.clear();
  sc.gathered.reserve(ops.size());
  for (const auto& kp : sc.order) sc.gathered.push_back(std::move(ops[kp.pos]));
  ops.swap(sc.gathered);
}

/// The per-instance arena of the point-phase walk (DESIGN.md "Allocation
/// discipline"): the sweep buffers plus the tagged, sorted and coalesced
/// chunk, and the ordered-phase combining buffers. One per M1 instance and
/// one for M2's interface, used under that owner's single-owner contract,
/// so a steady stream of batches reuses capacity instead of reallocating.
template <typename K, typename V>
struct BatchScratch : SweepScratch<K, V> {
  using Tagged = PendingOp<K, V, std::size_t>;

  /// The current chunk, tagged with source indices, then sorted by (key,
  /// index). Groups reference it by position, so it stays unmoved for the
  /// chunk once sorted.
  std::vector<Tagged> tagged;
  /// sort_chunk's buffers.
  ChunkSortScratch<K, V, std::size_t> sort;
  /// Coalesced index groups still looking for their item; each sweep step
  /// compacts its finds out in place.
  std::vector<IndexGroup<K>> pending;
  /// Ordered-phase duplicate combining (answer_ordered).
  OrderedScratch<K, V> ordered;

  /// Drops everything the arena holds (capacity included); handy in tests.
  void release() { *this = BatchScratch(); }
};

/// The most ops one walk_point_phase pass sorts and sweeps: a longer phase
/// walks in chunks, so the arena stays one chunk wide. Not a tuning knob:
/// glibc keeps a freed large scratch resident. An m1 driver loading 2^20
/// keys in Driver::run batches of 1,024 / 4,096 / 16,384 / 65,536 ops
/// (4-vCPU Linux container) grew RSS by 73.3 / 74.5 / 79.1 / 97.5 B/key
/// unchunked and 73.3 / 74.5 / 75.5 / 79.6 B/key with this chunk, and the
/// 65,536-op load took 0.49-0.56 s unchunked, 0.39-0.43 s chunked.
inline constexpr std::size_t kBatchChunk = 4096;

/// M1's point phase (Section 6.1) over the ladder's first `live` segments,
/// for source ops [0, n) taken kBatchChunk at a time. Per chunk:
/// `fill(b, e, tagged)` appends the ops of [b, e) it admits, tagged with
/// their source index (an earlier index = earlier arrival), in ascending
/// index order; sort_chunk puts them in (key, index) order, so per-key
/// order holds, and they are coalesced; each depth k sweeps the groups
/// within S[k]'s key window (none, for a chunk wholly outside S[k]'s key
/// range, as in a key-ordered load) and repairs the prefixes up to it,
/// skipped segment or not; groups missing everywhere resolve
/// against an absent item and their net insertions go to the back of the
/// last segment, overflow carved into fresh segments (`segs` grows,
/// drawing on `pools`, only past its end); a final repair restores the
/// whole prefix rule. Results go out as `emit(index, result)`; `probes`
/// (nullable) counts hits per depth and misses, in ops. Returns the new
/// live count: the segments past it are empty.
template <typename K, typename V, typename Fill, typename Emit>
std::size_t walk_point_phase(std::vector<Segment<K, V>>& segs,
                             std::size_t live, SegmentPools<K, V>* pools,
                             std::size_t n, Fill&& fill,
                             BatchScratch<K, V>& sc, const tree::ParCtx& ctx,
                             Emit&& emit, ProbeDepthCounts* probes) {
  using Tagged = PendingOp<K, V, std::size_t>;
  auto& tagged = sc.tagged;
  for (std::size_t b = 0; b < n; b += kBatchChunk) {
    tagged.clear();
    fill(b, std::min(n, b + kBatchChunk), tagged);
    assert(std::adjacent_find(tagged.begin(), tagged.end(),
                              [](const Tagged& a, const Tagged& b) {
                                return !(a.target < b.target);
                              }) == tagged.end() &&
           "fill must tag ascending source indices");
    sort_chunk(tagged, sc.sort);
    coalesce_sorted_index(std::span<const Tagged>(tagged), sc.pending);
    auto ops_of = [&](const IndexGroup<K>& g) {
      return std::span<const Tagged>(tagged).subspan(g.begin, g.end - g.begin);
    };

    const std::span<Segment<K, V>> ladder(segs.data(), live);
    for (std::size_t k = 0; k < live && !sc.pending.empty(); ++k) {
      // Overlap memory latency: the sweep order is static, so S[k+1]'s
      // entry lines are never fetched for a mispredicted target.
      if (k + 1 < live) segs[k + 1].prefetch();
      // Found groups resolve here and leave sc.pending; a net deletion
      // leaves its item removed. Hits link in the order of each group's
      // last access.
      sweep_segment<K, V>(ladder, k, sc.pending, /*keep_deletions=*/false, sc,
                          ctx,
                          [&](const IndexGroup<K>& g) {
                            return std::uint64_t{tagged[g.end - 1].target};
                          },
                          [&](const IndexGroup<K>& g, V value) {
                            if (probes != nullptr) {
                              probes->note_hit(k, g.end - g.begin);
                            }
                            return resolve_ops<K, V, std::size_t>(
                                std::move(value), ops_of(g), emit);
                          });
      restore_prefix_capacity<K, V>(ladder, k, sc, ctx);
    }

    // Groups whose keys are absent everywhere.
    auto& fresh = sc.promote;
    fresh.clear();
    for (const auto& g : sc.pending) {
      if (probes != nullptr) probes->note_miss(g.end - g.begin);
      if (std::optional<V> fin =
              resolve_ops<K, V, std::size_t>(std::nullopt, ops_of(g), emit)) {
        // M0's rule: each insertion goes *behind* the previous one, so an
        // earlier source index is more recent. The inverted index is
        // restamped at insertion but preserves that relative order.
        fresh.push_back(
            SegmentItem<K, V>{g.key, std::move(*fin), ~tagged[g.begin].target});
      }
    }
    sc.pending.clear();
    if (!fresh.empty()) {
      if (live == 0) live = 1;
      if (segs.size() < live) segs.emplace_back(pools);
      std::size_t last = live - 1;
      segs[last].insert_back_batch(std::span(fresh), ctx, &sc.seg);
      while (segs[last].size() > segment_capacity(last)) {
        const auto cap = static_cast<std::size_t>(segment_capacity(last));
        segs[last].extract_least_recent(segs[last].size() - cap, sc.moved,
                                        ctx, &sc.seg);
        if (++last == segs.size()) segs.emplace_back(pools);
        segs[last].insert_front_batch(std::span(sc.moved), ctx, &sc.seg);
      }
      live = last + 1;
    }
    restore_prefix_capacity<K, V>(std::span(segs.data(), live), live, sc, ctx);
    while (live > 0 && segs[live - 1].empty()) --live;
  }
  return live;
}

}  // namespace pwss::core
