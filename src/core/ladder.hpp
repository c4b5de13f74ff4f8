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
// Callers name <K, V> explicitly so a std::vector of segments converts to
// the span parameter.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"
#include "core/segment.hpp"
#include "sched/scheduler.hpp"
#include "util/validate.hpp"

namespace pwss::core {

/// The buffers one runner needs to walk the ladder: keys probed, items
/// found, items shifting forward, capacity-repair transfers and the
/// segments' own scratch. Used by one runner at a time (M1's instance
/// arena, M2's interface or one M2 stage).
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
  for (const auto& seg : segs) {
    seg.for_each([&](const K& k, const V& v, std::uint64_t) { fn(k, v); });
  }
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

/// One segment of a batch sweep (Section 6.1; M2's first slab): extracts
/// the key-sorted `pending` groups' keys from S[k]. A group that finds its
/// item gets `resolve(g, value)`, which returns the group's final value or
/// nullopt for a net deletion; surviving items shift to the front of
/// S[k-1] (S[0] stays put), keeping their S[k] recency order. Groups that
/// miss S[k] are appended to `unfinished`, still key-sorted.
template <typename K, typename V, typename Group, typename Resolve>
void sweep_segment(std::span<Segment<K, V>> segs, std::size_t k,
                   std::vector<Group>& pending, std::vector<Group>& unfinished,
                   SweepScratch<K, V>& sc, const tree::ParCtx& ctx,
                   Resolve&& resolve) {
  sc.keys.clear();
  for (const auto& g : pending) sc.keys.push_back(g.key);
  segs[k].extract_by_keys(sc.keys, sc.found, ctx, &sc.seg);
  sc.promote.clear();
  std::size_t fi = 0;
  for (auto& g : pending) {
    if (fi < sc.found.size() && sc.found[fi].key == g.key) {
      auto& item = sc.found[fi++];
      if (std::optional<V> fin = resolve(g, std::move(item.value))) {
        item.value = std::move(*fin);
        sc.promote.push_back(std::move(item));
      }
    } else {
      unfinished.push_back(std::move(g));
    }
  }
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

}  // namespace pwss::core
