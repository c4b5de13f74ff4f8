// Differential coverage for the two-representation segment: the flat
// (sorted-array) layout must be observationally identical to the pinned
// JTree layout through the entire Segment API, across the promote/demote
// boundary (kFlatSegmentMax / kFlatSegmentDemote), and both must agree
// with a std::map-based oracle on contents and recency order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/flat_segment.hpp"
#include "core/segment.hpp"
#include "util/rng.hpp"

namespace {

using pwss::core::kFlatSegmentDemote;
using pwss::core::kFlatSegmentMax;
using Seg = pwss::core::Segment<std::uint64_t, std::uint64_t>;
using Item = Seg::Item;

// ---- representation mechanics -------------------------------------------

TEST(FlatSegment, StartsFlatAndPromotesPastCapacity) {
  Seg seg;
  EXPECT_TRUE(seg.is_flat());
  for (std::uint64_t i = 0; i < kFlatSegmentMax; ++i) {
    seg.insert_front({i, i, 0});
  }
  EXPECT_TRUE(seg.is_flat());
  ASSERT_EQ(seg.validate(), "");
  seg.insert_front({kFlatSegmentMax, kFlatSegmentMax, 0});
  EXPECT_FALSE(seg.is_flat());
  ASSERT_EQ(seg.validate(), "");
  // Everything inserted before and after the promotion is visible.
  for (std::uint64_t i = 0; i <= kFlatSegmentMax; ++i) {
    ASSERT_NE(seg.peek(i), nullptr) << "key " << i;
    EXPECT_EQ(*seg.peek(i), i);
  }
}

TEST(FlatSegment, BatchInsertOverCapacityPromotes) {
  Seg seg;
  std::vector<Item> items;
  for (std::uint64_t i = 0; i < kFlatSegmentMax + 8; ++i) {
    items.push_back({i, i * 2, 0});
  }
  seg.insert_front_batch(std::span<Item>(items));
  EXPECT_FALSE(seg.is_flat());
  EXPECT_EQ(seg.size(), kFlatSegmentMax + 8);
  ASSERT_EQ(seg.validate(), "");
}

TEST(FlatSegment, DemotesWithHysteresisOnExtract) {
  Seg seg;
  for (std::uint64_t i = 0; i < kFlatSegmentMax + 16; ++i) {
    seg.insert_front({i, i, 0});
  }
  ASSERT_FALSE(seg.is_flat());
  // Extract down to just above the demote bound: still a tree.
  std::uint64_t next = kFlatSegmentMax + 15;
  while (seg.size() > kFlatSegmentDemote + 1) {
    ASSERT_TRUE(seg.extract(next--).has_value());
    EXPECT_FALSE(seg.is_flat());
  }
  // One more extract crosses the bound: back to flat.
  ASSERT_TRUE(seg.extract(next--).has_value());
  EXPECT_TRUE(seg.is_flat());
  ASSERT_EQ(seg.validate(), "");
  for (std::uint64_t i = 0; i <= next; ++i) {
    ASSERT_NE(seg.peek(i), nullptr) << "key " << i;
  }
}

TEST(FlatSegment, DebugForceTreePinsRepresentation) {
  Seg seg;
  seg.insert_front({1, 1, 0});
  seg.debug_force_tree();
  EXPECT_FALSE(seg.is_flat());
  ASSERT_TRUE(seg.extract(1).has_value());
  seg.insert_front({2, 2, 0});
  ASSERT_TRUE(seg.extract(2).has_value());
  EXPECT_FALSE(seg.is_flat());  // demotion disabled while pinned
  ASSERT_EQ(seg.validate(), "");
}

TEST(FlatSegment, RecencyStampsSurvivePromoteAndDemote) {
  Seg seg;
  for (std::uint64_t i = 0; i < kFlatSegmentMax + 1; ++i) {
    seg.insert_front({i, i, 0});  // promotes at the last insert
  }
  ASSERT_FALSE(seg.is_flat());
  // Oldest item was inserted first.
  ASSERT_TRUE(seg.least_recent_key().has_value());
  EXPECT_EQ(*seg.least_recent_key(), 0u);
  // Extract down to a flat segment; recency order must be intact.
  std::vector<Item> out;
  seg.extract_most_recent(kFlatSegmentMax + 1 - kFlatSegmentDemote, out);
  ASSERT_TRUE(seg.is_flat());
  ASSERT_TRUE(seg.least_recent_key().has_value());
  EXPECT_EQ(*seg.least_recent_key(), 0u);
  auto lr = seg.extract_least_recent();
  ASSERT_TRUE(lr.has_value());
  EXPECT_EQ(lr->key, 0u);
}

// ---- low-level FlatSegment checks ---------------------------------------

TEST(FlatSegmentRaw, BranchlessLowerBoundMatchesStd) {
  pwss::core::FlatSegment<std::uint64_t, std::uint64_t> flat;
  std::vector<std::uint64_t> keys;
  pwss::util::Xoshiro256 rng(3);
  std::set<std::uint64_t> used;
  for (std::size_t i = 0; i < kFlatSegmentMax; ++i) {
    std::uint64_t k = rng.bounded(1000);
    while (used.count(k)) k = rng.bounded(1000);
    used.insert(k);
  }
  std::uint64_t stamp = 0;
  for (std::uint64_t k : used) {
    flat.insert({k, k, stamp++});
    keys.push_back(k);
  }
  for (std::uint64_t probe = 0; probe <= 1001; ++probe) {
    const auto expect = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
    EXPECT_EQ(flat.lower_bound_idx(probe), expect) << "probe " << probe;
  }
}

TEST(FlatSegmentRaw, ExtractByRecencyPicksGlobalExtremes) {
  pwss::core::FlatSegment<std::uint64_t, std::uint64_t> flat;
  // Stamps deliberately not aligned with key order.
  const std::uint64_t stamps[] = {50, 10, 90, 30, 70};
  for (std::uint64_t i = 0; i < 5; ++i) flat.insert({i, i, stamps[i]});
  std::vector<pwss::core::SegmentItem<std::uint64_t, std::uint64_t>> out;
  flat.extract_by_recency(2, /*least=*/true, out);
  ASSERT_EQ(out.size(), 2u);
  // Least-recent two are stamps 10 (key 1) and 30 (key 3) — key order out.
  EXPECT_EQ(out[0].key, 1u);
  EXPECT_EQ(out[1].key, 3u);
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.validate(), "");
  out.clear();
  flat.extract_by_recency(1, /*least=*/false, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 2u);  // stamp 90
  EXPECT_EQ(flat.validate(), "");
}

// ---- differential fuzz ---------------------------------------------------

// Oracle mirroring Segment semantics: key -> (value, arrival counter); the
// counter stands in for recency (front arrivals count up, back arrivals
// count down from a mid origin — matching StampGen's two-sided scheme).
struct Oracle {
  std::map<std::uint64_t, std::pair<std::uint64_t, std::int64_t>> items;
  std::int64_t front_next = 1;
  std::int64_t back_next = -1;

  void insert_front(std::uint64_t k, std::uint64_t v) {
    items[k] = {v, front_next++};
  }
  void insert_back(std::uint64_t k, std::uint64_t v) {
    items[k] = {v, back_next--};
  }
  std::uint64_t least_recent() const {
    auto best = items.begin();
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (it->second.second < best->second.second) best = it;
    }
    return best->first;
  }
  std::uint64_t most_recent() const {
    auto best = items.begin();
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (it->second.second > best->second.second) best = it;
    }
    return best->first;
  }
  /// The `c` least (or most) recent keys, in key order.
  std::vector<std::uint64_t> recency_end(std::size_t c, bool least) const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> order;
    for (const auto& [k, ve] : items) order.emplace_back(ve.second, k);
    std::sort(order.begin(), order.end());
    if (!least) std::reverse(order.begin(), order.end());
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < std::min(c, order.size()); ++i) {
      keys.push_back(order[i].second);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }
};

// Drives the same random operation mix through a default (flat-capable)
// segment, a pinned-tree segment, and the oracle, with sizes oscillating
// across the 16 / kFlatSegmentDemote / kFlatSegmentMax boundaries so both
// promote and demote fire many times. Removals from both ends of the
// recency order (point and batched) interleave with extract_by_keys
// removals from its middle, so every way a tree segment unlinks a node
// from its recency list is checked against the oracle's order.
TEST(FlatSegmentFuzz, DifferentialAgainstPinnedTreeAndOracle) {
  Seg flat_seg;
  Seg tree_seg;
  tree_seg.debug_force_tree();
  Oracle oracle;
  pwss::util::Xoshiro256 rng(1234);
  const std::uint64_t kKeys = 3 * kFlatSegmentMax;

  std::size_t promotes_seen = 0;
  std::size_t demotes_seen = 0;
  bool was_flat = true;

  for (std::size_t step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.bounded(kKeys);
    switch (rng.bounded(12)) {
      case 0:
      case 1: {  // insert_front of an absent key
        if (oracle.items.count(key)) break;
        flat_seg.insert_front({key, key * 3, 0});
        tree_seg.insert_front({key, key * 3, 0});
        oracle.insert_front(key, key * 3);
        break;
      }
      case 2: {  // insert_back of an absent key
        if (oracle.items.count(key)) break;
        flat_seg.insert_back({key, key * 3, 0});
        tree_seg.insert_back({key, key * 3, 0});
        oracle.insert_back(key, key * 3);
        break;
      }
      case 3: {  // point extract
        auto a = flat_seg.extract(key);
        auto b = tree_seg.extract(key);
        ASSERT_EQ(a.has_value(), b.has_value());
        ASSERT_EQ(a.has_value(), oracle.items.count(key) == 1);
        if (a) {
          EXPECT_EQ(a->key, b->key);
          EXPECT_EQ(a->value, b->value);
          oracle.items.erase(key);
        }
        break;
      }
      case 4: {  // extract_least_recent (point)
        auto a = flat_seg.extract_least_recent();
        auto b = tree_seg.extract_least_recent();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          const std::uint64_t expect = oracle.least_recent();
          EXPECT_EQ(a->key, expect);
          EXPECT_EQ(b->key, expect);
          oracle.items.erase(expect);
        }
        break;
      }
      case 5: {  // batched extract_by_keys over a random key window
        std::vector<std::uint64_t> keys;
        const std::uint64_t lo = rng.bounded(kKeys);
        for (std::uint64_t k = lo; k < std::min<std::uint64_t>(lo + 24, kKeys);
             ++k) {
          keys.push_back(k);
        }
        std::vector<Item> out_a;
        std::vector<Item> out_b;
        flat_seg.extract_by_keys(keys, out_a);
        tree_seg.extract_by_keys(keys, out_b);
        ASSERT_EQ(out_a.size(), out_b.size());
        for (std::size_t i = 0; i < out_a.size(); ++i) {
          EXPECT_EQ(out_a[i].key, out_b[i].key);
          EXPECT_EQ(out_a[i].value, out_b[i].value);
          ASSERT_EQ(oracle.items.count(out_a[i].key), 1u);
          oracle.items.erase(out_a[i].key);
        }
        ASSERT_TRUE(std::is_sorted(
            out_a.begin(), out_a.end(),
            [](const Item& x, const Item& y) { return x.key < y.key; }));
        break;
      }
      case 6: {  // batched insert (front), distinct absent keys
        std::vector<Item> items;
        const std::uint64_t lo = rng.bounded(kKeys);
        for (std::uint64_t k = lo; k < std::min<std::uint64_t>(lo + 24, kKeys);
             ++k) {
          if (!oracle.items.count(k)) items.push_back({k, k * 5, items.size()});
        }
        std::vector<Item> copy = items;
        flat_seg.insert_front_batch(std::span<Item>(items));
        tree_seg.insert_front_batch(std::span<Item>(copy));
        // Batch arrives most-recent-last by incoming stamp order.
        for (std::uint64_t k = lo; k < std::min<std::uint64_t>(lo + 24, kKeys);
             ++k) {
          if (!oracle.items.count(k)) oracle.insert_front(k, k * 5);
        }
        break;
      }
      case 7: {  // ordered queries, read-only
        const auto pa = flat_seg.predecessor(key);
        const auto pb = tree_seg.predecessor(key);
        ASSERT_EQ(pa.first == nullptr, pb.first == nullptr);
        if (pa.first) {
          EXPECT_EQ(*pa.first, *pb.first);
          EXPECT_EQ(*pa.second, *pb.second);
          auto it = oracle.items.lower_bound(key);
          ASSERT_NE(it, oracle.items.begin());
          --it;
          EXPECT_EQ(*pa.first, it->first);
        }
        const auto sa = flat_seg.successor(key);
        const auto sb = tree_seg.successor(key);
        ASSERT_EQ(sa.first == nullptr, sb.first == nullptr);
        if (sa.first) {
          EXPECT_EQ(*sa.first, *sb.first);
          auto it = oracle.items.upper_bound(key);
          ASSERT_NE(it, oracle.items.end());
          EXPECT_EQ(*sa.first, it->first);
        }
        const std::uint64_t hi = key + rng.bounded(32);
        EXPECT_EQ(flat_seg.range_count(key, hi), tree_seg.range_count(key, hi));
        break;
      }
      case 8: {  // extract_most_recent (point)
        auto a = flat_seg.extract_most_recent();
        auto b = tree_seg.extract_most_recent();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          const std::uint64_t expect = oracle.most_recent();
          EXPECT_EQ(a->key, expect);
          EXPECT_EQ(b->key, expect);
          oracle.items.erase(expect);
        }
        break;
      }
      case 9:
      case 10: {  // batched extract from one end of the recency order
        const bool least = rng.bounded(2) == 0;
        const std::size_t c = 1 + rng.bounded(24);
        const std::vector<std::uint64_t> expect = oracle.recency_end(c, least);
        std::vector<Item> out_a;
        std::vector<Item> out_b;
        if (least) {
          flat_seg.extract_least_recent(c, out_a);
          tree_seg.extract_least_recent(c, out_b);
        } else {
          flat_seg.extract_most_recent(c, out_a);
          tree_seg.extract_most_recent(c, out_b);
        }
        ASSERT_EQ(out_a.size(), expect.size()) << "least=" << least;
        ASSERT_EQ(out_b.size(), expect.size()) << "least=" << least;
        for (std::size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(out_a[i].key, expect[i]) << "least=" << least;
          ASSERT_EQ(out_b[i].key, expect[i]) << "least=" << least;
          EXPECT_EQ(out_b[i].value, oracle.items.at(expect[i]).first);
          oracle.items.erase(expect[i]);
        }
        break;
      }
      case 11: {  // batched insert (back), distinct absent keys
        std::vector<Item> items;
        const std::uint64_t lo = rng.bounded(kKeys);
        const std::uint64_t hi = std::min<std::uint64_t>(lo + 24, kKeys);
        for (std::uint64_t k = lo; k < hi; ++k) {
          if (!oracle.items.count(k)) items.push_back({k, k * 7, items.size()});
        }
        std::vector<Item> copy = items;
        flat_seg.insert_back_batch(std::span<Item>(items));
        tree_seg.insert_back_batch(std::span<Item>(copy));
        // Larger incoming stamp = more recent, so the highest key lands
        // just below everything present and the lowest key at the back.
        for (std::uint64_t k = hi; k-- > lo;) {
          if (!oracle.items.count(k)) oracle.insert_back(k, k * 7);
        }
        break;
      }
    }

    ASSERT_EQ(flat_seg.size(), oracle.items.size()) << "step " << step;
    ASSERT_EQ(tree_seg.size(), oracle.items.size()) << "step " << step;
    if (was_flat && !flat_seg.is_flat()) ++promotes_seen;
    if (!was_flat && flat_seg.is_flat()) ++demotes_seen;
    was_flat = flat_seg.is_flat();
    // Deep checks every step: the recency-list walk in validate() is what
    // pins a missed unlink to the operation that caused it.
    ASSERT_EQ(flat_seg.validate(), "") << "step " << step;
    ASSERT_EQ(tree_seg.validate(), "") << "step " << step;
  }

  // The mix must actually have crossed the boundary both ways, or the
  // fuzz proves nothing about promote/demote.
  EXPECT_GT(promotes_seen, 0u);
  EXPECT_GT(demotes_seen, 0u);

  // Final full-content agreement, in key order.
  std::vector<std::uint64_t> keys_a;
  flat_seg.for_each([&](const std::uint64_t& k, const std::uint64_t& v,
                        std::uint64_t) {
    keys_a.push_back(k);
    EXPECT_EQ(oracle.items.at(k).first, v);
  });
  std::vector<std::uint64_t> keys_o;
  for (const auto& [k, ve] : oracle.items) keys_o.push_back(k);
  EXPECT_EQ(keys_a, keys_o);
}

// Recency extraction order must match between representations for the
// batched forms too (this exercises FlatSegment's partial-selection path
// against the tree segment's recency-list walk).
TEST(FlatSegmentFuzz, BatchedRecencyExtractionAgrees) {
  for (const bool least : {true, false}) {
    Seg flat_seg;
    Seg tree_seg;
    tree_seg.debug_force_tree();
    pwss::util::Xoshiro256 rng(least ? 77 : 78);
    // Interleave front/back arrivals so stamps are two-sided.
    for (std::uint64_t i = 0; i < 40; ++i) {
      if (rng.bounded(2)) {
        flat_seg.insert_front({i, i, 0});
        tree_seg.insert_front({i, i, 0});
      } else {
        flat_seg.insert_back({i, i, 0});
        tree_seg.insert_back({i, i, 0});
      }
    }
    while (!flat_seg.empty()) {
      const std::size_t c = 1 + rng.bounded(7);
      std::vector<Item> a;
      std::vector<Item> b;
      if (least) {
        flat_seg.extract_least_recent(c, a);
        tree_seg.extract_least_recent(c, b);
      } else {
        flat_seg.extract_most_recent(c, a);
        tree_seg.extract_most_recent(c, b);
      }
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key) << "least=" << least;
      }
    }
    EXPECT_TRUE(tree_seg.empty());
  }
}

}  // namespace
