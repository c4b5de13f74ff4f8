// Tests for the working-set segment (key tree + recency list), the stamp
// allocator (src/core/segment.hpp), and the ladder walks shared by the
// working-set maps (src/core/ladder.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ladder.hpp"
#include "core/segment.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using Seg = core::Segment<int, int>;
using Item = Seg::Item;

TEST(StampGen, FrontStampsIncreaseBackStampsDecrease) {
  core::StampGen g;
  const auto f1 = g.fresh_front();
  const auto f2 = g.fresh_front();
  const auto b1 = g.fresh_back();
  const auto b2 = g.fresh_back();
  EXPECT_LT(f1, f2);
  EXPECT_GT(b1, b2);
  EXPECT_LT(b1, f1) << "back stamps must sort below front stamps";
}

TEST(SegmentCapacity, DoublyExponentialThenSaturates) {
  EXPECT_EQ(core::segment_capacity(0), 2u);
  EXPECT_EQ(core::segment_capacity(1), 4u);
  EXPECT_EQ(core::segment_capacity(2), 16u);
  EXPECT_EQ(core::segment_capacity(3), 256u);
  EXPECT_EQ(core::segment_capacity(4), 65536u);
  EXPECT_EQ(core::segment_capacity(6), 1ULL << 62);
  EXPECT_EQ(core::segment_capacity(60), 1ULL << 62);  // saturated, no UB
}

TEST(Segment, InsertPeekExtract) {
  Seg s;
  s.insert_front({5, 50, 0});
  s.insert_front({3, 30, 0});
  EXPECT_EQ(s.size(), 2u);
  ASSERT_NE(s.peek(5), nullptr);
  EXPECT_EQ(*s.peek(5), 50);
  EXPECT_EQ(s.peek(99), nullptr);
  auto item = s.extract(5);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->value, 50);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.extract(5).has_value());
  EXPECT_EQ(s.validate(), "");
}

TEST(Segment, RecencyOrderSingleOps) {
  Seg s;
  s.insert_front({1, 10, 0});
  s.insert_front({2, 20, 0});
  s.insert_front({3, 30, 0});
  // 1 is least recent, 3 most recent.
  EXPECT_EQ(s.least_recent_key(), 1);
  auto lr = s.extract_least_recent();
  ASSERT_TRUE(lr.has_value());
  EXPECT_EQ(lr->key, 1);
  auto mr = s.extract_most_recent();
  ASSERT_TRUE(mr.has_value());
  EXPECT_EQ(mr->key, 3);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Segment, BackStampsAreLeastRecent) {
  Seg s;
  s.insert_front({1, 10, 0});
  s.insert_back({2, 20, 0});  // inserted "at the back"
  EXPECT_EQ(s.least_recent_key(), 2);
}

TEST(Segment, ExtractByKeysSortedResult) {
  Seg s;
  for (int k : {9, 4, 7, 1, 5}) s.insert_front({k, k * 10, 0});
  std::vector<int> keys = {1, 5, 6, 9};  // 6 absent
  std::vector<Item> found;
  s.extract_by_keys(keys, found);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].key, 1);
  EXPECT_EQ(found[1].key, 5);
  EXPECT_EQ(found[2].key, 9);
  EXPECT_EQ(found[1].value, 50);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.validate(), "");
}

TEST(Segment, InsertFrontBatch) {
  Seg s;
  core::StampGen g;
  std::vector<Item> items;
  for (int k : {1, 3, 5, 7}) items.push_back({k, k, g.fresh_front()});
  s.insert_front_batch(std::span<Item>(items));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.validate(), "");
  EXPECT_EQ(s.least_recent_key(), 1);  // first stamped = least recent
}

TEST(Segment, ExtractLeastRecentBatchReturnsKeySorted) {
  Seg s;
  // Insert in "recency order" 9, 2, 7, 5: least recent are 9 then 2.
  for (int k : {9, 2, 7, 5}) s.insert_front({k, k, 0});
  std::vector<Item> out;
  s.extract_least_recent(2, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 2);  // sorted by key
  EXPECT_EQ(out[1].key, 9);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Segment, ExtractMostRecentBatch) {
  Seg s;
  for (int k : {9, 2, 7, 5}) s.insert_front({k, k, 0});
  std::vector<Item> out;
  s.extract_most_recent(2, out);  // 7 and 5 are most recent
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 5);
  EXPECT_EQ(out[1].key, 7);
}

TEST(Segment, ExtractAllEmptiesSegment) {
  Seg s;
  for (int k = 0; k < 100; ++k) s.insert_front({k, k, 0});
  std::vector<Item> all;
  s.extract_least_recent(s.size(), all);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Item& a, const Item& b) {
                               return a.key < b.key;
                             }));
}

TEST(Segment, ExtractMoreThanSizeClamps) {
  Seg s;
  s.insert_front({1, 1, 0});
  std::vector<Item> out;
  s.extract_least_recent(10, out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(s.empty());
  s.extract_most_recent(5, out);
  EXPECT_TRUE(out.empty());
}

TEST(Segment, StampsSurviveMovesBetweenSegments) {
  // An item moved across segments is restamped by its destination, and
  // recency order stays consistent: a front arrival is more recent than
  // everything already there.
  Seg a, b;
  b.insert_front({100, 0, 0});  // older
  a.insert_front({1, 0, 0});    // newer
  auto moved = a.extract_least_recent();  // key 1
  ASSERT_TRUE(moved);
  b.insert_front(std::move(*moved));
  // In b, 100 is least recent (older stamp).
  EXPECT_EQ(b.least_recent_key(), 100);
  EXPECT_EQ(b.validate(), "");
}

TEST(Segment, RandomizedRecencyOrderMatchesModel) {
  util::Xoshiro256 rng(7);
  Seg s;
  std::vector<int> model;  // front = most recent = back of vector
  for (int step = 0; step < 2000; ++step) {
    const int action = static_cast<int>(rng.bounded(3));
    if (action == 0 || model.size() < 3) {
      const int key = static_cast<int>(rng.bounded(10000)) * 2 + 1;
      if (std::find(model.begin(), model.end(), key) == model.end()) {
        s.insert_front({key, key, 0});
        model.push_back(key);
      }
    } else if (action == 1) {
      auto item = s.extract_least_recent();
      ASSERT_TRUE(item);
      ASSERT_EQ(item->key, model.front());
      model.erase(model.begin());
    } else {
      auto item = s.extract_most_recent();
      ASSERT_TRUE(item);
      ASSERT_EQ(item->key, model.back());
      model.pop_back();
    }
    ASSERT_EQ(s.size(), model.size());
  }
  EXPECT_EQ(s.validate(), "");
}

// ---- ladder walks (core/ladder.hpp) ----------------------------------------

// Builds a ladder whose segment k holds sizes[k] items. Keys 0, 1, 2, ...
// run from the most recent item of S[0] to the least recent item of the
// last segment, so the ladder's recency list is 0..n-1. `tree` pins every
// segment to the tree representation.
std::vector<Seg> make_ladder(const std::vector<std::size_t>& sizes,
                             bool tree) {
  std::vector<Seg> segs(sizes.size());
  int key = 0;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    if (tree) segs[k].debug_force_tree();
    for (std::size_t i = 0; i < sizes[k]; ++i, ++key) {
      segs[k].insert_back({key, key * 10, 0});
    }
  }
  return segs;
}

// The ladder's recency list: each segment's keys most recent first, S[0]
// first.
std::vector<int> recency_list(const std::vector<Seg>& segs) {
  std::vector<int> out;
  for (const auto& seg : segs) {
    std::vector<std::pair<std::uint64_t, int>> by_stamp;
    seg.for_each([&](const int& k, const int& v, std::uint64_t stamp) {
      EXPECT_EQ(v, k * 10) << "value lost its key";
      by_stamp.emplace_back(stamp, k);
    });
    std::sort(by_stamp.rbegin(), by_stamp.rend());
    for (const auto& entry : by_stamp) out.push_back(entry.second);
  }
  return out;
}

std::vector<std::size_t> sizes_of(const std::vector<Seg>& segs) {
  std::vector<std::size_t> out;
  for (const auto& seg : segs) out.push_back(seg.size());
  return out;
}

// The ladder walks with <K, V> spelled out once (a template argument list
// inside a gtest macro would split the macro's arguments).
std::optional<Item> erase_key(std::vector<Seg>& segs, int key) {
  return core::erase_with_hole_repair<int, int>(segs, key);
}
std::optional<std::size_t> depth(const std::vector<Seg>& segs, int key) {
  return core::depth_of<int, int>(segs, key);
}

// M1's prefix rule: every prefix S[0..i] holds min(n, capacity prefix)
// items, and each segment passes its own validate().
void expect_prefix_rule(const std::vector<Seg>& segs) {
  std::size_t n = 0;
  for (const auto& seg : segs) n += seg.size();
  std::size_t cum = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].validate(), "") << "segment " << i;
    cum += segs[i].size();
    EXPECT_EQ(cum, std::min(n, core::capacity_prefix(i + 1)))
        << "prefix S[0.." << i << "]";
  }
}

TEST(Ladder, CapacityPrefixSaturates) {
  EXPECT_EQ(core::capacity_prefix(0), 0u);
  EXPECT_EQ(core::capacity_prefix(3), 2u + 4u + 16u);
  EXPECT_EQ(core::capacity_prefix(200), ~std::size_t{0});
}

TEST(Ladder, PrefixRepairMovesOverfullPrefixToNextFront) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    // S[0] holds 5 (capacity 2), S[1] 3 (capacity 4): boundary 2 demotes
    // S[1]'s 2 least recent items to S[2]'s front, then boundary 1 demotes
    // S[0]'s 3 least recent items to S[1]'s front.
    auto segs = make_ladder({5, 3, 2}, tree);
    const auto before = recency_list(segs);
    core::SweepScratch<int, int> sc;
    core::restore_prefix_capacity<int, int>(segs, 2, sc, {});
    EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{2, 4, 4}));
    EXPECT_EQ(recency_list(segs), before) << "repair must keep recency order";
    expect_prefix_rule(segs);
  }
}

TEST(Ladder, PrefixRepairPullsFromNextIntoUnderfullPrefix) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    // S[0] empty, S[1] holds 1: boundary 2 pulls S[2]'s 5 most recent
    // items to S[1]'s back, then boundary 1 pulls S[1]'s 2 most recent to
    // S[0]'s back. `upto` past the ladder is clamped to its last boundary.
    auto segs = make_ladder({0, 1, 10}, tree);
    const auto before = recency_list(segs);
    core::SweepScratch<int, int> sc;
    core::restore_prefix_capacity<int, int>(segs, 9, sc, {});
    EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{2, 4, 5}));
    EXPECT_EQ(recency_list(segs), before) << "repair must keep recency order";
    expect_prefix_rule(segs);
  }
}

TEST(Ladder, PrefixRepairStopsWhenNextSegmentRunsDry) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    // S[0] wants 2 items but S[1] holds only 1: the pull takes it and
    // leaves S[1] empty.
    auto segs = make_ladder({0, 1}, tree);
    core::SweepScratch<int, int> sc;
    core::restore_prefix_capacity<int, int>(segs, 1, sc, {});
    EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{1, 0}));
    EXPECT_EQ(recency_list(segs), (std::vector<int>{0}));
    expect_prefix_rule(segs);
  }
}

TEST(Ladder, HoleRepairPullsEachLaterSegmentForward) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    auto segs = make_ladder({2, 4, 3}, tree);
    auto expected = recency_list(segs);
    const auto item = erase_key(segs, 1);
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->key, 1);
    EXPECT_EQ(item->value, 10);
    expected.erase(std::find(expected.begin(), expected.end(), 1));
    EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{2, 4, 2}));
    EXPECT_EQ(recency_list(segs), expected);
    EXPECT_FALSE(erase_key(segs, 99));
    EXPECT_EQ(recency_list(segs), expected) << "a miss must not move items";
    for (std::size_t k = 0; k < segs.size(); ++k) {
      EXPECT_EQ(segs[k].validate(), "") << "segment " << k;
    }
  }
}

TEST(Ladder, HoleRepairPopsEmptiedTailSegment) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    // The last segment's only item refills S[1]'s hole and is popped.
    auto segs = make_ladder({2, 4, 1}, tree);
    auto expected = recency_list(segs);
    ASSERT_TRUE(erase_key(segs, 3));
    expected.erase(std::find(expected.begin(), expected.end(), 3));
    EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{2, 4}));
    EXPECT_EQ(recency_list(segs), expected);
    // Erasing down to nothing pops every segment.
    for (const int key : expected) {
      ASSERT_TRUE(erase_key(segs, key)) << key;
    }
    EXPECT_TRUE(segs.empty());
  }
}

TEST(Ladder, DepthAndExportWalks) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    const auto segs = make_ladder({2, 4, 3}, tree);
    EXPECT_EQ(depth(segs, 0), 0u);
    EXPECT_EQ(depth(segs, 5), 1u);
    EXPECT_EQ(depth(segs, 8), 2u);
    EXPECT_FALSE(depth(segs, 9).has_value());
    std::vector<std::pair<int, int>> out{{-1, -1}};
    core::export_ladder<int, int>(segs, out);
    ASSERT_EQ(out.size(), 10u);
    EXPECT_EQ(out[0], (std::pair<int, int>{-1, -1})) << "export appends";
    for (int k = 0; k < 9; ++k) {
      EXPECT_EQ(out[k + 1], (std::pair<int, int>{k, k * 10}));
    }
  }
}

}  // namespace
}  // namespace pwss
