// Tests for the working-set segment (key tree + recency list) and the
// stamp allocator (src/core/segment.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
  auto found = s.extract_by_keys(keys);
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
  s.insert_front_batch(std::move(items));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.validate(), "");
  EXPECT_EQ(s.least_recent_key(), 1);  // first stamped = least recent
}

TEST(Segment, ExtractLeastRecentBatchReturnsKeySorted) {
  Seg s;
  // Insert in "recency order" 9, 2, 7, 5: least recent are 9 then 2.
  for (int k : {9, 2, 7, 5}) s.insert_front({k, k, 0});
  auto out = s.extract_least_recent(2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 2);  // sorted by key
  EXPECT_EQ(out[1].key, 9);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Segment, ExtractMostRecentBatch) {
  Seg s;
  for (int k : {9, 2, 7, 5}) s.insert_front({k, k, 0});
  auto out = s.extract_most_recent(2);  // 7 and 5 are most recent
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 5);
  EXPECT_EQ(out[1].key, 7);
}

TEST(Segment, ExtractAllEmptiesSegment) {
  Seg s;
  for (int k = 0; k < 100; ++k) s.insert_front({k, k, 0});
  auto all = s.extract_all();
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
  EXPECT_EQ(s.extract_least_recent(10).size(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.extract_most_recent(5).empty());
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

}  // namespace
}  // namespace pwss
