// Tests for the working-set segment (key-map + recency-map pair) and the
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
  core::StampGen g;
  s.insert_item({5, 50, g.fresh_front()});
  s.insert_item({3, 30, g.fresh_front()});
  EXPECT_EQ(s.size(), 2u);
  ASSERT_NE(s.peek(5), nullptr);
  EXPECT_EQ(s.peek(5)->first, 50);
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
  core::StampGen g;
  s.insert_item({1, 10, g.fresh_front()});
  s.insert_item({2, 20, g.fresh_front()});
  s.insert_item({3, 30, g.fresh_front()});
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
  core::StampGen g;
  s.insert_item({1, 10, g.fresh_front()});
  s.insert_item({2, 20, g.fresh_back()});  // inserted "at the back"
  EXPECT_EQ(s.least_recent_key(), 2);
}

TEST(Segment, ExtractByKeysSortedResult) {
  Seg s;
  core::StampGen g;
  for (int k : {9, 4, 7, 1, 5}) s.insert_item({k, k * 10, g.fresh_front()});
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

TEST(Segment, FindBatch) {
  Seg s;
  core::StampGen g;
  for (int k : {2, 4, 6}) s.insert_item({k, k, g.fresh_front()});
  std::vector<int> keys = {2, 3, 6};
  std::vector<const std::pair<int, std::uint64_t>*> out;
  s.find_batch(keys, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0], nullptr);
  EXPECT_EQ(out[1], nullptr);
  EXPECT_NE(out[2], nullptr);
  EXPECT_EQ(s.size(), 3u);  // no mutation
}

TEST(Segment, InsertItemsBatch) {
  Seg s;
  core::StampGen g;
  std::vector<Item> items;
  for (int k : {1, 3, 5, 7}) items.push_back({k, k, g.fresh_front()});
  s.insert_items(std::move(items));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.validate(), "");
  EXPECT_EQ(s.least_recent_key(), 1);  // first stamped = least recent
}

TEST(Segment, ExtractLeastRecentBatchReturnsKeySorted) {
  Seg s;
  core::StampGen g;
  // Insert in "recency order" 9, 2, 7, 5: least recent are 9 then 2.
  for (int k : {9, 2, 7, 5}) s.insert_item({k, k, g.fresh_front()});
  auto out = s.extract_least_recent(2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 2);  // sorted by key
  EXPECT_EQ(out[1].key, 9);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Segment, ExtractMostRecentBatch) {
  Seg s;
  core::StampGen g;
  for (int k : {9, 2, 7, 5}) s.insert_item({k, k, g.fresh_front()});
  auto out = s.extract_most_recent(2);  // 7 and 5 are most recent
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 5);
  EXPECT_EQ(out[1].key, 7);
}

TEST(Segment, ExtractAllEmptiesSegment) {
  Seg s;
  core::StampGen g;
  for (int k = 0; k < 100; ++k) s.insert_item({k, k, g.fresh_front()});
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
  core::StampGen g;
  s.insert_item({1, 1, g.fresh_front()});
  EXPECT_EQ(s.extract_least_recent(10).size(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.extract_most_recent(5).empty());
}

TEST(Segment, StampsSurviveMovesBetweenSegments) {
  // Items moved across segments keep their stamps, and recency order stays
  // consistent: least-recent of A is more recent than most-recent of B when
  // A's stamps all exceed B's.
  Seg a, b;
  core::StampGen g;
  b.insert_item({100, 0, g.fresh_front()});  // older
  a.insert_item({1, 0, g.fresh_front()});    // newer
  auto moved = a.extract_least_recent();     // key 1
  ASSERT_TRUE(moved);
  b.insert_item(std::move(*moved));
  // In b, 100 is least recent (older stamp).
  EXPECT_EQ(b.least_recent_key(), 100);
  EXPECT_EQ(b.validate(), "");
}

TEST(Segment, RandomizedRecencyOrderMatchesModel) {
  util::Xoshiro256 rng(7);
  Seg s;
  core::StampGen g;
  std::vector<int> model;  // front = most recent = back of vector
  for (int step = 0; step < 2000; ++step) {
    const int action = static_cast<int>(rng.bounded(3));
    if (action == 0 || model.size() < 3) {
      const int key = static_cast<int>(rng.bounded(10000)) * 2 + 1;
      if (std::find(model.begin(), model.end(), key) == model.end()) {
        s.insert_item({key, key, g.fresh_front()});
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
