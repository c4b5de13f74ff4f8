// Tests for the working-set segment (key tree + recency list), the stamp
// allocator (src/core/segment.hpp), and the ladder walks shared by the
// working-set maps (src/core/ladder.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/async_map.hpp"
#include "core/ladder.hpp"
#include "core/segment.hpp"
#include "sched/scheduler.hpp"
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

// A key-sorted batch whose incoming stamps ascend, descend or are mixed
// lands at either end in incoming-stamp order (restamp skips its index
// sort for the monotone two), in a flat and in a tree segment.
TEST(Segment, BatchInsertKeepsIncomingStampOrder) {
  enum class Stamps { kAscending, kDescending, kMixed };
  for (const int n : {10, 200}) {  // 200 promotes the segment to a tree
    for (const bool front : {true, false}) {
      for (const Stamps order :
           {Stamps::kAscending, Stamps::kDescending, Stamps::kMixed}) {
        Seg s;
        for (int k : {-1, -3, -5}) s.insert_front({k, k, 0});
        std::vector<Item> items;
        for (int i = 0; i < n; ++i) {
          const int stamp = order == Stamps::kAscending    ? i + 1
                            : order == Stamps::kDescending ? n - i
                                                           : i * 7 % n + 1;
          items.push_back({2 * i, i, static_cast<std::uint64_t>(stamp)});
        }
        // Expected recency, most recent first: the batch by falling
        // incoming stamp, before the residents at the front, after them
        // at the back.
        std::vector<Item> by_stamp = items;
        std::sort(by_stamp.begin(), by_stamp.end(),
                  [](const Item& a, const Item& b) {
                    return a.stamp > b.stamp;
                  });
        std::vector<int> want;
        if (!front) want = {-5, -3, -1};
        for (const Item& it : by_stamp) want.push_back(it.key);
        if (front) want.insert(want.end(), {-5, -3, -1});

        if (front) {
          s.insert_front_batch(std::span<Item>(items));
        } else {
          s.insert_back_batch(std::span<Item>(items));
        }
        ASSERT_EQ(s.validate(), "") << "n=" << n << " front=" << front;
        std::vector<int> got;
        while (auto it = s.extract_most_recent()) got.push_back(it->key);
        EXPECT_EQ(got, want) << "n=" << n << " front=" << front
                             << " order=" << static_cast<int>(order);
      }
    }
  }
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

// A segment's keys, most recent first.
std::vector<int> recent_keys(const Seg& s) {
  std::vector<int> out;
  s.for_each_recent([&](const int& k, const int&) { out.push_back(k); });
  return out;
}

// Fills `s` by front and back point inserts in a seeded order and returns
// its keys most recent first.
std::vector<int> fill_shuffled(Seg& s, int first_key, int n,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::deque<int> model;
  for (int i = 0; i < n; ++i) {
    const int key = first_key + static_cast<int>((i * 37) % n);
    if (rng.bounded(2) == 0) {
      s.insert_front({key, key, 0});
      model.push_front(key);
    } else {
      s.insert_back({key, key, 0});
      model.push_back(key);
    }
  }
  return {model.begin(), model.end()};
}

// A tree segment keeps its recency order only in its list. Items taken
// from either end of one pinned tree segment and inserted at either end
// of another keep their exact relative order: extract_end stamps each
// item with its rank at that end.
TEST(Segment, TreeToTreeTransfersKeepListOrder) {
  for (const bool least : {true, false}) {
    for (const bool front : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "least " << least << ", front "
                                        << front);
      Seg src, dst;
      src.debug_force_tree();
      dst.debug_force_tree();
      std::vector<int> src_order = fill_shuffled(src, 0, 150, 11);
      const std::vector<int> dst_order = fill_shuffled(dst, 1000, 90, 12);
      constexpr std::size_t c = 61;
      constexpr auto cd = static_cast<std::ptrdiff_t>(c);
      std::vector<Item> moved;
      if (least) {
        src.extract_least_recent(c, moved);
      } else {
        src.extract_most_recent(c, moved);
      }
      ASSERT_EQ(moved.size(), c);
      // The moved keys, most recent first, and what stays behind.
      const auto cut = least ? src_order.end() - cd : src_order.begin() + cd;
      std::vector<int> taken = least ? std::vector<int>(cut, src_order.end())
                                     : std::vector<int>(src_order.begin(), cut);
      least ? src_order.erase(cut, src_order.end())
            : src_order.erase(src_order.begin(), cut);
      EXPECT_EQ(recent_keys(src), src_order);
      if (front) {
        dst.insert_front_batch(std::span<Item>(moved));
      } else {
        dst.insert_back_batch(std::span<Item>(moved));
      }
      std::vector<int> want = front ? taken : dst_order;
      const std::vector<int>& rest = front ? dst_order : taken;
      want.insert(want.end(), rest.begin(), rest.end());
      EXPECT_EQ(recent_keys(dst), want);
      EXPECT_EQ(src.validate(), "");
      EXPECT_EQ(dst.validate(), "");
    }
  }
}

// Promotion orders the new list by the flat stamps; demotion stamps the
// flat items along the list. A promote, demote, promote round trip keeps
// the recency order at every stage.
TEST(Segment, PromoteDemotePromoteKeepsListOrder) {
  Seg s;
  std::vector<int> model = fill_shuffled(s, 0, 60, 3);
  ASSERT_TRUE(s.is_flat());
  EXPECT_EQ(recent_keys(s), model);
  // Promote: a front batch pushes the segment past kFlatSegmentMax.
  std::vector<Item> batch;
  for (int k = 100; k < 120; ++k) {
    batch.push_back({k, k, static_cast<std::uint64_t>((k * 7) % 20)});
  }
  std::vector<int> arrivals(20);
  for (const Item& it : batch) arrivals[19 - it.stamp] = it.key;
  s.insert_front_batch(std::span<Item>(batch));
  ASSERT_FALSE(s.is_flat());
  model.insert(model.begin(), arrivals.begin(), arrivals.end());
  EXPECT_EQ(recent_keys(s), model);
  ASSERT_EQ(s.validate(), "");
  // Demote: one key batch takes the even keys (40 stay, still a tree),
  // a second takes keys from the middle of the order until 30 are left.
  std::vector<int> keys;
  std::vector<Item> out;
  for (int k = 0; k < 120; k += 2) keys.push_back(k);
  s.extract_by_keys(keys, out);
  std::erase_if(model, [](int k) { return k % 2 == 0; });
  ASSERT_FALSE(s.is_flat());
  keys.clear();
  while (model.size() > 30) {
    keys.push_back(model[model.size() / 2]);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(model.size() / 2));
  }
  std::sort(keys.begin(), keys.end());
  s.extract_by_keys(keys, out);
  ASSERT_TRUE(s.is_flat());
  EXPECT_EQ(recent_keys(s), model);
  ASSERT_EQ(s.validate(), "");
  // Promote again, by point inserts at both ends.
  for (int k = 200; k < 240; ++k) {
    if (k % 3 == 0) {
      s.insert_back({k, k, 0});
      model.push_back(k);
    } else {
      s.insert_front({k, k, 0});
      model.insert(model.begin(), k);
    }
  }
  ASSERT_FALSE(s.is_flat());
  EXPECT_EQ(recent_keys(s), model);
  EXPECT_EQ(s.validate(), "");
}

// Every tree-side removal (key windows, recency batches, point extracts)
// against a recency model, on a pooled tree segment whose batch work runs
// on a 2-worker scheduler with grain 4, so multi_extract really forks
// while the list is unlinked afterwards. Pool accounting after every step
// catches a detached node that was never released.
TEST(Segment, ForkedTreeRemovalsMatchRecencyModel) {
  sched::Scheduler scheduler(2);
  core::SegmentPools<int, int> pools(&scheduler);
  Seg s(&pools);
  s.debug_force_tree();
  core::SegmentScratch<int, int> scratch;
  const tree::ParCtx ctx{&scheduler, 4};
  constexpr int kUniverse = 6000;
  auto value_of = [](int key) { return key * 7 + 1; };
  std::deque<int> model;  // front = most recent
  util::Xoshiro256 rng(25);
  std::vector<Item> out;

  // Drops `removed` from the model and checks `out` holds exactly those
  // keys, in key order, with their values.
  auto expect_removed = [&](std::vector<int> removed) {
    std::sort(removed.begin(), removed.end());
    ASSERT_EQ(out.size(), removed.size());
    for (std::size_t i = 0; i < removed.size(); ++i) {
      ASSERT_EQ(out[i].key, removed[i]);
      ASSERT_EQ(out[i].value, value_of(removed[i]));
    }
    std::erase_if(model, [&](int k) {
      return std::binary_search(removed.begin(), removed.end(), k);
    });
  };

  for (int step = 0; step < 400; ++step) {
    core::SegmentScratch<int, int>* sc = step % 2 == 0 ? &scratch : nullptr;
    const auto action = model.size() < 64 ? 0 : rng.bounded(6);
    switch (action) {
      case 0: {  // key-sorted batch of absent keys, at either end
        std::vector<int> fresh;
        const std::size_t want = 1 + rng.bounded(400);
        for (std::size_t tries = 0; fresh.size() < want && tries < 2 * want;
             ++tries) {
          const int k = static_cast<int>(rng.bounded(kUniverse));
          if (std::find(model.begin(), model.end(), k) == model.end() &&
              std::find(fresh.begin(), fresh.end(), k) == fresh.end()) {
            fresh.push_back(k);
          }
        }
        // Incoming stamps in arrival order: fresh[0] is the least recent.
        std::vector<Item> batch;
        for (std::size_t i = 0; i < fresh.size(); ++i) {
          batch.push_back({fresh[i], value_of(fresh[i]), 100 + i});
        }
        std::sort(batch.begin(), batch.end(),
                  [](const Item& a, const Item& b) { return a.key < b.key; });
        const bool front = rng.bounded(2) == 0;
        scheduler.run_sync([&] {
          front ? s.insert_front_batch(batch, ctx, sc)
                : s.insert_back_batch(batch, ctx, sc);
        });
        // Either way the arrivals read most recent first: fresh.back()
        // down to fresh[0].
        if (front) {
          for (const int k : fresh) model.push_front(k);
        } else {
          model.insert(model.end(), fresh.rbegin(), fresh.rend());
        }
        break;
      }
      case 1: {  // a key window: present keys mixed with absent ones
        const int lo = static_cast<int>(rng.bounded(kUniverse));
        const int width = 1 + static_cast<int>(rng.bounded(600));
        const int stride = 1 + static_cast<int>(rng.bounded(3));
        std::vector<int> keys, removed;
        for (int k = lo; k < lo + width; k += stride) {
          keys.push_back(k);
          if (std::find(model.begin(), model.end(), k) != model.end()) {
            removed.push_back(k);
          }
        }
        scheduler.run_sync([&] { s.extract_by_keys(keys, out, ctx, sc); });
        expect_removed(removed);
        break;
      }
      case 2:
      case 3: {  // c items from one end of the recency order
        const bool least = action == 2;
        const std::size_t c = rng.bounded(model.size() / 2);
        const std::vector<int> removed =
            least ? std::vector<int>(model.end() - static_cast<std::ptrdiff_t>(c),
                                     model.end())
                  : std::vector<int>(model.begin(),
                                     model.begin() + static_cast<std::ptrdiff_t>(c));
        scheduler.run_sync([&] {
          least ? s.extract_least_recent(c, out, ctx, sc)
                : s.extract_most_recent(c, out, ctx, sc);
        });
        expect_removed(removed);
        break;
      }
      case 4: {  // point extract of a key that may be absent
        const int k = static_cast<int>(rng.bounded(kUniverse));
        const bool present =
            std::find(model.begin(), model.end(), k) != model.end();
        const auto item = s.extract(k);
        ASSERT_EQ(item.has_value(), present) << "key " << k;
        out.clear();
        if (item) out.push_back(*item);
        expect_removed(present ? std::vector<int>{k} : std::vector<int>{});
        break;
      }
      default: {  // point extract at either end
        const bool least = rng.bounded(2) == 0;
        const int want = least ? model.back() : model.front();
        const auto item =
            least ? s.extract_least_recent() : s.extract_most_recent();
        ASSERT_TRUE(item.has_value());
        out.assign(1, *item);
        expect_removed({want});
        break;
      }
    }
    ASSERT_EQ(s.validate(), "") << "step " << step;
    ASSERT_EQ(s.size(), model.size()) << "step " << step;
    ASSERT_EQ(pools.node_pool.live_nodes(), s.size())
        << "a detached node was not released, step " << step;
    ASSERT_EQ(recent_keys(s), std::vector<int>(model.begin(), model.end()))
        << "step " << step;
  }
  EXPECT_EQ(pools.node_pool.validate(), "");
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
    seg.for_each_recent([&](const int& k, const int& v) {
      EXPECT_EQ(v, k * 10) << "value lost its key";
      out.push_back(k);
    });
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

// sort_chunk must leave its input exactly as a stable sort by key would:
// on both sides of its in-place bound and of the merge sort's 16-op runs,
// on a full 4,096-op walk chunk, and for M1's index-tagged ops and M2's
// ticket-target ops, whose targets need not ascend.
template <typename Target, typename TargetOf>
void expect_sort_chunk_is_stable(TargetOf&& target_of) {
  using Op = core::PendingOp<int, int, Target>;
  util::Xoshiro256 rng(2024);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 2 * core::kInPlaceSortMax + 2; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(core::kBatchChunk);
  enum class Shape { kRandom, kDescending, kDuplicateHeavy };
  for (const Shape shape :
       {Shape::kRandom, Shape::kDescending, Shape::kDuplicateHeavy}) {
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(::testing::Message()
                   << "shape " << static_cast<int>(shape) << ", n " << n);
      core::ChunkSortScratch<int, int, Target> sc;
      std::vector<Op> ops;
      for (std::size_t i = 0; i < n; ++i) {
        int key = 0;
        switch (shape) {
          case Shape::kRandom:
            key = static_cast<int>(rng.bounded(1000));
            break;
          case Shape::kDescending:
            key = static_cast<int>(n - i);
            break;
          case Shape::kDuplicateHeavy:
            key = static_cast<int>(rng.bounded(3));
            break;
        }
        ops.push_back(Op{core::OpType::kUpsert, key, static_cast<int>(i), 0,
                         target_of(i)});
      }
      std::vector<Op> expected = ops;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const Op& a, const Op& b) { return a.key < b.key; });
      core::sort_chunk(ops, sc);
      ASSERT_EQ(ops.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ops[i].key, expected[i].key) << i;
        ASSERT_EQ(ops[i].target, expected[i].target) << i;
        ASSERT_EQ(ops[i].value, expected[i].value) << i;
      }
    }
  }
}

TEST(Ladder, SortChunkMatchesStableSortByKey) {
  {
    SCOPED_TRACE("index targets");
    expect_sort_chunk_is_stable<std::size_t>([](std::size_t i) { return i; });
  }
  {
    SCOPED_TRACE("ticket targets");
    // Tickets in an arena, handed out in an order that is not ascending.
    std::vector<core::OpTicket<int, int>> tickets(core::kBatchChunk);
    expect_sort_chunk_is_stable<core::OpTicket<int, int>*>(
        [&](std::size_t i) { return &tickets[(i * 2731) % tickets.size()]; });
  }
}


// ---- the sweep's key window -------------------------------------------------

TEST(Segment, KeyBoundsFlatAndTree) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    Seg s;
    if (tree) s.debug_force_tree();
    auto bounds = [&] {
      const auto [lo, hi] = s.key_bounds();
      EXPECT_EQ(lo == nullptr, hi == nullptr);
      return lo == nullptr ? std::pair<int, int>{-1, -1}
                           : std::pair<int, int>{*lo, *hi};
    };
    EXPECT_EQ(bounds(), (std::pair<int, int>{-1, -1})) << "empty";
    s.insert_front({7, 70, 0});
    EXPECT_EQ(bounds(), (std::pair<int, int>{7, 7})) << "one item";
    s.insert_back({3, 30, 0});
    s.insert_front({12, 120, 0});
    s.insert_front({9, 90, 0});
    EXPECT_EQ(bounds(), (std::pair<int, int>{3, 12}));
    s.extract(3);
    s.extract(12);
    EXPECT_EQ(bounds(), (std::pair<int, int>{7, 9}));
    s.extract(7);
    s.extract(9);
    EXPECT_EQ(bounds(), (std::pair<int, int>{-1, -1})) << "emptied";
  }
  // A flat segment that outgrows kFlatSegmentMax promotes to a tree.
  Seg s;
  const int n = static_cast<int>(core::kFlatSegmentMax) + 9;
  for (int k = n; k > 0; --k) s.insert_front({2 * k, k, 0});
  ASSERT_FALSE(s.is_flat());
  const auto [lo, hi] = s.key_bounds();
  ASSERT_NE(lo, nullptr);
  EXPECT_EQ(*lo, 2);
  EXPECT_EQ(*hi, 2 * n);
}

// One group on a key, optionally a net deletion; `rank` is its access
// order (a larger rank links nearer the front).
struct SweepGroup {
  int key;
  bool erase = false;
  std::uint64_t rank = 0;
};

// Groups in key order, ranked in key order.
std::vector<SweepGroup> groups_on(std::initializer_list<int> keys,
                                  std::initializer_list<int> erased = {}) {
  std::vector<SweepGroup> out;
  for (int k : keys) {
    out.push_back({k,
                   std::find(erased.begin(), erased.end(), k) != erased.end(),
                   out.size()});
  }
  return out;
}

std::vector<int> keys_of(const std::vector<SweepGroup>& groups) {
  std::vector<int> out;
  for (const auto& g : groups) out.push_back(g.key);
  return out;
}

// Sweeps S[k] with `pending`; returns the keys that resolved, in order.
std::vector<int> sweep(std::vector<Seg>& segs, std::size_t k,
                       std::vector<SweepGroup>& pending, bool keep_deletions,
                       core::SweepScratch<int, int>& sc) {
  std::vector<int> resolved;
  core::sweep_segment<int, int>(
      segs, k, pending, keep_deletions, sc, {},
      [](const SweepGroup& g) { return g.rank; },
      [&](SweepGroup& g, int value) -> std::optional<int> {
        EXPECT_EQ(value, g.key * 10);
        resolved.push_back(g.key);
        if (g.erase) return std::nullopt;
        return value;
      });
  return resolved;
}

// S[2] of make_ladder({2, 4, 16}) holds keys 6..21: groups on both bounds
// resolve there, and only the groups inside [6, 21] are probed.
TEST(Ladder, SweepWindowIncludesBothBounds) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    auto segs = make_ladder({2, 4, 16}, tree);
    core::SweepScratch<int, int> sc;
    auto pending = groups_on({1, 6, 10, 21, 22, 30});
    EXPECT_EQ(sweep(segs, 2, pending, false, sc),
              (std::vector<int>{6, 10, 21}));
    EXPECT_EQ(keys_of(pending), (std::vector<int>{1, 22, 30}));
    EXPECT_EQ(sc.keys, (std::vector<int>{6, 10, 21})) << "keys probed";
    EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{2, 7, 13}));
    for (int k : {6, 10, 21}) EXPECT_EQ(depth(segs, k), 1u) << k;
    for (const auto& seg : segs) EXPECT_EQ(seg.validate(), "");
  }
}

// Pending keys wholly below, wholly above, or straddling S[2]'s range
// [6, 21]: a window with no key probes nothing and leaves the segment and
// the pending list as they were.
TEST(Ladder, SweepWindowBelowAboveAndStraddling) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    auto segs = make_ladder({2, 4, 16}, tree);
    const auto before = recency_list(segs);
    core::SweepScratch<int, int> sc;
    for (auto pending : {groups_on({0, 3, 5}), groups_on({22, 40, 41})}) {
      const auto keys = keys_of(pending);
      sc.keys = {-1};
      EXPECT_TRUE(sweep(segs, 2, pending, false, sc).empty());
      EXPECT_EQ(keys_of(pending), keys);
      EXPECT_EQ(sc.keys, (std::vector<int>{-1})) << "an empty window probed";
      EXPECT_EQ(recency_list(segs), before);
    }
    auto pending = groups_on({3, 8, 25});
    EXPECT_EQ(sweep(segs, 2, pending, false, sc), (std::vector<int>{8}));
    EXPECT_EQ(keys_of(pending), (std::vector<int>{3, 25}));
    EXPECT_EQ(sc.keys, (std::vector<int>{8}));
  }
}

// Empty and one-item segments, flat and tree: an empty segment is never
// probed; a one-item segment's window is its one key.
TEST(Ladder, SweepEmptyAndOneItemSegments) {
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    core::SweepScratch<int, int> sc;
    auto empty = make_ladder({0}, tree);
    auto pending = groups_on({-1, 0, 1});
    sc.keys = {-1};
    EXPECT_TRUE(sweep(empty, 0, pending, false, sc).empty());
    EXPECT_EQ(keys_of(pending), (std::vector<int>{-1, 0, 1}));
    EXPECT_EQ(sc.keys, (std::vector<int>{-1}));

    auto one = make_ladder({1}, tree);  // S[0] = {0}
    EXPECT_EQ(sweep(one, 0, pending, false, sc), (std::vector<int>{0}));
    EXPECT_EQ(keys_of(pending), (std::vector<int>{-1, 1}));
    EXPECT_EQ(sizes_of(one), (std::vector<std::size_t>{1}));

    auto pair = make_ladder({2, 1}, tree);  // S[1] = {2}
    pending = groups_on({1, 2, 3});
    EXPECT_EQ(sweep(pair, 1, pending, false, sc), (std::vector<int>{2}));
    EXPECT_EQ(keys_of(pending), (std::vector<int>{1, 3}));
    EXPECT_EQ(sizes_of(pair), (std::vector<std::size_t>{3, 0}));
    EXPECT_EQ(depth(pair, 2), 0u);
    for (const auto& seg : pair) EXPECT_EQ(seg.validate(), "");
  }
}

// A sweep links its hits at the front of S[k-1] in the caller's rank
// order, not in their S[k] order, flat and tree, for two rank orders that
// are each other's reverse (S[k]'s order is neither).
TEST(Ladder, SweepLinksHitsInCallerOrder) {
  for (const bool tree : {false, true}) {
    for (const bool reversed : {false, true}) {
      SCOPED_TRACE(::testing::Message() << (tree ? "tree" : "flat")
                                        << (reversed ? ", reversed" : ""));
      auto segs = make_ladder({2, 4, 16}, tree);
      const std::vector<int> s1_before = recent_keys(segs[1]);
      core::SweepScratch<int, int> sc;
      auto pending = groups_on({7, 9, 12, 18, 30});
      // Ranks: 9 > 18 > 7 > 12 (30 misses), or the reverse.
      const std::uint64_t ranks[] = {2, 4, 1, 3, 0};
      for (std::size_t i = 0; i < pending.size(); ++i) {
        pending[i].rank = reversed ? 10 - ranks[i] : ranks[i];
      }
      EXPECT_EQ(sweep(segs, 2, pending, false, sc),
                (std::vector<int>{7, 9, 12, 18}));
      std::vector<int> want = reversed ? std::vector<int>{12, 7, 18, 9}
                                       : std::vector<int>{9, 18, 7, 12};
      want.insert(want.end(), s1_before.begin(), s1_before.end());
      EXPECT_EQ(recent_keys(segs[1]), want);
      for (const auto& seg : segs) EXPECT_EQ(seg.validate(), "");
    }
  }
}

// Found groups leave the pending list in place and the groups past the
// window shift down behind the misses, key order kept; with
// keep_deletions, a net deletion keeps its slot. Only the surviving
// finds move to S[k-1]'s front.
TEST(Ladder, SweepCompactsFoundGroupsInPlace) {
  for (const bool tree : {false, true}) {
    for (const bool keep : {false, true}) {
      SCOPED_TRACE(std::string(tree ? "tree" : "flat") +
                   (keep ? ", keep deletions" : ""));
      auto segs = make_ladder({2, 4, 16}, tree);
      for (int k : {7, 9, 15}) ASSERT_TRUE(segs[2].extract(k));
      core::SweepScratch<int, int> sc;
      auto pending =
          groups_on({3, 6, 7, 8, 9, 10, 15, 21, 22, 23, 24}, {6, 8});
      EXPECT_EQ(sweep(segs, 2, pending, keep, sc),
                (std::vector<int>{6, 8, 10, 21}));
      EXPECT_EQ(keys_of(pending),
                keep ? (std::vector<int>{3, 6, 7, 8, 9, 15, 22, 23, 24})
                     : (std::vector<int>{3, 7, 9, 15, 22, 23, 24}));
      EXPECT_EQ(sizes_of(segs), (std::vector<std::size_t>{2, 6, 9}));
      for (int k : {10, 21}) EXPECT_EQ(depth(segs, k), 1u) << k;
      for (int k : {6, 8}) EXPECT_FALSE(depth(segs, k)) << k;
    }
  }
}

}  // namespace
}  // namespace pwss
