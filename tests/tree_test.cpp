// Tests for the join-based balanced tree (src/tree/jtree.hpp), including
// randomized differential tests against std::map and parameterized batch
// sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
#include "tree/jtree.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using IntTree = tree::JTree<int, int>;

std::vector<std::pair<int, int>> sorted_pairs(std::vector<int> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::pair<int, int>> out;
  out.reserve(keys.size());
  for (int k : keys) out.emplace_back(k, k * 10);
  return out;
}

TEST(JTree, EmptyTree) {
  IntTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_FALSE(t.erase(1).has_value());
  EXPECT_EQ(t.validate(), "");
}

TEST(JTree, InsertFindErase) {
  IntTree t;
  EXPECT_TRUE(t.insert(5, 50));
  EXPECT_TRUE(t.insert(3, 30));
  EXPECT_TRUE(t.insert(8, 80));
  EXPECT_FALSE(t.insert(5, 55));  // overwrite
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(*t.find(5), 55);
  EXPECT_EQ(t.find(4), nullptr);
  auto removed = t.erase(3);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 30);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.validate(), "");
}

TEST(JTree, SequentialInsertStaysBalanced) {
  IntTree t;
  for (int i = 0; i < 4096; ++i) t.insert(i, i);
  EXPECT_EQ(t.size(), 4096u);
  EXPECT_EQ(t.validate(), "");
  for (int i = 0; i < 4096; ++i) ASSERT_NE(t.find(i), nullptr);
}

TEST(JTree, ReverseInsertStaysBalanced) {
  IntTree t;
  for (int i = 4096; i-- > 0;) t.insert(i, i);
  EXPECT_EQ(t.validate(), "");
}

TEST(JTree, OrderStatistics) {
  IntTree t;
  for (int i = 0; i < 100; ++i) t.insert(i * 2, i);
  int next = 0;
  t.for_each([&](int k, int v) {
    EXPECT_EQ(k, next * 2);
    EXPECT_EQ(v, next);
    ++next;
  });
  EXPECT_EQ(next, 100);
  EXPECT_EQ(t.rank(0), 0u);
  EXPECT_EQ(t.rank(50), 25u);   // 25 even keys below 50
  EXPECT_EQ(t.rank(51), 26u);   // absent key: count of smaller keys
  EXPECT_EQ(t.rank(1000), 100u);
}

TEST(JTree, OrderedQueries) {
  IntTree t;
  EXPECT_EQ(t.predecessor(5).first, nullptr);
  EXPECT_EQ(t.successor(5).first, nullptr);
  EXPECT_EQ(t.range_count(0, 100), 0u);
  for (int i = 0; i < 100; ++i) t.insert(i * 2, i);
  // predecessor/successor are strict.
  EXPECT_EQ(*t.predecessor(50).first, 48);
  EXPECT_EQ(*t.predecessor(51).first, 50);
  EXPECT_EQ(t.predecessor(0).first, nullptr);
  EXPECT_EQ(*t.successor(50).first, 52);
  EXPECT_EQ(*t.successor(49).first, 50);
  EXPECT_EQ(t.successor(198).first, nullptr);
  EXPECT_EQ(*t.successor(-7).first, 0);
  // values ride along
  EXPECT_EQ(*t.predecessor(51).second, 25);
  // range_count is inclusive on both bounds; inverted ranges are empty.
  EXPECT_EQ(t.range_count(0, 198), 100u);
  EXPECT_EQ(t.range_count(10, 10), 1u);
  EXPECT_EQ(t.range_count(11, 11), 0u);
  EXPECT_EQ(t.range_count(11, 19), 4u);
  EXPECT_EQ(t.range_count(19, 11), 0u);
}

TEST(JTree, MoveSemantics) {
  IntTree a;
  a.insert(1, 10);
  a.insert(2, 20);
  IntTree b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  IntTree c;
  c.insert(9, 90);
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  ASSERT_NE(c.find(1), nullptr);
}

TEST(JTree, FromSortedBuildsBalanced) {
  std::vector<std::pair<int, int>> items;
  for (int i = 0; i < 10000; ++i) items.emplace_back(i, i);
  auto t = IntTree::from_sorted(items);
  EXPECT_EQ(t.size(), 10000u);
  EXPECT_EQ(t.validate(), "");
}

TEST(JTree, MultiInsertIntoEmpty) {
  IntTree t;
  const auto items = sorted_pairs({5, 1, 9, 3, 7});
  t.multi_insert(items);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.validate(), "");
  EXPECT_EQ(*t.find(9), 90);
}

TEST(JTree, MultiInsertMergesAndOverwrites) {
  IntTree t;
  for (int i = 0; i < 100; i += 2) t.insert(i, -1);
  std::vector<std::pair<int, int>> items;
  for (int i = 0; i < 100; i += 4) items.emplace_back(i, i);  // overwrite half
  for (int i = 1; i < 100; i += 4) items.emplace_back(i, i);  // new odd keys
  std::sort(items.begin(), items.end());
  t.multi_insert(items);
  EXPECT_EQ(t.validate(), "");
  EXPECT_EQ(*t.find(0), 0);
  EXPECT_EQ(*t.find(2), -1);
  EXPECT_EQ(*t.find(1), 1);
}

TEST(JTree, MultiExtractRemovesAndReports) {
  IntTree t;
  for (int i = 0; i < 50; ++i) t.insert(i, i * 3);
  const IntTree::Handle node7 = t.find_node(7);
  std::vector<int> keys = {3, 7, 49, 50, 51};  // last two absent
  std::vector<IntTree::Handle> out(keys.size());
  t.multi_extract(keys, out);
  ASSERT_NE(out[0], nullptr);
  EXPECT_EQ(IntTree::key_of(out[0]), 3);
  EXPECT_EQ(IntTree::value_of(out[0]), 9);
  EXPECT_EQ(out[1], node7);  // the node itself, not a copy
  EXPECT_EQ(IntTree::value_of(out[1]), 21);
  ASSERT_NE(out[2], nullptr);
  EXPECT_EQ(IntTree::value_of(out[2]), 147);
  EXPECT_EQ(out[3], nullptr);
  EXPECT_EQ(out[4], nullptr);
  for (const IntTree::Handle n : out) {
    if (n != nullptr) t.release(n);
  }
  EXPECT_EQ(t.size(), 47u);
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.validate(), "");

  IntTree empty;
  empty.multi_extract(keys, out);
  for (const IntTree::Handle n : out) EXPECT_EQ(n, nullptr);
}

// Counts key comparisons, to bound the work of one descent.
std::size_t g_compares = 0;
struct CountingLess {
  bool operator()(int a, int b) const {
    ++g_compares;
    return a < b;
  }
};

TEST(JTree, OneKeyExtractWalksItsPathOnce) {
  // Even keys present, odd keys absent; 2^16 nodes are at most
  // 1.44 log2(n + 2) < 24 levels deep. A one-key extract walks its path
  // once, at two comparisons a level, and the rejoins compare no keys; a
  // miss screen ahead of the detach would double that, and a screen at
  // every level would cost O(depth^2).
  using CountTree = tree::JTree<int, int, CountingLess>;
  constexpr int kN = 1 << 16;
  constexpr std::size_t kDepth = 24;
  std::vector<std::pair<int, int>> items;
  for (int i = 0; i < kN; ++i) items.emplace_back(2 * i, i);
  auto t = CountTree::from_sorted(items);
  std::size_t left = t.size();
  for (int k = 1; k < 2 * kN; k += 997) {
    CountTree::Handle n = nullptr;
    g_compares = 0;
    t.multi_extract(std::span(&k, 1), std::span(&n, 1));
    EXPECT_LE(g_compares, 2 * kDepth) << "key " << k;
    ASSERT_EQ(n != nullptr, k % 2 == 0) << "key " << k;
    if (n != nullptr) {
      EXPECT_EQ(CountTree::key_of(n), k);
      t.release(n);
      --left;
    }
  }
  EXPECT_EQ(t.size(), left);
  EXPECT_EQ(t.validate(), "");
}

TEST(JTree, ToVectorInKeyOrder) {
  IntTree t;
  for (int i : {5, 2, 9, 1, 7}) t.insert(i, i);
  const auto v = t.to_vector();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(JTree, StringKeys) {
  tree::JTree<std::string, int> t;
  t.insert("banana", 2);
  t.insert("apple", 1);
  t.insert("cherry", 3);
  EXPECT_EQ(*t.find("apple"), 1);
  std::vector<std::string> keys;
  t.for_each([&](const std::string& k, int) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));
  EXPECT_EQ(t.rank("cherry"), 2u);
  EXPECT_EQ(t.validate(), "");
}

// Randomized differential test against std::map.
TEST(JTree, RandomizedDifferentialAgainstStdMap) {
  util::Xoshiro256 rng(1234);
  IntTree t;
  std::map<int, int> ref;
  for (int step = 0; step < 50000; ++step) {
    const int key = static_cast<int>(rng.bounded(500));
    switch (rng.bounded(3)) {
      case 0: {
        const int val = static_cast<int>(rng.bounded(1000));
        const bool fresh = t.insert(key, val);
        EXPECT_EQ(fresh, ref.find(key) == ref.end());
        ref[key] = val;
        break;
      }
      case 1: {
        auto removed = t.erase(key);
        auto it = ref.find(key);
        EXPECT_EQ(removed.has_value(), it != ref.end());
        if (it != ref.end()) {
          EXPECT_EQ(*removed, it->second);
          ref.erase(it);
        }
        break;
      }
      default: {
        const int* v = t.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v) { EXPECT_EQ(*v, it->second); }
        break;
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  EXPECT_EQ(t.validate(), "");
}

// Randomized batch-op differential test.
TEST(JTree, RandomizedBatchDifferential) {
  util::Xoshiro256 rng(99);
  IntTree t;
  std::map<int, int> ref;
  for (int round = 0; round < 200; ++round) {
    // Random sorted unique batch.
    std::set<int> key_set;
    const std::size_t b = 1 + rng.bounded(64);
    while (key_set.size() < b) key_set.insert(static_cast<int>(rng.bounded(400)));
    if (rng.bounded(2) == 0) {
      std::vector<std::pair<int, int>> items;
      for (int k : key_set) items.emplace_back(k, round);
      t.multi_insert(items);
      for (int k : key_set) ref[k] = round;
    } else {
      std::vector<int> keys(key_set.begin(), key_set.end());
      std::vector<IntTree::Handle> out(keys.size());
      t.multi_extract(keys, out);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        auto it = ref.find(keys[i]);
        ASSERT_EQ(out[i] != nullptr, it != ref.end());
        if (it != ref.end()) {
          EXPECT_EQ(IntTree::value_of(out[i]), it->second);
          t.release(out[i]);
          ref.erase(it);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_EQ(t.validate(), "");
  }
  // Final content identical.
  const auto v = t.to_vector();
  std::vector<std::pair<int, int>> rv(ref.begin(), ref.end());
  EXPECT_EQ(v, rv);
}

// Parallel batch ops give identical results to sequential ones, and a
// forked multi_extract hands back exactly the nodes a point lookup finds
// (run on a worker so the halves really fork).
class JTreeParallelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JTreeParallelTest, ParallelMatchesSequential) {
  const std::size_t batch_size = GetParam();
  sched::Scheduler scheduler(4);
  const tree::ParCtx ctx{&scheduler, 32};

  util::Xoshiro256 rng(batch_size);
  std::set<int> key_set;
  while (key_set.size() < batch_size) {
    key_set.insert(static_cast<int>(rng.bounded(1 << 20)));
  }
  std::vector<std::pair<int, int>> items;
  for (int k : key_set) items.emplace_back(k, k ^ 0x55);

  IntTree seq, par;
  for (int i = 0; i < 1000; ++i) {
    seq.insert(static_cast<int>(i * 7919 % (1 << 20)), i);
    par.insert(static_cast<int>(i * 7919 % (1 << 20)), i);
  }
  seq.multi_insert(items);
  scheduler.run_sync([&] { par.multi_insert(items, ctx); });
  EXPECT_EQ(seq.to_vector(), par.to_vector());
  EXPECT_EQ(par.validate(), "");

  // Misses below and above the tree's range around every other batch key.
  std::vector<int> keys;
  for (int k = -64; k < 0; ++k) keys.push_back(k);
  for (std::size_t i = 0; i < items.size(); i += 2) keys.push_back(items[i].first);
  for (int k = 1 << 20; k < (1 << 20) + 64; ++k) keys.push_back(k);
  std::vector<IntTree::Handle> want_seq, want_par;
  for (const int k : keys) {
    want_seq.push_back(seq.find_node(k));
    want_par.push_back(par.find_node(k));
  }
  std::vector<IntTree::Handle> out_seq(keys.size()), out_par(keys.size());
  seq.multi_extract(keys, out_seq);
  scheduler.run_sync([&] { par.multi_extract(keys, out_par, ctx); });
  EXPECT_EQ(out_seq, want_seq);
  EXPECT_EQ(out_par, want_par);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out_par[i] != nullptr, out_seq[i] != nullptr) << keys[i];
    if (out_par[i] == nullptr) continue;
    EXPECT_EQ(IntTree::value_of(out_par[i]), IntTree::value_of(out_seq[i]));
    seq.release(out_seq[i]);
    par.release(out_par[i]);
  }
  EXPECT_EQ(seq.to_vector(), par.to_vector());
  EXPECT_EQ(par.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, JTreeParallelTest,
                         ::testing::Values(1, 2, 3, 10, 100, 1000, 10000));

}  // namespace
}  // namespace pwss
