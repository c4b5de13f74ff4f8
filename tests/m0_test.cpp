// Tests for M0, the amortized sequential working-set map (Section 5),
// including the localized-promotion semantics and the rank invariant that
// underlies Theorem 7.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/m0_map.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using core::M0Map;
using core::Op;
using core::OpType;

TEST(M0, InsertSearchErase) {
  M0Map<int, int> m;
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_TRUE(m.insert(2, 20));
  EXPECT_FALSE(m.insert(1, 11));
  EXPECT_EQ(m.search(1), 11);
  EXPECT_EQ(m.search(3), std::nullopt);
  EXPECT_EQ(m.erase(2), 20);
  EXPECT_EQ(m.erase(2), std::nullopt);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M0, PeekDoesNotAdjust) {
  M0Map<int, int> m;
  for (int i = 0; i < 300; ++i) m.insert(i, i);
  const auto seg_before = m.segment_of(0);
  ASSERT_NE(m.peek(0), nullptr);
  EXPECT_EQ(m.segment_of(0), seg_before);
}

TEST(M0, SearchPromotesByOneSegment) {
  M0Map<int, int> m;
  for (int i = 0; i < 300; ++i) m.insert(i, i);
  // Insertions go to the back of the last segment, so the most recently
  // inserted key is the deepest one.
  const auto before = m.segment_of(299);
  ASSERT_TRUE(before.has_value());
  ASSERT_GT(*before, 0u);
  EXPECT_TRUE(m.search(299).has_value());
  const auto after = m.segment_of(299);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *before - 1) << "M0 promotes one segment, not to front";
  EXPECT_EQ(m.validate(), "");
}

TEST(M0, RepeatedSearchReachesFrontSegment) {
  M0Map<int, int> m;
  for (int i = 0; i < 300; ++i) m.insert(i, i);
  for (int r = 0; r < 10; ++r) EXPECT_TRUE(m.search(299).has_value());
  EXPECT_EQ(m.segment_of(299), 0u);
}

TEST(M0, InsertGoesToBackOfLastSegment) {
  M0Map<int, int> m;
  for (int i = 0; i < 23; ++i) m.insert(i, i);  // fills 2+4+16 and one more
  // 23rd item lands in segment 3 (capacities 2,4,16 then 256).
  EXPECT_EQ(m.segment_of(22), 3u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M0, SegmentsFullExceptLast) {
  M0Map<int, int> m;
  for (int i = 0; i < 500; ++i) {
    m.insert(i, i);
    if (i % 53 == 0) { ASSERT_EQ(m.validate(), "") << "i=" << i; }
  }
  EXPECT_EQ(m.validate(), "");
}

TEST(M0, EraseRepairsWithMostRecentOfNextSegment) {
  M0Map<int, int> m;
  for (int i = 0; i < 300; ++i) m.insert(i, i);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(m.erase(i).has_value());
    if (i % 25 == 0) { ASSERT_EQ(m.validate(), "") << "i=" << i; }
  }
  EXPECT_EQ(m.size(), 150u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M0, ExecuteBatchMatchesPointOps) {
  M0Map<int, int> a, b;
  std::vector<Op<int, int>> ops;
  util::Xoshiro256 rng(55);
  for (int i = 0; i < 2000; ++i) {
    const int key = static_cast<int>(rng.bounded(200));
    switch (rng.bounded(3)) {
      case 0: ops.push_back(Op<int, int>::insert(key, key * 2)); break;
      case 1: ops.push_back(Op<int, int>::erase(key)); break;
      default: ops.push_back(Op<int, int>::search(key));
    }
  }
  const auto results = a.execute_batch(ops);
  ASSERT_EQ(results.size(), ops.size());
  for (const auto& op : ops) {
    switch (op.type) {
      case OpType::kInsert: b.insert(op.key, op.value); break;
      case OpType::kErase: b.erase(op.key); break;
      case OpType::kSearch: b.search(op.key); break;
      default: break;  // this script is point-only
    }
  }
  EXPECT_EQ(a.size(), b.size());
}

// Rank invariant behind Theorem 7: after accessing a working set of w keys
// repeatedly, all of them live within segments whose cumulative capacity is
// O(w) — i.e. the first ceil(loglog w)+O(1) segments.
class M0RankInvariantTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(M0RankInvariantTest, HotSetResidesInSmallPrefix) {
  const std::size_t w = GetParam();
  M0Map<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 4096; ++i) m.insert(i, 1);
  // Access keys 0..w-1 in round-robin a few times.
  for (int round = 0; round < 6; ++round) {
    for (std::uint64_t k = 0; k < w; ++k) ASSERT_TRUE(m.search(k).has_value());
  }
  // Find the smallest segment prefix with capacity >= 2w; all hot keys must
  // be inside it (the paper's invariant with slack for demotion swaps).
  std::size_t prefix = 0;
  std::uint64_t cum = 0;
  while (cum < 2 * w) cum += core::segment_capacity(prefix++);
  for (std::uint64_t k = 0; k < w; ++k) {
    const auto seg = m.segment_of(k);
    ASSERT_TRUE(seg.has_value());
    EXPECT_LT(*seg, prefix) << "hot key " << k << " too deep (w=" << w << ")";
  }
  EXPECT_EQ(m.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(WorkingSetSizes, M0RankInvariantTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 200));

// Empirical Theorem 7 shape: average segment depth of an access grows with
// recency rank (doubly-log), and is independent of map size for fixed rank.
TEST(M0, AccessDepthGrowsWithRecencyNotSize) {
  auto deepest_hot = [](std::size_t n, std::size_t w) {
    M0Map<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < n; ++i) m.insert(i, 1);
    for (int round = 0; round < 4; ++round) {
      for (std::uint64_t k = 0; k < w; ++k) m.search(k);
    }
    std::size_t deepest = 0;
    for (std::uint64_t k = 0; k < w; ++k) {
      deepest = std::max(deepest, *m.segment_of(k));
    }
    return deepest;
  };
  // Fixed working set, growing map: depth of hot keys does not grow.
  const auto d1 = deepest_hot(1 << 10, 8);
  const auto d2 = deepest_hot(1 << 14, 8);
  EXPECT_EQ(d1, d2);
  // Fixed map, growing working set: depth grows.
  const auto small_ws = deepest_hot(1 << 12, 4);
  const auto large_ws = deepest_hot(1 << 12, 1000);
  EXPECT_GT(large_ws, small_ws);
}

}  // namespace
}  // namespace pwss
