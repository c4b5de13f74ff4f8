// Tests for M1, the batched parallel working-set map (Section 6): targeted
// batches against a sequential reference, duplicate combining, the walk's
// chunking and sweep windows, and capacity invariants. The randomized
// differential runs (sequential and on 4 workers, snapshot rebuild
// included) are the harness's (property_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/m1_map.hpp"
#include "sched/scheduler.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using core::M1Map;
using core::Op;
using core::OpType;
using core::Result;
using core::ResultStatus;
using IntOp = Op<int, int>;

using testutil::reference_results;

void expect_equal_results(const std::vector<Result<int>>& got,
                          const std::vector<Result<int>>& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    testutil::expect_result_eq(got[i], want[i], what, i);
  }
}

TEST(M1, EmptyBatch) {
  M1Map<int, int> m;
  EXPECT_TRUE(m.execute_batch(std::vector<IntOp>{}).empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(M1, SingleInsertAndSearch) {
  M1Map<int, int> m;
  auto r = m.execute_batch({IntOp::insert(1, 10), IntOp::search(1)});
  EXPECT_TRUE(r[0].success());
  EXPECT_TRUE(r[1].success());
  EXPECT_EQ(r[1].value, 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(M1, SearchMissingFails) {
  M1Map<int, int> m;
  auto r = m.execute_batch({IntOp::search(42)});
  EXPECT_FALSE(r[0].success());
  EXPECT_FALSE(r[0].value.has_value());
}

TEST(M1, DuplicateOpsInBatchRespectProgramOrder) {
  M1Map<int, int> m;
  // search(miss), insert, search(hit), erase, search(miss), insert again
  auto r = m.execute_batch({IntOp::search(5), IntOp::insert(5, 50),
                            IntOp::search(5), IntOp::erase(5),
                            IntOp::search(5), IntOp::insert(5, 55)});
  EXPECT_FALSE(r[0].success());
  EXPECT_TRUE(r[1].success());
  EXPECT_EQ(r[2].value, 50);
  EXPECT_EQ(r[3].value, 50);
  EXPECT_FALSE(r[4].success());
  EXPECT_TRUE(r[5].success());
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.search(5), 55);
}

TEST(M1, InsertOnExistingIsUpdate) {
  M1Map<int, int> m;
  m.execute_batch({IntOp::insert(7, 70)});
  auto r = m.execute_batch({IntOp::insert(7, 71)});
  EXPECT_FALSE(r[0].success()) << "update, not fresh insert";
  EXPECT_EQ(m.search(7), 71);
  EXPECT_EQ(m.size(), 1u);
}

TEST(M1, NetDeletionRemovesItem) {
  M1Map<int, int> m;
  m.execute_batch({IntOp::insert(3, 30)});
  auto r = m.execute_batch({IntOp::search(3), IntOp::erase(3)});
  EXPECT_TRUE(r[0].success());
  EXPECT_TRUE(r[1].success());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.search(3).has_value());
}

TEST(M1, LargeBatchBuildsSegments) {
  M1Map<int, int> m;
  std::vector<IntOp> batch;
  for (int i = 0; i < 1000; ++i) batch.push_back(IntOp::insert(i, i));
  m.execute_batch(batch);
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_GE(m.segment_count(), 4u);
  EXPECT_EQ(m.validate(), "");
  for (int i = 0; i < 1000; i += 97) EXPECT_EQ(m.search(i), i);
}

TEST(M1, DuplicateHeavyBatchesCombine) {
  // A batch of b ops on ONE key must behave like the sequential chain.
  M1Map<int, int> m;
  std::vector<IntOp> warm;
  for (int i = 0; i < 500; ++i) warm.push_back(IntOp::insert(i, i));
  m.execute_batch(warm);
  std::vector<IntOp> batch;
  for (int i = 0; i < 1000; ++i) batch.push_back(IntOp::search(250));
  const auto r = m.execute_batch(batch);
  for (const auto& res : r) {
    ASSERT_TRUE(res.success());
    ASSERT_EQ(res.value, 250);
  }
  EXPECT_EQ(m.validate(), "");
}

// A point phase longer than kBatchChunk walks the ladder one chunk at a
// time: same-key runs that straddle a chunk boundary still resolve in
// submission order, and the prefix rule holds after the phase.
TEST(M1, PhaseLongerThanBatchChunkWalksInChunks) {
  M1Map<int, int> m;
  std::map<int, int> ref;
  const std::vector<IntOp> mixed = testutil::scripted_ops<int, int>(
      91, 3 * core::kBatchChunk + 17, 2048, /*with_ordered=*/false);
  expect_equal_results(m.execute_batch(mixed), reference_results(ref, mixed),
                       "chunked phase");
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.validate(), "");

  std::vector<IntOp> chain;  // one key, every chunk boundary inside the run
  for (int i = 0; i < static_cast<int>(2 * core::kBatchChunk) + 5; ++i) {
    switch (i % 3) {
      case 0: chain.push_back(IntOp::upsert(7, i)); break;
      case 1: chain.push_back(IntOp::search(7)); break;
      default: chain.push_back(IntOp::erase(7));
    }
  }
  expect_equal_results(m.execute_batch(chain), reference_results(ref, chain),
                       "chunked chain");
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.validate(), "");
}

// The walk sorts each chunk by (key, source index) itself, skipping a
// chunk already in key order: a non-monotone, a key-descending and an
// already key-sorted chunk, each with several upserts, erases and
// searches per key, all resolve in submission order.
TEST(M1, WalkChunksInEveryArrivalOrderResolveInSubmissionOrder) {
  sched::Scheduler scheduler(2);
  for (sched::Scheduler* s : {static_cast<sched::Scheduler*>(nullptr),
                              &scheduler}) {
    M1Map<int, int> m(s);
    std::map<int, int> ref;
    for (std::uint64_t round = 0; round < 3; ++round) {
      const std::vector<IntOp> phase = testutil::walk_order_phase(
          17 + round, core::kBatchChunk, 3, 1 << 13);
      ASSERT_GT(phase.size(), core::kBatchChunk);
      expect_equal_results(m.execute_batch(phase),
                           reference_results(ref, phase), "walk order");
      EXPECT_EQ(m.size(), ref.size());
      ASSERT_EQ(m.validate(), "") << "round " << round;
    }
  }
}

TEST(M1, AccessedItemPromotedTowardFront) {
  M1Map<int, int> m;
  std::vector<IntOp> warm;
  for (int i = 0; i < 500; ++i) warm.push_back(IntOp::insert(i, i));
  m.execute_batch(warm);
  // Repeatedly search one key; it must land in segment 0.
  for (int round = 0; round < 8; ++round) {
    m.execute_batch({IntOp::search(123)});
  }
  EXPECT_EQ(m.segment_of(123), 0u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M1, OrderedQueriesInMixedBatch) {
  // One batch mixing point and ordered phases: every ordered query must
  // observe exactly the point ops that precede it in submission order.
  M1Map<int, int> m;
  auto r = m.execute_batch(
      {IntOp::insert(10, 100), IntOp::insert(20, 200), IntOp::insert(30, 300),
       IntOp::predecessor(25), IntOp::successor(25),
       IntOp::range_count(10, 30), IntOp::erase(20),
       IntOp::predecessor(25), IntOp::range_count(10, 30),
       IntOp::upsert(10, 111), IntOp::search(10)});
  EXPECT_EQ(r[3].matched_key, 20);
  EXPECT_EQ(r[3].value, 200);
  EXPECT_EQ(r[4].matched_key, 30);
  EXPECT_EQ(r[5].count, 3u);
  EXPECT_TRUE(r[6].success());
  EXPECT_EQ(r[7].matched_key, 10);  // 20 erased by the phase before
  EXPECT_EQ(r[8].count, 2u);
  EXPECT_EQ(r[9].status, ResultStatus::kUpdated);
  EXPECT_EQ(r[10].value, 111);
  EXPECT_EQ(m.validate(), "");
}

TEST(M1, OrderedQueriesMissAtBoundaries) {
  M1Map<int, int> m;
  m.execute_batch({IntOp::insert(5, 50), IntOp::insert(7, 70)});
  auto r = m.execute_batch({IntOp::predecessor(5), IntOp::successor(7),
                            IntOp::range_count(8, 100),
                            IntOp::range_count(7, 5)});
  EXPECT_EQ(r[0].status, ResultStatus::kNotFound);  // strictly below 5: none
  EXPECT_EQ(r[1].status, ResultStatus::kNotFound);  // strictly above 7: none
  EXPECT_EQ(r[2].count, 0u);
  EXPECT_EQ(r[3].count, 0u);  // inverted range
}

TEST(M1, DuplicateOrderedQueriesCombine) {
  // A batch of b identical ordered queries coalesces to one tree walk per
  // distinct (type, key, key2); every duplicate must get the same answer.
  M1Map<int, int> m;
  std::vector<IntOp> warm;
  for (int i = 0; i < 500; ++i) warm.push_back(IntOp::insert(i * 2, i));
  m.execute_batch(warm);
  std::vector<IntOp> batch;
  for (int i = 0; i < 800; ++i) {
    batch.push_back(i % 2 == 0 ? IntOp::predecessor(501)
                               : IntOp::range_count(100, 200));
  }
  const auto r = m.execute_batch(batch);
  for (int i = 0; i < 800; ++i) {
    if (i % 2 == 0) {
      ASSERT_EQ(r[i].matched_key, 500) << i;
    } else {
      ASSERT_EQ(r[i].count, 51u) << i;
    }
  }

  // With a scheduler, more than 64 distinct queries are answered by
  // parallel_for; each duplicate still gets its own query's answer.
  sched::Scheduler scheduler(4);
  M1Map<int, int> par(&scheduler);
  std::map<int, int> ref;
  par.execute_batch(warm);
  for (const auto& op : warm) testutil::reference_apply(ref, op);
  const auto queries = testutil::ordered_batch_with_duplicates(240, 3, 17);
  const auto got = par.execute_batch(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto want = testutil::reference_apply(ref, queries[i]);
    testutil::expect_result_eq(got[i], want, "m1 combined ordered", i);
  }
  EXPECT_EQ(par.validate(), "");
}

TEST(M1, OrderedQueriesDoNotSelfAdjust) {
  // Ordered kinds are read-only: no promotion, no recency effect.
  M1Map<int, int> m;
  std::vector<IntOp> warm;
  for (int i = 0; i < 500; ++i) warm.push_back(IntOp::insert(i, i));
  m.execute_batch(warm);
  const auto depth_before = m.segment_of(123);
  for (int round = 0; round < 8; ++round) {
    m.execute_batch({IntOp::predecessor(124), IntOp::successor(122),
                     IntOp::range_count(123, 123)});
  }
  EXPECT_EQ(m.segment_of(123), depth_before);
  EXPECT_EQ(m.validate(), "");
}

TEST(M1, EraseEverything) {
  M1Map<int, int> m;
  std::vector<IntOp> ins, del;
  for (int i = 0; i < 300; ++i) {
    ins.push_back(IntOp::insert(i, i));
    del.push_back(IntOp::erase(i));
  }
  m.execute_batch(ins);
  const auto r = m.execute_batch(del);
  for (const auto& res : r) ASSERT_TRUE(res.success());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.segment_count(), 0u);
  EXPECT_EQ(m.validate(), "");
}

// The golden ladder state: a seeded stream (ascending load, working-set
// searches, upserts, erases) leaves the same segments, keys and recency
// order after every batch as the walk that probed every pending group at
// every segment. The pinned chain was recorded from that walk.
TEST(M1, GoldenLadderStateChain) {
  sched::Scheduler scheduler(2);
  M1Map<int, int> m(&scheduler);
  std::map<int, int> ref;
  std::uint64_t chain = 0xcbf29ce484222325ULL;
  for (const std::vector<IntOp>& batch : testutil::golden_ladder_stream(5)) {
    expect_equal_results(m.execute_batch(batch), reference_results(ref, batch),
                         "golden");
    chain = testutil::chain_ladder_state(chain, m.segments());
  }
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.validate(), "");
  EXPECT_EQ(chain, 0xab32c11121d13343ULL) << std::hex << "chain 0x" << chain;
}

// Probe-depth counts are per op: a group of five searches on one key
// counts five hits, three searches on an absent key three misses.
TEST(M1, ProbeDepthCountsCountOpsNotGroups) {
  M1Map<int, int> m;
  m.insert(5, 50);
  m.reset_probe_depth_counts();
  std::vector<IntOp> batch(5, IntOp::search(5));
  for (int i = 0; i < 3; ++i) batch.push_back(IntOp::search(99));
  const auto results = m.execute_batch(batch);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[i].value, 50);
  const core::ProbeDepthCounts& pc = m.probe_depth_counts();
  EXPECT_EQ(pc.hits[0], 5u);
  EXPECT_EQ(pc.misses, 3u);
  EXPECT_EQ(pc.total(), 8u);
}

// A sweep probes only the groups inside a segment's key range, bounds
// included: searches and upserts on each segment's least and greatest key
// must find their item there, batch after batch.
TEST(M1, SweepWindowIncludesSegmentBounds) {
  M1Map<int, int> m;
  std::map<int, int> ref;
  std::vector<IntOp> load;
  for (int k = 0; k < 5000; k += 2) load.push_back(IntOp::insert(k, k));
  expect_equal_results(m.execute_batch(load), reference_results(ref, load),
                       "load");
  for (int round = 0; round < 40; ++round) {
    std::vector<IntOp> batch;
    for (const auto& seg : m.segments()) {
      const auto [least, greatest] = seg.key_bounds();
      ASSERT_NE(least, nullptr);
      if (round % 2 == 0) {
        batch.push_back(IntOp::search(*least));
        batch.push_back(IntOp::upsert(*greatest, round));
      } else {
        batch.push_back(IntOp::upsert(*least, round));
        batch.push_back(IntOp::search(*greatest));
      }
    }
    if (round % 5 == 4) {
      batch.push_back(IntOp::erase(*m.segments()[1].key_bounds().first));
    }
    expect_equal_results(m.execute_batch(batch), reference_results(ref, batch),
                         "bounds");
    ASSERT_EQ(m.size(), ref.size());
    ASSERT_EQ(m.validate(), "") << "round " << round;
  }
}

// A segment whose window is empty is not swept, but its prefix repair
// still runs. Ladder after loading 0..299: S[0] = {0, 1}, S[1] = {2..5},
// S[2] = {6..21}, S[3] = the rest. Erasing 3 (in S[1]) underfills
// S[0..1]; S[2]'s window is empty, and its repair pulls S[2]'s most
// recent item, 6, into S[1] before S[3]'s hit, 100, moves to S[2]'s front.
TEST(M1, SkippedSegmentStillRepairsItsPrefix) {
  M1Map<int, int> m;
  std::vector<IntOp> load;
  for (int k = 0; k < 300; ++k) load.push_back(IntOp::insert(k, k));
  m.execute_batch(load);
  ASSERT_EQ(m.segment_of(1), 0u);
  ASSERT_EQ(m.segment_of(5), 1u);
  ASSERT_EQ(m.segment_of(6), 2u);
  ASSERT_EQ(m.segment_of(21), 2u);
  ASSERT_EQ(m.segment_of(100), 3u);
  const auto results =
      m.execute_batch({IntOp::erase(3), IntOp::search(100)});
  EXPECT_EQ(results[0].status, ResultStatus::kErased);
  EXPECT_EQ(results[1].value, 100);
  EXPECT_EQ(m.segment_of(6), 1u);
  EXPECT_EQ(m.segment_of(100), 2u);
  EXPECT_EQ(m.validate(), "");
}

// Chunks wholly below, wholly above and straddling the ladder's key range,
// each with fresh keys, hits and erases, against the oracle.
TEST(M1, ChunksBelowAboveAndStraddlingTheKeyRange) {
  M1Map<int, int> m;
  std::map<int, int> ref;
  std::vector<IntOp> load;
  for (int k = 10000; k < 20000; ++k) load.push_back(IntOp::insert(k, k));
  expect_equal_results(m.execute_batch(load), reference_results(ref, load),
                       "load");
  util::Xoshiro256 rng(8);
  const std::pair<int, int> spans[] = {
      {0, 5000}, {30000, 35000}, {9000, 11000}, {19000, 21000}, {0, 40000}};
  for (int round = 0; round < 30; ++round) {
    const auto [lo, hi] = spans[round % 5];
    std::vector<IntOp> batch;
    for (int i = 0; i < 600; ++i) {
      const int key = lo + static_cast<int>(rng.bounded(
                               static_cast<std::uint64_t>(hi - lo)));
      switch (rng.bounded(4)) {
        case 0: batch.push_back(IntOp::upsert(key, round)); break;
        case 1: batch.push_back(IntOp::erase(key)); break;
        default: batch.push_back(IntOp::search(key));
      }
    }
    expect_equal_results(m.execute_batch(batch), reference_results(ref, batch),
                         "span");
    ASSERT_EQ(m.size(), ref.size());
    ASSERT_EQ(m.validate(), "") << "round " << round;
  }
}

// Key-ordered loads, ascending and descending, in multi-chunk batches:
// each chunk lies wholly above (or below) every segment's range, so no
// segment is probed. Every key is then found, and the first key loaded is
// the most recent, in S[0].
TEST(M1, AscendingAndDescendingSortedLoads) {
  constexpr int kKeys = 3 * static_cast<int>(core::kBatchChunk) + 5;
  for (const bool ascending : {true, false}) {
    M1Map<int, int> m;
    for (int b = 0; b < kKeys; b += 5000) {
      std::vector<IntOp> batch;
      for (int i = b; i < std::min(kKeys, b + 5000); ++i) {
        const int key = ascending ? i : kKeys - 1 - i;
        batch.push_back(IntOp::insert(key, key));
      }
      for (const auto& r : m.execute_batch(batch)) {
        ASSERT_EQ(r.status, ResultStatus::kInserted);
      }
    }
    ASSERT_EQ(m.size(), static_cast<std::size_t>(kKeys));
    ASSERT_EQ(m.validate(), "");
    EXPECT_EQ(m.segment_of(ascending ? 0 : kKeys - 1), 0u);
    std::vector<IntOp> probe;
    for (int k = 0; k < kKeys; ++k) probe.push_back(IntOp::search(k));
    const auto results = m.execute_batch(probe);
    for (int k = 0; k < kKeys; ++k) ASSERT_EQ(results[k].value, k) << k;
    EXPECT_EQ(m.validate(), "");
  }
}

}  // namespace
}  // namespace pwss
