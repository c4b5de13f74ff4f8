// Tests for M1, the batched parallel working-set map (Section 6):
// correctness against a sequential reference, duplicate combining,
// capacity invariants, and parallel/sequential equivalence.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "sched/scheduler.hpp"
#include "store/snapshot.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace pwss {
namespace {

using core::M1Map;
using core::Op;
using core::OpType;
using core::Result;
using core::ResultStatus;
using IntOp = Op<int, int>;

// Applies ops in submission order to a std::map and returns the reference
// results (testutil::reference_apply -- the protocol-v2 oracle with
// lower_bound-based ordered kinds). Valid oracle for M1: per-key order is
// preserved, point ops on distinct keys commute, and ordered kinds are
// phase-sliced to observe exactly the preceding point ops.
std::vector<Result<int>> reference_results(std::map<int, int>& ref,
                                           const std::vector<IntOp>& ops) {
  std::vector<Result<int>> out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    out.push_back(testutil::reference_apply(ref, op));
  }
  return out;
}

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

TEST(M1, InvariantsAfterEveryBatch) {
  util::Xoshiro256 rng(5);
  M1Map<int, int> m;
  std::map<int, int> ref;
  for (int round = 0; round < 60; ++round) {
    const std::size_t b = 1 + rng.bounded(200);
    const std::vector<IntOp> batch = testutil::scripted_ops<int, int>(
        rng.bounded(1u << 30), b, 300, /*with_ordered=*/true);
    const auto got = m.execute_batch(batch);
    const auto want = reference_results(ref, batch);
    expect_equal_results(got, want, "round");
    ASSERT_EQ(m.size(), ref.size()) << "round " << round;
    ASSERT_EQ(m.validate(), "") << "round " << round;
  }
}

TEST(M1, DifferentialManySmallBatches) {
  util::Xoshiro256 rng(11);
  M1Map<int, int> m;
  std::map<int, int> ref;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t b = 1 + rng.bounded(4);
    const std::vector<IntOp> batch = testutil::scripted_ops<int, int>(
        rng.bounded(1u << 30), b, 64, /*with_ordered=*/true);
    expect_equal_results(m.execute_batch(batch), reference_results(ref, batch),
                         "small-batch");
  }
  EXPECT_EQ(m.validate(), "");
}

// The same differential fuzz, but the map is serialized through the
// store layer's snapshot format at the midpoint and rebuilt from the
// loaded entries — the oracle carries straight across the boundary, so
// any entry the snapshot drops, duplicates, or reorders diverges the
// second half immediately.
TEST(M1, DifferentialFuzzAcrossSnapshotBoundary) {
  util::Xoshiro256 rng(13);
  auto m = std::make_unique<M1Map<int, int>>();
  std::map<int, int> ref;
  char tmpl[] = "/tmp/pwss-m1-snap-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string snap = std::string(tmpl) + "/snapshot";
  for (int round = 0; round < 1000; ++round) {
    if (round == 500) {
      std::vector<std::pair<int, int>> entries;
      m->export_entries(entries);
      store::SnapshotWriter<int, int>::write(snap, round, entries);
      const auto loaded = store::SnapshotReader<int, int>::load(snap);
      m = std::make_unique<M1Map<int, int>>();
      std::vector<IntOp> rebuild;
      rebuild.reserve(loaded.entries.size());
      for (const auto& [k, v] : loaded.entries) {
        rebuild.push_back(IntOp::insert(k, v));
      }
      m->execute_batch(rebuild);
      ASSERT_EQ(m->validate(), "");
    }
    const std::size_t b = 1 + rng.bounded(4);
    const std::vector<IntOp> batch = testutil::scripted_ops<int, int>(
        rng.bounded(1u << 30), b, 64, /*with_ordered=*/true);
    expect_equal_results(m->execute_batch(batch),
                         reference_results(ref, batch), "snap-boundary");
  }
  EXPECT_EQ(m->validate(), "");
  std::filesystem::remove_all(tmpl);
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

TEST(M1, ArenaReuseManyBatchesDifferentialVsM0) {
  // The per-instance BatchScratch arena is reused by every execute_batch;
  // a long stream of batches with wildly varying sizes (straddling the
  // pesort small-sort cutoff and shrinking/growing the arena's buffers)
  // must stay exactly equivalent to M0's sequential reference semantics.
  util::Xoshiro256 rng(77);
  M1Map<int, int> m1;
  core::M0Map<int, int> m0;
  const std::size_t sizes[] = {1, 3, 700, 2, 130, 1, 900, 40, 8, 300};
  for (int round = 0; round < 60; ++round) {
    std::vector<IntOp> batch;
    const std::size_t b = sizes[static_cast<std::size_t>(round) % 10];
    for (std::size_t i = 0; i < b; ++i) {
      const int key = static_cast<int>(rng.bounded(256));
      switch (rng.bounded(4)) {
        case 0:
        case 1: batch.push_back(IntOp::insert(key, round * 10000 + static_cast<int>(i))); break;
        case 2: batch.push_back(IntOp::erase(key)); break;
        default: batch.push_back(IntOp::search(key));
      }
    }
    expect_equal_results(m1.execute_batch(batch), m0.execute_batch(batch),
                         "arena-reuse");
    ASSERT_EQ(m1.size(), m0.size()) << "round " << round;
    ASSERT_EQ(m1.validate(), "") << "round " << round;
  }
  ASSERT_EQ(m0.validate(), "");
}

// Parameterized: parallel execution must match sequential execution exactly.
struct M1ParCase {
  std::size_t batch;
  std::size_t rounds;
  std::uint64_t universe;
};

class M1ParallelTest : public ::testing::TestWithParam<M1ParCase> {};

TEST_P(M1ParallelTest, ParallelMatchesSequentialAndReference) {
  const auto [batch_size, rounds, universe] = GetParam();
  sched::Scheduler scheduler(4);
  M1Map<int, int> par(&scheduler);
  M1Map<int, int> seq(nullptr);
  std::map<int, int> ref;
  util::Xoshiro256 rng(batch_size * 31 + rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::vector<IntOp> batch = testutil::scripted_ops<int, int>(
        rng.bounded(1u << 30), batch_size, universe, /*with_ordered=*/true);
    const auto want = reference_results(ref, batch);
    expect_equal_results(par.execute_batch(batch), want, "parallel");
    expect_equal_results(seq.execute_batch(batch), want, "sequential");
    ASSERT_EQ(par.size(), ref.size());
    // Deep-validate (structure + pool accounting, with a precise report)
    // every few rounds; the boolean check covers the rest.
    if (round % 4 == 0) {
      ASSERT_EQ(par.validate(), "") << "round " << round;
    } else {
      ASSERT_EQ(par.validate(), "") << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, M1ParallelTest,
    ::testing::Values(M1ParCase{1, 200, 50}, M1ParCase{16, 60, 100},
                      M1ParCase{256, 25, 400}, M1ParCase{1024, 10, 64},
                      M1ParCase{4096, 6, 1 << 20},
                      M1ParCase{4096, 6, 16}));  // heavy duplicates

}  // namespace
}  // namespace pwss
