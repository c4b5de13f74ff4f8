// Tests for M2, the pipelined parallel working-set map (Section 7):
// functional correctness under the pipeline, filter combining, balance
// invariants (Lemma 16, relaxed), concurrent clients, and the bulk path
// (an execute_batch point phase longer than one cut sweeps the ladder
// under the full lock chain instead of entering the pipeline).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/m2_map.hpp"
#include "sched/scheduler.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using core::M2Map;
using core::Op;
using core::OpType;
using core::Result;
using core::ResultStatus;
using IntOp = Op<int, int>;

using testutil::reference_results;

/// Submits every op through M2Map::submit — the pipeline path whatever the
/// backlog — then waits for each result, in submission order.
std::vector<Result<int>> submit_all(M2Map<int, int>& m,
                                    const std::vector<IntOp>& ops) {
  auto tickets = std::make_unique<core::OpTicket<int>[]>(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) m.submit(ops[i], &tickets[i]);
  std::vector<Result<int>> out;
  out.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out.push_back(tickets[i].wait());
  }
  return out;
}

TEST(M2, Construction) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_GE(m.first_slab_width(), 1u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, FirstSlabWidthMatchesFormula) {
  sched::Scheduler scheduler(2);
  // p=4: 2p^2=32, log2=5, log2(5)~2.32 -> ceil 3, +1 = 4.
  M2Map<int, int> m(scheduler, 4);
  EXPECT_EQ(m.first_slab_width(), 4u);
  // p=1: 2p^2=2 -> log2=1 -> log2(1)=0 -> ceil 0 +1 = 1.
  M2Map<int, int> m1(scheduler, 1);
  EXPECT_EQ(m1.first_slab_width(), 1u);
}

TEST(M2, SingleOps) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_FALSE(m.insert(1, 11));
  EXPECT_EQ(m.search(1), 11);
  EXPECT_EQ(m.search(2), std::nullopt);
  EXPECT_EQ(m.erase(1), 11);
  EXPECT_EQ(m.erase(1), std::nullopt);
  m.quiesce();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, BatchWithDuplicateKeyChain) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  auto r = m.execute_batch({IntOp::search(5), IntOp::insert(5, 50),
                            IntOp::search(5), IntOp::erase(5),
                            IntOp::search(5), IntOp::insert(5, 55)});
  EXPECT_FALSE(r[0].success());
  EXPECT_TRUE(r[1].success());
  EXPECT_EQ(r[2].value, 50);
  EXPECT_EQ(r[3].value, 50);
  EXPECT_FALSE(r[4].success());
  EXPECT_TRUE(r[5].success());
  m.quiesce();
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.search(5), 55);
}

TEST(M2, BulkInsertAndLookup) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  std::vector<IntOp> batch;
  for (int i = 0; i < 2000; ++i) batch.push_back(IntOp::insert(i, i * 3));
  m.execute_batch(batch);
  m.quiesce();
  EXPECT_EQ(m.size(), 2000u);
  EXPECT_EQ(m.validate(), "");
  for (int i = 0; i < 2000; i += 101) EXPECT_EQ(m.search(i), i * 3);
}

TEST(M2, DeleteEverything) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  std::vector<IntOp> ins, del;
  for (int i = 0; i < 500; ++i) {
    ins.push_back(IntOp::insert(i, i));
    del.push_back(IntOp::erase(i));
  }
  m.execute_batch(ins);
  auto r = m.execute_batch(del);
  for (const auto& res : r) ASSERT_TRUE(res.success());
  m.quiesce();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, RepeatedAccessPromotesTowardFront) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  std::vector<IntOp> warm;
  for (int i = 0; i < 3000; ++i) warm.push_back(IntOp::insert(i, i));
  m.execute_batch(warm);
  m.quiesce();
  for (int round = 0; round < 12; ++round) {
    EXPECT_EQ(m.search(1234), 1234);
  }
  m.quiesce();
  const auto seg = m.segment_of(1234);
  ASSERT_TRUE(seg.has_value());
  EXPECT_LE(*seg, m.first_slab_width())
      << "hot item should live in or near the first slab";
}

TEST(M2, FilterDrainsAtQuiescence) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  std::vector<IntOp> batch;
  for (int i = 0; i < 5000; ++i) {
    batch.push_back(IntOp::insert(i % 100, i));  // heavy same-key traffic
  }
  submit_all(m, batch);  // through the pipeline, so the filter combines
  m.quiesce();
  EXPECT_EQ(m.filter_occupancy(), 0u);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, ConcurrentClientsDisjointKeys) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  std::atomic<bool> ok{true};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const int key = t * 100000 + i;
        if (!m.insert(key, i)) ok = false;
        auto v = m.search(key);
        if (!v || *v != i) ok = false;
        if (m.erase(key) != i) ok = false;
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_TRUE(ok.load());
  m.quiesce();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, ConcurrentClientsSharedHotKeys) {
  sched::Scheduler scheduler(4);
  M2Map<std::uint64_t, std::uint64_t> m(scheduler);
  constexpr int kThreads = 6, kOps = 2000;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 7 + 1);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = rng.bounded(64);  // hot shared set
        switch (rng.bounded(3)) {
          case 0: m.insert(key, key * 10); break;
          case 1: m.erase(key); break;
          default: {
            auto v = m.search(key);
            if (v) {
              EXPECT_EQ(*v, key * 10);
              hits.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  m.quiesce();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(m.size(), 64u);
  EXPECT_EQ(m.validate(), "");
  EXPECT_EQ(m.filter_occupancy(), 0u);
}

// Loads 2^14 keys through M2Map::submit in 4,096-op backlogs (submit_all:
// execute_batch would take the bulk path), then runs mixed rounds the same
// way against an oracle, deep-validating the quiescent pipeline after the
// load and after every round. `tasks_per_op` receives the scheduler tasks
// per op spent on the load.
void bulk_load_then_mixed_rounds(unsigned p, double* tasks_per_op) {
  constexpr std::size_t kBatch = 4096;
  constexpr int kKeys = 1 << 14;
  sched::Scheduler scheduler(2);
  M2Map<int, int> m(scheduler, p);
  std::map<int, int> ref;

  const std::uint64_t tasks0 = scheduler.tasks_executed();
  for (int base = 0; base < kKeys; base += static_cast<int>(kBatch)) {
    std::vector<IntOp> batch;
    for (int k = base; k < base + static_cast<int>(kBatch); ++k) {
      batch.push_back(IntOp::insert(k, k));
      ref[k] = k;
    }
    for (const auto& r : submit_all(m, batch)) {
      ASSERT_EQ(r.status, ResultStatus::kInserted);
    }
  }
  *tasks_per_op =
      static_cast<double>(scheduler.tasks_executed() - tasks0) / kKeys;
  m.quiesce();
  ASSERT_EQ(m.validate(), "");
  ASSERT_EQ(m.size(), ref.size());

  util::Xoshiro256 rng(14);
  for (int round = 0; round < 8; ++round) {
    std::vector<IntOp> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const int key = static_cast<int>(rng.bounded(2 * kKeys));
      switch (rng.bounded(4)) {
        case 0: batch.push_back(IntOp::upsert(key, round)); break;
        case 1: batch.push_back(IntOp::erase(key)); break;
        default: batch.push_back(IntOp::search(key));
      }
    }
    const auto got = submit_all(m, batch);
    const auto want = reference_results(ref, batch);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, want[i].status) << round << ":" << i;
      ASSERT_EQ(got[i].value, want[i].value) << round << ":" << i;
    }
    m.quiesce();
    ASSERT_EQ(m.validate(), "") << "round " << round;
    ASSERT_EQ(m.size(), ref.size()) << "round " << round;
  }
}

// A deep submit backlog keeps thousands of ops in flight, so the interface
// cuts ceil(log2 n / p) bunches per run (M1's rule), not one p^2 bunch.
// The scheduler's task count pins that: one-bunch cuts spend ~1.1 tasks
// per op on this load, wide cuts ~0.2.
TEST(M2, WideCutsUnderBulkBacklog) {
  double tasks_per_op = 0;
  ASSERT_NO_FATAL_FAILURE(bulk_load_then_mixed_rounds(2, &tasks_per_op));
  EXPECT_LT(tasks_per_op, 0.5) << "bulk load is back to one-bunch cuts";
}

// p = 1 gives the deepest pipeline: S[m] = S[1] holds 4 items, so 2^14
// keys spread over four final-slab stages, S[1..4], all busy at once.
// Stage m+1's transfers with S[m] must hold FL[0] against the deeper
// stages' front insertions (else items are lost and trees torn), and the
// cut must stay capped at S[m]'s capacity (else S[m] outgrows Lemma 16's
// 3·2^(2^m)).
TEST(M2, DeepPipelineStaysSoundUnderBulkBacklog) {
  double tasks_per_op = 0;
  ASSERT_NO_FATAL_FAILURE(bulk_load_then_mixed_rounds(1, &tasks_per_op));
}

// p = 8 cuts 2 bunches of 64 = 128 ops per interface run at 2^14 keys,
// past sort_chunk's in-place bound, so the mixed rounds' random cuts take
// its (key, position) merge sort and gather.
TEST(M2, WideCutsTakeThePairSort) {
  static_assert(2 * 8 * 8 > core::kInPlaceSortMax);
  double tasks_per_op = 0;
  ASSERT_NO_FATAL_FAILURE(bulk_load_then_mixed_rounds(8, &tasks_per_op));
}

TEST(M2, OrderedQueriesSeeTheWholePipeline) {
  // Items deliberately spread across the first slab AND deep final-slab
  // stages; the global ordered read must snapshot every segment under the
  // full lock chain.
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler, 2);  // small p: deep pipeline sooner
  std::vector<IntOp> warm;
  for (int i = 0; i < 5000; ++i) warm.push_back(IntOp::insert(i * 2, i));
  m.execute_batch(warm);
  m.quiesce();
  // Hot keys migrate forward; cold keys sink into the final slab.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 64; ++i) m.search(i * 2);
  }
  m.quiesce();
  EXPECT_EQ(m.predecessor(5001)->first, 5000);
  EXPECT_EQ(m.predecessor(1)->first, 0);
  EXPECT_EQ(m.successor(4)->first, 6);
  EXPECT_FALSE(m.successor(9998).has_value());
  EXPECT_EQ(m.range_count(0, 9998), 5000u);
  EXPECT_EQ(m.range_count(100, 198), 50u);
  // The last read's result arrives before the interface's gate closes;
  // validation is quiescent-only.
  m.quiesce();
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, DuplicateOrderedQueriesCombine) {
  // The interface's global ordered read combines identical (type, key,
  // key2) tuples: each distinct query is answered once and the answer
  // fanned out to every duplicate ticket.
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler, 2);
  std::map<int, int> ref;
  std::vector<IntOp> warm;
  for (int i = 0; i < 500; ++i) warm.push_back(IntOp::insert(i * 2, i));
  m.execute_batch(warm);
  for (const auto& op : warm) testutil::reference_apply(ref, op);
  const auto queries = testutil::ordered_batch_with_duplicates(240, 3, 17);
  const auto got = m.execute_batch(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto want = testutil::reference_apply(ref, queries[i]);
    testutil::expect_result_eq(got[i], want, "m2 combined ordered", i);
  }
  m.quiesce();
  EXPECT_EQ(m.validate(), "");
}

TEST(M2, ConcurrentOrderedAndPointClients) {
  // Ordered readers run the full-lock-chain read while writers keep the
  // pipeline busy; every predecessor answer must be a key some client
  // inserted (monotone key space: answers can lag but never corrupt).
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler, 2);
  for (int i = 0; i < 1000; ++i) m.insert(i, i);
  m.quiesce();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int next = 1000;
    while (!stop.load(std::memory_order_acquire)) {
      m.insert(next, next);
      ++next;
    }
  });
  std::thread eraser([&] {
    int next = 0;
    while (!stop.load(std::memory_order_acquire) && next < 400) {
      m.erase(next);
      ++next;
    }
  });
  for (int round = 0; round < 300; ++round) {
    const auto hit = m.predecessor(100000);
    ASSERT_TRUE(hit.has_value());
    ASSERT_GE(hit->first, 999);
    ASSERT_EQ(hit->second, hit->first);
    const auto cnt = m.range_count(0, 100000);
    ASSERT_GE(cnt, 600u);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  eraser.join();
  m.quiesce();
  EXPECT_EQ(m.validate(), "");
}

// ---- the bulk path ----------------------------------------------------------
// Every point phase below is longer than one cut (at most 4 ops with p = 1,
// 4·ceil(log2 n / 2) with p = 2), so execute_batch hands it to the
// interface as a bulk request.

// Loads 2^14 keys in 4,096-op execute_batch calls: the interface sweeps
// each one with M1's walk instead of cutting it through the stages (the
// pipeline spends ~0.2 scheduler tasks per op on this load, see
// WideCutsUnderBulkBacklog).
TEST(M2, BulkBatchesSweepTheLadder) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    const std::uint64_t tasks0 = scheduler.tasks_executed();
    constexpr int kKeys = 1 << 14;
    for (int base = 0; base < kKeys; base += 4096) {
      std::vector<IntOp> batch;
      for (int k = base; k < base + 4096; ++k) {
        batch.push_back(IntOp::insert(k, k));
      }
      for (const auto& r : m.execute_batch(batch)) {
        ASSERT_EQ(r.status, ResultStatus::kInserted) << "p=" << p;
      }
    }
    const double tasks_per_op =
        static_cast<double>(scheduler.tasks_executed() - tasks0) / kKeys;
    EXPECT_LT(tasks_per_op, 0.05)
        << "p=" << p << ": the bulk load went through the pipeline";
    m.quiesce();
    EXPECT_EQ(m.size(), static_cast<std::size_t>(kKeys));
    ASSERT_EQ(m.validate(), "") << "p=" << p;
    for (int k = 0; k < kKeys; k += 997) EXPECT_EQ(m.search(k), k);
  }
}

// M2's bulk path runs the same walk, so it sorts each chunk the same way:
// a non-monotone, a key-descending and an already key-sorted chunk, each
// with several upserts, erases and searches per key, all resolve in
// submission order.
TEST(M2, BulkWalkChunksInEveryArrivalOrderResolveInSubmissionOrder) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    for (std::uint64_t round = 0; round < 3; ++round) {
      const std::vector<IntOp> phase = testutil::walk_order_phase(
          29 + round, core::kBatchChunk, 3, 1 << 13);
      const auto got = m.execute_batch(phase);
      const auto want = reference_results(ref, phase);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        testutil::expect_result_eq(got[i], want[i], "bulk walk order", i);
      }
      m.quiesce();
      ASSERT_EQ(m.size(), ref.size()) << "p=" << p << " round " << round;
      ASSERT_EQ(m.validate(), "") << "p=" << p << " round " << round;
    }
  }
}

// Ops a thread submitted before execute_batch go first on their keys: the
// bulk tick walks whatever still waits in the input buffer or the feed
// before the batch, and the pipeline's in-flight groups drain before it.
TEST(M2, BulkBatchFollowsEarlierAsyncSubmits) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    util::Xoshiro256 rng(31 + p);
    for (int round = 0; round < 20; ++round) {
      const auto early = testutil::scripted_ops<int, int>(
          rng.bounded(1u << 30), 64, 128, /*with_ordered=*/false);
      const auto bulk = testutil::scripted_ops<int, int>(
          rng.bounded(1u << 30), 600, 128, /*with_ordered=*/false);
      auto tickets = std::make_unique<core::OpTicket<int>[]>(early.size());
      for (std::size_t i = 0; i < early.size(); ++i) {
        m.submit(early[i], &tickets[i]);
      }
      const auto got = m.execute_batch(bulk);
      const auto want_early = reference_results(ref, early);
      const auto want = reference_results(ref, bulk);
      for (std::size_t i = 0; i < early.size(); ++i) {
        testutil::expect_result_eq(tickets[i].wait(), want_early[i], "early",
                                   i);
      }
      for (std::size_t i = 0; i < bulk.size(); ++i) {
        testutil::expect_result_eq(got[i], want[i], "bulk", i);
      }
      m.quiesce();
      ASSERT_EQ(m.size(), ref.size()) << "p=" << p << " round " << round;
      ASSERT_EQ(m.validate(), "") << "p=" << p << " round " << round;
    }
  }
}

// Bulk point phases alternate with ordered phases in one batch: each
// ordered query sees exactly the point ops before it.
TEST(M2, BulkPhasesInterleaveWithOrderedPhases) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    util::Xoshiro256 rng(47 + p);
    for (int round = 0; round < 10; ++round) {
      std::vector<IntOp> batch;
      for (int phase = 0; phase < 6; ++phase) {
        const auto points = testutil::scripted_ops<int, int>(
            rng.bounded(1u << 30), 200 + rng.bounded(300), 512,
            /*with_ordered=*/false);
        batch.insert(batch.end(), points.begin(), points.end());
        for (std::uint64_t q = 1 + rng.bounded(20); q > 0; --q) {
          const int key = static_cast<int>(rng.bounded(512));
          switch (rng.bounded(3)) {
            case 0: batch.push_back(IntOp::predecessor(key)); break;
            case 1: batch.push_back(IntOp::successor(key)); break;
            default: batch.push_back(IntOp::range_count(key, key + 64));
          }
        }
      }
      const auto got = m.execute_batch(batch);
      const auto want = reference_results(ref, batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        testutil::expect_result_eq(got[i], want[i], "interleaved", i);
      }
      m.quiesce();
      ASSERT_EQ(m.size(), ref.size()) << "p=" << p << " round " << round;
      ASSERT_EQ(m.validate(), "") << "p=" << p << " round " << round;
    }
  }
}

// The cut's terminal-status pass covers bulk ops: an expired deadline
// completes kTimedOut and the op never touches the ladder.
TEST(M2, BulkOpsPastTheirDeadlineTimeOut) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::vector<IntOp> batch;
    for (int i = 0; i < 1000; ++i) {
      batch.push_back(i % 3 == 0 ? IntOp::insert(i, i).with_deadline(1)
                                 : IntOp::insert(i, i));
    }
    const auto got = m.execute_batch(batch);
    std::size_t inserted = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto want =
          i % 3 == 0 ? ResultStatus::kTimedOut : ResultStatus::kInserted;
      ASSERT_EQ(got[i].status, want) << "p=" << p << " op " << i;
      inserted += want == ResultStatus::kInserted;
    }
    m.quiesce();
    EXPECT_EQ(m.size(), inserted);
    EXPECT_EQ(m.search(3), std::nullopt);
    EXPECT_EQ(m.search(4), 4);
    m.quiesce();
    ASSERT_EQ(m.validate(), "") << "p=" << p;
  }
}

// A bulk request whose every op is past its deadline still returns: each
// result is kTimedOut, written into the caller's buffer, and the map is
// untouched.
TEST(M2, BulkRequestAllPastDeadlineReturnsTimedOut) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    std::vector<IntOp> load;
    for (int k = 0; k < 3000; k += 3) load.push_back(IntOp::insert(k, k));
    (void)m.execute_batch(load);
    (void)reference_results(ref, load);
    std::vector<IntOp> expired;
    for (int k = 0; k < 2000; ++k) {
      expired.push_back(k % 2 == 0 ? IntOp::erase(k).with_deadline(1)
                                   : IntOp::insert(k, -k).with_deadline(1));
    }
    const auto got = m.execute_batch(expired);
    ASSERT_EQ(got.size(), expired.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, ResultStatus::kTimedOut)
          << "p=" << p << " op " << i;
    }
    m.quiesce();
    ASSERT_EQ(m.size(), ref.size()) << "p=" << p;
    for (const auto& [k, v] : ref) ASSERT_EQ(m.search(k), v) << "p=" << p;
    m.quiesce();
    ASSERT_EQ(m.validate(), "") << "p=" << p;
  }
}

// One caller-owned results buffer serves bulk batches of 4,096, 100 and
// 4,096 ops: the walk writes every slot of each batch, and a shorter batch
// leaves no stale slot behind.
TEST(M2, BulkRequestsReuseOneResultsBuffer) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    util::Xoshiro256 rng(83 + p);
    std::vector<Result<int>> got;
    for (std::size_t n : {4096u, 100u, 4096u}) {
      const auto batch = testutil::scripted_ops<int, int>(
          rng.bounded(1u << 30), n, 2048, /*with_ordered=*/false);
      m.execute_batch(std::span<const IntOp>(batch), got);
      const auto want = reference_results(ref, batch);
      ASSERT_EQ(got.size(), n) << "p=" << p;
      for (std::size_t i = 0; i < n; ++i) {
        testutil::expect_result_eq(got[i], want[i], "reused buffer", i);
      }
      m.quiesce();
      ASSERT_EQ(m.size(), ref.size()) << "p=" << p << " n=" << n;
      ASSERT_EQ(m.validate(), "") << "p=" << p << " n=" << n;
    }
  }
}

// quiesce() from a second thread while a bulk request is pending returns
// only once the request has completed. The scheduler's workers are held
// until the request has been handed to the interface, so the request
// cannot finish before the second thread starts waiting.
TEST(M2, QuiesceWaitsForAPendingBulkRequest) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    const auto load = testutil::scripted_ops<int, int>(
        91 + p, 4096, 2048, /*with_ordered=*/false);
    (void)m.execute_batch(load);
    (void)reference_results(ref, load);
    m.quiesce();

    std::atomic<int> held{0};
    std::atomic<bool> release{false};
    for (int w = 0; w < 2; ++w) {
      scheduler.spawn(
          [&] {
            held.fetch_add(1);
            while (!release.load()) std::this_thread::yield();
          },
          sched::Priority::kHigh);
    }
    while (held.load() < 2) std::this_thread::yield();

    std::vector<IntOp> batch;
    for (int k = 10000; k < 14096; ++k) batch.push_back(IntOp::insert(k, k));
    (void)reference_results(ref, batch);
    std::atomic<bool> entered{false};
    std::vector<Result<int>> got;
    std::thread caller([&] {
      entered.store(true);
      m.execute_batch(std::span<const IntOp>(batch), got);
    });
    while (!entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    std::size_t seen = 0;
    std::string verdict;
    std::thread quiescer([&] {
      // A return while the workers are held came before the request was
      // claimed (nothing can have run): wait again.
      bool was_released = false;
      while (!was_released) {
        m.quiesce();
        was_released = release.load();
      }
      seen = m.size();
      verdict = m.validate();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    release.store(true);
    caller.join();
    quiescer.join();
    EXPECT_EQ(seen, ref.size()) << "p=" << p << ": quiesce() returned early";
    EXPECT_EQ(verdict, "") << "p=" << p;
    for (const auto& r : got) ASSERT_EQ(r.status, ResultStatus::kInserted);
  }
}

// Two threads issue bulk batches at once, each on its own key range with
// its own oracle; the interface serves their requests one walk at a time.
TEST(M2, ConcurrentBulkCallers) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::size_t sizes[2] = {0, 0};
    auto caller = [&](int t) {
      std::map<int, int> ref;
      util::Xoshiro256 rng(61 + static_cast<std::uint64_t>(t));
      const int base = t * 100000;
      for (int round = 0; round < 15; ++round) {
        auto batch = testutil::scripted_ops<int, int>(
            rng.bounded(1u << 30), 800, 512, /*with_ordered=*/false);
        for (auto& op : batch) op.key += base;
        const auto got = m.execute_batch(batch);
        const auto want = reference_results(ref, batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          testutil::expect_result_eq(got[i], want[i], "concurrent bulk", i);
        }
      }
      sizes[t] = ref.size();
    };
    std::thread a(caller, 0);
    std::thread b(caller, 1);
    a.join();
    b.join();
    m.quiesce();
    EXPECT_EQ(m.size(), sizes[0] + sizes[1]) << "p=" << p;
    ASSERT_EQ(m.validate(), "") << "p=" << p;
  }
}

// The golden ladder state of the bulk path: every batch of the seeded
// stream is longer than one cut, so it runs M1's walk, and after each one
// the whole ladder's segments, keys and recency order must match the walk
// that probed every pending group at every segment. The pinned chain was
// recorded from that walk.
TEST(M2, BulkGoldenLadderStateChain) {
  sched::Scheduler scheduler(2);
  M2Map<int, int> m(scheduler, 2);
  std::map<int, int> ref;
  std::uint64_t chain = 0xcbf29ce484222325ULL;
  for (const std::vector<IntOp>& batch : testutil::golden_ladder_stream(5)) {
    const auto got = m.execute_batch(batch);
    const auto want = reference_results(ref, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      testutil::expect_result_eq(got[i], want[i], "golden", i);
    }
    m.quiesce();
    chain = testutil::chain_ladder_state(chain, m.segments());
  }
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.validate(), "");
  EXPECT_EQ(chain, 0x89868f8ca6d29e0bULL) << std::hex << "chain 0x" << chain;
}

// The first-slab sweep probes only the groups inside each segment's key
// range, bounds included: submitted searches, upserts and erases on every
// segment's least and greatest key must resolve there (an erase flows on
// tagged), round after round.
TEST(M2, FirstSlabSweepIncludesSegmentBounds) {
  for (unsigned p : {1u, 2u}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, p);
    std::map<int, int> ref;
    std::vector<IntOp> load;
    for (int k = 0; k < 6000; k += 2) load.push_back(IntOp::insert(k, k));
    const auto loaded = m.execute_batch(load);
    for (const auto& r : loaded) ASSERT_EQ(r.status, ResultStatus::kInserted);
    reference_results(ref, load);
    for (int round = 0; round < 30; ++round) {
      m.quiesce();
      std::vector<IntOp> batch;
      for (const auto& seg : m.segments()) {
        const auto [least, greatest] = seg.key_bounds();
        if (least == nullptr) continue;
        switch (round % 3) {
          case 0:
            batch.push_back(IntOp::search(*least));
            batch.push_back(IntOp::upsert(*greatest, round));
            break;
          case 1:
            batch.push_back(IntOp::upsert(*least, round));
            batch.push_back(IntOp::search(*greatest));
            break;
          default:
            batch.push_back(IntOp::erase(*least));
            batch.push_back(IntOp::search(*greatest));
        }
      }
      const auto got = submit_all(m, batch);
      const auto want = reference_results(ref, batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        testutil::expect_result_eq(got[i], want[i], "bounds", i);
      }
      m.quiesce();
      ASSERT_EQ(m.size(), ref.size()) << "p=" << p << " round " << round;
      ASSERT_EQ(m.validate(), "") << "p=" << p << " round " << round;
    }
  }
}

// A first-slab segment whose window is empty is not swept, but its prefix
// repair still runs. After a bulk load of 0..299 (p = 2, first slab
// S[0..2]): S[1] = {2..5}, S[2] = {6..21}. A lone erase(3) is tagged in
// S[1] and flows on; S[2]'s window is empty, and its repair pulls S[2]'s
// most recent item, 6, to the back of S[1].
TEST(M2, SkippedFirstSlabSegmentStillRepairsItsPrefix) {
  sched::Scheduler scheduler(2);
  M2Map<int, int> m(scheduler, 2);
  ASSERT_EQ(m.first_slab_width(), 3u);
  std::vector<IntOp> load;
  for (int k = 0; k < 300; ++k) load.push_back(IntOp::insert(k, k));
  m.execute_batch(load);
  m.quiesce();
  ASSERT_EQ(m.segment_of(5), 1u);
  ASSERT_EQ(m.segment_of(6), 2u);
  EXPECT_EQ(m.erase(3), 3);
  m.quiesce();
  EXPECT_EQ(m.segment_of(6), 1u);
  EXPECT_EQ(m.segments()[1].size(), 4u);
  EXPECT_EQ(m.validate(), "");
}

// Key-ordered loads, ascending and descending, as bulk batches and as
// submitted ops, then chunks wholly below, wholly above and straddling
// the held keys through both paths, all against the oracle.
TEST(M2, SortedLoadsAndChunksOutsideTheKeyRange) {
  for (const bool ascending : {true, false}) {
    sched::Scheduler scheduler(2);
    M2Map<int, int> m(scheduler, 2);
    std::map<int, int> ref;
    auto check = [&](const std::vector<IntOp>& batch, bool bulk) {
      const auto got = bulk ? m.execute_batch(batch) : submit_all(m, batch);
      const auto want = reference_results(ref, batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        testutil::expect_result_eq(got[i], want[i], "sorted", i);
      }
      m.quiesce();
      ASSERT_EQ(m.size(), ref.size());
      ASSERT_EQ(m.validate(), "");
    };
    for (int b = 0; b < 12000; b += 3000) {
      std::vector<IntOp> batch;
      for (int i = b; i < b + 3000; ++i) {
        const int key = 10000 + (ascending ? i : 11999 - i);
        batch.push_back(IntOp::insert(key, key));
      }
      ASSERT_NO_FATAL_FAILURE(check(batch, /*bulk=*/b % 6000 == 0));
    }
    util::Xoshiro256 rng(ascending ? 3 : 4);
    const std::pair<int, int> spans[] = {
        {0, 5000}, {30000, 35000}, {9000, 11000}, {21000, 23000}};
    for (int round = 0; round < 16; ++round) {
      const auto [lo, hi] = spans[round % 4];
      std::vector<IntOp> batch;
      for (int i = 0; i < 400; ++i) {
        const int key = lo + static_cast<int>(rng.bounded(
                                 static_cast<std::uint64_t>(hi - lo)));
        switch (rng.bounded(4)) {
          case 0: batch.push_back(IntOp::upsert(key, round)); break;
          case 1: batch.push_back(IntOp::erase(key)); break;
          default: batch.push_back(IntOp::search(key));
        }
      }
      ASSERT_NO_FATAL_FAILURE(check(batch, /*bulk=*/round % 2 == 0));
    }
  }
}

}  // namespace
}  // namespace pwss
