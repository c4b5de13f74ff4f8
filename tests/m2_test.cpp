// Tests for M2, the pipelined parallel working-set map (Section 7):
// functional correctness under the pipeline, filter combining, balance
// invariants (Lemma 16, relaxed), and concurrent clients.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/m2_map.hpp"
#include "sched/scheduler.hpp"
#include "store/snapshot.hpp"
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

std::vector<Result<int>> reference_results(std::map<int, int>& ref,
                                           const std::vector<IntOp>& ops) {
  std::vector<Result<int>> out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    out.push_back(testutil::reference_apply(ref, op));
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

TEST(M2, DifferentialBatchesAgainstStdMap) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler);
  std::map<int, int> ref;
  util::Xoshiro256 rng(77);
  for (int round = 0; round < 40; ++round) {
    const std::size_t b = 1 + rng.bounded(300);
    // Full protocol-v2 op set: execute_batch slices point/ordered phases,
    // so the submission-order oracle is exact even through the pipeline.
    const std::vector<IntOp> batch = testutil::scripted_ops<int, int>(
        rng.bounded(1u << 30), b, 400, /*with_ordered=*/true);
    const auto got = m.execute_batch(batch);
    const auto want = reference_results(ref, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      testutil::expect_result_eq(got[i], want[i], "round", i);
    }
    m.quiesce();
    ASSERT_EQ(m.size(), ref.size()) << "round " << round;
    ASSERT_EQ(m.validate(), "") << "round " << round;
  }
}

// Differential fuzz crossing a snapshot→rebuild boundary mid-run: the
// pipeline is quiesced, its contents round-trip through the store
// layer's checksummed snapshot format, and a fresh M2 is bulk-rebuilt
// from the loaded entries while the std::map oracle carries across
// untouched.
TEST(M2, DifferentialFuzzAcrossSnapshotBoundary) {
  sched::Scheduler scheduler(4);
  auto m = std::make_unique<M2Map<int, int>>(scheduler);
  std::map<int, int> ref;
  util::Xoshiro256 rng(78);
  char tmpl[] = "/tmp/pwss-m2-snap-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string snap = std::string(tmpl) + "/snapshot";
  for (int round = 0; round < 30; ++round) {
    if (round == 15) {
      m->quiesce();
      std::vector<std::pair<int, int>> entries;
      m->export_entries(entries);
      store::SnapshotWriter<int, int>::write(snap, round, entries);
      const auto loaded = store::SnapshotReader<int, int>::load(snap);
      m = std::make_unique<M2Map<int, int>>(scheduler);
      std::vector<IntOp> rebuild;
      rebuild.reserve(loaded.entries.size());
      for (const auto& [k, v] : loaded.entries) {
        rebuild.push_back(IntOp::insert(k, v));
      }
      m->execute_batch(rebuild);
      m->quiesce();
      ASSERT_EQ(m->size(), ref.size());
      ASSERT_EQ(m->validate(), "");
    }
    const std::size_t b = 1 + rng.bounded(300);
    const std::vector<IntOp> batch = testutil::scripted_ops<int, int>(
        rng.bounded(1u << 30), b, 400, /*with_ordered=*/true);
    const auto got = m->execute_batch(batch);
    const auto want = reference_results(ref, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      testutil::expect_result_eq(got[i], want[i], "snap round", i);
    }
  }
  m->quiesce();
  EXPECT_EQ(m->validate(), "");
  std::filesystem::remove_all(tmpl);
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
  m.execute_batch(batch);
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

TEST(M2, ManyRoundsStaysSound) {
  sched::Scheduler scheduler(4);
  M2Map<int, int> m(scheduler, 2);  // tiny p: small bunches, deep pipeline use
  std::map<int, int> ref;
  util::Xoshiro256 rng(5);
  for (int round = 0; round < 150; ++round) {
    std::vector<IntOp> batch;
    const std::size_t b = 1 + rng.bounded(20);
    for (std::size_t i = 0; i < b; ++i) {
      const int key = static_cast<int>(rng.bounded(128));
      switch (rng.bounded(3)) {
        case 0: batch.push_back(IntOp::insert(key, round)); break;
        case 1: batch.push_back(IntOp::erase(key)); break;
        default: batch.push_back(IntOp::search(key));
      }
    }
    const auto got = m.execute_batch(batch);
    const auto want = reference_results(ref, batch);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].success(), want[i].success()) << round << ":" << i;
      ASSERT_EQ(got[i].value, want[i].value) << round << ":" << i;
    }
    // Deep-validate the whole pipeline (segments, filter, pool domain)
    // periodically; the validator needs quiescence, so don't pay that
    // barrier every round.
    if (round % 25 == 24) {
      m.quiesce();
      ASSERT_EQ(m.validate(), "") << "round " << round;
    }
  }
  m.quiesce();
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.validate(), "");
}

// Loads 2^14 keys through execute_batch in 4,096-op batches, then runs
// mixed rounds against an oracle, deep-validating the quiescent pipeline
// after the load and after every round. `tasks_per_op` receives the
// scheduler tasks per op spent on the load.
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
    for (const auto& r : m.execute_batch(batch)) {
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
    const auto got = m.execute_batch(batch);
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

// A bulk caller keeps thousands of ops in flight, so the interface cuts
// ceil(log2 n / p) bunches per run (M1's rule) rather than one p^2 bunch.
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

}  // namespace
}  // namespace pwss
