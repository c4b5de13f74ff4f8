// Tests for the baselines and the MapBackend concept: a typed suite runs
// every backend type — M0/M1/M2 and the four batched baseline adapters —
// through the same differential and semantic checks via the one concept
// surface (execute_batch + size), plus baseline-specific structure tests.
#include <gtest/gtest.h>

#include <concepts>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/batched.hpp"
#include "core/backend.hpp"
#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace pwss {
namespace {

// ---- typed suite over the MapBackend concept -------------------------------

using K = std::uint64_t;
using V = std::uint64_t;
using IntOp = core::Op<K, V>;

template <typename B>
class MapBackendTypedTest : public ::testing::Test {
 protected:
  MapBackendTypedTest() : scheduler_(2), backend_(make()) {}

  std::unique_ptr<B> make() {
    if constexpr (std::constructible_from<B, sched::Scheduler&>) {
      return std::make_unique<B>(scheduler_);
    } else if constexpr (std::constructible_from<B, sched::Scheduler*>) {
      return std::make_unique<B>(&scheduler_);
    } else {
      return std::make_unique<B>();
    }
  }

  void settle() {
    if constexpr (requires(B b) { b.quiesce(); }) backend_->quiesce();
  }

  sched::Scheduler scheduler_;
  std::unique_ptr<B> backend_;
};

using BackendTypes =
    ::testing::Types<core::M0Map<K, V>, core::M1Map<K, V>, core::M2Map<K, V>,
                     baseline::BatchedSplay<K, V>, baseline::BatchedAvl<K, V>,
                     baseline::BatchedIacono<K, V>,
                     baseline::BatchedLocked<K, V>>;
TYPED_TEST_SUITE(MapBackendTypedTest, BackendTypes);

TYPED_TEST(MapBackendTypedTest, SatisfiesConcept) {
  static_assert(core::MapBackend<TypeParam, K, V>);
  EXPECT_EQ(this->backend_->size(), 0u);
  EXPECT_TRUE(this->backend_->execute_batch(std::vector<IntOp>{}).empty());
}

TYPED_TEST(MapBackendTypedTest, DifferentialAgainstStdMap) {
  util::Xoshiro256 rng(404);
  std::map<K, V> ref;
  // The full v2 op set (predecessor / successor / range-count / upsert vs
  // the lower_bound oracle) on every backend.
  for (int round = 0; round < 20; ++round) {
    const std::size_t b = 1 + rng.bounded(200);
    const auto batch = testutil::scripted_ops<K, V>(
        rng.bounded(1u << 30), b, 250, /*with_ordered=*/true);
    const auto got = this->backend_->execute_batch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto want = testutil::reference_apply(ref, batch[i]);
      testutil::expect_result_eq(got[i], want, "round", i);
    }
    this->settle();
    ASSERT_EQ(this->backend_->size(), ref.size()) << "round " << round;
  }
}

TYPED_TEST(MapBackendTypedTest, PerKeyProgramOrderWithinBatch) {
  // insert, overwrite, search, erase, search on ONE key in one batch:
  // every backend must realize the per-key program order (Definition 8).
  std::vector<IntOp> batch = {
      IntOp::insert(7, 70),  IntOp::insert(7, 71), IntOp::search(7),
      IntOp::erase(7),       IntOp::search(7),     IntOp::insert(7, 72),
  };
  const auto got = this->backend_->execute_batch(batch);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_TRUE(got[0].success());              // fresh insert
  EXPECT_FALSE(got[1].success());             // overwrite
  ASSERT_TRUE(got[2].value.has_value());
  EXPECT_EQ(*got[2].value, 71u);            // sees the overwrite
  ASSERT_TRUE(got[3].value.has_value());
  EXPECT_EQ(*got[3].value, 71u);            // erase returns the value
  EXPECT_FALSE(got[4].success());             // erased within the batch
  EXPECT_TRUE(got[5].success());              // re-insert is fresh again
  this->settle();
  EXPECT_EQ(this->backend_->size(), 1u);
}

// ---- IaconoMap -----------------------------------------------------------

TEST(IaconoMap, InsertSearchErase) {
  baseline::IaconoMap<int, int> m;
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_TRUE(m.insert(2, 20));
  EXPECT_FALSE(m.insert(1, 11));  // overwrite
  ASSERT_NE(m.search(1), nullptr);
  EXPECT_EQ(*m.search(1), 11);
  EXPECT_EQ(m.search(99), nullptr);
  auto removed = m.erase(2);
  ASSERT_TRUE(removed);
  EXPECT_EQ(*removed, 20);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.validate(), "");
}

TEST(IaconoMap, InvariantsHoldDuringGrowth) {
  baseline::IaconoMap<int, int> m;
  for (int i = 0; i < 2000; ++i) {
    m.insert(i, i);
    if (i % 97 == 0) { ASSERT_EQ(m.validate(), "") << "at i=" << i; }
  }
  EXPECT_EQ(m.size(), 2000u);
  EXPECT_GE(m.segment_count(), 4u);  // 2 + 4 + 16 + 256 < 2000
  EXPECT_EQ(m.validate(), "");
}

TEST(IaconoMap, AccessedItemMovesToFirstSegment) {
  baseline::IaconoMap<int, int> m;
  for (int i = 0; i < 1000; ++i) m.insert(i, i);
  // Key 0 was inserted first; after 999 other insertions it is deep.
  ASSERT_NE(m.search(0), nullptr);
  // Now key 0 must be in segment 0 (most recent).
  EXPECT_EQ(m.segment_of(0), 0u);
  EXPECT_EQ(m.validate(), "");
}

TEST(IaconoMap, WorkingSetInvariantAfterMixedOps) {
  // The r most recently accessed items live in the first ~loglog r
  // segments: access a small hot set repeatedly, then verify all hot items
  // sit in segments 0..1 (capacity 2+4 >= hot set of size 4).
  baseline::IaconoMap<int, int> m;
  for (int i = 0; i < 5000; ++i) m.insert(i, i);
  for (int round = 0; round < 10; ++round) {
    for (int k : {10, 20, 30, 40}) ASSERT_NE(m.search(k), nullptr);
  }
  int in_first_two = 0;
  for (int k : {10, 20, 30, 40}) {
    if (m.segment_of(k).value_or(99) <= 1) ++in_first_two;
  }
  EXPECT_GE(in_first_two, 2);  // hot set of 4 vs capacity 2+4=6
  EXPECT_EQ(m.validate(), "");
}

TEST(IaconoMap, EraseRepairsFullness) {
  baseline::IaconoMap<int, int> m;
  for (int i = 0; i < 300; ++i) m.insert(i, i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m.erase(i * 3).has_value());
    if (i % 10 == 0) { ASSERT_EQ(m.validate(), "") << "at i=" << i; }
  }
  EXPECT_EQ(m.size(), 200u);
  EXPECT_EQ(m.validate(), "");
}

// ---- SplayTree -------------------------------------------------------------

TEST(SplayTree, InsertSearchErase) {
  baseline::SplayTree<int, int> t;
  EXPECT_TRUE(t.insert(5, 50));
  EXPECT_TRUE(t.insert(2, 20));
  EXPECT_FALSE(t.insert(5, 55));
  EXPECT_EQ(t.search(5), 55);
  EXPECT_EQ(t.search(3), std::nullopt);
  EXPECT_EQ(t.erase(2), 20);
  EXPECT_EQ(t.erase(2), std::nullopt);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SplayTree, MoveTransfersOwnership) {
  baseline::SplayTree<int, int> t;
  for (int i = 0; i < 100; ++i) t.insert(i, i);
  baseline::SplayTree<int, int> u(std::move(t));
  EXPECT_EQ(u.size(), 100u);
  EXPECT_EQ(u.search(42), 42);
  EXPECT_EQ(t.size(), 0u);  // NOLINT(bugprone-use-after-move): documented
  t = std::move(u);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.search(7), 7);
}

TEST(SplayTree, RepeatedAccessKeepsItemShallow) {
  baseline::SplayTree<int, int> t;
  for (int i = 0; i < 10000; ++i) t.insert(i, i);
  // After splaying key 42, it is at the root: a second search touches one node.
  EXPECT_TRUE(t.search(42).has_value());
  EXPECT_TRUE(t.search(42).has_value());
}

TEST(SplayTree, SequentialInsertDegeneratesUnlikeAvl) {
  // Documents the "no worst-case balance" property (Section 1's critique of
  // unbalanced concurrent BSTs): inserting 0..n-1 in order produces a path.
  baseline::SplayTree<int, int> t;
  const int n = 2000;
  for (int i = 0; i < n; ++i) t.insert(i, i);
  EXPECT_GE(t.height(), static_cast<std::size_t>(n / 2));
}

// ---- AvlMap / LockedMap -----------------------------------------------------

TEST(AvlMap, Basics) {
  baseline::AvlMap<int, int> m;
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_FALSE(m.insert(1, 11));
  EXPECT_EQ(m.search(1), 11);
  EXPECT_EQ(m.erase(1), 10 + 1);
  EXPECT_TRUE(m.empty());
}

TEST(LockedMap, ConcurrentMixedOpsKeepCount) {
  baseline::LockedMap<int, int> m;
  constexpr int kThreads = 8, kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const int key = static_cast<int>(rng.bounded(1000));
        switch (rng.bounded(3)) {
          case 0: m.insert(key, key); break;
          case 1: m.erase(key); break;
          default: {
            auto v = m.search(key);
            if (v) { EXPECT_EQ(*v, key); }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(m.size(), 1000u);
}


// ---- ordered point surfaces (protocol v2) ---------------------------------

TEST(OrderedBaselines, AllPointMapsAgree) {
  baseline::AvlMap<int, int> avl;
  baseline::IaconoMap<int, int> iac;
  baseline::LockedMap<int, int> locked;
  baseline::SplayTree<int, int> splay;
  std::map<int, int> ref;
  util::Xoshiro256 rng(31);
  for (int i = 0; i < 400; ++i) {
    const int k = static_cast<int>(rng.bounded(1000));
    avl.insert(k, k * 3);
    iac.insert(k, k * 3);
    locked.insert(k, k * 3);
    splay.insert(k, k * 3);
    ref[k] = k * 3;
  }
  for (int probe = -5; probe < 1010; probe += 7) {
    auto lb = ref.lower_bound(probe);
    const bool has_pred = lb != ref.begin();
    const auto want_pred = has_pred ? std::optional(*std::prev(lb))
                                    : std::optional<std::pair<const int, int>>();
    auto ub = ref.upper_bound(probe);
    const bool has_succ = ub != ref.end();
    for (const auto& got : {avl.predecessor(probe), iac.predecessor(probe),
                            locked.predecessor(probe),
                            splay.predecessor(probe)}) {
      ASSERT_EQ(got.has_value(), has_pred) << probe;
      if (has_pred) {
        ASSERT_EQ(got->first, want_pred->first) << probe;
        ASSERT_EQ(got->second, want_pred->second) << probe;
      }
    }
    for (const auto& got : {avl.successor(probe), iac.successor(probe),
                            locked.successor(probe), splay.successor(probe)}) {
      ASSERT_EQ(got.has_value(), has_succ) << probe;
      if (has_succ) {
        ASSERT_EQ(got->first, ub->first) << probe;
      }
    }
    const auto want_count = static_cast<std::uint64_t>(
        std::distance(ref.lower_bound(probe), ref.upper_bound(probe + 100)));
    ASSERT_EQ(avl.range_count(probe, probe + 100), want_count) << probe;
    ASSERT_EQ(iac.range_count(probe, probe + 100), want_count) << probe;
    ASSERT_EQ(locked.range_count(probe, probe + 100), want_count) << probe;
    ASSERT_EQ(splay.range_count(probe, probe + 100), want_count) << probe;
  }
  EXPECT_EQ(splay.range_count(10, 9), 0u);  // empty range
  EXPECT_EQ(splay.validate(), "");
}

TEST(OrderedBaselines, IaconoOrderedQueriesDoNotPromote) {
  baseline::IaconoMap<int, int> m;
  for (int i = 0; i < 200; ++i) m.insert(i, i);
  // Deepest items stay put under ordered probing (read-only contract).
  const auto depth = m.segment_of(0);
  for (int r = 0; r < 50; ++r) {
    (void)m.predecessor(1);
    (void)m.successor(-1);
    (void)m.range_count(0, 10);
  }
  EXPECT_EQ(m.segment_of(0), depth);
  EXPECT_EQ(m.validate(), "");
}

TEST(SplayTree, OrderedQueriesKeepEntriesAndSizes) {
  // Ordered queries splay like every access, so they must keep the key
  // set, the values, and every subtree size intact while they reshape —
  // checked against the std::map oracle through a random mutation mix,
  // starting from the degenerate path sequential inserts build.
  using Entry = std::pair<int, int>;
  baseline::SplayTree<int, int> t;
  std::map<int, int> ref;
  for (int i = 0; i < 300; ++i) {
    t.insert(i, i);
    ref[i] = i;
  }
  util::Xoshiro256 rng(77);
  for (int step = 0; step < 4000; ++step) {
    const int k = static_cast<int>(rng.bounded(400)) - 50;
    switch (rng.bounded(5)) {
      case 0:
        ASSERT_EQ(t.insert(k, step), !ref.contains(k)) << step;
        ref[k] = step;
        break;
      case 1: {
        const auto it = ref.find(k);
        const auto got = t.erase(k);
        ASSERT_EQ(got.has_value(), it != ref.end()) << step;
        if (it != ref.end()) {
          ASSERT_EQ(*got, it->second) << step;
          ref.erase(it);
        }
        break;
      }
      case 2: {
        const auto lb = ref.lower_bound(k);
        const auto got = t.predecessor(k);
        ASSERT_EQ(got.has_value(), lb != ref.begin()) << step;
        if (got) {
          ASSERT_EQ(*got, Entry(*std::prev(lb))) << step;
        }
        break;
      }
      case 3: {
        const auto ub = ref.upper_bound(k);
        const auto got = t.successor(k);
        ASSERT_EQ(got.has_value(), ub != ref.end()) << step;
        if (got) {
          ASSERT_EQ(*got, Entry(*ub)) << step;
        }
        break;
      }
      default: {
        const int hi = k + static_cast<int>(rng.bounded(120));
        ASSERT_EQ(t.range_count(k, hi),
                  static_cast<std::uint64_t>(std::distance(
                      ref.lower_bound(k), ref.upper_bound(hi))))
            << step;
      }
    }
    ASSERT_EQ(t.size(), ref.size()) << step;
    if (step % 97 == 0) {
      ASSERT_EQ(t.validate(), "") << step;
    }
  }
  EXPECT_EQ(t.validate(), "");
  std::vector<Entry> drained;
  t.for_each([&](int k, int v) { drained.emplace_back(k, v); });
  EXPECT_EQ(drained, std::vector<Entry>(ref.begin(), ref.end()));
}

}  // namespace
}  // namespace pwss
