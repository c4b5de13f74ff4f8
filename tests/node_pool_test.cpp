// Tests for util/node_pool.hpp and the pooled JTree configuration: pool
// accounting (allocated == freed at destruction, reuse instead of fresh
// chunks, no double-recycle), differential fuzz vs std::map under mixed
// batch ops with recycling on, cross-tree recycling within one pool
// domain, and a parallel multi-insert/extract stress that the CI TSan job
// runs to prove the per-worker shards are race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/segment.hpp"
#include "sched/scheduler.hpp"
#include "tree/jtree.hpp"
#include "util/node_pool.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using IntTree = tree::JTree<int, int>;
using IntPool = IntTree::Pool;

TEST(NodePool, AllocatedEqualsFreedAtDestruction) {
  IntPool pool;
  {
    IntTree t(&pool);
    for (int i = 0; i < 1000; ++i) t.insert(i, i);
    EXPECT_EQ(pool.live_nodes(), 1000u);
    for (int i = 0; i < 500; ++i) t.erase(i);
    EXPECT_EQ(pool.live_nodes(), 500u);
  }
  // Tree destroyed: every node back in the pool.
  const auto st = pool.stats();
  EXPECT_EQ(st.node_allocs, st.node_frees);
  EXPECT_EQ(pool.live_nodes(), 0u);
  EXPECT_GE(st.free_nodes, 1000u);  // parked, not returned to the heap
  EXPECT_GT(st.chunk_allocs, 0u);
  // ~NodePool() asserts allocs == frees in debug builds.
}

TEST(NodePool, WarmPoolReusesInsteadOfGrowingChunks) {
  IntPool pool;
  IntTree t(&pool);
  for (int i = 0; i < 2000; ++i) t.insert(i, i);
  for (int i = 0; i < 2000; ++i) t.erase(i);
  const auto warm = pool.stats();
  // Same shape again: every node must come off the free lists.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 2000; ++i) t.insert(i, i);
    for (int i = 0; i < 2000; ++i) t.erase(i);
  }
  EXPECT_EQ(pool.stats().chunk_allocs, warm.chunk_allocs)
      << "warm insert/erase churn must not allocate new chunks";
}

TEST(NodePool, NoDoubleRecycleOnReuse) {
  // Storage handed out twice without an intervening free would surface as
  // duplicate pointers within one allocation burst.
  util::NodePool<std::pair<int, int>> pool;
  std::vector<std::pair<int, int>*> nodes;
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) nodes.push_back(pool.create(i, i));
  std::unordered_set<void*> first(nodes.begin(), nodes.end());
  ASSERT_EQ(first.size(), nodes.size());
  for (auto* p : nodes) pool.destroy(p);
  nodes.clear();
  const auto warm_chunks = pool.stats().chunk_allocs;
  std::unordered_set<void*> second;
  for (int i = 0; i < kN; ++i) {
    auto* p = pool.create(i, i);
    EXPECT_TRUE(second.insert(p).second) << "storage handed out twice";
    nodes.push_back(p);
  }
  // Everything was served from recycled storage or slack slots of the
  // already-allocated chunks (never-handed-out tails), never fresh heap.
  EXPECT_EQ(pool.stats().chunk_allocs, warm_chunks);
  for (auto* p : nodes) pool.destroy(p);
}

TEST(NodePool, BulkChainRecycleAccountsEveryNode) {
  IntPool pool;
  {
    IntTree t(&pool);
    for (int i = 0; i < 5000; ++i) t.insert(i, i);
    t.clear();  // iterative teardown, one spliced chain
    EXPECT_EQ(pool.live_nodes(), 0u);
    const auto st = pool.stats();
    EXPECT_EQ(st.node_frees, 5000u);
    // Rebuild draws from the chain, no new chunks.
    for (int i = 0; i < 5000; ++i) t.insert(i, i);
    EXPECT_EQ(pool.stats().chunk_allocs, st.chunk_allocs);
  }
}

TEST(NodePool, CrossTreeRecyclingWithinOneDomain) {
  // Two trees sharing one pool domain: extracting from one and inserting
  // into the other (the segment→segment transfer shape) must be satisfied
  // from recycled nodes.
  IntPool pool;
  IntTree a(&pool), b(&pool);
  std::vector<std::pair<int, int>> items;
  for (int i = 0; i < 4096; ++i) items.emplace_back(i, i);
  a.multi_insert(items);
  const auto warm = pool.stats();
  std::vector<int> keys;
  for (int i = 0; i < 4096; ++i) keys.push_back(i);
  std::vector<std::optional<int>> out;
  for (int round = 0; round < 4; ++round) {
    IntTree& src = round % 2 == 0 ? a : b;
    IntTree& dst = round % 2 == 0 ? b : a;
    src.multi_extract(keys, out);
    dst.multi_insert(items);
    ASSERT_EQ(dst.size(), 4096u);
    ASSERT_EQ(dst.validate(), "");
  }
  EXPECT_EQ(pool.stats().chunk_allocs, warm.chunk_allocs)
      << "transfers within one pool domain must not grow the pool";
  EXPECT_EQ(pool.live_nodes(), 4096u);
}

// Differential fuzz vs std::map: mixed point ops, multi_insert, and
// multi_extract of random keys and of contiguous key windows (which drop
// whole subtrees through split + join2), all with recycling on.
TEST(NodePool, DifferentialFuzzWithRecycling) {
  util::Xoshiro256 rng(2024);
  IntPool pool;
  IntTree t(&pool);
  std::map<int, int> ref;
  for (int round = 0; round < 400; ++round) {
    switch (rng.bounded(6)) {
      case 0: {  // point inserts
        for (int i = 0; i < 16; ++i) {
          const int k = static_cast<int>(rng.bounded(800));
          const int v = static_cast<int>(rng.bounded(10000));
          t.insert(k, v);
          ref[k] = v;
        }
        break;
      }
      case 1: {  // point erases
        for (int i = 0; i < 16; ++i) {
          const int k = static_cast<int>(rng.bounded(800));
          auto removed = t.erase(k);
          auto it = ref.find(k);
          ASSERT_EQ(removed.has_value(), it != ref.end());
          if (it != ref.end()) {
            ASSERT_EQ(*removed, it->second);
            ref.erase(it);
          }
        }
        break;
      }
      case 2: {  // multi_insert
        std::set<int> key_set;
        const std::size_t b = 1 + rng.bounded(128);
        while (key_set.size() < b) {
          key_set.insert(static_cast<int>(rng.bounded(800)));
        }
        std::vector<std::pair<int, int>> items;
        for (int k : key_set) items.emplace_back(k, round);
        t.multi_insert(items);
        for (int k : key_set) ref[k] = round;
        break;
      }
      case 3: {  // multi_extract
        std::set<int> key_set;
        const std::size_t b = 1 + rng.bounded(128);
        while (key_set.size() < b) {
          key_set.insert(static_cast<int>(rng.bounded(800)));
        }
        std::vector<int> keys(key_set.begin(), key_set.end());
        std::vector<std::optional<int>> out;
        t.multi_extract(keys, out);
        for (std::size_t i = 0; i < keys.size(); ++i) {
          auto it = ref.find(keys[i]);
          ASSERT_EQ(out[i].has_value(), it != ref.end());
          if (it != ref.end()) {
            ASSERT_EQ(*out[i], it->second);
            ref.erase(it);
          }
        }
        break;
      }
      case 4:
      default: {
        // multi_extract of a contiguous key window: drops whole subtrees
        // through split + join2.
        const int lo = static_cast<int>(rng.bounded(800));
        const int width = 1 + static_cast<int>(rng.bounded(200));
        std::vector<int> keys;
        for (int k = lo; k < lo + width; ++k) keys.push_back(k);
        std::vector<std::optional<int>> out;
        t.multi_extract(keys, out);
        for (std::size_t i = 0; i < keys.size(); ++i) {
          auto it = ref.find(keys[i]);
          ASSERT_EQ(out[i].has_value(), it != ref.end());
          if (it != ref.end()) {
            ASSERT_EQ(*out[i], it->second);
            ref.erase(it);
          }
        }
        break;
      }
    }
    // Ordered queries vs the std::map oracle every round: the v2 kinds
    // read the same recycled nodes the mutations above churn through.
    for (int probe = 0; probe < 8; ++probe) {
      const int q = static_cast<int>(rng.bounded(820));
      auto [pk, pv] = t.predecessor(q);
      auto lb = ref.lower_bound(q);
      if (lb == ref.begin()) {
        ASSERT_EQ(pk, nullptr) << "predecessor(" << q << ")";
      } else {
        auto want = std::prev(lb);
        ASSERT_NE(pk, nullptr) << "predecessor(" << q << ")";
        ASSERT_EQ(*pk, want->first);
        ASSERT_EQ(*pv, want->second);
      }
      auto [sk, sv] = t.successor(q);
      auto ub = ref.upper_bound(q);
      if (ub == ref.end()) {
        ASSERT_EQ(sk, nullptr) << "successor(" << q << ")";
      } else {
        ASSERT_NE(sk, nullptr) << "successor(" << q << ")";
        ASSERT_EQ(*sk, ub->first);
        ASSERT_EQ(*sv, ub->second);
      }
      const int hi = q + static_cast<int>(rng.bounded(400));
      ASSERT_EQ(t.range_count(q, hi),
                static_cast<std::size_t>(std::distance(
                    ref.lower_bound(q), ref.upper_bound(hi))))
          << "range_count(" << q << ", " << hi << ")";
    }
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_EQ(pool.live_nodes(), ref.size())
        << "pool accounting must track the tree size exactly";
    ASSERT_EQ(t.validate(), "") << "round " << round;
    // Deep pool-conservation walk (free-list lengths vs counters, chunk
    // accounting) every few rounds — it touches every free node, so don't
    // pay it per round.
    if (round % 40 == 39) {
      ASSERT_EQ(pool.validate(), "") << "round " << round;
    }
  }
  const auto v = t.to_vector();
  std::vector<std::pair<int, int>> rv(ref.begin(), ref.end());
  EXPECT_EQ(v, rv);
}

// Parallel batch ops over a pooled tree: the fork/join halves allocate and
// free on per-worker shards concurrently. Run under TSan in CI.
TEST(NodePool, ParallelMultiInsertExtractStress) {
  sched::Scheduler scheduler(4);
  IntPool pool(&scheduler);
  IntTree t(&pool);
  const tree::ParCtx ctx{&scheduler, 16};  // small grain: force deep forking

  util::Xoshiro256 rng(7);
  std::map<int, int> ref;
  for (int round = 0; round < 30; ++round) {
    std::set<int> key_set;
    const std::size_t b = 512 + rng.bounded(2048);
    while (key_set.size() < b) {
      key_set.insert(static_cast<int>(rng.bounded(1 << 18)));
    }
    std::vector<std::pair<int, int>> items;
    for (int k : key_set) items.emplace_back(k, round);
    // run_sync hosts the batch on a pool worker so parallel_invoke truly
    // forks (off-pool it degrades to sequential) and the recursion halves
    // allocate/free on different worker shards.
    scheduler.run_sync([&] { t.multi_insert(items, ctx); });
    for (int k : key_set) ref[k] = round;

    // Extract a random half of what we just inserted plus some misses.
    std::vector<int> keys;
    for (std::size_t i = 0; i < items.size(); i += 2) {
      keys.push_back(items[i].first);
    }
    std::vector<std::optional<int>> out;
    scheduler.run_sync([&] { t.multi_extract(keys, out, ctx); });
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto it = ref.find(keys[i]);
      ASSERT_EQ(out[i].has_value(), it != ref.end());
      if (it != ref.end()) ref.erase(it);
    }
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_EQ(pool.live_nodes(), ref.size());
    if (round % 10 == 9) {
      ASSERT_EQ(pool.validate(), "") << "round " << round;
    }
  }
  ASSERT_EQ(t.validate(), "");
  ASSERT_EQ(pool.validate(), "");
  const auto v = t.to_vector();
  std::vector<std::pair<int, int>> rv(ref.begin(), ref.end());
  EXPECT_EQ(v, rv);
}

// Segment-level pool domain: transfers between two segments of one domain
// stay chunk-neutral once warm (the extract side feeds the insert side).
TEST(NodePool, SegmentTransfersAreChunkNeutralWhenWarm) {
  core::SegmentPools<int, int> pools;
  core::Segment<int, int> a(&pools), b(&pools);
  using Item = core::Segment<int, int>::Item;
  std::vector<Item> items;
  for (int i = 0; i < 2048; ++i) items.push_back(Item{i, i, 0});
  a.insert_front_batch(std::span<Item>(items));
  // One full round trip warms the pool high-water mark.
  std::vector<Item> moved;
  a.extract_least_recent(2048, moved);
  b.insert_front_batch(std::span<Item>(moved));
  const auto warm = pools.node_pool.stats().chunk_allocs;
  for (int round = 0; round < 6; ++round) {
    core::Segment<int, int>& src = round % 2 == 0 ? b : a;
    core::Segment<int, int>& dst = round % 2 == 0 ? a : b;
    src.extract_least_recent(2048, moved);
    dst.insert_front_batch(std::span<Item>(moved));
    ASSERT_EQ(dst.size(), 2048u);
  }
  EXPECT_EQ(pools.node_pool.stats().chunk_allocs, warm);
}

// Without a scheduler every thread maps to shard 0, so this pins the
// claim protocol's sharing case: the first thread to touch the shard owns
// its private list (lock-free fast path) while every other thread funnels
// through the same shard's locked shared list — concurrently. Accounting
// must balance across both paths, and TSan must see no race between the
// owner's plain priv_head accesses and the foreigners' locked traffic
// (they only meet under the shard lock inside refill_private/spill).
TEST(NodePool, ForeignThreadsShareShardWithOwnerFastPath) {
  util::NodePool<std::pair<int, int>> pool;
  // Claim shard 0 for this thread before any contender exists.
  { auto* p = pool.create(0, 0); pool.destroy(p); }
  constexpr int kForeign = 4;
  constexpr int kOps = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kForeign);
  for (int t = 0; t < kForeign; ++t) {
    threads.emplace_back([&pool, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<std::pair<int, int>*> held;
      held.reserve(64);
      util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (held.size() < 64 && (held.empty() || (rng() & 1) != 0)) {
          held.push_back(pool.create(t, i));
        } else {
          pool.destroy(held.back());
          held.pop_back();
        }
      }
      for (auto* p : held) pool.destroy(p);
    });
  }
  go.store(true, std::memory_order_release);
  // Owner churns the private fast path concurrently with the foreigners.
  std::vector<std::pair<int, int>*> held;
  held.reserve(64);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < kOps; ++i) {
    if (held.size() < 64 && (held.empty() || (rng() & 1) != 0)) {
      held.push_back(pool.create(-1, i));
    } else {
      pool.destroy(held.back());
      held.pop_back();
    }
  }
  for (auto* p : held) pool.destroy(p);
  for (auto& th : threads) th.join();
  const auto st = pool.stats();
  EXPECT_EQ(st.node_allocs, st.node_frees)
      << "owner-private and locked-shared accounting must agree";
  EXPECT_EQ(pool.live_nodes(), 0u);
  EXPECT_GE(st.node_allocs, static_cast<std::uint64_t>(kOps));
}

}  // namespace
}  // namespace pwss
