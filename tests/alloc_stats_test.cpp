// Counting-allocator fixture for the allocation-lean hot paths: replaces
// global operator new/delete with counting versions and asserts the
// properties the perf work relies on:
//   * steady-state spawn/execute cycles perform ZERO allocations for
//     captures within the Closure SBO (pooled task nodes, intrusive
//     injection queues, inline closures);
//   * repeated M1 execute_batch calls allocate strictly less once the
//     per-instance BatchScratch arena is warm;
//   * M2's steady-state per-op allocation count stays bounded (printed for
//     the perf trajectory; see BENCH_baseline.json / PR notes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "core/segment.hpp"
#include "driver/registry.hpp"
#include "sort/esort.hpp"
#include "sched/scheduler.hpp"
#include "tree/jtree.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t sz, std::size_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (al < sizeof(void*)) al = sizeof(void*);
  if (posix_memalign(&p, al, sz ? sz : 1) != 0) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  return counted_aligned_alloc(sz, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return counted_aligned_alloc(sz, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pwss {
namespace {

using IntOp = core::Op<int, int>;

TEST(AllocStats, SpawnSteadyStateIsAllocationFree) {
  // Single worker: the whole chain runs on one thread, so the counter
  // window [after warm-up, end] sees only the spawn path itself. The
  // atomics precede the scheduler so in-flight tasks can never outlive
  // them, even on a timeout-path unwind.
  constexpr int kWarm = 64;
  constexpr int kTotal = 4096;
  std::atomic<int> step{0};
  std::atomic<std::uint64_t> start_allocs{0};
  std::atomic<std::uint64_t> end_allocs{0};
  std::atomic<bool> done{false};
  sched::Scheduler s(1);

  struct Chain {
    sched::Scheduler* s;
    std::atomic<int>* step;
    std::atomic<std::uint64_t>* start_allocs;
    std::atomic<std::uint64_t>* end_allocs;
    std::atomic<bool>* done;

    void operator()() const {
      const int i = step->fetch_add(1) + 1;
      if (i == kWarm) start_allocs->store(alloc_count());
      if (i >= kTotal) {
        end_allocs->store(alloc_count());
        done->store(true, std::memory_order_release);
        return;
      }
      s->spawn(Chain{*this});
    }
  };
  static_assert(sched::Closure::fits_inline<Chain>(),
                "chain capture must take the SBO path");

  s.spawn(Chain{&s, &step, &start_allocs, &end_allocs, &done});
  for (int i = 0; i < 200000000 && !done.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(done.load());
  EXPECT_EQ(end_allocs.load(), start_allocs.load())
      << "steady-state spawn/execute cycles must not allocate "
      << "(" << kTotal - kWarm << " spawns, "
      << end_allocs.load() - start_allocs.load() << " allocations)";
}

TEST(AllocStats, JTreeWarmPoolInsertEraseChurnIsAllocationFree) {
  // The acceptance bar for the node-pool work: once the pool is warm,
  // steady-state point insert/erase churn on a pooled JTree performs ZERO
  // heap allocations — split/join rebalance in place, the inserted node
  // comes off a free list, the erased node goes back on one.
  tree::JTree<std::uint64_t, std::uint64_t>::Pool pool;
  tree::JTree<std::uint64_t, std::uint64_t> t(&pool);
  constexpr std::uint64_t kUniverse = 1 << 14;
  for (std::uint64_t i = 0; i < kUniverse / 2; ++i) t.insert(i * 2, i);
  util::Xoshiro256 rng(3);
  // Warm-up churn so every shard/chunk the steady loop touches exists.
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t k = rng.bounded(kUniverse);
    t.insert(k, k);
    t.erase(k);
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 16384; ++i) {
    const std::uint64_t k = rng.bounded(kUniverse);
    t.insert(k, k);
    t.erase(k);
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "warm-pool JTree insert/erase churn must be allocation-free";
}

TEST(AllocStats, JTreeWarmPoolBatchChurnIsAllocationFree) {
  // Batch shape: multi_extract detaches the nodes, release returns them to
  // the pool, multi_insert re-draws them; with a warmed handle buffer the
  // whole cycle is heap-free.
  using Tree = tree::JTree<std::uint64_t, std::uint64_t>;
  Tree::Pool pool;
  Tree t(&pool);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items;
  for (std::uint64_t i = 0; i < 4096; ++i) items.emplace_back(i, i);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 4096; ++i) keys.push_back(i);
  std::vector<Tree::Handle> out(keys.size());
  auto extract_all = [&] {
    t.multi_extract(keys, out);
    for (const Tree::Handle n : out) t.release(n);
  };
  t.multi_insert(items);
  extract_all();
  t.multi_insert(items);  // warm: pool at high-water
  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 4; ++round) {
    extract_all();
    t.multi_insert(items);
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "warm-pool multi_extract/multi_insert churn must be allocation-free";
}

TEST(AllocStats, TreeSegmentWarmTransferIsAllocationFree) {
  // The ladder's transfer shape on tree segments: two segments of one pool
  // domain trade items by key batch (to the front) and by recency (to the
  // back) through one SegmentScratch. The extract side releases exactly
  // the nodes the insert side re-draws, and every buffer is sized by the
  // warm-up rounds, so steady rounds touch no heap.
  using Seg = core::Segment<std::uint64_t, std::uint64_t>;
  core::SegmentPools<std::uint64_t, std::uint64_t> pools;
  Seg a(&pools), b(&pools);
  a.debug_force_tree();
  b.debug_force_tree();
  core::SegmentScratch<std::uint64_t, std::uint64_t> scratch;
  std::vector<Seg::Item> moved;
  for (std::uint64_t i = 0; i < 4096; ++i) moved.push_back({i, i, 0});
  a.insert_front_batch(moved, {}, &scratch);
  std::vector<std::uint64_t> keys;  // a third of a's keys, then misses
  for (std::uint64_t k = 0; k < 6144; k += 3) keys.push_back(k);
  auto transfer = [&](Seg& src, Seg& dst) {
    src.extract_by_keys(keys, moved, {}, &scratch);
    dst.insert_front_batch(moved, {}, &scratch);
    src.extract_least_recent(512, moved, {}, &scratch);
    dst.insert_back_batch(moved, {}, &scratch);
  };
  for (int round = 0; round < 4; ++round) {
    transfer(round % 2 == 0 ? a : b, round % 2 == 0 ? b : a);
  }
  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 8; ++round) {
    transfer(round % 2 == 0 ? a : b, round % 2 == 0 ? b : a);
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "warm tree-segment transfers must be allocation-free";
  EXPECT_EQ(a.size() + b.size(), 4096u);
  EXPECT_EQ(pools.node_pool.live_nodes(), 4096u);
  EXPECT_EQ(a.validate(), "");
  EXPECT_EQ(b.validate(), "");
}

TEST(AllocStats, FlatSegmentProbeIsAllocationFree) {
  // Front segments (S[0..2]) live in the flat sorted-array representation;
  // probing one is a branchless binary search over two parallel arrays and
  // must never touch the heap.
  core::Segment<std::uint64_t, std::uint64_t> seg;
  ASSERT_TRUE(seg.is_flat());
  for (std::uint64_t i = 0; i < 16; ++i) {
    seg.insert_front({i * 7, i, 0});
  }
  ASSERT_TRUE(seg.is_flat());
  const std::uint64_t before = alloc_count();
  std::uint64_t found = 0;
  for (int round = 0; round < 4096; ++round) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      found += seg.peek(i * 7) != nullptr;
      found += seg.peek(i * 7 + 3) != nullptr;  // miss path
    }
    found += seg.range_count(0, 200);
    found += seg.predecessor(50).first != nullptr;
    found += seg.successor(50).first != nullptr;
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "flat-segment probes must be allocation-free (" << found << ")";
}

TEST(AllocStats, FlatSegmentWarmChurnIsAllocationFree) {
  // The flat arrays reserve to kFlatSegmentMax on first use, so warm
  // point insert/extract churn below the promote threshold is in-place
  // memmove over the arrays — zero heap traffic, zero pool traffic.
  core::Segment<std::uint64_t, std::uint64_t> seg;
  for (std::uint64_t i = 0; i < 16; ++i) {
    seg.insert_front({i * 7, i, 0});  // first insert warms the reserve
  }
  util::Xoshiro256 rng(17);
  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 8192; ++round) {
    const std::uint64_t k = rng.bounded(16) * 7;
    auto item = seg.extract(k);
    ASSERT_TRUE(item.has_value());
    seg.insert_front(std::move(*item));
  }
  ASSERT_TRUE(seg.is_flat());
  EXPECT_EQ(alloc_count() - before, 0u)
      << "warm flat-segment insert/extract churn must be allocation-free";
}

TEST(AllocStats, M1BatchAllocsDropOnceArenaIsWarm) {
  // Sequential M1 (null scheduler) for determinism. The first batch of a
  // given shape grows the arena; later batches of the same shape must
  // allocate strictly less (scratch capacity is reused; what remains is
  // tree-node churn and the returned results).
  core::M1Map<int, int> m;
  std::vector<IntOp> warm;
  warm.reserve(4096);
  for (int i = 0; i < 4096; ++i) warm.push_back(IntOp::insert(i, i));
  m.execute_batch(warm);

  util::Xoshiro256 rng(5);
  std::vector<IntOp> batch;
  batch.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    batch.push_back(IntOp::search(static_cast<int>(rng.bounded(4096))));
  }

  const std::uint64_t before_first = alloc_count();
  m.execute_batch(batch);
  const std::uint64_t first = alloc_count() - before_first;

  std::uint64_t steady_total = 0;
  constexpr int kSteadyRounds = 4;
  for (int r = 0; r < kSteadyRounds; ++r) {
    const std::uint64_t before = alloc_count();
    m.execute_batch(batch);
    steady_total += alloc_count() - before;
  }
  const std::uint64_t steady = steady_total / kSteadyRounds;

  std::printf("[allocs] m1 4096-op search batch: first=%llu steady=%llu "
              "(%.1f%% of first)\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(steady),
              100.0 * static_cast<double>(steady) /
                  static_cast<double>(first ? first : 1));
  EXPECT_LT(steady, first)
      << "warm-arena batches must allocate less than the arena-growing one";
}

TEST(AllocStats, M1SteadyStateBatchWithReusedResultsIsAllocationLean) {
  // The full batch loop with every reuse layer on: the instance arena
  // (BatchScratch, whose chunk sort keeps its pair, merge and gather
  // buffers), the node pools and the caller-owned results buffer. The ~690
  // steady allocations/batch this shape once paid came from PESort's
  // per-level pivot and partition buffers, back when M1's walk sorted
  // with it; the walk's sort_chunk allocates nothing once its buffers are
  // warm. Measured 4/batch; the bound leaves headroom for stdlib variance
  // while catching any reintroduced per-batch allocation.
  core::M1Map<int, int> m;
  std::vector<IntOp> warm;
  warm.reserve(4096);
  for (int i = 0; i < 4096; ++i) warm.push_back(IntOp::insert(i, i));
  m.execute_batch(warm);

  util::Xoshiro256 rng(11);
  std::vector<IntOp> batch;
  batch.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    batch.push_back(IntOp::search(static_cast<int>(rng.bounded(4096))));
  }
  std::vector<core::Result<int>> results;
  m.execute_batch(std::span<const IntOp>(batch), results);  // arena warm-up
  m.execute_batch(std::span<const IntOp>(batch), results);

  std::uint64_t steady_total = 0;
  constexpr int kRounds = 4;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t before = alloc_count();
    m.execute_batch(std::span<const IntOp>(batch), results);
    steady_total += alloc_count() - before;
  }
  const std::uint64_t steady = steady_total / kRounds;
  std::printf("[allocs] m1 4096-op search batch, all reuse layers on: "
              "steady=%llu allocations/batch\n",
              static_cast<unsigned long long>(steady));
  EXPECT_LE(steady, 64u)
      << "steady-state M1 batch allocations regressed — check the node "
      << "pools, the arena, the results-buffer reuse, and the chunk sort's "
      << "scratch (pair, merge and gather buffers)";
}

TEST(AllocStats, DriverRunReusesResultsBuffer) {
  // The driver-level bulk path with a caller-owned buffer: after the first
  // run sizes everything, later runs of the same shape must allocate
  // strictly less than a fresh-vector run.
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("m1");
  std::vector<core::Op<std::uint64_t, std::uint64_t>> batch;
  for (std::uint64_t i = 0; i < 2048; ++i) {
    batch.push_back(core::Op<std::uint64_t, std::uint64_t>::insert(i, i));
  }
  d->run(batch);
  batch.clear();
  util::Xoshiro256 rng(17);
  for (int i = 0; i < 2048; ++i) {
    batch.push_back(core::Op<std::uint64_t, std::uint64_t>::search(
        rng.bounded(2048)));
  }
  std::vector<core::Result<std::uint64_t>> out;
  d->run(batch, out);  // warm-up: sizes out + backend scratch
  d->run(batch, out);

  const std::uint64_t before_fresh = alloc_count();
  auto fresh = d->run(batch);  // allocating overload, for contrast
  const std::uint64_t fresh_allocs = alloc_count() - before_fresh;

  const std::uint64_t before_reuse = alloc_count();
  d->run(batch, out);
  const std::uint64_t reuse_allocs = alloc_count() - before_reuse;

  std::printf("[allocs] driver 2048-op run: fresh=%llu reused=%llu\n",
              static_cast<unsigned long long>(fresh_allocs),
              static_cast<unsigned long long>(reuse_allocs));
  ASSERT_EQ(fresh.size(), out.size());
  EXPECT_LT(reuse_allocs, fresh_allocs)
      << "run(ops, out) must reuse the results buffer across batches";
}

TEST(AllocStats, M2SteadyStateOpAllocationsBounded) {
  // M2's spawn-per-tick pipeline used to pay a std::function + task node
  // per activation and continuation; with pooled SBO closures the per-op
  // allocation budget is dominated by tree-node churn. Record the number
  // (for the perf trajectory) and bound it so a regression reintroducing
  // per-spawn allocation trips the test.
  sched::Scheduler s(2);
  core::M2Map<int, int> m(s, 2);
  for (int i = 0; i < 2048; ++i) m.insert(i, i);
  m.quiesce();

  util::Xoshiro256 rng(9);
  constexpr int kOps = 4096;
  // Warm one round so buffers/pools reach steady state.
  for (int i = 0; i < kOps / 4; ++i) {
    m.search(static_cast<int>(rng.bounded(2048)));
  }
  m.quiesce();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < kOps; ++i) {
    m.search(static_cast<int>(rng.bounded(2048)));
  }
  m.quiesce();
  const std::uint64_t per_op = (alloc_count() - before) / kOps;
  std::printf("[allocs] m2 steady-state search: ~%llu allocations/op\n",
              static_cast<unsigned long long>(per_op));
  // Measured ~37/op on the PR machine with node pools + SBO front-chain
  // continuations (~45/op after the PR-3 closure work, ~61/op before it);
  // the count shifts with how ops get bunched, so the bound leaves
  // headroom while still catching a reintroduced per-activation or
  // per-continuation allocation.
  EXPECT_LE(per_op, 52u)
      << "per-op allocation budget regressed — check the spawn path, the "
      << "continuation captures, and the node pools";
}

TEST(AllocStats, M2BulkBatchAllocatesNothingPerOpAtSteadyState) {
  // A 512-op point phase is longer than one cut (24 ops at n = 2048,
  // p = 2), so it runs as one bulk request: the interface walks it with its
  // reused walk arena and writes every result straight into the caller's
  // buffer, with no per-op ticket and no stage task. The batch re-searches
  // a NARROW key range (64 of the 2048 keys), so steady batches only
  // shuffle recency within the front segments, which is allocation-free
  // once the pools are warm.
  sched::Scheduler s(2);
  core::M2Map<int, int> m(s, 2);
  for (int i = 0; i < 2048; ++i) m.insert(i, i);
  m.quiesce();

  util::Xoshiro256 rng(21);
  std::vector<IntOp> batch;
  for (int i = 0; i < 512; ++i) {
    batch.push_back(IntOp::search(static_cast<int>(rng.bounded(64))));
  }
  std::vector<core::Result<int>> results;

  const std::uint64_t before_first = alloc_count();
  m.execute_batch(std::span<const IntOp>(batch), results);
  const std::uint64_t first = alloc_count() - before_first;

  // Quiesce OUTSIDE the measured windows, and reduce with min: a
  // reintroduced per-op or per-batch allocation lifts every round.
  m.quiesce();
  std::uint64_t steady = std::numeric_limits<std::uint64_t>::max();
  constexpr int kRounds = 4;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t before = alloc_count();
    m.execute_batch(std::span<const IntOp>(batch), results);
    steady = std::min(steady, alloc_count() - before);
    m.quiesce();
  }
  std::printf("[allocs] m2 512-op bulk batch: first=%llu steady(min)=%llu\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(steady));
  // Measured steady = 1: the spawn node of the interface activation, which
  // a caller outside the scheduler's workers draws from the heap.
  EXPECT_LE(steady, 3u)
      << "the bulk batch allocates per op again: tickets, the pipeline, or "
      << "a walk arena that stopped reusing its capacity";
}

TEST(AllocStats, M2ShortPhasesReuseTheTicketArena) {
  // A point phase no longer than one cut (24 ops at n = 2048, p = 2) is
  // submitted op by op on tickets from the instance arena, which a steady
  // single caller reuses across batches: only the first batch grows it.
  // How the scheduler splits the 24 ops into cuts varies from run to run,
  // and so do the counts, so the test takes the median first and steady
  // counts over 15 fresh instances: one run's print then compares with
  // another build's.
  constexpr int kInstances = 15;
  std::vector<IntOp> batch;
  for (int i = 0; i < 24; ++i) batch.push_back(IntOp::search(i % 8));
  std::vector<std::uint64_t> firsts;
  std::vector<std::uint64_t> steadies;
  for (int run = 0; run < kInstances; ++run) {
    sched::Scheduler s(2);
    core::M2Map<int, int> m(s, 2);
    for (int i = 0; i < 2048; ++i) m.insert(i, i);
    m.quiesce();
    std::vector<core::Result<int>> results;

    const std::uint64_t before_first = alloc_count();
    m.execute_batch(std::span<const IntOp>(batch), results);
    firsts.push_back(alloc_count() - before_first);
    m.quiesce();
    std::uint64_t steady = std::numeric_limits<std::uint64_t>::max();
    for (int r = 0; r < 8; ++r) {
      const std::uint64_t before = alloc_count();
      m.execute_batch(std::span<const IntOp>(batch), results);
      steady = std::min(steady, alloc_count() - before);
      m.quiesce();
    }
    steadies.push_back(steady);
    for (int i = 0; i < 24; ++i) ASSERT_EQ(results[i].value, i % 8);
  }
  auto median = [](std::vector<std::uint64_t> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const std::uint64_t first = median(firsts);
  const std::uint64_t steady = median(steadies);
  std::printf("[allocs] m2 24-op short batch, median of %d instances: "
              "first=%llu steady(min)=%llu\n",
              kInstances, static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(steady));
  EXPECT_LT(steady, first)
      << "warm ticket-arena batches must allocate less than the first";
}

TEST(AllocStats, EsortPositionChainsShareOneArena) {
  // The fix for the duplicate-position spill: positions past the two
  // inline slots chain through ONE shared arena, so 256 keys x 16
  // occurrences cost amortized vector-doubling allocations (O(log total)),
  // not one heap spill per hot key (>= 256 with the old SmallVec values).
  std::vector<sort::detail::EsortPositions> lists(256);
  std::vector<sort::detail::EsortChainNode> chain;
  const std::uint64_t before = alloc_count();
  for (std::size_t occ = 0; occ < 16; ++occ) {
    for (std::size_t k = 0; k < lists.size(); ++k) {
      sort::detail::esort_append(lists[k], occ * lists.size() + k, chain);
    }
  }
  const std::uint64_t used = alloc_count() - before;
  std::printf("[allocs] esort position chains, 256 keys x 16: %llu\n",
              static_cast<unsigned long long>(used));
  EXPECT_LE(used, 16u) << "per-key spill allocations are back";
  // The chains replay each key's positions in order.
  for (std::size_t k = 0; k < lists.size(); ++k) {
    std::vector<std::size_t> got{lists[k].inline_pos[0], lists[k].inline_pos[1]};
    for (std::uint32_t n = lists[k].head; n != sort::detail::kEsortNil;
         n = chain[n].next) {
      got.push_back(chain[n].pos);
    }
    ASSERT_EQ(got.size(), 16u);
    for (std::size_t occ = 0; occ < 16; ++occ) {
      ASSERT_EQ(got[occ], occ * lists.size() + k);
    }
  }
}

}  // namespace
}  // namespace pwss
