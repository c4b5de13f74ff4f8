// Tests for the work-stealing / weak-priority scheduler (src/sched) and the
// SBO closure type its spawn path runs on.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "sched/chase_lev.hpp"
#include "sched/closure.hpp"
#include "sched/scheduler.hpp"
#include "sched/task.hpp"
#include "sync/dedicated_lock.hpp"

namespace pwss {
namespace {

// ---- Closure (SBO callable) -------------------------------------------------

// Capture blobs straddling the SBO boundary. An empty lambda still has
// size 1, so the padded capture keeps the total within/through the limit.
template <std::size_t Bytes>
sched::Closure make_padded_closure(std::atomic<int>& hits) {
  struct Padded {
    std::atomic<int>* hits;
    unsigned char pad[Bytes];
    void operator()() const { hits->fetch_add(1 + pad[0] * 0); }
  };
  Padded p{&hits, {}};
  std::memset(p.pad, 0, sizeof(p.pad));
  return sched::Closure(std::move(p));
}

TEST(Closure, CaptureSizesStraddlingSboBoundary) {
  // 8 (ptr) + pad; kInlineCapacity = 64.
  static_assert(sched::Closure::fits_inline<decltype([] {})>());
  std::atomic<int> hits{0};

  auto tiny = make_padded_closure<8>(hits);        // 16 bytes: inline
  auto exact = make_padded_closure<56>(hits);      // 64 bytes: inline
  auto over = make_padded_closure<57>(hits);       // 65 bytes: heap
  auto big = make_padded_closure<256>(hits);       // way over: heap
  EXPECT_TRUE(tiny.is_inline());
  EXPECT_TRUE(exact.is_inline());
  EXPECT_FALSE(over.is_inline());
  EXPECT_FALSE(big.is_inline());

  tiny();
  exact();
  over();
  big();
  EXPECT_EQ(hits.load(), 4);
}

TEST(Closure, MoveTransfersStateAndEmptiesSource) {
  int runs = 0;
  sched::Closure a([&runs] { ++runs; });
  sched::Closure b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(runs, 1);

  // Move assignment over a live closure destroys the old callable.
  auto counter = std::make_shared<int>(0);
  sched::Closure c([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  c = std::move(b);
  EXPECT_EQ(counter.use_count(), 1) << "old capture must be destroyed";
  c();
  EXPECT_EQ(runs, 2);
}

TEST(Closure, MoveOnlyCaptures) {
  // unique_ptr captures are impossible with std::function; the spawn path
  // must support them (tickets, batch state).
  auto value = std::make_unique<int>(41);
  int seen = 0;
  sched::Closure c([v = std::move(value), &seen]() mutable { seen = ++*v; });
  EXPECT_TRUE(c.is_inline());
  c();
  EXPECT_EQ(seen, 42);

  // Oversized move-only capture takes the heap path but still works.
  struct Big {
    std::unique_ptr<int> v;
    unsigned char pad[128];
  };
  sched::Closure h([big = Big{std::make_unique<int>(7), {}}, &seen] {
    seen += *big.v;
  });
  EXPECT_FALSE(h.is_inline());
  h();
  EXPECT_EQ(seen, 49);
}

TEST(Closure, DestroysCaptureOnReset) {
  auto counter = std::make_shared<int>(0);
  {
    sched::Closure c([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    c.reset();
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(c));
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(Scheduler, SpawnNodePoolRecyclesAcrossCycles) {
  // Declared before the scheduler: if the bounded wait below ever expires
  // with tasks still queued, ~Scheduler joins the workers while the
  // counter is still alive.
  std::atomic<int> remaining{2000};
  sched::Scheduler s(1);
  // Chained spawn/execute cycles: each task spawns the next from a worker,
  // so after warm-up every node comes from (and returns to) the free list.
  s.run_sync([&] {
    struct Chain {
      sched::Scheduler& s;
      std::atomic<int>& remaining;
      void operator()() const {
        if (remaining.fetch_sub(1) > 1) s.spawn(Chain{s, remaining});
      }
    };
    Chain{s, remaining}();
  });
  for (int i = 0; i < 20000000 && remaining.load() > 0; ++i) {
    std::this_thread::yield();
  }
  EXPECT_EQ(remaining.load(), 0);
  // The chain reuses one node; the pool must hold a few recycled nodes,
  // not thousands.
  EXPECT_GE(s.pooled_task_count(), 1u);
  EXPECT_LE(s.pooled_task_count(), 128u);
}

TEST(Scheduler, SpawnStressFromManyThreads) {
  // TSan-run stress (CI runs sched_test under -fsanitize=thread): external
  // threads and worker respawns hammer the injection queues and node pools
  // concurrently. The counter outlives the scheduler (declaration order)
  // so a timeout-path unwind cannot leave tasks writing to a dead atomic.
  constexpr int kExternalThreads = 4;
  constexpr int kSpawnsPerThread = 2000;
  std::atomic<int> executed{0};
  sched::Scheduler s(4);
  std::vector<std::thread> producers;
  for (int t = 0; t < kExternalThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kSpawnsPerThread; ++i) {
        const auto pri =
            (i + t) % 2 == 0 ? sched::Priority::kHigh : sched::Priority::kLow;
        if (i % 8 == 0) {
          // Respawn from the worker that executes this task: exercises the
          // free-list fast path concurrently with external spawns.
          s.spawn(
              [&] {
                s.spawn([&] { executed.fetch_add(1); });
                executed.fetch_add(1);
              },
              pri);
        } else {
          s.spawn([&] { executed.fetch_add(1); }, pri);
        }
      }
    });
  }
  for (auto& th : producers) th.join();
  const int expected =
      kExternalThreads * (kSpawnsPerThread + kSpawnsPerThread / 8);
  for (int i = 0; i < 20000000 && executed.load() < expected; ++i) {
    std::this_thread::yield();
  }
  EXPECT_EQ(executed.load(), expected);
}

TEST(Scheduler, LocalityStealDrainsUnbalancedBurst) {
  // Steal stress for the ring-distance visit order: a single worker's
  // deque receives a storm of tasks (spawned from inside one root task, so
  // they all land on that worker's own deque, not the injection queues)
  // and every other worker can make progress only by stealing. Each task
  // spins long enough that the burst cannot drain before thieves arrive,
  // so near-ring and far-ring steals both happen. Pins completion (no task
  // lost to the reordered probe sequence) and actual multi-worker
  // participation; TSan covers the racy side in CI.
  //
  // Completion is asserted on every round. Participation gets a few
  // retries: on a single-core box the owner can drain the whole burst
  // inside one OS quantum before any thief thread is ever scheduled, and
  // one such quantum-alignment round proves nothing about the steal path.
  constexpr int kBurst = 4000;
  constexpr int kAttempts = 6;
  bool stolen = false;
  for (int attempt = 0; attempt < kAttempts && !stolen; ++attempt) {
    std::atomic<int> executed{0};
    std::atomic<std::uint64_t> worker_mask{0};
    sched::Scheduler s(8);
    s.spawn([&] {
      for (int i = 0; i < kBurst; ++i) {
        s.spawn([&] {
          worker_mask.fetch_or(1ULL << (std::hash<std::thread::id>{}(
                                            std::this_thread::get_id()) %
                                        64));
          volatile int sink = 0;
          for (int j = 0; j < 500; ++j) sink = sink + j;
          executed.fetch_add(1);
        });
      }
      executed.fetch_add(1);
    });
    for (int i = 0; i < 200000000 && executed.load() < kBurst + 1; ++i) {
      std::this_thread::yield();
    }
    ASSERT_EQ(executed.load(), kBurst + 1) << "attempt " << attempt;
    stolen = std::popcount(worker_mask.load()) >= 2;
  }
  EXPECT_TRUE(stolen) << "burst drained without any stealing, " << kAttempts
                      << " rounds in a row";
}

TEST(ChaseLev, LifoForOwner) {
  sched::ChaseLevDeque dq;
  auto fn = [] {};
  sched::ForkTask a(fn), b(fn), c(fn);
  dq.push(&a);
  dq.push(&b);
  dq.push(&c);
  EXPECT_EQ(dq.pop(), &c);
  EXPECT_EQ(dq.pop(), &b);
  EXPECT_EQ(dq.pop(), &a);
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(ChaseLev, FifoForThief) {
  sched::ChaseLevDeque dq;
  auto fn = [] {};
  sched::ForkTask a(fn), b(fn);
  dq.push(&a);
  dq.push(&b);
  EXPECT_EQ(dq.steal(), &a);
  EXPECT_EQ(dq.steal(), &b);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  sched::ChaseLevDeque dq(2);
  auto fn = [] {};
  std::vector<std::unique_ptr<sched::ForkTask>> tasks;
  for (int i = 0; i < 1000; ++i) {
    tasks.push_back(std::make_unique<sched::ForkTask>(fn));
    dq.push(tasks.back().get());
  }
  for (int i = 999; i >= 0; --i) EXPECT_EQ(dq.pop(), tasks[i].get());
}

TEST(ChaseLev, ConcurrentStealsSeeEachTaskOnce) {
  sched::ChaseLevDeque dq;
  constexpr int kTasks = 20000;
  auto fn = [] {};
  std::vector<std::unique_ptr<sched::ForkTask>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<sched::ForkTask>(fn));
  }
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};
  std::atomic<bool> done_producing{false};

  std::thread owner([&] {
    for (int i = 0; i < kTasks; ++i) {
      dq.push(tasks[i].get());
      produced.fetch_add(1);
      if (i % 3 == 0) {
        if (dq.pop() != nullptr) consumed.fetch_add(1);
      }
    }
    done_producing = true;
    while (dq.pop() != nullptr) consumed.fetch_add(1);
  });
  std::vector<std::thread> thieves;
  for (int t = 0; t < 4; ++t) {
    thieves.emplace_back([&] {
      while (!done_producing.load() || !dq.empty()) {
        if (dq.steal() != nullptr) consumed.fetch_add(1);
      }
    });
  }
  owner.join();
  for (auto& th : thieves) th.join();
  // Drain any leftovers the racing threads missed.
  while (dq.steal() != nullptr) consumed.fetch_add(1);
  EXPECT_EQ(consumed.load(), kTasks);
}

TEST(Scheduler, RunSyncExecutesOnPool) {
  sched::Scheduler s(4);
  std::atomic<bool> ran{false};
  std::atomic<bool> was_worker{false};
  s.run_sync([&] {
    ran = true;
    was_worker = s.on_worker();
  });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(was_worker);
  EXPECT_FALSE(s.on_worker());
}

TEST(Scheduler, SpawnEventuallyRuns) {
  sched::Scheduler s(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    s.spawn([&] { count.fetch_add(1); });
  }
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(Scheduler, ParallelInvokeRunsBothBranches) {
  sched::Scheduler s(4);
  std::atomic<int> total{0};
  s.run_sync([&] {
    auto f = [&] { total.fetch_add(1); };
    auto g = [&] { total.fetch_add(2); };
    s.parallel_invoke(sched::FnView(f), sched::FnView(g));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(Scheduler, ParallelInvokeOffPoolDegradesToSequential) {
  sched::Scheduler s(2);
  int total = 0;
  auto f = [&] { total += 1; };
  auto g = [&] { total += 2; };
  s.parallel_invoke(sched::FnView(f), sched::FnView(g));  // not on a worker
  EXPECT_EQ(total, 3);
}

TEST(Scheduler, NestedForkJoinComputesFibonacci) {
  sched::Scheduler s(8);
  // Recursive fork/join exercises stealing + helping under real nesting.
  std::function<long(long)> fib = [&](long n) -> long {
    if (n < 2) return n;
    long a = 0, b = 0;
    auto left = [&] { a = fib(n - 1); };
    auto right = [&] { b = fib(n - 2); };
    s.parallel_invoke(sched::FnView(left), sched::FnView(right));
    return a + b;
  };
  long result = 0;
  s.run_sync([&] { result = fib(20); });
  EXPECT_EQ(result, 6765);
}

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  sched::Scheduler s(8);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  s.parallel_for(0, kN, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ParallelForEmptyAndTinyRanges) {
  sched::Scheduler s(2);
  int calls = 0;
  s.parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  s.parallel_for(0, 3, 8, [&](std::size_t lo, std::size_t hi) {
    sum.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(Scheduler, ParallelForActuallyUsesMultipleWorkers) {
  sched::Scheduler s(4);
  std::atomic<std::uint64_t> worker_mask{0};
  s.parallel_for(0, 20000, 1, [&](std::size_t, std::size_t) {
    worker_mask.fetch_or(1ULL << (std::hash<std::thread::id>{}(
                                      std::this_thread::get_id()) %
                                  64));
    // Spin long enough that sleeping workers wake and steal.
    for (int i = 0; i < 2000; ++i) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  });
  EXPECT_GT(std::popcount(worker_mask.load()), 1);
}

// Waits up to ~10 s of wall clock for `done`; false on timeout.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Deterministic form of the weak-priority rule: with every worker held by
// a gated spinner and low tasks queued ahead, freeing one high-preferring
// worker must run the queued high task there before any low task starts.
TEST(Scheduler, HighPriorityTasksRunUnderLoad) {
  constexpr int kWorkers = 4;
  constexpr int kLows = 8;
  std::atomic<bool> gate[kWorkers] = {};
  std::atomic<std::size_t> spinner_slot[kWorkers] = {};
  std::atomic<int> spinners_running{0};
  std::atomic<int> lows_started{0};
  std::atomic<int> lows_done{0};
  std::atomic<int> lows_started_before_high{-1};
  std::atomic<std::size_t> high_slot{0};

  // Declared after the state its tasks touch (so it drains and joins
  // first) and before the guard that opens every gate on any exit.
  sched::Scheduler s(kWorkers);
  struct OpenGates {
    std::atomic<bool>* gates;
    ~OpenGates() {
      for (int i = 0; i < kWorkers; ++i) gates[i].store(true);
    }
  } open_gates{gate};

  // One spinner per worker: a spinner never yields its worker back, so
  // four of them land on four distinct workers.
  for (int i = 0; i < kWorkers; ++i) {
    s.spawn(
        [&, i] {
          spinner_slot[i].store(s.worker_slot());
          spinners_running.fetch_add(1);
          while (!gate[i].load()) std::this_thread::yield();
        },
        sched::Priority::kLow);
  }
  ASSERT_TRUE(wait_until([&] { return spinners_running.load() == kWorkers; }));

  for (int i = 0; i < kLows; ++i) {
    s.spawn(
        [&] {
          lows_started.fetch_add(1);
          lows_done.fetch_add(1);
        },
        sched::Priority::kLow);
  }
  s.spawn(
      [&] {
        lows_started_before_high.store(lows_started.load());
        high_slot.store(s.worker_slot());
      },
      sched::Priority::kHigh);

  // Workers 0..1 (slots 1..2) prefer the high queue; free one of them.
  int freed = -1;
  for (int i = 0; i < kWorkers; ++i) {
    const std::size_t slot = spinner_slot[i].load();
    if (slot == 1 || slot == 2) freed = i;
  }
  ASSERT_NE(freed, -1) << "no spinner landed on a high-preferring worker";
  gate[freed].store(true);
  ASSERT_TRUE(wait_until([&] { return high_slot.load() != 0; }));
  EXPECT_EQ(high_slot.load(), spinner_slot[freed].load());
  EXPECT_EQ(lows_started_before_high.load(), 0)
      << "a queued low task started before the high one";

  for (int i = 0; i < kWorkers; ++i) gate[i].store(true);
  EXPECT_TRUE(wait_until([&] { return lows_done.load() == kLows; }));
}

TEST(Scheduler, ResumeSinkIntegratesWithDedicatedLock) {
  sched::Scheduler s(4);
  sync::DedicatedLock lock(2);
  std::atomic<int> completed{0};
  const auto sink = s.resume_sink(sched::Priority::kLow);
  s.run_sync([&] {
    auto hold_then_release = [&](std::size_t key) {
      lock.acquire(
          key,
          [&, key] {
            (void)key;
            completed.fetch_add(1);
            lock.release(sink);
          },
          sink);
    };
    auto a = [&] { hold_then_release(0); };
    auto b = [&] { hold_then_release(1); };
    s.parallel_invoke(sched::FnView(a), sched::FnView(b));
  });
  // Both continuations complete (possibly via parked resume on the pool).
  for (int i = 0; i < 100000 && completed.load() < 2; ++i) {
    std::this_thread::yield();
  }
  EXPECT_EQ(completed.load(), 2);
}

TEST(Scheduler, ManySchedulersConstructDestruct) {
  for (int i = 0; i < 10; ++i) {
    sched::Scheduler s(3);
    std::atomic<int> n{0};
    s.parallel_for(0, 1000, 16, [&](std::size_t lo, std::size_t hi) {
      n.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(n.load(), 1000);
  }
}

TEST(Scheduler, WorkerCountDefaultsPositive) {
  sched::Scheduler s;
  EXPECT_GE(s.worker_count(), 1u);
}

}  // namespace
}  // namespace pwss
