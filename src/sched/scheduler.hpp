#pragma once
// Work-stealing scheduler for the dynamic-multithreading model of Section 4,
// with the weak-priority extension of Section 7.2 realized the way Section 8
// prescribes for practical schedulers: the worker pool is split so that at
// least half the workers prefer the high-priority queue.
//
// Structure:
//  * each worker owns a Chase–Lev deque for fork/join work (binary forks,
//    the only primitive the QRMW pointer machine model supports);
//  * two global injection queues (high / low) accept `spawn`ed root tasks —
//    M2 assigns final-slab activations to the high queue per Section 7.2;
//  * workers with index < ceil(n/2) poll: own deque → high queue → steal →
//    low queue; the remaining workers poll: own deque → low queue → steal →
//    high queue. Every worker runs *something* whenever work exists
//    (greediness), and high tasks are picked up by at least half the pool
//    (weak priority).
//
// External (non-worker) threads interact via `run_sync` (submit a closure
// and wait for completion) or `spawn`; `parallel_invoke` called off-pool
// degrades to sequential execution, which keeps the API total.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/chase_lev.hpp"
#include "sched/closure.hpp"
#include "sched/task.hpp"

namespace pwss::sched {

enum class Priority : std::uint8_t { kHigh = 0, kLow = 1 };

/// Non-owning callable view; lets parallel_invoke avoid std::function
/// allocations on the fork fast path.
class FnView {
 public:
  template <typename F>
  FnView(F& fn) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(&fn), call_([](void* o) { (*static_cast<F*>(o))(); }) {}
  void operator()() const { call_(obj_); }

 private:
  void* obj_;
  void (*call_)(void*);
};

class Scheduler {
 public:
  /// workers == 0 selects std::thread::hardware_concurrency().
  explicit Scheduler(unsigned workers = 0);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Fire-and-forget task; callable from any thread. Captures up to
  /// Closure::kInlineCapacity bytes are stored inline, and the task node
  /// itself comes from a per-worker free list, so steady-state spawns from
  /// pool workers perform zero heap allocations.
  void spawn(Closure fn, Priority pri = Priority::kLow);

  /// Runs `fn` on the pool and blocks the calling thread until `fn` *and
  /// all fork/join work it creates* complete (fn itself must join its
  /// forks, which parallel_invoke/parallel_for guarantee). If called from a
  /// worker thread, runs inline. `fn` is borrowed, not owned: the caller's
  /// frame outlives the run by construction.
  template <typename F>
  void run_sync(F&& fn) {
    FnView view(fn);
    run_sync_view(view);
  }

  /// Structured fork/join: f and g both complete before returning. On a
  /// worker, g is exposed for stealing while the caller runs f; off-pool it
  /// runs sequentially.
  void parallel_invoke(FnView f, FnView g);

  /// Divide-and-conquer parallel loop over [lo, hi) with grain size
  /// `grain` (>= 1); body receives sub-ranges [a, b).
  template <typename F>
  void parallel_for(std::size_t lo, std::size_t hi, std::size_t grain,
                    const F& body) {
    if (hi <= lo) return;
    if (grain == 0) grain = 1;
    if (!on_worker() && hi - lo > grain) {
      run_sync([&] { pfor_impl(lo, hi, grain, body); });
      return;
    }
    pfor_impl(lo, hi, grain, body);
  }

  /// True iff the calling thread is one of this scheduler's workers.
  bool on_worker() const noexcept;

  /// Pool-shard slot for the calling thread: 1 + worker index when the
  /// thread is one of this scheduler's workers, 0 for every external
  /// thread (and for workers of other schedulers). util::NodePool shards
  /// its free lists by this, the same identity the SpawnTask free lists
  /// key on.
  std::size_t worker_slot() const noexcept;

  /// ResumeSink adapter for sync::DedicatedLock: resumed continuations are
  /// spawned at the given priority (Section 7.2: a resumed thread goes back
  /// to its original queue). The sink is a two-pointer value — copying and
  /// invoking it never allocates.
  ClosureSink resume_sink(Priority pri) noexcept {
    return ClosureSink(this, pri == Priority::kHigh ? &spawn_high_trampoline
                                                    : &spawn_low_trampoline);
  }

  /// Number of tasks executed so far (approximate; for tests/benches).
  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Free SpawnTask nodes pooled across all workers (approximate; for
  /// tests: call only when the pool is quiescent).
  std::size_t pooled_task_count() const noexcept;

 private:
  struct Worker;

  /// Intrusive FIFO of SpawnTask nodes (linked through pool_next); the
  /// injection queues hold only spawn nodes, so queueing one allocates
  /// nothing. Guarded by global_mu_.
  struct SpawnQueue {
    SpawnTask* head = nullptr;
    SpawnTask* tail = nullptr;
    bool empty() const noexcept { return head == nullptr; }
    void push(SpawnTask* t) noexcept {
      t->pool_next = nullptr;
      if (tail != nullptr) {
        tail->pool_next = t;
      } else {
        head = t;
      }
      tail = t;
    }
    SpawnTask* pop() noexcept {
      SpawnTask* t = head;
      if (t != nullptr) {
        head = t->pool_next;
        if (head == nullptr) tail = nullptr;
        t->pool_next = nullptr;
      }
      return t;
    }
  };

  template <typename F>
  void pfor_impl(std::size_t lo, std::size_t hi, std::size_t grain,
                 const F& body) {
    if (hi - lo <= grain) {
      body(lo, hi);
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    auto left = [&] { pfor_impl(lo, mid, grain, body); };
    auto right = [&] { pfor_impl(mid, hi, grain, body); };
    parallel_invoke(FnView(left), FnView(right));
  }

  static void spawn_high_trampoline(void* self, Closure&& cont);
  static void spawn_low_trampoline(void* self, Closure&& cont);

  void run_sync_view(FnView fn);
  void worker_loop(unsigned index);
  TaskBase* acquire_task(Worker& w);
  TaskBase* steal_from_others(Worker& w);
  TaskBase* pop_global(Priority pri);
  SpawnTask* allocate_spawn_node(Closure fn);
  void recycle_spawn_node(SpawnTask* node);
  void execute(TaskBase* task);
  void notify_one_sleeper();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex global_mu_;
  std::condition_variable cv_;
  SpawnQueue global_hi_;
  SpawnQueue global_lo_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

}  // namespace pwss::sched
