#include "sched/scheduler.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/rng.hpp"
#include "util/sites.hpp"

namespace pwss::sched {

namespace {
// Worker identity for the current thread (owner scheduler + index).
struct TlsWorker {
  Scheduler* scheduler = nullptr;
  void* worker = nullptr;
};
thread_local TlsWorker tls_worker;

// Per-worker free-list cap: enough to absorb every in-flight activation of
// M2's pipeline plus drive-loop churn, small enough that a burst does not
// pin memory forever.
constexpr std::size_t kFreeListCap = 128;
}  // namespace

struct Scheduler::Worker {
  explicit Worker(unsigned idx, bool prefers_high, std::uint64_t seed)
      : index(idx), prefer_high(prefers_high), rng(seed) {}
  ~Worker() {
    while (SpawnTask* t = pop_free()) delete t;
  }

  SpawnTask* pop_free() noexcept {
    SpawnTask* t = free_list;
    if (t != nullptr) {
      free_list = t->pool_next;
      t->pool_next = nullptr;
      free_count.store(free_count.load(std::memory_order_relaxed) - 1,
                       std::memory_order_relaxed);
    }
    return t;
  }
  /// Returns false when the list is full (caller deletes the node).
  bool push_free(SpawnTask* t) noexcept {
    const std::size_t n = free_count.load(std::memory_order_relaxed);
    if (n >= kFreeListCap) return false;
    t->pool_next = free_list;
    free_list = t;
    free_count.store(n + 1, std::memory_order_relaxed);
    return true;
  }

  unsigned index;
  bool prefer_high;  // polls the high queue before stealing
  ChaseLevDeque deque;
  util::Xoshiro256 rng;
  // Free SpawnTask nodes; list touched only by the owning worker thread.
  // The count is atomic solely so pooled_task_count() can read it from
  // other threads (tests/stats) without a data race.
  SpawnTask* free_list = nullptr;
  std::atomic<std::size_t> free_count{0};
};

Scheduler::Scheduler(unsigned workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 4;
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    // Workers [0, ceil(n/2)) prefer the high-priority queue: the "at least
    // half the processors greedily choose high-priority tasks" rule.
    const bool prefers_high = i < (workers + 1) / 2;
    workers_.push_back(std::make_unique<Worker>(
        i, prefers_high, 0x9e3779b97f4a7c15ULL ^ (i * 0x100000001b3ULL + 1)));
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(global_mu_);
    cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
  // Delete tasks that were never run (user spawned past quiescence).
  while (SpawnTask* t = global_hi_.pop()) delete t;
  while (SpawnTask* t = global_lo_.pop()) delete t;
}

bool Scheduler::on_worker() const noexcept {
  return tls_worker.scheduler == this;
}

std::size_t Scheduler::worker_slot() const noexcept {
  if (tls_worker.scheduler != this) return 0;
  return static_cast<Worker*>(tls_worker.worker)->index + 1;
}

std::size_t Scheduler::pooled_task_count() const noexcept {
  std::size_t n = 0;
  for (const auto& w : workers_) {
    n += w->free_count.load(std::memory_order_relaxed);
  }
  return n;
}

SpawnTask* Scheduler::allocate_spawn_node(Closure fn) {
  if (on_worker()) {
    auto* w = static_cast<Worker*>(tls_worker.worker);
    if (SpawnTask* t = w->pop_free()) {
      t->rearm(std::move(fn));
      return t;
    }
  }
  return new SpawnTask(std::move(fn));
}

void Scheduler::recycle_spawn_node(SpawnTask* node) {
  if (on_worker()) {
    auto* w = static_cast<Worker*>(tls_worker.worker);
    if (w->push_free(node)) return;
  }
  delete node;
}

void Scheduler::spawn(Closure fn, Priority pri) {
  // A park here delays the task, never loses it: a worker slow to pick up
  // a drive loop widens the pending-op windows quiescence must tolerate.
  PWSS_SCHED_POINT("scheduler.spawn.stall");
  SpawnTask* task = allocate_spawn_node(std::move(fn));
  {
    std::lock_guard<std::mutex> lk(global_mu_);
    (pri == Priority::kHigh ? global_hi_ : global_lo_).push(task);
  }
  cv_.notify_one();
}

void Scheduler::spawn_high_trampoline(void* self, Closure&& cont) {
  static_cast<Scheduler*>(self)->spawn(std::move(cont), Priority::kHigh);
}

void Scheduler::spawn_low_trampoline(void* self, Closure&& cont) {
  static_cast<Scheduler*>(self)->spawn(std::move(cont), Priority::kLow);
}

void Scheduler::run_sync_view(FnView fn) {
  if (on_worker()) {
    fn();
    return;
  }
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  } sync;
  spawn([&sync, fn] {
    fn();
    std::lock_guard<std::mutex> lk(sync.mu);
    sync.done = true;
    sync.cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(sync.mu);
  sync.cv.wait(lk, [&] { return sync.done; });
}

void Scheduler::parallel_invoke(FnView f, FnView g) {
  if (!on_worker()) {
    f();
    g();
    return;
  }
  auto* w = static_cast<Worker*>(tls_worker.worker);
  ForkTask fork(g);
  w->deque.push(&fork);
  if (sleepers_.load(std::memory_order_relaxed) > 0) notify_one_sleeper();
  f();
  TaskBase* back = w->deque.pop();
  if (back == &fork) {
    // Not stolen: run the right branch inline.
    fork.execute();
    return;
  }
  // The deque can only have held `fork` at this point (f joined all its own
  // forks), so back must be null — the task was stolen. Help until done.
  while (!fork.done()) {
    if (TaskBase* task = acquire_task(*w)) {
      execute(task);
    } else {
      std::this_thread::yield();
    }
  }
}

void Scheduler::notify_one_sleeper() {
  std::lock_guard<std::mutex> lk(global_mu_);
  cv_.notify_one();
}

TaskBase* Scheduler::pop_global(Priority pri) {
  std::lock_guard<std::mutex> lk(global_mu_);
  return (pri == Priority::kHigh ? global_hi_ : global_lo_).pop();
}

// Locality-aware victim order: try near neighbors first, widening one
// ring-distance step at a time (distance d visits workers index±d). Worker
// indices follow thread-creation order, which on the common single-socket
// case tracks core adjacency well enough that ring distance is a usable
// proxy for cache/NUMA distance; without explicit thread pinning a true
// NUMA lookup would not be any more faithful (see DESIGN.md). Nearby
// victims mean the stolen task's working set is likelier to be warm in a
// shared cache level, and failed steal probes stay off remote interconnect
// links. A per-call random side flip keeps two equidistant victims from
// being probed in a fixed order fleet-wide, so the old random-start
// anti-convoy property survives within each ring.
TaskBase* Scheduler::steal_from_others(Worker& w) {
  const std::size_t n = workers_.size();
  if (n <= 1) return nullptr;
  const bool flip = (w.rng() & 1) != 0;
  for (std::size_t d = 1; d <= n / 2; ++d) {
    const std::size_t right = (w.index + d) % n;
    const std::size_t left = (w.index + n - d) % n;
    const std::size_t first = flip ? left : right;
    const std::size_t second = flip ? right : left;
    if (first != w.index) {
      if (TaskBase* t = workers_[first]->deque.steal()) return t;
    }
    if (second != first && second != w.index) {
      if (TaskBase* t = workers_[second]->deque.steal()) return t;
    }
  }
  return nullptr;
}

TaskBase* Scheduler::acquire_task(Worker& w) {
  if (TaskBase* t = w.deque.pop()) return t;
  const Priority first = w.prefer_high ? Priority::kHigh : Priority::kLow;
  const Priority second = w.prefer_high ? Priority::kLow : Priority::kHigh;
  if (TaskBase* t = pop_global(first)) return t;
  if (TaskBase* t = steal_from_others(w)) return t;
  if (TaskBase* t = pop_global(second)) return t;
  return nullptr;
}

void Scheduler::execute(TaskBase* task) {
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (task->execute()) {
    // Only SpawnTask::execute returns true; fork frames are stack-owned.
    recycle_spawn_node(static_cast<SpawnTask*>(task));
  }
}

void Scheduler::worker_loop(unsigned index) {
  Worker& w = *workers_[index];
  tls_worker.scheduler = this;
  tls_worker.worker = &w;

  int idle_spins = 0;
  while (true) {
    if (TaskBase* task = acquire_task(w)) {
      idle_spins = 0;
      execute(task);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Sleep with a timeout: a missed notify costs at most one period.
    std::unique_lock<std::mutex> lk(global_mu_);
    if (!global_hi_.empty() || !global_lo_.empty() ||
        stop_.load(std::memory_order_acquire)) {
      continue;
    }
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait_for(lk, std::chrono::milliseconds(1));
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    idle_spins = 0;
  }

  tls_worker.scheduler = nullptr;
  tls_worker.worker = nullptr;
}

Scheduler& default_scheduler() {
  static Scheduler instance;
  return instance;
}

}  // namespace pwss::sched
