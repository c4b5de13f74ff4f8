#include "sched/chase_lev.hpp"

#include <bit>

#include "sched/task.hpp"

namespace pwss::sched {

ChaseLevDeque::ChaseLevDeque(std::size_t initial_capacity) {
  const std::size_t cap = std::bit_ceil(initial_capacity < 2 ? std::size_t{2}
                                                             : initial_capacity);
  // relaxed: single-threaded construction; the scheduler publishes the
  // deque to workers with its own synchronization before any access.
  buffer_.store(new Buffer(cap), std::memory_order_relaxed);
}

ChaseLevDeque::~ChaseLevDeque() {
  // relaxed: destruction is quiescent by contract (workers join before
  // the scheduler frees its deques).
  delete buffer_.load(std::memory_order_relaxed);
  for (Buffer* b : retired_) delete b;
}

void ChaseLevDeque::grow(std::int64_t bottom, std::int64_t top) {
  // relaxed: the owner is buffer_'s only writer, so it reads its own
  // last store; thieves synchronize via the release store below.
  Buffer* old = buffer_.load(std::memory_order_relaxed);
  auto* bigger = new Buffer(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) bigger->put(i, old->get(i));
  buffer_.store(bigger, std::memory_order_release);
  // Thieves may still be reading `old`; retire it until destruction.
  retired_.push_back(old);
}

void ChaseLevDeque::push(TaskBase* task) {
  // relaxed: the owner is bottom_'s only writer (reads its own store).
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  // relaxed (and again after grow): owner-only writer of buffer_.
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  if (b - t > static_cast<std::int64_t>(buf->capacity) - 1) {
    grow(b, t);
    buf = buffer_.load(std::memory_order_relaxed);
  }
  buf->put(b, task);
  // Release store publishes the slot write (and the task's construction)
  // to thieves that acquire-load bottom. This is the PPoPP'13 C11 form;
  // a release fence + relaxed store is equivalent on hardware but
  // invisible to ThreadSanitizer, which does not model thread fences.
  bottom_.store(b + 1, std::memory_order_release);
}

TaskBase* ChaseLevDeque::pop() {
  // relaxed (both loads): owner reads its own bottom_/buffer_ stores.
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  // seq_cst store and load: the bottom_ reservation and the top_ read
  // below sit in the single total order that steal()'s seq_cst loads also
  // join, so an owner and a thief racing for the last element cannot both
  // miss each other. PPoPP'13 writes this as a relaxed store + seq_cst
  // fence + relaxed load; ThreadSanitizer does not model fences.
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Deque was empty; restore. relaxed: thieves re-validate through
    // the CAS on top_.
    bottom_.store(b + 1, std::memory_order_relaxed);
    return nullptr;
  }
  TaskBase* task = buf->get(b);
  if (t == b) {
    // Last element: race against thieves via CAS on top. relaxed on
    // failure: the loser publishes nothing and reads nothing through t.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      task = nullptr;  // lost to a thief
    }
    // relaxed: owner-only writer; the element was won via the CAS above.
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return task;
}

TaskBase* ChaseLevDeque::steal() {
  // seq_cst loads: the fence-free form of PPoPP'13's acquire load +
  // seq_cst fence + acquire load (see pop()); on x86 both are plain loads.
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  // acquire (upgraded from the paper's consume): the thief dereferences
  // the buffer it loads, and every mainstream compiler promotes consume
  // to acquire anyway — the weaker order bought nothing and consume is
  // deprecated since C++17 (P0371R1).
  Buffer* buf = buffer_.load(std::memory_order_acquire);
  TaskBase* task = buf->get(t);
  // relaxed on failure: the losing thief returns nullptr without reading
  // anything published through top_.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race
  }
  return task;
}

}  // namespace pwss::sched
