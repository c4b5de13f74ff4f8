#pragma once
// Chase–Lev work-stealing deque (SPAA 2005), with the C11 memory orderings
// of Lê et al., "Correct and Efficient Work-Stealing for Weak Memory
// Models" (PPoPP 2013), except that the two seq_cst fences there (in pop
// and steal) are written as seq_cst accesses to bottom_ and top_: the same
// ordering in a form ThreadSanitizer models, which the TSan build enforces
// with -Werror=tsan. The owner pushes/pops at the bottom; thieves steal
// from the top. The buffer grows geometrically and old buffers are retired
// on destruction (a deque outlives all concurrent access in our usage:
// workers join before the scheduler frees its deques).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pwss::sched {

class TaskBase;

class ChaseLevDeque {
 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64);
  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;
  ~ChaseLevDeque();

  /// Owner only.
  void push(TaskBase* task);

  /// Owner only; nullptr if empty.
  TaskBase* pop();

  /// Any thread; nullptr on empty or lost race.
  TaskBase* steal();

  bool empty() const noexcept {
    // relaxed (both): advisory probe only — callers that act on the
    // answer (pop/steal) re-read under their own synchronized protocol,
    // so a stale emptiness verdict costs a retry, never correctness.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b <= t;
  }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(cap) {}
    std::size_t capacity;
    std::size_t mask;
    std::vector<std::atomic<TaskBase*>> slots;

    // relaxed (both): per PPoPP'13, slot contents are published by the
    // release store of bottom_ in push() and acquired through the
    // top_/bottom_ protocol in steal(); the slots are atomic only so a
    // racy read of a recycled index is not UB, never for ordering.
    TaskBase* get(std::int64_t i) const noexcept {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, TaskBase* t) noexcept {
      slots[static_cast<std::size_t>(i) & mask].store(
          t, std::memory_order_relaxed);
    }
  };

  void grow(std::int64_t bottom, std::int64_t top);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  std::vector<Buffer*> retired_;  // owner-only; freed in destructor
};

}  // namespace pwss::sched
