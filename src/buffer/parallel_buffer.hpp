#pragma once
// Parallel buffer (Appendix A.1, Figure 4): the implicit-batching front end
// that absorbs concurrent data-structure calls into per-thread sub-buffers
// and flushes them as one batch when the structure is ready for input.
//
// The paper's submitters walk a static BBT of test-and-set flags to decide
// who activates the interface; we substitute the AsyncGate three-state
// latch (one CAS per submit once an owner is active) for the flag tree —
// identical O(1) submit cost and O(p + b) / O(log p + log b) flush bounds,
// without the tree's epoch-swap subtleties (see DESIGN.md substitutions;
// the gate lives with the consumer, e.g. core/async_map.hpp).
//
// Each sub-buffer is padded to its own cache line and guarded by a tiny
// test-and-set spinlock: a submitter contends only with the flusher and
// with same-slot threads (slot = hashed thread id), matching the QRMW
// model's per-cell FIFO queue behaviour.
//
// flush() appends straight onto the consumer's queue (core::FrontEnd's
// feed) and has one caller at a time, the consumer's single runner: under
// each slot lock it only swaps the slot's vector with a flusher-owned
// spare, and it moves the items out after unlocking, so no vector on
// either side gives up its capacity.

#include <atomic>
#include <cstddef>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "sync/nonblocking_lock.hpp"
#include "util/sites.hpp"
#include "util/validate.hpp"

namespace pwss::buffer {

/// Returns a small dense id for the calling thread (stable for its
/// lifetime), used to pick a sub-buffer slot.
std::size_t this_thread_slot();

template <typename T>
class ParallelBuffer {
 public:
  explicit ParallelBuffer(std::size_t slots = 0) {
    if (slots == 0) {
      slots = std::thread::hardware_concurrency();
      if (slots == 0) slots = 8;
    }
    slots_ = std::vector<Slot>(slots);
  }

  /// O(1) amortized; callable from any thread concurrently. Returns
  /// false when the buffer refuses the publication (today only under
  /// injected faults — the hook a future bounded-capacity policy will
  /// share): the item is NOT buffered and the caller must deliver a
  /// terminal kOverloaded result and unwind any in-flight accounting it
  /// performed before publishing.
  [[nodiscard]] bool submit(T item) {
    if (PWSS_FAULT_POINT("parallel_buffer.submit.reject")) return false;
    Slot& slot = slots_[this_thread_slot() % slots_.size()];
    slot.lock_spin();
    slot.items.push_back(std::move(item));
    // Item pushed, credit not yet applied: only the slot lock keeps a
    // racing flush() from taking the item and debiting first.
    PWSS_SCHED_POINT("parallel_buffer.submit.credit");
    // Publish the count under the slot lock: a flush() racing with this
    // submit would otherwise take the item and fetch_sub before our
    // fetch_add, wrapping pending_ below zero.
    pending_.fetch_add(1, std::memory_order_release);
    slot.lock.unlock();
    return true;
  }

  /// Approximate number of buffered items (exact when quiescent).
  std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Appends every sub-buffer's items to `out`: O(p + b). Items submitted
  /// concurrently with a flush land in this batch or the next (the paper's
  /// guarantee); each slot's items keep their submission order. Single
  /// flusher: one thread at a time calls flush(), as every consumer's
  /// single runner does; submitters may run alongside.
  void flush(std::vector<T>& out) {
    for (auto& slot : slots_) {
      slot.lock_spin();
      // O(1) under the lock: trade the slot's items for the flusher's
      // empty spare, so both vectors keep their capacity. An empty slot
      // keeps its own.
      if (!slot.items.empty()) spare_.swap(slot.items);
      // Items taken, debit not yet applied — still under the slot lock,
      // so no submitter can observe a deficit.
      PWSS_SCHED_POINT("parallel_buffer.flush.debit");
      // Debit under the same lock that credited: per slot, subs are
      // serialized after the adds for the items taken, so pending_ is
      // always >= the true buffered count and never wraps.
      if (!spare_.empty()) {
        pending_.fetch_sub(spare_.size(), std::memory_order_release);
      }
      slot.lock.unlock();
      out.insert(out.end(), std::make_move_iterator(spare_.begin()),
                 std::make_move_iterator(spare_.end()));
      spare_.clear();
    }
  }

  /// Deep credit-conservation check: locks every slot (so no submit or
  /// flush is mid-window), then requires pending_ to equal the number of
  /// buffered items. Holding all the locks freezes both sides of the
  /// credit protocol, so the check is exact even with submitters and
  /// flushers running. Empty string = OK.
  std::string validate() {
    util::Validator v("parallel_buffer: ");
    for (auto& slot : slots_) slot.lock_spin();
    std::size_t buffered = 0;
    for (auto& slot : slots_) buffered += slot.items.size();
    const std::size_t credited = pending_.load(std::memory_order_acquire);
    v.require(credited == buffered, "credit conservation broken: pending_=",
              credited, " but slots hold ", buffered, " items");
    for (auto& slot : slots_) slot.lock.unlock();
    return std::move(v).take();
  }

 private:
  struct alignas(64) Slot {
    sync::NonBlockingLock lock;
    std::vector<T> items;
    void lock_spin() {
      while (!lock.try_lock()) {
        // NonBlockingLock handoff under contention: a perturbed waiter
        // widens the window in which the holder's critical section runs.
        PWSS_SCHED_POINT("parallel_buffer.slot.lock_spin");
        std::this_thread::yield();
      }
    }
  };

  std::vector<Slot> slots_;
  std::vector<T> spare_;  // the flusher's swap partner; empty between flushes
  std::atomic<std::size_t> pending_{0};
};

}  // namespace pwss::buffer
