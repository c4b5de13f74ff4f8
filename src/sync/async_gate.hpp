#pragma once
// AsyncGate: the Activation interface (Definition 36) split into explicit
// begin/finish halves so a guarded process can be a continuation-passing
// chain (M2's segment runs park on dedicated locks and complete on another
// thread). A synchronous activation is begin(), then the process run
// until finish() returns false.
//
// Protocol:
//   * begin()  — caller requests a run. Returns true iff the caller became
//                the owner (must eventually call finish() exactly once per
//                ownership); returns false if an owner exists (a pending
//                mark is left so the owner re-runs).
//   * finish() — the owner ends a run. Returns true iff a pending mark was
//                consumed, in which case the caller REMAINS the owner and
//                must run again (and call finish() again after).
// Lost wakeups are impossible: a begin() that loses the race always leaves
// the pending mark, and the owner cannot go idle without observing it.
//
// Every transition is a read-modify-write, including begin() on an
// already-pending gate and finish() consuming the mark. That is what
// carries the caller's writes to the owner: the owner's RMW reads the
// value the caller's RMW wrote, so whatever the caller published before
// begin() (an op in a buffer) is visible to the owner's re-check. A plain
// load "already pending, nothing to do" paired with a plain store
// consuming the mark lets the owner's re-check run before the caller's
// publication lands — and the owner then goes idle with work queued.

#include <atomic>

namespace pwss::sync {

class AsyncGate {
 public:
  bool begin() noexcept {
    int s = state_.load(std::memory_order_relaxed);
    for (;;) {
      const int next = s == kIdle ? kRunning : kRunningPending;
      if (state_.compare_exchange_weak(s, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return s == kIdle;
      }
    }
  }

  bool finish() noexcept {
    int expected = kRunning;
    if (state_.compare_exchange_strong(expected, kIdle,
                                       std::memory_order_acq_rel)) {
      return false;
    }
    // Was kRunningPending: consume the mark, stay owner.
    state_.exchange(kRunning, std::memory_order_acq_rel);
    return true;
  }

  bool active() const noexcept {
    return state_.load(std::memory_order_acquire) != kIdle;
  }

 private:
  static constexpr int kIdle = 0;
  static constexpr int kRunning = 1;
  static constexpr int kRunningPending = 2;
  std::atomic<int> state_{kIdle};
};

}  // namespace pwss::sync
