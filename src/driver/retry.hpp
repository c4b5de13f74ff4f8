#pragma once
// Retry with capped exponential backoff + jitter (DESIGN.md "Overload &
// fault model"). The blocking per-op conveniences use this to absorb
// transient kOverloaded results — a shed admission or an injected buffer
// rejection — transparently: a kOverloaded op never executed (terminal-
// status contract), so re-submitting it is always safe.
//
// Deadline-aware: a backoff step that would sleep past the op's deadline
// is refused, so the caller surfaces kTimedOut/kOverloaded instead of
// oversleeping. Jitter decorrelates competing retriers (the classic
// thundering-herd fix) and is derived from util::mix64, salted per
// thread.

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "core/ops.hpp"
#include "util/rng.hpp"

namespace pwss::driver::retry {

struct BackoffPolicy {
  std::uint64_t initial_delay_ns = 10'000;  ///< first retry: ~10 us
  std::uint64_t max_delay_ns = 2'000'000;   ///< cap each delay at ~2 ms
  /// Wall-clock time from the first retry after which no further retry
  /// starts (~1 s). Measured in time, not attempts: on a CPU-starved
  /// machine a window can stay full for many short sleeps, and an attempt
  /// count gave up on ops that a moment later would have been admitted.
  std::uint64_t budget_ns = 1'000'000'000;
};

/// One retry loop's state. Usage:
///
///   Backoff backoff;
///   for (;;) {
///     auto r = attempt();
///     if (r.status != ResultStatus::kOverloaded) return r;
///     if (!backoff.next(op.deadline_ns)) return r;  // budget exhausted
///   }
///
/// next() sleeps the jittered delay and returns true, or returns false
/// without sleeping when the nominal step would end past the time budget
/// (judged before jitter, so once spent the budget stays spent) or the
/// jittered delay would cross the deadline.
class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy = {}) : policy_(policy) {}

  unsigned attempts() const noexcept { return attempt_; }

  bool next(std::uint64_t deadline_ns) noexcept {
    const std::uint64_t now = core::now_ns();
    if (attempt_ == 0) start_ns_ = now;
    std::uint64_t delay = policy_.initial_delay_ns;
    for (unsigned i = 0; i < attempt_ && delay < policy_.max_delay_ns; ++i) {
      delay <<= 1;
    }
    if (delay > policy_.max_delay_ns) delay = policy_.max_delay_ns;
    if (now + delay - start_ns_ > policy_.budget_ns) return false;
    // Full jitter over [delay/2, delay]: enough spread to decorrelate
    // herds, never less than half the nominal step so the sequence still
    // backs off.
    thread_local std::uint64_t salt = util::mix64(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    const std::uint64_t h = util::mix64(salt ^ (seq_ += 0x9e37));
    const std::uint64_t jittered = delay / 2 + h % (delay / 2 + 1);
    if (deadline_ns != 0 && now + jittered >= deadline_ns) return false;
    ++attempt_;
    std::this_thread::sleep_for(std::chrono::nanoseconds(jittered));
    return true;
  }

 private:
  BackoffPolicy policy_;
  unsigned attempt_ = 0;
  std::uint64_t start_ns_ = 0;  ///< clock when the first retry was asked for
  std::uint64_t seq_ = 0;
};

}  // namespace pwss::driver::retry
