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
  unsigned max_attempts = 12;               ///< retries before giving up
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
/// without sleeping when the attempt budget is spent or the next delay
/// would cross the deadline.
class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy = {}) : policy_(policy) {}

  unsigned attempts() const noexcept { return attempt_; }

  bool next(std::uint64_t deadline_ns) noexcept {
    if (attempt_ >= policy_.max_attempts) return false;
    ++attempt_;
    std::uint64_t delay = policy_.initial_delay_ns;
    for (unsigned i = 1; i < attempt_ && delay < policy_.max_delay_ns; ++i) {
      delay <<= 1;
    }
    if (delay > policy_.max_delay_ns) delay = policy_.max_delay_ns;
    // Full jitter over [delay/2, delay]: enough spread to decorrelate
    // herds, never less than half the nominal step so the sequence still
    // backs off.
    thread_local std::uint64_t salt = util::mix64(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    const std::uint64_t h = util::mix64(salt ^ (seq_ += 0x9e37));
    const std::uint64_t jittered = delay / 2 + h % (delay / 2 + 1);
    if (deadline_ns != 0 && core::now_ns() + jittered >= deadline_ns) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(jittered));
    return true;
  }

 private:
  BackoffPolicy policy_;
  unsigned attempt_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace pwss::driver::retry
