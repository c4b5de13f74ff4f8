#pragma once
// Admission control (DESIGN.md "Overload & fault model") — the bounded
// outstanding-op window the network serving layer's backpressure rides on
// (DESIGN.md "Network serving layer").
//
// Every BackendDriver owns one AdmissionController; every asynchronous
// submission and every blocking per-op call passes its accept/shed
// decision before the backend sees the op. A full window sheds
// immediately with kOverloaded; the caller decides whether to retry with
// backoff, drop, or surface the error. It never parks the submitter:
// under the server one reactor thread submits for every connection.
//
// The window is one shared atomic counter: admit is a CAS-increment,
// release a fetch_sub fired by the ticket's on_release hook on the
// fulfilling thread (just before the result is published, so before any
// waiter wakes). max_in_flight == 0 disables the window entirely
// — no counting, no hook, zero cost on the default path.
//
// ShardedDriver owns no controller: each shard is a BackendDriver with
// its own window, so shedding is per shard — one hot shard rejects its
// overflow while the others keep accepting (DESIGN.md "Overload & fault
// model").

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/ops.hpp"

namespace pwss::driver {

/// Per-submit verdict. kExpired outranks the window: an op whose
/// deadline already passed is never admitted, even to an empty window.
enum class Admit : std::uint8_t { kAdmitted, kShed, kExpired };

class AdmissionController {
 public:
  /// `max_in_flight`: admitted-but-not-yet-completed ops allowed at once;
  /// 0 = unbounded (no window counting, no release hooks).
  explicit AdmissionController(std::size_t max_in_flight)
      : max_in_flight_(max_in_flight) {}
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  bool bounded() const noexcept { return max_in_flight_ != 0; }

  /// Admitted ops currently holding a window slot (0 when unbounded).
  std::size_t in_flight() const noexcept {
    return window_.load(std::memory_order_acquire);
  }

  /// The accept/shed decision for one op. An admitted op holds a window
  /// slot until release() — callers arm the ticket's on_release hook
  /// exactly when bounded() is true and the verdict is kAdmitted.
  Admit try_admit(std::uint64_t deadline_ns) noexcept {
    return count(try_admit_impl(deadline_ns));
  }

  // ---- lifetime counters (BackendDriver::stats()) ---------------------------
  // Relaxed totals of every verdict this controller handed out. On the
  // unbounded default path only admitted_ ticks (one relaxed increment);
  // the bounded paths were already contended-atomic.

  std::uint64_t admitted_total() const noexcept {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_total() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }
  std::uint64_t expired_total() const noexcept {
    return expired_.load(std::memory_order_relaxed);
  }

  /// Frees one window slot. No-op when unbounded.
  void release() noexcept {
    if (max_in_flight_ != 0) {
      window_.fetch_sub(1, std::memory_order_release);
    }
  }

  /// OpTicket::on_release-compatible trampoline; ctx is the controller.
  static void release_hook(void* ctx) noexcept {
    static_cast<AdmissionController*>(ctx)->release();
  }

 private:
  Admit try_admit_impl(std::uint64_t deadline_ns) noexcept {
    if (deadline_ns != 0 && core::now_ns() >= deadline_ns) {
      return Admit::kExpired;
    }
    if (max_in_flight_ == 0) return Admit::kAdmitted;
    std::size_t cur = window_.load(std::memory_order_relaxed);
    while (cur < max_in_flight_) {
      if (window_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return Admit::kAdmitted;
      }
    }
    return Admit::kShed;
  }

  Admit count(Admit verdict) noexcept {
    switch (verdict) {
      case Admit::kAdmitted:
        admitted_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Admit::kShed:
        shed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Admit::kExpired:
        expired_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return verdict;
  }

  const std::size_t max_in_flight_;
  std::atomic<std::size_t> window_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_{0};
};

}  // namespace pwss::driver
