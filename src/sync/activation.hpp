#pragma once
// Activation interface (Definition 36): guards a process P with a readiness
// condition C so that Activate() starts P iff it is not already running and
// C holds, and P may request its own reactivation. The paper's contract is
// that any thread making C become true must call Activate() afterwards.
//
// The paper's pseudo-code uses a non-blocking lock plus a re-activation
// flag; a literal transcription has a lost-wakeup window between the
// owner's final check and its unlock. We close it with AsyncGate's
// three-state protocol (idle / running / running+pending): an Activate()
// that loses the race leaves a pending mark that the owner consumes before
// going idle, which is observationally equivalent to the paper's contract
// and wakeup-safe on real hardware.

#include <functional>
#include <utility>

#include "sync/async_gate.hpp"

namespace pwss::sync {

class Activation {
 public:
  /// `ready`  — the condition C; must be cheap and thread-safe.
  /// `process` — the guarded process P; returns true to request immediate
  ///             reactivation (the paper's `reactivate` flag).
  Activation(std::function<bool()> ready, std::function<bool()> process)
      : ready_(std::move(ready)), process_(std::move(process)) {}
  Activation(const Activation&) = delete;
  Activation& operator=(const Activation&) = delete;

  /// May be called from any thread. If no owner is active, the caller
  /// becomes the owner and drives P on the calling thread; otherwise a
  /// pending mark is left for the current owner. Never blocks beyond the
  /// duration of P itself.
  void activate() {
    if (!gate_.begin()) return;  // the owner will observe the pending mark
    // Owner loop: run P while it requests reactivation or while
    // activations arrived during the run; go idle only when neither holds.
    do {
      while (ready_() && process_()) {
      }
    } while (gate_.finish());
  }

  /// True iff an owner is currently driving P (racy; for tests).
  bool running() const noexcept { return gate_.active(); }

 private:
  std::function<bool()> ready_;
  std::function<bool()> process_;
  AsyncGate gate_;
};

}  // namespace pwss::sync
