#include "sync/dedicated_lock.hpp"

#include <cassert>

#include "util/sites.hpp"

namespace pwss::sync {

DedicatedLock::DedicatedLock(std::size_t keys) : slots_(keys ? keys : 1) {
  for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
}

DedicatedLock::~DedicatedLock() {
  for (auto& s : slots_) {
    delete s.load(std::memory_order_relaxed);
  }
}

void DedicatedLock::acquire(std::size_t key, Continuation cont,
                            const ResumeSink& resume) {
  (void)resume;
  assert(key < slots_.size());
  if (count_.fetch_add(1, std::memory_order_acq_rel) == 0) {
    last_key_.store(key, std::memory_order_relaxed);
    cont();  // lock obtained immediately
    return;
  }
  // The straggler window: the count says we are waiting but the slot is
  // still empty — a racing release() must keep scanning until we park.
  PWSS_SCHED_POINT("dedicated_lock.acquire.park");
  // Park the continuation; a release will find it. The slot must be empty:
  // the key discipline says no two concurrent acquirers share a key.
  auto* parked = new Continuation(std::move(cont));
  Continuation* expected = nullptr;
  [[maybe_unused]] const bool ok = slots_[key].compare_exchange_strong(
      expected, parked, std::memory_order_release);
  assert(ok && "dedicated-lock key used by two concurrent acquirers");
}

void DedicatedLock::release(const ResumeSink& resume) {
  if (count_.fetch_sub(1, std::memory_order_acq_rel) <= 1) return;
  // Ownership already handed off by the decrement; the next holder is
  // parked (or parking) but not yet resumed.
  PWSS_SCHED_POINT("dedicated_lock.release.scan");
  // At least one acquirer is parked or about to park. Scan cyclically from
  // just after the last holder's key; the parked slot may lag the count
  // increment by a few instructions, so the scan loops until it finds one
  // (bounded by the straggler's park, as in the QRMW model's FIFO queue).
  std::size_t j = last_key_.load(std::memory_order_relaxed);
  Continuation* next = nullptr;
  while (next == nullptr) {
    j = (j + 1) % slots_.size();
    next = slots_[j].exchange(nullptr, std::memory_order_acquire);
  }
  last_key_.store(j, std::memory_order_relaxed);
  Continuation cont = std::move(*next);
  delete next;
  resume(std::move(cont));
}

}  // namespace pwss::sync
