#pragma once
// AsyncMap — the implicit-batching front end of Section 4 / Appendix A.1
// wrapped around a batched map (M1Map, or M0Map for a sequential-combining
// baseline). Client threads call search/insert/erase as blocking black-box
// operations, exactly the programming model the paper targets; the runtime
// glue (parallel buffer -> feed buffer of p^2 bunches -> cut batches of
// ceil(log n / p) bunches -> execute_batch) happens behind the scenes on
// the scheduler's workers.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "buffer/feed_buffer.hpp"
#include "buffer/parallel_buffer.hpp"
#include "core/backend.hpp"
#include "core/ops.hpp"
#include "sched/scheduler.hpp"
#include "sync/async_gate.hpp"
#include "util/sites.hpp"

namespace pwss::core {

/// Completion slot for one asynchronous operation — the zero-allocation
/// token of the submission API. Typically lives on the caller's stack; the
/// map's front end fulfills it and wakes any waiter. `on_complete` (when
/// set) is invoked after the result is published, on the fulfilling
/// thread — the hook the driver layer's Future/completion surfaces build
/// on without costing the plain blocking path anything.
template <typename V, typename K = V>
struct OpTicket {
  std::atomic<bool> ready{false};
  /// Cancellation REQUEST flag (overload-robustness layer). cancel() never
  /// fulfills the ticket itself: only the executing side fulfills, after
  /// checking this flag at a batch-cut boundary. That single-fulfiller
  /// rule is what makes the terminal status exact — an op is either
  /// executed (fulfilled with its real result) or completed kCancelled,
  /// never both, and the in-flight accounting debits exactly once either
  /// way. A cancel() that loses the race to the executor is a no-op.
  std::atomic<bool> cancel_requested{false};
  Result<V, K> result;
  void (*on_complete)(OpTicket*) = nullptr;
  /// Admission-window release hook (driver layer): runs on the fulfilling
  /// thread after the result is published, before on_complete, so the
  /// window slot frees no later than the waiter wakes. Cached before the
  /// ready publish like on_complete (the ticket may die the moment ready
  /// is observed).
  void (*on_release)(void*) = nullptr;
  void* release_ctx = nullptr;

  /// Requests cancellation. Best-effort: the op completes kCancelled only
  /// if the request is observed before it is cut into an executing batch;
  /// otherwise it completes with its real result. Either way it reaches a
  /// terminal status.
  void cancel() noexcept {
    cancel_requested.store(true, std::memory_order_release);
  }
  bool cancelled() const noexcept {
    return cancel_requested.load(std::memory_order_acquire);
  }

  void fulfill(Result<V, K> r) {
    // Cache the hooks BEFORE publishing: the moment ready is true a
    // spin-waiting owner may return and reuse/destroy a stack ticket, so
    // no field may be read afterwards. Hooked tickets (FutureState) stay
    // alive past the store — the producer reference is released by the
    // hook itself.
    void (*hook)(OpTicket*) = on_complete;
    void (*release)(void*) = on_release;
    void* rctx = release_ctx;
    result = std::move(r);
    ready.store(true, std::memory_order_release);
    ready.notify_all();
    if (release != nullptr) release(rctx);
    if (hook != nullptr) hook(this);
  }
  Result<V, K> wait() {
    // Short spin for the common fast path, then futex-wait.
    for (int i = 0; i < 128; ++i) {
      if (ready.load(std::memory_order_acquire)) return result;
    }
    ready.wait(false, std::memory_order_acquire);
    return result;
  }

  /// Re-arms a fulfilled ticket for reuse (ticket-arena batch paths).
  /// Only legal when no waiter can still observe the previous round.
  void reset() noexcept {
    ready.store(false, std::memory_order_relaxed);
    cancel_requested.store(false, std::memory_order_relaxed);
    result = Result<V, K>{};
    on_release = nullptr;
    release_ctx = nullptr;
  }
};

/// MapT must provide execute_batch(span<const Op<K,V>>) -> vector<Result<V, K>>
/// and size(). The wrapper owns the map.
template <typename K, typename V, typename MapT>
class AsyncMap {
 public:
  AsyncMap(MapT map, sched::Scheduler& scheduler)
      : map_(std::move(map)),
        scheduler_(scheduler),
        p_(std::max(1u, scheduler.worker_count())),
        input_(),
        feed_(static_cast<std::size_t>(p_) * p_) {}

  ~AsyncMap() { quiesce(); }

  MapT& map() { return map_; }  // safe only when quiescent

  std::optional<V> search(const K& key) {
    return run_op(Op<K, V>::search(key)).value;
  }
  bool insert(const K& key, V value) {
    return run_op(Op<K, V>::insert(key, std::move(value))).success();
  }
  std::optional<V> erase(const K& key) {
    return run_op(Op<K, V>::erase(key)).value;
  }

  /// Submits without blocking; caller later waits on the ticket. Always
  /// delivers a terminal result: on a buffer rejection (injected fault or
  /// a future bounded-capacity policy) the ticket completes kOverloaded
  /// right here on the submitting thread.
  void submit(Op<K, V> op, OpTicket<V, K>* ticket) {
    // Claim before publish: drive() may fulfill the op and fetch_sub the
    // moment it is visible in input_, so incrementing afterwards would let
    // in_flight_ wrap below zero and quiesce() transiently observe a clean
    // state with the op still buffered.
    in_flight_.fetch_add(1, std::memory_order_release);
    // The PR-2 window: an op claimed but not yet published. With the
    // claim/publish order reverted, a park here lets drive() debit first.
    PWSS_SCHED_POINT("async_map.submit.claim_publish");
    if (!input_.submit(Submission{std::move(op), ticket})) {
      // Not buffered: undo the claim (nobody else can have seen the op)
      // and shed. Debit before fulfill so a waiter that frees the ticket
      // on wake never races the counter update.
      in_flight_.fetch_sub(1, std::memory_order_release);
      ticket->fulfill(Result<V, K>::error(ResultStatus::kOverloaded));
      return;
    }
    poke();
  }

  /// Operations claimed but not yet fulfilled. Never wraps below zero:
  /// every fetch_sub is for ops whose claiming fetch_add happened-before
  /// their publication in input_. Exact only when quiescent.
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Blocks until every submitted operation has completed.
  void quiesce() {
    while (in_flight_.load(std::memory_order_acquire) != 0 ||
           gate_.active()) {
      std::this_thread::yield();
    }
  }

 private:
  struct Submission {
    Op<K, V> op;
    OpTicket<V, K>* ticket;
  };

  Result<V, K> run_op(Op<K, V> op) {
    OpTicket<V, K> ticket;
    submit(std::move(op), &ticket);
    return ticket.wait();
  }

  void poke() {
    if (gate_.begin()) {
      scheduler_.spawn([this] { drive(); }, sched::Priority::kLow);
    }
  }

  /// Owner loop: runs on a scheduler worker; processes cut batches until
  /// the buffers drain (then re-checks the gate's pending mark).
  void drive() {
    for (;;) {
      while (input_.pending() > 0 || !feed_.empty()) {
        feed_.append(take_submissions());
        process_one_cut_batch();
      }
      if (!gate_.finish()) return;
    }
  }

  std::vector<Submission> take_submissions() { return input_.flush(); }

  void process_one_cut_batch() {
    // M1's cut size: ceil(log2(n) / p) bunches of p^2 ops each, >= 1.
    const double n = static_cast<double>(map_.size() + 2);
    const std::size_t bunches = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(std::log2(n) / static_cast<double>(p_))));
    std::vector<Submission> batch = feed_.take_bunches(bunches);
    if (batch.empty()) return;
    const std::size_t submitted = batch.size();
    // Terminal-status pass (the batch-cut boundary of the robustness
    // layer): cancelled and deadline-expired ops complete HERE, before
    // the structure is touched, and are compacted out of the batch. They
    // still count toward the debit below — every claimed op debits
    // exactly once, fulfilled or not, so quiescence stays conserved.
    std::uint64_t now = 0;  // lazily read: deadline-free batches skip the clock
    std::size_t live = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Submission& s = batch[i];
      if (s.ticket->cancelled()) {
        s.ticket->fulfill(Result<V, K>::error(ResultStatus::kCancelled));
        continue;
      }
      if (s.op.deadline_ns != 0) {
        if (now == 0) now = now_ns();
        if (s.op.expired(now)) {
          s.ticket->fulfill(Result<V, K>::error(ResultStatus::kTimedOut));
          continue;
        }
      }
      if (live != i) batch[live] = std::move(s);
      ++live;
    }
    batch.resize(live);
    // Injected pool exhaustion, detected before the batch executes: the
    // whole cut sheds kOverloaded with the structure untouched — the
    // clean analogue of NodePool::acquire_chunk failing mid-rebuild.
    if (!batch.empty() && PWSS_FAULT_POINT("async_map.batch.pool_reserve")) {
      for (auto& s : batch) {
        s.ticket->fulfill(Result<V, K>::error(ResultStatus::kOverloaded));
      }
      batch.clear();
    }
    if (!batch.empty()) {
      // The scratch buffers are safe to reuse: the gate guarantees one
      // drive owner, so steady-state cut batches recycle both the staged
      // ops and the results capacity.
      ops_scratch_.clear();
      ops_scratch_.reserve(batch.size());
      for (auto& s : batch) ops_scratch_.push_back(std::move(s.op));
      execute_batch_into<K, V>(map_, std::span<const Op<K, V>>(ops_scratch_),
                               results_scratch_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].ticket->fulfill(std::move(results_scratch_[i]));
      }
    }
    // Tickets fulfilled, debit not yet applied: quiesce() must still see
    // these ops as in flight (fulfill happens-before the decrement).
    PWSS_SCHED_POINT("async_map.drive.fulfill_debit");
    in_flight_.fetch_sub(submitted, std::memory_order_release);
  }

  MapT map_;
  sched::Scheduler& scheduler_;
  unsigned p_;
  buffer::ParallelBuffer<Submission> input_;
  buffer::FeedBuffer<Submission> feed_;
  sync::AsyncGate gate_;
  std::atomic<std::size_t> in_flight_{0};
  std::vector<Op<K, V>> ops_scratch_;       // drive-loop batch staging
  std::vector<Result<V, K>> results_scratch_;  // drive-loop results reuse
};

}  // namespace pwss::core
