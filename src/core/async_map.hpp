#pragma once
// AsyncMap — the implicit-batching front end of Section 4 / Appendix A.1
// wrapped around a batched map (M1Map, or M0Map for a sequential-combining
// baseline). Client threads call search/insert/erase as blocking black-box
// operations, exactly the programming model the paper targets; the runtime
// glue (parallel buffer -> feed buffer of p^2 bunches -> cut batches of
// ceil(log n / p) bunches -> execute_batch) happens behind the scenes on
// the scheduler's workers. Its submission side (FrontEnd) and the cut's
// terminal-status screen (screen_cut) are M2Map's interface's too.

#include <atomic>
#include <cstddef>
#include <vector>

#include "buffer/feed_buffer.hpp"
#include "buffer/parallel_buffer.hpp"
#include "core/backend.hpp"
#include "core/future.hpp"
#include "core/group.hpp"
#include "core/ops.hpp"
#include "sched/scheduler.hpp"
#include "sync/async_gate.hpp"
#include "util/sites.hpp"

namespace pwss::core {

/// The submission side of the implicit-batching front end, shared by
/// AsyncMap and M2Map's interface: the parallel buffer (Appendix A.1), the
/// feed buffer of p^2 bunches, the cut (Section 6.1) and the in-flight
/// count quiesce() waits on. cut() is for the owner's single runner.
template <typename K, typename V>
class FrontEnd {
 public:
  using Ticket = OpTicket<V, K>*;
  using POp = PendingOp<K, V, Ticket>;

  explicit FrontEnd(std::size_t bunch) : feed_(bunch) {}

  /// Claims, then publishes. False when the buffer refused the op (an
  /// injected fault or a future bounded-capacity policy): the claim is
  /// undone and the ticket is already fulfilled kOverloaded.
  bool submit(Op<K, V> op, Ticket ticket) {
    // Claim before publish: the runner may fulfill the op and debit the
    // moment it is visible in input_, so claiming afterwards would let
    // in_flight_ wrap below zero and quiesce() transiently observe a clean
    // state with the op still buffered.
    claim();
    // The claim/publish window: an op counted but not yet visible. With the
    // order reverted, a park here lets the runner debit first.
    PWSS_SCHED_POINT("async_map.submit.claim_publish");
    if (!input_.submit(POp{op.type, std::move(op.key), std::move(op.value),
                           std::move(op.key2), ticket, op.deadline_ns})) {
      // Not buffered: undo the claim (nobody else can have seen the op)
      // and shed. Debit before fulfill so a waiter that frees the ticket
      // on wake never races the counter update.
      debit(1);
      ticket->fulfill(Result<V, K>::error(ResultStatus::kOverloaded));
      return false;
    }
    return true;
  }

  /// True while ops wait in the parallel buffer or the feed.
  bool pending() const noexcept {
    return input_.pending() > 0 || !feed_.empty();
  }

  /// Flushes the parallel buffer into the feed and cuts up to `bunches`
  /// bunches off its front as one batch, in arrival order.
  std::vector<POp> cut(std::size_t bunches) {
    std::vector<POp> in = input_.flush();
    if (!in.empty()) feed_.append(std::move(in));
    return feed_.take_bunches(bunches);
  }

  /// Ops claimed but not yet debited; exact only when quiescent. Never
  /// wraps: every debit's claim happened-before its op's publication.
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }
  void claim() noexcept { in_flight_.fetch_add(1, std::memory_order_release); }
  void debit(std::size_t n) noexcept {
    in_flight_.fetch_sub(n, std::memory_order_release);
  }

 private:
  buffer::ParallelBuffer<POp> input_;
  buffer::FeedBuffer<POp> feed_;
  std::atomic<std::size_t> in_flight_{0};
};

/// The terminal-status screen at a batch-cut boundary (the robustness
/// layer), for every front end: an op whose ticket requested cancellation
/// completes kCancelled, an op past its deadline kTimedOut, each through
/// `deliver(target, result)`, and both are compacted out of `ops` before
/// the structure is touched. If `pool_fault()` then fires (the caller's own
/// PWSS_FAULT_POINT, so each front end keeps its site name), every op left
/// sheds kOverloaded and `ops` ends empty: the clean analogue of
/// NodePool::acquire_chunk failing mid-rebuild. `ticket_of(target)` may be
/// null (an op with no ticket has nothing to cancel).
template <typename K, typename V, typename Target, typename TicketOf,
          typename Deliver, typename PoolFault>
void screen_cut(std::vector<PendingOp<K, V, Target>>& ops,
                TicketOf&& ticket_of, Deliver&& deliver,
                PoolFault&& pool_fault) {
  std::uint64_t now = 0;  // lazily read: deadline-free cuts skip the clock
  std::size_t live = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpTicket<V, K>* t = ticket_of(ops[i].target);
    if (t != nullptr && t->cancelled()) {
      deliver(ops[i].target, Result<V, K>::error(ResultStatus::kCancelled));
      continue;
    }
    if (ops[i].deadline_ns != 0) {
      if (now == 0) now = now_ns();
      if (now >= ops[i].deadline_ns) {
        deliver(ops[i].target, Result<V, K>::error(ResultStatus::kTimedOut));
        continue;
      }
    }
    if (live != i) ops[live] = std::move(ops[i]);
    ++live;
  }
  ops.resize(live);
  if (!ops.empty() && pool_fault()) {
    for (const auto& op : ops) {
      deliver(op.target, Result<V, K>::error(ResultStatus::kOverloaded));
    }
    ops.clear();
  }
}

/// MapT must provide execute_batch(span<const Op<K,V>>, vector<Result<V, K>>&)
/// and size(). The wrapper owns the map.
template <typename K, typename V, typename MapT>
class AsyncMap : public MapCalls<AsyncMap<K, V, MapT>, K, V> {
 public:
  AsyncMap(MapT map, sched::Scheduler& scheduler)
      : map_(std::move(map)),
        scheduler_(scheduler),
        p_(std::max(1u, scheduler.worker_count())),
        front_(static_cast<std::size_t>(p_) * p_) {}

  ~AsyncMap() { quiesce(); }

  MapT& map() { return map_; }  // safe only when quiescent

  /// Submits without blocking; the caller later waits on the ticket, which
  /// always gets a terminal result (FrontEnd::submit).
  void submit(Op<K, V> op, OpTicket<V, K>* ticket) {
    if (front_.submit(std::move(op), ticket)) poke();
  }
  using MapCalls<AsyncMap, K, V>::submit;

  /// Operations claimed but not yet fulfilled (FrontEnd::in_flight).
  std::size_t in_flight() const noexcept { return front_.in_flight(); }

  /// Blocks until every submitted operation has completed.
  void quiesce() {
    while (front_.in_flight() != 0 || gate_.active()) {
      std::this_thread::yield();
    }
  }

 private:
  using Ticket = OpTicket<V, K>*;

  void poke() {
    if (gate_.begin()) {
      scheduler_.spawn([this] { drive(); }, sched::Priority::kLow);
    }
  }

  /// Owner loop: runs on a scheduler worker; processes cut batches until
  /// the buffers drain (then re-checks the gate's pending mark).
  void drive() {
    for (;;) {
      while (front_.pending()) process_one_cut_batch();
      if (!gate_.finish()) return;
    }
  }

  void process_one_cut_batch() {
    std::vector<PendingOp<K, V, Ticket>> batch =
        front_.cut(buffer::cut_bunches(map_.size(), p_));
    if (batch.empty()) return;
    // Screened-out ops still count toward the debit below: every claimed
    // op debits exactly once, fulfilled or not, so quiescence stays
    // conserved.
    const std::size_t submitted = batch.size();
    screen_cut(
        batch, [](Ticket t) { return t; },
        [](Ticket t, Result<V, K>&& r) { t->fulfill(std::move(r)); },
        [] { return PWSS_FAULT_POINT("async_map.batch.pool_reserve"); });
    if (!batch.empty()) {
      // The scratch buffers are safe to reuse: the gate guarantees one
      // drive owner, so steady-state cut batches recycle both the staged
      // ops and the results capacity.
      ops_scratch_.clear();
      ops_scratch_.reserve(batch.size());
      for (auto& op : batch) {
        ops_scratch_.push_back(Op<K, V>{op.type, std::move(op.key),
                                        std::move(op.value),
                                        std::move(op.key2)});
      }
      map_.execute_batch(std::span<const Op<K, V>>(ops_scratch_),
                         results_scratch_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].target->fulfill(std::move(results_scratch_[i]));
      }
    }
    // Tickets fulfilled, debit not yet applied: quiesce() must still see
    // these ops as in flight (fulfill happens-before the decrement).
    PWSS_SCHED_POINT("async_map.drive.fulfill_debit");
    front_.debit(submitted);
  }

  MapT map_;
  sched::Scheduler& scheduler_;
  unsigned p_;
  FrontEnd<K, V> front_;
  sync::AsyncGate gate_;
  std::vector<Op<K, V>> ops_scratch_;       // drive-loop batch staging
  std::vector<Result<V, K>> results_scratch_;  // drive-loop results reuse
};

}  // namespace pwss::core
