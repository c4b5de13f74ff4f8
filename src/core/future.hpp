#pragma once
// The op-call surface every map, driver and client shares: the OpTicket
// completion slot, the Future handle, and MapCalls, the one place the
// blocking, future and completion conveniences are written.
//
// Future is the movable handle of the asynchronous submission API
// (protocol v2). submit(op) returns one; the caller overlaps as many
// outstanding operations as it likes from a single thread and collects
// results with get()/ready(), instead of parking one blocking thread per
// operation.
//
// The shared state is an OpTicket (the same zero-copy completion slot the
// blocking path uses) extended with an intrusive reference count and an
// optional completion callback. Two references exist at submission time —
// the in-flight operation's and the future's — so the state stays alive
// until both the map has fulfilled it and the caller has let go, whichever
// order that happens in. One heap allocation per future; callers that want
// zero-allocation submission use the raw OpTicket overload of submit()
// with a caller-owned (stack or arena) ticket.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ops.hpp"

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
  /// thread just before the result is published, so the window slot
  /// frees no later than the waiter wakes — a blocking caller's next
  /// admission never sees its own previous slot still held.
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

  void fulfill(Result<V, K>&& r) {
    // Cache the hook BEFORE publishing: the moment ready is true a
    // spin-waiting owner may return and reuse/destroy a stack ticket, so
    // no field may be read afterwards. Hooked tickets (FutureState) stay
    // alive past the store — the producer reference is released by the
    // hook itself.
    void (*hook)(OpTicket*) = on_complete;
    result = std::move(r);
    if (on_release != nullptr) on_release(release_ctx);
    ready.store(true, std::memory_order_release);
    ready.notify_all();
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

namespace detail {

/// Heap-shared completion state behind Future and the completion-callback
/// submit form. The producer reference is dropped by the on_complete hook
/// (running on the fulfilling thread, after the result is published); the
/// consumer reference by the Future's destructor.
template <typename V, typename K>
struct FutureState : OpTicket<V, K> {
  std::atomic<int> refs{2};
  /// Invoked on the fulfilling thread with the completed result; set only
  /// by the completion-callback submit form.
  std::function<void(Result<V, K>&&)> completion;

  FutureState() { this->on_complete = &FutureState::producer_done; }

  void drop_ref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  static void producer_done(OpTicket<V, K>* t) {
    auto* s = static_cast<FutureState*>(t);
    if (s->completion) s->completion(Result<V, K>(s->result));
    s->drop_ref();
  }
};

}  // namespace detail

/// Movable one-shot handle to an asynchronous operation's result.
template <typename V, typename K = V>
class Future {
 public:
  Future() noexcept = default;
  explicit Future(detail::FutureState<V, K>* state) noexcept : state_(state) {}
  Future(Future&& other) noexcept : state_(std::exchange(other.state_, nullptr)) {}
  Future& operator=(Future&& other) noexcept {
    if (this != &other) {
      release();
      state_ = std::exchange(other.state_, nullptr);
    }
    return *this;
  }
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;
  ~Future() { release(); }

  /// True iff this future refers to a submitted operation.
  bool valid() const noexcept { return state_ != nullptr; }

  /// True iff the result is available (non-blocking).
  bool ready() const noexcept {
    assert(state_ != nullptr);
    return state_->ready.load(std::memory_order_acquire);
  }

  /// Blocks until the result is available and returns it. The future stays
  /// valid; repeated get() returns the same result.
  Result<V, K> get() {
    assert(state_ != nullptr);
    return state_->wait();
  }

  /// Requests cancellation of the underlying operation. Best-effort: the
  /// op completes with status kCancelled only if the request is observed
  /// before it is cut into an executing batch; otherwise it completes
  /// with its real result. Either way get() returns exactly one terminal
  /// result — never both a fulfilled value and kCancelled.
  void cancel() noexcept {
    assert(state_ != nullptr);
    state_->cancel();
  }

 private:
  void release() noexcept {
    if (state_ != nullptr) {
      state_->drop_ref();
      state_ = nullptr;
    }
  }

  detail::FutureState<V, K>* state_ = nullptr;
};

/// The op-call surface, written once. A map, driver or client derives
/// from MapCalls<Self, K, V> and supplies the primitives it has:
///   * submit(op, OpTicket*): the zero-allocation asynchronous form;
///   * execute_batch(ops, out&): one batch into a reused results buffer;
///   * run_blocking(op) -> Result, only where one op is not just a submit
///     and a wait (the driver's admission and retry, M1's one-op batch,
///     a point map's direct call).
/// A member built on a primitive the class lacks is never instantiated.
/// A class that declares its own submit or execute_batch brings these
/// overloads back into scope with a using-declaration.
template <typename Self, typename K, typename V>
class MapCalls {
 public:
  using Completion = std::function<void(Result<V, K>&&)>;

  /// One op: submit, then wait on a stack ticket. No retry: a shed op
  /// comes back kOverloaded.
  Result<V, K> run_blocking(Op<K, V> op) {
    OpTicket<V, K> ticket;
    self().submit(std::move(op), &ticket);
    return ticket.wait();
  }

  std::optional<V> search(const K& key) {
    return self().run_blocking(Op<K, V>::search(key)).value;
  }
  /// True iff the key was new.
  bool insert(const K& key, V value) {
    return self().run_blocking(Op<K, V>::insert(key, std::move(value)))
        .success();
  }
  /// Write-either-way; returns the status (kInserted or kUpdated).
  ResultStatus upsert(const K& key, V value) {
    return self().run_blocking(Op<K, V>::upsert(key, std::move(value))).status;
  }
  /// The removed value, if the key was present.
  std::optional<V> erase(const K& key) {
    return self().run_blocking(Op<K, V>::erase(key)).value;
  }
  std::optional<std::pair<K, V>> predecessor(const K& key) {
    return ordered_pair(self().run_blocking(Op<K, V>::predecessor(key)));
  }
  std::optional<std::pair<K, V>> successor(const K& key) {
    return ordered_pair(self().run_blocking(Op<K, V>::successor(key)));
  }
  std::uint64_t range_count(const K& lo, const K& hi) {
    return self().run_blocking(Op<K, V>::range_count(lo, hi)).count;
  }

  /// Future form: one heap-shared state per call; wait with get(), poll
  /// with ready(), or drop the future (the operation still completes).
  Future<V, K> submit(Op<K, V> op) {
    auto* state = new detail::FutureState<V, K>();
    self().submit(std::move(op), static_cast<OpTicket<V, K>*>(state));
    return Future<V, K>(state);
  }

  /// Completion form: `done` runs on the fulfilling thread with the
  /// result. A front end fulfills whole cut batches, so the completions
  /// of one batch run back to back without a wakeup each; a client runs
  /// them on its reader thread, so they should be short.
  void submit(Op<K, V> op, Completion done) {
    auto* state = new detail::FutureState<V, K>();
    state->completion = std::move(done);
    state->refs.store(1, std::memory_order_relaxed);  // producer only
    self().submit(std::move(op), static_cast<OpTicket<V, K>*>(state));
  }

  /// One batch, results returned in submission order.
  std::vector<Result<V, K>> execute_batch(std::span<const Op<K, V>> ops) {
    std::vector<Result<V, K>> results;
    self().execute_batch(ops, results);
    return results;
  }
  std::vector<Result<V, K>> execute_batch(const std::vector<Op<K, V>>& ops) {
    return execute_batch(std::span<const Op<K, V>>(ops));
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }
};

}  // namespace pwss::core
