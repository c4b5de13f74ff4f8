#pragma once
// Driver — the runtime layer that turns a MapBackend into a ready-to-use
// concurrent map. A Driver owns the scheduler (when one is needed), wires
// the backend behind the right front end, and exposes three uniform APIs:
//
//   * blocking per-op calls (search/insert/upsert/erase and the ordered
//     predecessor/successor/range_count) — safe from any thread;
//   * an asynchronous submission API — submit(op, ticket) with a
//     caller-owned zero-allocation completion token, submit(op) returning
//     a core::Future, and submit(op, completion) invoking a callback on
//     the fulfilling thread — so one thread overlaps any number of
//     outstanding operations instead of blocking per op;
//   * a bulk run(vector<Op>) path — one synchronous batch through the
//     backend, results in submission order.
//
// Wiring is chosen at the registry: one BackendDriver<K, V, B, Wiring>
// class puts the backend behind core::AsyncMap (m0, m1, splay, avl,
// iacono), the backend's own submit (m2), or the calling thread (locked).
//
// Driver<K, V> is the interface: submit(op, ticket), run(ops, out) and
// step(op) are its virtuals, and the one blocking retry loop
// (run_blocking) is built on submit. Every backend executes the full
// protocol, ordered kinds included. BackendDriver runs the per-op path: its
// submit passes admission control (driver/admission.hpp: a bounded
// in-flight window that sheds on overflow), and with durability armed its
// submit, step and run log their mutations through the one write-ahead
// sequence (write_ahead) before the backend sees them. The blocking
// conveniences are submit + wait on a stack ticket, retried on transient
// kOverloaded via driver/retry.hpp backoff.
//
// The bulk path must not race with concurrent blocking callers on
// AsyncMap-wrapped backends (it quiesces the front end, then batches
// directly); the m2 and locked wirings allow mixing.

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/async_map.hpp"
#include "core/backend.hpp"
#include "core/future.hpp"
#include "core/ops.hpp"
#include "driver/admission.hpp"
#include "driver/retry.hpp"
#include "sched/scheduler.hpp"
#include "store/durability.hpp"

namespace pwss::driver {

/// Construction knobs shared by every backend factory.
struct Options {
  /// Scheduler worker count; 0 = hardware concurrency. Ignored by
  /// schedulerless backends.
  unsigned workers = 0;
  /// Shard count for sharded:* backends; 0 = kDefaultShards. Ignored by
  /// unsharded backends.
  unsigned shards = 0;
  /// When non-null the driver runs on this scheduler instead of owning
  /// one (it must outlive the driver). ShardedDriver uses this to put all
  /// its shards behind one shared pool. Ignored by schedulerless backends.
  sched::Scheduler* scheduler = nullptr;
  /// Admission window: maximum admitted-but-not-completed ops; 0 =
  /// unbounded (no admission control). For sharded:* backends the window
  /// applies PER SHARD — one hot shard sheds its overflow while the
  /// others keep accepting.
  std::size_t max_in_flight = 0;
  /// Persistence mode (store/durability.hpp): kOff (default; zero
  /// hot-path cost), kAsync (WAL flushed at thresholds), or kSync
  /// (acked ⇒ fsynced via group commit). For sharded:* backends every
  /// shard persists independently under durability_dir/shard-N.
  store::DurabilityMode durability = store::DurabilityMode::kOff;
  /// Directory holding the snapshot + WAL (created if absent). Ignored
  /// when durability is kOff.
  std::string durability_dir = "pwss-data";
};

/// Counter snapshot for one driver (aggregated across shards by
/// ShardedDriver::stats()): the PR-8 admission/retry machinery plus the
/// durability layer, finally observable. Printed by the CLI at exit
/// (--stats) and asserted by the robustness tests. Every counter has a
/// row in kStatsFields below; folding and printing walk that table.
struct DriverStats {
  // admission / retry (see driver/admission.hpp, driver/retry.hpp)
  std::uint64_t admitted = 0;   ///< ops past the admission window
  std::uint64_t shed = 0;       ///< kOverloaded verdicts handed out
  std::uint64_t timed_out = 0;  ///< kExpired verdicts (deadline passed)
  std::uint64_t retries = 0;    ///< blocking-path backoff retries
  std::uint64_t in_flight = 0;  ///< current window occupancy
  // durability (see store/durability.hpp)
  bool durable = false;         ///< a WAL is armed on this driver
  bool read_only = false;       ///< sticky degraded mode entered
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t recovered_ops = 0;      ///< WAL records replayed at boot
  std::uint64_t recovered_entries = 0;  ///< snapshot entries restored
  std::uint64_t torn_tail_truncations = 0;
  std::uint64_t checkpoints = 0;

  /// Sums every counter and ORs the flags (shard folding).
  DriverStats& operator+=(const DriverStats& o);
};

/// One DriverStats counter: the name --stats prints it under, the line it
/// belongs to (the durability line prints only when a WAL is armed), and
/// the member.
struct StatsField {
  enum Line : std::uint8_t { kAdmission, kDurability };
  const char* name;
  Line line;
  std::uint64_t DriverStats::*counter;
};

inline constexpr StatsField kStatsFields[] = {
    {"admitted", StatsField::kAdmission, &DriverStats::admitted},
    {"shed", StatsField::kAdmission, &DriverStats::shed},
    {"timed_out", StatsField::kAdmission, &DriverStats::timed_out},
    {"retries", StatsField::kAdmission, &DriverStats::retries},
    {"in_flight", StatsField::kAdmission, &DriverStats::in_flight},
    {"wal_appends", StatsField::kDurability, &DriverStats::wal_appends},
    {"wal_fsyncs", StatsField::kDurability, &DriverStats::wal_fsyncs},
    {"recovered_ops", StatsField::kDurability, &DriverStats::recovered_ops},
    {"recovered_entries", StatsField::kDurability,
     &DriverStats::recovered_entries},
    {"torn_tails", StatsField::kDurability,
     &DriverStats::torn_tail_truncations},
    {"checkpoints", StatsField::kDurability, &DriverStats::checkpoints},
};

inline DriverStats& DriverStats::operator+=(const DriverStats& o) {
  for (const StatsField& f : kStatsFields) this->*f.counter += o.*f.counter;
  durable = durable || o.durable;
  read_only = read_only || o.read_only;
  return *this;
}

/// Type-erased handle to a wired backend. Obtained from BackendRegistry.
template <typename K, typename V>
class Driver : public core::MapCalls<Driver<K, V>, K, V> {
 public:
  using Ticket = core::OpTicket<V, K>;

  virtual ~Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  // The blocking per-op calls (search ... range_count) and the Future and
  // completion submit forms come from core::MapCalls, built on
  // run_blocking() and submit(op, ticket) below; all are thread-safe.

  /// One op through the blocking path: submit on a stack ticket and
  /// wait, retrying transient kOverloaded results with deadline-aware,
  /// capped backoff. The terminal result is exact: kTimedOut when the
  /// deadline passed before execution, kOverloaded when the retry budget
  /// ran out, the executed result otherwise.
  core::Result<V, K> run_blocking(core::Op<K, V> op) {
    retry::Backoff backoff;
    for (;;) {
      // A kOverloaded op never executed, so each attempt submits a copy.
      Ticket ticket;
      submit(core::Op<K, V>(op), &ticket);
      core::Result<V, K> r = ticket.wait();
      if (r.status != core::ResultStatus::kOverloaded ||
          !backoff.next(op.deadline_ns)) {
        return r;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ---- asynchronous submission ---------------------------------------------
  // The async forms never throw for refusals: the contract is completion
  // delivery, so a shed window, an expired deadline and a read-only store
  // surface as a ticket completed with the matching terminal error status
  // (kOverloaded / kTimedOut / kReadOnly).

  /// Lowest-level form: the caller owns the completion token (stack or
  /// arena; zero allocation). The ticket must stay alive until fulfilled.
  virtual void submit(core::Op<K, V> op, Ticket* ticket) = 0;
  using core::MapCalls<Driver, K, V>::submit;

  // ---- bulk path -----------------------------------------------------------

  /// Bulk path: one batch through the backend, results in submission
  /// order with per-key program order preserved; ordered kinds observe
  /// exactly the point operations preceding them (phase slicing).
  std::vector<core::Result<V, K>> run(const std::vector<core::Op<K, V>>& ops) {
    std::vector<core::Result<V, K>> out;
    run(ops, out);
    return out;
  }

  /// Same bulk path, results into a caller-owned buffer (cleared, then
  /// sized to the batch): a steady bulk caller reuses the results
  /// capacity across batches instead of reallocating it per run.
  /// With durability armed, the batch's mutations are WAL-logged first
  /// and covered by ONE group commit (the batch-cut-boundary fsync);
  /// in read-only degraded mode the batch splits — reads execute,
  /// mutation slots complete with kReadOnly.
  virtual void run(const std::vector<core::Op<K, V>>& ops,
                   std::vector<core::Result<V, K>>& out) = 0;

  /// Single-owner sequential fast path: executes one operation
  /// synchronously on the calling thread, bypassing the async front end
  /// where the backend allows it. Must not race with concurrent callers.
  /// Benchmarks use this to measure per-op structure cost without
  /// batching overhead.
  virtual core::Result<V, K> step(core::Op<K, V> op) = 0;

  /// Segment index (recency depth) currently holding `key` for
  /// working-set backends; nullopt for absent keys and for non-adjusting
  /// backends. Quiesces first.
  virtual std::optional<std::size_t> depth_of(const K& key) = 0;

  /// Waits until every outstanding operation has completed.
  virtual void quiesce() = 0;

  /// Item count (quiesces first, so in-flight ops are counted).
  virtual std::size_t size() = 0;

  /// Deep structural validation with a failure description (quiescing
  /// first). "" = sound.
  virtual std::string validate() = 0;

  /// The scheduler this driver owns or runs on (a caller-supplied
  /// Options::scheduler is shared, not owned), or nullptr for
  /// schedulerless backends (the sequential baselines and the locked
  /// map).
  virtual sched::Scheduler* scheduler() noexcept = 0;

  /// Registry name this driver was created under ("m2", "avl", ...).
  const std::string& name() const noexcept { return name_; }

  // ---- durability (store/) -------------------------------------------------

  /// Opens the durability layer per `opts`; the registry calls this
  /// right after construction, before the driver serves. Recovers the
  /// directory (snapshot + WAL scan), replays the state through the
  /// bulk path with logging still disarmed, runs the deep validators,
  /// and only then arms the WAL. Throws store::StoreError when the
  /// directory is corrupt or recovery validation fails — the driver
  /// refuses to serve rather than serving a state the validators
  /// cannot certify. kOff is a no-op. Throws std::invalid_argument for
  /// K/V the file formats cannot serialize (non-trivially-copyable).
  virtual void open_durability(const Options& opts) = 0;

  /// Compaction: quiesces, drains the sorted contents, writes a fresh
  /// snapshot, and rotates the WAL — under the writer gate, so the
  /// snapshot reflects exactly the logged prefix. Returns "" on
  /// success, else the failure description (the driver is then in
  /// sticky read-only mode). Throws std::logic_error with durability
  /// off — checkpointing without a WAL to rotate is a caller bug.
  virtual std::string checkpoint() = 0;

  /// The full contents as sorted (key, value) pairs (quiesces first) —
  /// the export surface the checkpoint writer serializes.
  virtual std::vector<std::pair<K, V>> export_sorted() = 0;

  /// True once the driver degraded to sticky read-only mode (a
  /// persistence failure with durability armed). Mutations shed
  /// kReadOnly; reads keep serving.
  virtual bool read_only() const noexcept = 0;

  /// Counter snapshot: admission/retry and durability observability.
  virtual DriverStats stats() const = 0;

 protected:
  explicit Driver(std::string name) : name_(std::move(name)) {}

  /// Backoff retries taken by run_blocking on this driver.
  std::uint64_t retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> retries_{0};
};

namespace detail {

/// Owned-or-shared scheduler wiring: owns a pool sized by Options::workers
/// unless Options::scheduler supplies an external one (which must then
/// outlive the driver); `wanted == false` leaves it empty (schedulerless).
/// Declare it before the backend/front-end member so an owned pool dies
/// last.
struct SchedulerHandle {
  explicit SchedulerHandle(const Options& opts, bool wanted = true)
      : owned(wanted && !opts.scheduler
                  ? std::make_unique<sched::Scheduler>(opts.workers)
                  : nullptr),
        ptr(wanted && opts.scheduler ? opts.scheduler : owned.get()) {}

  std::unique_ptr<sched::Scheduler> owned;
  sched::Scheduler* ptr;
};

}  // namespace detail

/// The front end a BackendDriver puts in front of its backend. Chosen on
/// the registry's add() lines.
enum class Wiring {
  /// core::AsyncMap's implicit batching (Section 4 / Appendix A.1):
  /// blocking callers feed the parallel buffer, a scheduler worker drives
  /// cut batches through the backend (m0, m1, and the sequential
  /// baselines). run() quiesces the front end, then batches directly.
  kAsyncMap,
  /// The backend's own thread-safe submit/quiesce surface (M2's pipeline
  /// front end, Section 7); the driver only supplies the scheduler.
  kNative,
  /// The calling thread: point ops go straight into a backend that
  /// serializes internally (the locked baseline). No scheduler.
  kCaller,
};

/// A MapBackend wired behind one front end: the driver that runs the
/// per-op path — the admission window, the write-ahead sequence and the
/// durability layer. Only submission, the bulk and sequential paths, and
/// scheduler ownership depend on the wiring.
template <typename K, typename V, typename B, Wiring W>
  requires core::MapBackend<B, K, V>
class BackendDriver final : public Driver<K, V> {
 public:
  using typename Driver<K, V>::Ticket;
  using Driver<K, V>::submit;
  using Driver<K, V>::run;

  BackendDriver(std::string name, const Options& opts)
      : Driver<K, V>(std::move(name)),
        admission_(opts.max_in_flight),
        scheduler_(opts, W != Wiring::kCaller),
        front_(make_front(scheduler_.ptr)) {}

  /// The deadline screen and the admission decision, each delivered as a
  /// completed ticket, then the write-ahead and the front end. An
  /// admitted op arms the ticket's release hook first, so the window
  /// slot frees on whichever thread fulfills it — a kReadOnly shed from
  /// write_ahead included.
  void submit(core::Op<K, V> op, Ticket* ticket) override {
    switch (admission_.try_admit(op.deadline_ns)) {
      case Admit::kExpired:
        ticket->fulfill(
            core::Result<V, K>::error(core::ResultStatus::kTimedOut));
        return;
      case Admit::kShed:
        ticket->fulfill(
            core::Result<V, K>::error(core::ResultStatus::kOverloaded));
        return;
      case Admit::kAdmitted:
        break;
    }
    if (admission_.bounded()) {
      ticket->on_release = &AdmissionController::release_hook;
      ticket->release_ctx = &admission_;
    }
    // Enqueued under the gate: once checkpoint() holds the gate
    // exclusively and quiesces, every logged op is fully applied.
    if (!write_ahead(std::span<const core::Op<K, V>>(&op, 1), [&] {
          if constexpr (W == Wiring::kCaller) {
            // No async front end: execute inline and fulfill on the
            // calling thread (completion runs here).
            ticket->fulfill(front_.run_blocking(std::move(op)));
          } else {
            front_.submit(std::move(op), ticket);
          }
        })) {
      ticket->fulfill(core::Result<V, K>::error(core::ResultStatus::kReadOnly));
    }
  }

  void run(const std::vector<core::Op<K, V>>& ops,
           std::vector<core::Result<V, K>>& out) override {
    if (!write_ahead(ops, [&] { execute(ops, out); })) {
      run_read_only_split(ops, out);
    }
  }

  core::Result<V, K> step(core::Op<K, V> op) override {
    core::Result<V, K> r;
    if (!write_ahead(std::span<const core::Op<K, V>>(&op, 1), [&] {
          // The native backend's own front end IS its sequential path;
          // the others run the op on the quiesced backend directly.
          B& b = W == Wiring::kNative ? map() : backend();
          r = b.run_blocking(std::move(op));
        })) {
      r = core::Result<V, K>::error(core::ResultStatus::kReadOnly);
    }
    return r;
  }

  std::optional<std::size_t> depth_of(const K& key) override {
    B& b = backend();
    if constexpr (core::HasRecencyDepth<B, K>) {
      return b.segment_of(key);
    } else {
      return std::nullopt;
    }
  }

  void quiesce() override {
    if constexpr (W != Wiring::kCaller) front_.quiesce();
  }
  std::size_t size() override { return backend().size(); }
  std::string validate() override { return backend().validate(); }
  std::vector<std::pair<K, V>> export_sorted() override {
    std::vector<std::pair<K, V>> out;
    backend().export_entries(out);
    return out;
  }
  sched::Scheduler* scheduler() noexcept override { return scheduler_.ptr; }

  void open_durability(const Options& opts) override {
    if (opts.durability == store::DurabilityMode::kOff) return;
    if constexpr (!store::kSerializable<K, V>) {
      throw std::invalid_argument(
          "durability requires trivially copyable key/value types");
    } else {
      durability_ = std::make_unique<store::Durability<K, V>>(
          opts.durability_dir, opts.durability);
      store::RecoveredState<K, V> rec = durability_->recover();
      std::vector<core::Result<V, K>> scratch;
      store::replay_into(rec, [&](const std::vector<core::Op<K, V>>& batch) {
        execute(batch, scratch);
      });
      quiesce();
      const std::string err = validate();
      if (!err.empty()) {
        durability_.reset();
        throw store::StoreError("recovery validation failed (" +
                                opts.durability_dir + "): " + err);
      }
      durability_->arm();
    }
  }

  std::string checkpoint() override {
    if (!durability_) {
      throw std::logic_error(
          "checkpoint() requires durability (Options::durability != kOff)");
    }
    std::unique_lock<std::shared_mutex> gate(store_gate_);
    quiesce();
    const std::vector<std::pair<K, V>> entries = export_sorted();
    try {
      durability_->checkpoint(entries);
    } catch (const store::StoreError& e) {
      return e.what();
    }
    return {};
  }

  bool read_only() const noexcept override {
    return durability_ != nullptr && durability_->read_only();
  }

  DriverStats stats() const override {
    DriverStats s;
    s.admitted = admission_.admitted_total();
    s.shed = admission_.shed_total();
    s.timed_out = admission_.expired_total();
    s.retries = this->retries();
    s.in_flight = admission_.in_flight();
    if (durability_) {
      const store::DurabilityCounters c = durability_->counters();
      s.durable = true;
      s.read_only = c.read_only;
      s.wal_appends = c.wal_appends;
      s.wal_fsyncs = c.wal_fsyncs;
      s.recovered_ops = c.recovered_ops;
      s.recovered_entries = c.recovered_entries;
      s.torn_tail_truncations = c.torn_tail_truncations;
      s.checkpoints = c.checkpoints;
    }
    return s;
  }

  /// The wrapped backend (quiesces first); safe to use directly only
  /// while no other caller is active.
  B& backend() {
    quiesce();
    return map();
  }

 private:
  using Front = std::conditional_t<W == Wiring::kAsyncMap,
                                   core::AsyncMap<K, V, B>, B>;

  static Front make_front(sched::Scheduler* s) {
    if constexpr (W == Wiring::kNative) {
      return Front(*s);
    } else if constexpr (W == Wiring::kCaller) {
      return Front();
    } else if constexpr (std::constructible_from<B, sched::Scheduler*>) {
      return Front(B(s), *s);
    } else {
      return Front(B(), *s);
    }
  }

  B& map() {
    if constexpr (W == Wiring::kAsyncMap) {
      return front_.map();
    } else {
      return front_;
    }
  }

  /// One batch straight into the backend, no logging: the bulk path's
  /// body, recovery replay and the read-only split's read batch.
  void execute(const std::vector<core::Op<K, V>>& ops,
               std::vector<core::Result<V, K>>& out) {
    if constexpr (W == Wiring::kAsyncMap) front_.quiesce();
    map().execute_batch(std::span<const core::Op<K, V>>(ops), out);
  }

  /// The write-ahead sequence, the one place it lives: read-only screen,
  /// then — under the shared writer gate — ONE log_batch() of `ops`'s
  /// mutations, ONE mode-level commit (the group fsync under sync), and
  /// exec(). The record is as durable as the mode promises BEFORE the op
  /// can execute, so acked ⇒ logged ⇒ fsynced under sync. Runs exec()
  /// directly when durability is off or `ops` holds no mutation. Returns
  /// false without running exec() when the store is (or just became)
  /// read-only. NOTE the documented corner: an op can be logged durably
  /// and THEN shed (commit raced a concurrent failure) — it did not
  /// execute in this process, but recovery will replay it after a
  /// restart. The contract callers rely on is one-sided: acked ⇒
  /// durable; shed ⇒ not executed here.
  template <typename Exec>
  bool write_ahead(std::span<const core::Op<K, V>> ops, Exec&& exec) {
    // One pointer test on the kOff default path; replay runs before
    // arm(), so it is never logged.
    if (!durability_ || !durability_->armed() || !has_mutation(ops)) {
      exec();
      return true;
    }
    if (durability_->read_only()) return false;
    std::shared_lock<std::shared_mutex> gate(store_gate_);
    try {
      durability_->commit(durability_->log_batch(ops));
    } catch (const store::StoreError&) {
      return false;
    }
    exec();
    return true;
  }

  static bool has_mutation(std::span<const core::Op<K, V>> ops) {
    for (const auto& op : ops) {
      if (core::is_mutation(op.type)) return true;
    }
    return false;
  }

  /// Degraded bulk execution: mutation slots complete with kReadOnly,
  /// the read subsequence runs as its own batch (relative read order —
  /// and thus phase slicing — is preserved).
  void run_read_only_split(const std::vector<core::Op<K, V>>& ops,
                           std::vector<core::Result<V, K>>& out) {
    out.clear();
    out.resize(ops.size());
    std::vector<core::Op<K, V>> reads;
    std::vector<std::size_t> origin;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (core::is_mutation(ops[i].type)) {
        out[i] = core::Result<V, K>::error(core::ResultStatus::kReadOnly);
      } else {
        reads.push_back(ops[i]);
        origin.push_back(i);
      }
    }
    if (reads.empty()) return;
    std::vector<core::Result<V, K>> read_results;
    execute(reads, read_results);
    for (std::size_t j = 0; j < origin.size(); ++j) {
      out[origin[j]] = std::move(read_results[j]);
    }
  }

  // Declaration order is destruction-order-critical: the front end (and
  // the backend inside it) must die before the scheduler its drive loop
  // and forks run on, and before the admission window its tickets'
  // release hooks point at.
  AdmissionController admission_;
  /// Null when durability is off (the default) — every hot-path check
  /// is then one pointer test. The refusing stub type for K/V the file
  /// formats cannot serialize (open_durability throws before it is
  /// ever constructed).
  std::unique_ptr<store::DurabilityFor<K, V>> durability_;
  /// Writer gate: mutations log+execute under shared locks; checkpoint
  /// takes it exclusively so the exported contents match the logged
  /// prefix exactly. Untouched when durability is off.
  std::shared_mutex store_gate_;
  detail::SchedulerHandle scheduler_;
  Front front_;
};

/// The AsyncMap-wrapped drivers (m0, m1, iacono, splay, avl).
template <typename K, typename V, typename B>
using AsyncDriver = BackendDriver<K, V, B, Wiring::kAsyncMap>;

/// The natively-asynchronous driver (m2).
template <typename K, typename V, typename B>
using NativeAsyncDriver = BackendDriver<K, V, B, Wiring::kNative>;

}  // namespace pwss::driver
