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
// Wiring is selected from core::backend_traits at compile time:
//
//   traits                  wrapper            examples
//   ----------------------  -----------------  -------------------------
//   native_async            none (backend      m2
//                           batches itself)
//   point_thread_safe &&    none (point ops    locked
//     !native_async         go straight in)
//   supports_async          core::AsyncMap     m0, m1, splay, avl, iacono
//                           (implicit batching,
//                            Section 4)
//
// Every backend executes the full protocol, ordered kinds included. The
// public run/step/submit entry points pass admission control
// (driver/admission.hpp: bounded in-flight window, shed or bounded-block
// on overflow; blocking conveniences absorb transient kOverloaded via
// driver/retry.hpp backoff), and then forward to the do_* virtuals the
// wirings implement.
//
// The bulk path must not race with concurrent blocking callers on
// AsyncMap-wrapped backends (it quiesces the front end, then batches
// directly); natively-async and point-thread-safe backends allow mixing.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
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
  /// M2's p (bunch size p^2); 0 = the scheduler's worker count.
  unsigned p = 0;
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
  /// What a full window does to a submission: shed (kOverloaded) or
  /// park the submitter until a slot frees / the op's deadline passes.
  AdmissionPolicy admission = AdmissionPolicy::kReject;
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
  // network serving layer (src/net/server.hpp; folded in by
  // net::Server::add_stats() — zero and unprinted when not serving)
  bool serving = false;               ///< a net::Server reported counters
  std::uint64_t net_accepted = 0;     ///< connections accepted (lifetime)
  std::uint64_t net_active = 0;       ///< connections currently open
  std::uint64_t net_frames_in = 0;    ///< verified frames parsed
  std::uint64_t net_frames_out = 0;   ///< frames written (responses etc.)
  std::uint64_t net_protocol_errors = 0;  ///< connections refused for cause
  std::uint64_t net_shed_on_wire = 0;     ///< kOverloaded at the conn window
  std::uint64_t net_accept_failures = 0;  ///< accept(2) errors (incl. injected)

  /// Sums every counter and ORs the flags (shard folding).
  DriverStats& operator+=(const DriverStats& o);
};

/// One DriverStats counter: the name --stats prints it under, the line it
/// belongs to (durability and net lines print only when that layer is
/// on), and the member.
struct StatsField {
  enum Line : std::uint8_t { kAdmission, kDurability, kNet };
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
    {"accepted", StatsField::kNet, &DriverStats::net_accepted},
    {"active", StatsField::kNet, &DriverStats::net_active},
    {"frames_in", StatsField::kNet, &DriverStats::net_frames_in},
    {"frames_out", StatsField::kNet, &DriverStats::net_frames_out},
    {"protocol_errors", StatsField::kNet, &DriverStats::net_protocol_errors},
    {"shed_on_wire", StatsField::kNet, &DriverStats::net_shed_on_wire},
    {"accept_failures", StatsField::kNet, &DriverStats::net_accept_failures},
};

inline DriverStats& DriverStats::operator+=(const DriverStats& o) {
  for (const StatsField& f : kStatsFields) this->*f.counter += o.*f.counter;
  durable = durable || o.durable;
  read_only = read_only || o.read_only;
  serving = serving || o.serving;
  return *this;
}

/// The admission window a single (non-sharded) driver enforces for the
/// given options.
inline AdmissionConfig admission_config(const Options& opts) {
  return AdmissionConfig{opts.max_in_flight, opts.admission};
}

/// Type-erased handle to a wired backend. Obtained from BackendRegistry.
template <typename K, typename V>
class Driver {
 public:
  using Ticket = core::OpTicket<V, K>;
  using Completion = std::function<void(core::Result<V, K>&&)>;

  virtual ~Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Blocking per-op API; thread-safe. Passes admission control with
  /// transparent retry: transient kOverloaded results (a shed window, an
  /// injected buffer rejection) are absorbed by capped exponential
  /// backoff — see run_blocking().
  std::optional<V> search(const K& key) {
    return run_blocking(core::Op<K, V>::search(key)).value;
  }
  bool insert(const K& key, V value) {
    return run_blocking(core::Op<K, V>::insert(key, std::move(value)))
        .success();
  }
  /// Write-either-way; returns the status (kInserted or kUpdated).
  core::ResultStatus upsert(const K& key, V value) {
    return run_blocking(core::Op<K, V>::upsert(key, std::move(value))).status;
  }
  std::optional<V> erase(const K& key) {
    return run_blocking(core::Op<K, V>::erase(key)).value;
  }

  /// Ordered blocking API (protocol v2).
  std::optional<std::pair<K, V>> predecessor(const K& key) {
    return ordered_pair(run_blocking(core::Op<K, V>::predecessor(key)));
  }
  std::optional<std::pair<K, V>> successor(const K& key) {
    return ordered_pair(run_blocking(core::Op<K, V>::successor(key)));
  }
  std::uint64_t range_count(const K& lo, const K& hi) {
    return run_blocking(core::Op<K, V>::range_count(lo, hi)).count;
  }

  /// One op through the blocking path: admission control and the retry
  /// loop that absorbs transient kOverloaded results (deadline-aware,
  /// capped attempts). The terminal result is exact: kTimedOut when the
  /// deadline passed before execution, kOverloaded when the retry budget
  /// ran out, the executed result otherwise.
  core::Result<V, K> run_blocking(core::Op<K, V> op) {
    retry::Backoff backoff;
    for (;;) {
      switch (admission_.try_admit(op.deadline_ns)) {
        case Admit::kExpired:
          return core::Result<V, K>::error(core::ResultStatus::kTimedOut);
        case Admit::kShed:
          if (backoff.next(op.deadline_ns)) {
            retries_.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          return core::Result<V, K>::error(core::ResultStatus::kOverloaded);
        case Admit::kAdmitted:
          break;
      }
      // The op is retried on transient overload, so the attempt gets a
      // copy; the window slot is held across the attempt and released
      // before any backoff sleep.
      core::Result<V, K> r =
          durable() && core::is_mutation(op.type)
              ? durable_one(core::Op<K, V>(op),
                            [this](core::Op<K, V> o) {
                              return run_one(std::move(o));
                            })
              : run_one(core::Op<K, V>(op));
      admission_.release();
      if (r.status == core::ResultStatus::kOverloaded &&
          backoff.next(op.deadline_ns)) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return r;
    }
  }

  // ---- asynchronous submission ---------------------------------------------
  // The async forms never throw for refusals: the contract is completion
  // delivery, so a shed window and an expired deadline surface as a
  // ticket completed with the matching terminal error status
  // (kOverloaded / kTimedOut).

  /// Lowest-level form: the caller owns the completion token (stack or
  /// arena; zero allocation). The ticket must stay alive until fulfilled.
  void submit(core::Op<K, V> op, Ticket* ticket) {
    submit_admitted(std::move(op), ticket);
  }

  /// Future form: one heap-shared state per call; wait with get(), poll
  /// with ready(), or drop the future (the operation still completes).
  core::Future<V, K> submit(core::Op<K, V> op) {
    auto* state = new core::detail::FutureState<V, K>();
    submit_admitted(std::move(op), state);
    return core::Future<V, K>(state);
  }

  /// Completion form: `done` runs on the fulfilling thread with the
  /// result (batched delivery — the front end fulfills whole cut batches,
  /// so completions of one batch run back-to-back without a wakeup each).
  void submit(core::Op<K, V> op, Completion done) {
    auto* state = new core::detail::FutureState<V, K>();
    state->completion = std::move(done);
    state->refs.store(1, std::memory_order_relaxed);  // producer only
    submit_admitted(std::move(op), state);
  }

  /// The admission window this driver enforces (inert when unbounded).
  const AdmissionController& admission() const noexcept { return admission_; }

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
  void run(const std::vector<core::Op<K, V>>& ops,
           std::vector<core::Result<V, K>>& out) {
    if (durable() && batch_has_mutation(ops)) {
      run_durable(ops, out);
      return;
    }
    do_run(ops, out);
  }

  /// Single-owner sequential fast path: executes one operation
  /// synchronously on the calling thread, bypassing the async front end
  /// where the backend allows it. Must not race with concurrent callers.
  /// Benchmarks use this to measure per-op structure cost without
  /// batching overhead.
  core::Result<V, K> step(core::Op<K, V> op) {
    if (durable() && core::is_mutation(op.type)) {
      return durable_one(std::move(op), [this](core::Op<K, V> o) {
        return do_step(std::move(o));
      });
    }
    return do_step(std::move(op));
  }

  /// Segment index (recency depth) currently holding `key` for
  /// working-set backends; nullopt for absent keys and for non-adjusting
  /// backends. Quiesces first.
  virtual std::optional<std::size_t> depth_of(const K& key) = 0;

  /// Waits until every outstanding operation has completed.
  virtual void quiesce() = 0;

  /// Item count (quiesces first, so in-flight ops are counted).
  virtual std::size_t size() = 0;

  /// Runs the backend's structural validation when it has one (quiescing
  /// first); backends without check_invariants() vacuously pass.
  virtual bool check() = 0;

  /// Deep structural validation with a failure description (quiescing
  /// first). "" = sound. Backends with only a boolean check_invariants()
  /// report a generic message on failure; backends without any validator
  /// vacuously pass.
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
  virtual void open_durability(const Options& opts) {
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
        do_run(batch, scratch);
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

  /// Compaction: quiesces, drains the sorted contents, writes a fresh
  /// snapshot, and rotates the WAL — under the writer gate, so the
  /// snapshot reflects exactly the logged prefix. Returns "" on
  /// success, else the failure description (the driver is then in
  /// sticky read-only mode). Throws std::logic_error with durability
  /// off — checkpointing without a WAL to rotate is a caller bug.
  virtual std::string checkpoint() {
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

  /// The full contents as sorted (key, value) pairs (quiesces first) —
  /// the export surface the checkpoint writer serializes.
  virtual std::vector<std::pair<K, V>> export_sorted() = 0;

  /// True once the driver degraded to sticky read-only mode (a
  /// persistence failure with durability armed). Mutations shed
  /// kReadOnly; reads keep serving.
  virtual bool read_only() const noexcept {
    return durability_ != nullptr && durability_->read_only();
  }

  /// Counter snapshot: admission/retry and durability observability.
  virtual DriverStats stats() const {
    DriverStats s;
    s.admitted = admission_.admitted_total();
    s.shed = admission_.shed_total();
    s.timed_out = admission_.expired_total();
    s.retries = retries_.load(std::memory_order_relaxed);
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

 protected:
  explicit Driver(std::string name, AdmissionConfig admission = {})
      : name_(std::move(name)), admission_(admission) {}

  /// True when mutations must be WAL-logged (durability recovered,
  /// validated, and armed). One pointer test on the kOff default path.
  bool durable() const noexcept {
    return durability_ != nullptr && durability_->armed();
  }

  virtual core::Result<V, K> run_one(core::Op<K, V> op) = 0;
  virtual void do_submit(core::Op<K, V> op, Ticket* ticket) = 0;
  virtual void do_run(const std::vector<core::Op<K, V>>& ops,
                      std::vector<core::Result<V, K>>& out) = 0;
  virtual core::Result<V, K> do_step(core::Op<K, V> op) = 0;

 private:
  /// Shared body of the three async submit forms: the deadline screen
  /// and the admission decision, each delivered as a completed ticket;
  /// admitted ops arm the ticket's release hook so the window slot frees
  /// on the fulfilling thread.
  void submit_admitted(core::Op<K, V> op, Ticket* ticket) {
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
    if (durable() && core::is_mutation(op.type)) {
      // Write-ahead: the record must be as durable as the mode promises
      // BEFORE the op can execute (the ack necessarily follows
      // do_submit, so acked ⇒ logged ⇒ fsynced under sync). A shed here
      // releases the admission slot by hand — the release hook is not
      // armed yet — so the window stays conserved.
      if (durability_->read_only()) {
        admission_.release();
        ticket->fulfill(
            core::Result<V, K>::error(core::ResultStatus::kReadOnly));
        return;
      }
      std::shared_lock<std::shared_mutex> gate(store_gate_);
      try {
        const std::uint64_t seq =
            durability_->log(op.type, op.key, op.value);
        durability_->commit(seq);
      } catch (const store::StoreError&) {
        admission_.release();
        ticket->fulfill(
            core::Result<V, K>::error(core::ResultStatus::kReadOnly));
        return;
      }
      if (admission_.bounded()) {
        ticket->on_release = &AdmissionController::release_hook;
        ticket->release_ctx = &admission_;
      }
      // Enqueue under the gate: once checkpoint() holds the gate
      // exclusively and quiesces, every logged op is fully applied.
      do_submit(std::move(op), ticket);
      return;
    }
    if (admission_.bounded()) {
      ticket->on_release = &AdmissionController::release_hook;
      ticket->release_ctx = &admission_;
    }
    do_submit(std::move(op), ticket);
  }

  /// One mutation through the write-ahead sequence (read-only screen,
  /// log, mode-level commit, then execute under the shared gate).
  /// Returns kReadOnly without executing when the persistence path is
  /// (or just became) unusable. NOTE the documented corner: an op can be
  /// logged durably and THEN shed (commit raced a concurrent failure) —
  /// it did not execute in this process, but recovery will replay it
  /// after a restart. The contract callers rely on is one-sided:
  /// acked ⇒ durable; shed ⇒ not executed here.
  template <typename Exec>
  core::Result<V, K> durable_one(core::Op<K, V> op, Exec&& exec) {
    if (durability_->read_only()) {
      return core::Result<V, K>::error(core::ResultStatus::kReadOnly);
    }
    std::shared_lock<std::shared_mutex> gate(store_gate_);
    try {
      const std::uint64_t seq = durability_->log(op.type, op.key, op.value);
      durability_->commit(seq);
    } catch (const store::StoreError&) {
      return core::Result<V, K>::error(core::ResultStatus::kReadOnly);
    }
    return exec(std::move(op));
  }

  static bool batch_has_mutation(const std::vector<core::Op<K, V>>& ops) {
    for (const auto& op : ops) {
      if (core::is_mutation(op.type)) return true;
    }
    return false;
  }

  /// Bulk path with durability armed: log the batch's mutations, ONE
  /// group commit at the batch boundary, then execute — or, degraded,
  /// split the batch so reads still serve.
  void run_durable(const std::vector<core::Op<K, V>>& ops,
                   std::vector<core::Result<V, K>>& out) {
    if (!durability_->read_only()) {
      std::shared_lock<std::shared_mutex> gate(store_gate_);
      bool logged = true;
      std::uint64_t last_seq = 0;
      try {
        for (const auto& op : ops) {
          if (core::is_mutation(op.type)) {
            last_seq = durability_->log(op.type, op.key, op.value);
          }
        }
        durability_->commit(last_seq);
      } catch (const store::StoreError&) {
        logged = false;
      }
      if (logged) {
        do_run(ops, out);
        return;
      }
    }
    run_read_only_split(ops, out);
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
    do_run(reads, read_results);
    for (std::size_t j = 0; j < origin.size(); ++j) {
      out[origin[j]] = std::move(read_results[j]);
    }
  }

  std::string name_;
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
  std::atomic<std::uint64_t> retries_{0};
};

namespace detail {

/// Owned-or-shared scheduler wiring: owns a pool sized by Options::workers
/// unless Options::scheduler supplies an external one (which must then
/// outlive the driver). Declare it before the backend/front-end member so
/// an owned pool dies last.
struct SchedulerHandle {
  explicit SchedulerHandle(const Options& opts)
      : owned(opts.scheduler
                  ? nullptr
                  : std::make_unique<sched::Scheduler>(opts.workers)),
        ptr(opts.scheduler ? opts.scheduler : owned.get()) {}

  std::unique_ptr<sched::Scheduler> owned;
  sched::Scheduler* ptr;
};

template <typename B, typename K, typename V>
bool checked_invariants(B& backend) {
  if constexpr (core::HasInvariantCheck<B>) {
    return backend.check_invariants();
  } else {
    (void)backend;
    return true;
  }
}

template <typename B, typename K, typename V>
std::string deep_validate(B& backend) {
  if constexpr (core::HasDeepValidate<B>) {
    return backend.validate();
  } else if constexpr (core::HasInvariantCheck<B>) {
    return backend.check_invariants()
               ? std::string()
               : "check_invariants() failed (backend has no deep validator)";
  } else {
    (void)backend;
    return {};
  }
}

/// The backend's sorted contents for the checkpoint writer; caller
/// quiesces first. Every registered backend has the surface — the throw
/// is a backstop for out-of-tree backends registered without one.
template <typename K, typename V, typename B>
std::vector<std::pair<K, V>> export_sorted_of(B& backend) {
  std::vector<std::pair<K, V>> out;
  if constexpr (core::HasExportEntries<B, K, V>) {
    backend.export_entries(out);
  } else {
    throw std::logic_error(
        "backend has no export_entries surface; durability needs one");
  }
  return out;
}

template <typename K, typename V, typename B>
std::optional<std::size_t> depth_in(B& backend, const K& key) {
  if constexpr (core::HasRecencyDepth<B, K>) {
    return backend.segment_of(key);
  } else {
    (void)backend;
    (void)key;
    return std::nullopt;
  }
}

/// One op through the backend's point surface when it has one (no
/// per-op vector allocations), else through a singleton batch. Ordered
/// kinds always take the singleton-batch path.
template <typename K, typename V, typename B>
core::Result<V, K> point_apply(B& backend, core::Op<K, V> op) {
  if constexpr (core::HasPointOps<B, K, V>) {
    if (!core::is_ordered(op.type)) {
      core::Result<V, K> r;
      switch (op.type) {
        case core::OpType::kSearch: {
          auto v = backend.search(op.key);
          if constexpr (std::is_pointer_v<decltype(v)>) {
            r.status = v != nullptr ? core::ResultStatus::kFound
                                    : core::ResultStatus::kNotFound;
            if (v) r.value = *v;
          } else {
            r.status = v.has_value() ? core::ResultStatus::kFound
                                     : core::ResultStatus::kNotFound;
            r.value = std::move(v);
          }
          break;
        }
        case core::OpType::kInsert:
        case core::OpType::kUpsert:
          r.status = backend.insert(op.key, std::move(op.value))
                         ? core::ResultStatus::kInserted
                         : core::ResultStatus::kUpdated;
          break;
        case core::OpType::kErase: {
          auto v = backend.erase(op.key);
          r.status = v.has_value() ? core::ResultStatus::kErased
                                   : core::ResultStatus::kNotFound;
          r.value = std::move(v);
          break;
        }
        default:
          break;  // unreachable: ordered kinds filtered above
      }
      return r;
    }
  }
  // Singleton batch on the stack — no per-op vector allocation.
  const core::Op<K, V> one[1] = {std::move(op)};
  return backend.execute_batch(std::span<const core::Op<K, V>>(one))[0];
}

}  // namespace detail

/// Backend wired behind core::AsyncMap: blocking callers feed the
/// parallel buffer, a scheduler worker drives cut batches through the
/// backend (m0, m1, and the sequential baselines).
template <typename K, typename V, typename B>
  requires core::MapBackend<B, K, V>
class AsyncDriver final : public Driver<K, V> {
 public:
  using typename Driver<K, V>::Ticket;

  AsyncDriver(std::string name, const Options& opts)
      : Driver<K, V>(std::move(name), admission_config(opts)),
        scheduler_(opts),
        async_(make_backend(*scheduler_.ptr), *scheduler_.ptr) {}

  std::optional<std::size_t> depth_of(const K& key) override {
    async_.quiesce();
    return detail::depth_in<K, V>(async_.map(), key);
  }

  void quiesce() override { async_.quiesce(); }
  std::size_t size() override {
    async_.quiesce();
    return async_.map().size();
  }
  bool check() override {
    async_.quiesce();
    return detail::checked_invariants<B, K, V>(async_.map());
  }
  std::string validate() override {
    async_.quiesce();
    return detail::deep_validate<B, K, V>(async_.map());
  }
  std::vector<std::pair<K, V>> export_sorted() override {
    async_.quiesce();
    return detail::export_sorted_of<K, V>(async_.map());
  }
  sched::Scheduler* scheduler() noexcept override { return scheduler_.ptr; }

  /// The wrapped backend; safe only when quiescent.
  B& backend() {
    async_.quiesce();
    return async_.map();
  }

 protected:
  core::Result<V, K> run_one(core::Op<K, V> op) override {
    core::OpTicket<V, K> ticket;
    async_.submit(std::move(op), &ticket);
    return ticket.wait();
  }

  void do_submit(core::Op<K, V> op, Ticket* ticket) override {
    async_.submit(std::move(op), ticket);
  }

  void do_run(const std::vector<core::Op<K, V>>& ops,
              std::vector<core::Result<V, K>>& out) override {
    async_.quiesce();
    core::execute_batch_into<K, V>(
        async_.map(), std::span<const core::Op<K, V>>(ops), out);
  }

  core::Result<V, K> do_step(core::Op<K, V> op) override {
    async_.quiesce();
    return detail::point_apply<K, V>(async_.map(), std::move(op));
  }

 private:
  static B make_backend(sched::Scheduler& s) {
    if constexpr (core::backend_traits<B>::needs_scheduler) {
      return B(&s);
    } else {
      (void)s;
      return B();
    }
  }

  // Declaration order is destruction-order-critical: the AsyncMap (and
  // the backend inside it) must die before the scheduler its drive loop
  // and forks run on.
  detail::SchedulerHandle scheduler_;
  core::AsyncMap<K, V, B> async_;
};

/// Natively-asynchronous backend (M2): the backend already provides a
/// thread-safe submit/execute_batch/quiesce surface; the driver only
/// supplies the scheduler and the uniform API.
template <typename K, typename V, typename B>
  requires(core::MapBackend<B, K, V> && core::backend_traits<B>::native_async)
class NativeAsyncDriver final : public Driver<K, V> {
 public:
  using typename Driver<K, V>::Ticket;

  NativeAsyncDriver(std::string name, const Options& opts)
      : Driver<K, V>(std::move(name), admission_config(opts)),
        scheduler_(opts),
        backend_(*scheduler_.ptr, opts.p) {}

  std::optional<std::size_t> depth_of(const K& key) override {
    backend_.quiesce();
    return detail::depth_in<K, V>(backend_, key);
  }

  void quiesce() override { backend_.quiesce(); }
  std::size_t size() override {
    backend_.quiesce();
    return backend_.size();
  }
  bool check() override {
    backend_.quiesce();
    return detail::checked_invariants<B, K, V>(backend_);
  }
  std::string validate() override {
    backend_.quiesce();
    return detail::deep_validate<B, K, V>(backend_);
  }
  std::vector<std::pair<K, V>> export_sorted() override {
    backend_.quiesce();
    return detail::export_sorted_of<K, V>(backend_);
  }
  sched::Scheduler* scheduler() noexcept override { return scheduler_.ptr; }

  B& backend() { return backend_; }

 protected:
  core::Result<V, K> run_one(core::Op<K, V> op) override {
    core::OpTicket<V, K> ticket;
    backend_.submit(std::move(op), &ticket);
    return ticket.wait();
  }

  void do_submit(core::Op<K, V> op, Ticket* ticket) override {
    backend_.submit(std::move(op), ticket);
  }

  void do_run(const std::vector<core::Op<K, V>>& ops,
              std::vector<core::Result<V, K>>& out) override {
    core::execute_batch_into<K, V>(
        backend_, std::span<const core::Op<K, V>>(ops), out);
  }

  core::Result<V, K> do_step(core::Op<K, V> op) override {
    return run_one(std::move(op));  // the pipeline IS the sequential path
  }

 private:
  detail::SchedulerHandle scheduler_;  // must outlive backend_
  B backend_;
};

/// Point-thread-safe backend without its own batcher (the locked
/// baseline): ops go straight in from the calling thread.
template <typename K, typename V, typename B>
  requires(core::MapBackend<B, K, V> &&
           core::backend_traits<B>::point_thread_safe)
class DirectDriver final : public Driver<K, V> {
 public:
  using typename Driver<K, V>::Ticket;

  DirectDriver(std::string name, const Options& opts)
      : Driver<K, V>(std::move(name), admission_config(opts)) {}

  std::optional<std::size_t> depth_of(const K& key) override {
    return detail::depth_in<K, V>(backend_, key);
  }

  void quiesce() override {}
  std::size_t size() override { return backend_.size(); }
  bool check() override { return detail::checked_invariants<B, K, V>(backend_); }
  std::string validate() override {
    return detail::deep_validate<B, K, V>(backend_);
  }
  std::vector<std::pair<K, V>> export_sorted() override {
    return detail::export_sorted_of<K, V>(backend_);
  }
  sched::Scheduler* scheduler() noexcept override { return nullptr; }

  B& backend() { return backend_; }

 protected:
  core::Result<V, K> run_one(core::Op<K, V> op) override {
    return detail::point_apply<K, V>(backend_, std::move(op));
  }

  void do_submit(core::Op<K, V> op, Ticket* ticket) override {
    // No async front end: execute inline and fulfill on the calling
    // thread (the submission API stays uniform; completion runs here).
    ticket->fulfill(detail::point_apply<K, V>(backend_, std::move(op)));
  }

  void do_run(const std::vector<core::Op<K, V>>& ops,
              std::vector<core::Result<V, K>>& out) override {
    core::execute_batch_into<K, V>(
        backend_, std::span<const core::Op<K, V>>(ops), out);
  }

  core::Result<V, K> do_step(core::Op<K, V> op) override {
    return run_one(std::move(op));
  }

 private:
  B backend_;
};

}  // namespace pwss::driver
