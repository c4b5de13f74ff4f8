#pragma once
// ShardedDriver — multi-instance scaling on top of the driver layer: S
// independent backend instances (each with its own front end, any registry
// wiring) behind ONE shared scheduler, presented as a single Driver<K, V>.
//
//   * point ops route by key hash: each key lives in exactly one shard, so
//     per-key program order is the shard's program order;
//   * ordered queries (protocol v2) span every shard: predecessor /
//     successor / range-count submissions scatter one sub-query per shard
//     and gather with a max- / min- / sum-reduce when the last shard
//     completes — no thread blocks between scatter and gather;
//   * bulk run() scatters the batch by shard, executes the per-shard
//     sub-batches concurrently (each on its shard's long-lived runner
//     thread, their internal parallelism on the shared pool), and
//     gathers results back into submission order — a legal linearization
//     per shard (Definition 8: per-key order preserved, results in
//     submission order). Batches with ordered kinds are sliced into
//     point/ordered phases so every ordered query observes exactly the
//     point operations preceding it;
//   * size()/validate()/quiesce() aggregate across shards; depth_of() routes
//     to the shard holding the key.
//
// The sharded driver holds no admission window and no durability layer of
// its own: every path routes through the shards' public submit/run/step,
// so admission, write-ahead logging, group commit and read-only shedding
// all happen inside the shard that owns the key. stats() is this driver's
// blocking-path retries plus the sum over its shards — a point op is
// admitted once (by its shard), an ordered query once per shard it
// scatters to.
//
// Like the AsyncMap-wrapped drivers, the bulk path must not race with
// concurrent blocking callers on shards whose wiring forbids it (each
// inner run() quiesces its own shard first).
//
// The shards are created through an injected factory — the registry passes
// the wrapped backend's own factory, so `sharded:<name>` works for every
// registered backend without this header depending on the registry.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/async_map.hpp"
#include "core/ops.hpp"
#include "driver/driver.hpp"
#include "sched/scheduler.hpp"
#include "store/format.hpp"

namespace pwss::driver {

/// Shard count used when Options::shards is 0.
inline constexpr unsigned kDefaultShards = 4;

/// The registry resolves `sharded:<name>` for every registered backend;
/// benches that apply their own wrapper strip this prefix first.
inline constexpr std::string_view kShardedPrefix = "sharded:";

namespace detail {

/// One long-lived thread that runs posted jobs one at a time: a shard's
/// bulk runner. post() hands over a job, wait() returns once it is done.
class ShardRunner {
 public:
  ShardRunner() : thread_([this] { loop(); }) {}
  ~ShardRunner() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  void post(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = std::move(job);
    }
    cv_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !job_; });
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || job_; });
      if (!job_) return;  // stop_ with nothing pending
      lk.unlock();
      job_();
      lk.lock();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> job_;  ///< the pending or running job; empty = idle
  bool stop_ = false;
  std::thread thread_;  ///< last: starts after the state above exists
};

}  // namespace detail

template <typename K, typename V>
class ShardedDriver final : public Driver<K, V> {
 public:
  using typename Driver<K, V>::Ticket;
  using Driver<K, V>::submit;
  using Driver<K, V>::run;
  using ShardFactory =
      std::function<std::unique_ptr<Driver<K, V>>(const Options&)>;

  /// `make_shard` builds one inner driver; it is called S times with
  /// Options whose scheduler field points at the shared pool — the
  /// caller's Options::scheduler when supplied, else a pool this driver
  /// owns. An owned pool is dropped again when no shard wired itself to
  /// it (e.g. sharded:locked, whose shards are schedulerless).
  /// Options::max_in_flight rides the inner Options copy into every
  /// shard, so the window is enforced per shard and one hot shard sheds
  /// its overflow without starving the rest.
  ShardedDriver(std::string name, const Options& opts, ShardFactory make_shard)
      : Driver<K, V>(std::move(name)), scheduler_(opts) {
    const unsigned count = opts.shards == 0 ? kDefaultShards : opts.shards;
    Options inner = opts;
    inner.scheduler = scheduler_.ptr;
    inner.shards = 0;
    shards_.reserve(count);
    for (unsigned s = 0; s < count; ++s) shards_.push_back(make_shard(inner));
    runners_.resize(count);
    if (scheduler_.owned) {
      bool used = false;
      for (auto& s : shards_) used = used || s->scheduler() != nullptr;
      if (!used) {
        scheduler_.owned.reset();
        scheduler_.ptr = nullptr;
      }
    }
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// The s-th shard's driver; aggregate state is only meaningful when
  /// quiescent.
  Driver<K, V>& shard(std::size_t s) { return *shards_[s]; }

  /// The shard index `key` routes to (stable for the driver's lifetime).
  std::size_t shard_of(const K& key) const {
    // std::hash is the identity for integers on common stdlibs; finalize
    // (murmur3 fmix64) so contiguous key ranges spread across shards.
    auto h = static_cast<std::uint64_t>(std::hash<K>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h % shards_.size());
  }

  std::optional<std::size_t> depth_of(const K& key) override {
    return shards_[shard_of(key)]->depth_of(key);
  }

  void quiesce() override {
    for (auto& s : shards_) s->quiesce();
  }

  std::size_t size() override {
    std::size_t total = 0;
    for (auto& s : shards_) total += s->size();
    return total;
  }

  std::string validate() override {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::string err = shards_[i]->validate();
      if (!err.empty()) {
        return "shard[" + std::to_string(i) + "]: " + err;
      }
    }
    return {};
  }

  sched::Scheduler* scheduler() noexcept override { return scheduler_.ptr; }

  /// Per-shard durability: each shard recovers from and logs to its own
  /// subdirectory (keys are hash-partitioned, so the shard stores hold
  /// disjoint key sets).
  void open_durability(const Options& opts) override {
    if (opts.durability == store::DurabilityMode::kOff) return;
    store::ensure_dir(opts.durability_dir);
    Options inner = opts;
    inner.scheduler = scheduler_.ptr;
    inner.shards = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      inner.durability_dir =
          opts.durability_dir + "/shard-" + std::to_string(s);
      shards_[s]->open_durability(inner);
    }
  }

  /// Checkpoints every shard; error reports are concatenated so one
  /// degraded shard does not hide another's.
  std::string checkpoint() override {
    std::string errors;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::string err = shards_[s]->checkpoint();
      if (!err.empty()) {
        if (!errors.empty()) errors += "; ";
        errors += "shard[" + std::to_string(s) + "]: " + err;
      }
    }
    return errors;
  }

  std::vector<std::pair<K, V>> export_sorted() override {
    std::vector<std::pair<K, V>> out;
    for (auto& s : shards_) {
      auto part = s->export_sorted();
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    // Disjoint key sets per shard: a plain sort, no dedup needed.
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  /// Degradation is per shard (one shard's disk failing sheds only the
  /// keys it owns); any degraded shard makes the aggregate report true.
  bool read_only() const noexcept override {
    for (const auto& s : shards_) {
      if (s->read_only()) return true;
    }
    return false;
  }

  DriverStats stats() const override {
    DriverStats total;
    total.retries = this->retries();
    for (const auto& s : shards_) total += s->stats();
    return total;
  }

  void run(const std::vector<core::Op<K, V>>& ops,
           std::vector<core::Result<V, K>>& out) override {
    out.clear();
    out.resize(ops.size());
    // One phase == the whole batch when no ordered kinds are present,
    // i.e. the common case costs one scan.
    core::for_each_phase(
        std::span<const core::Op<K, V>>(ops),
        [&](std::size_t b, std::size_t e) { run_point_phase(ops, b, e, out); },
        [&](std::size_t b, std::size_t e) {
          run_ordered_phase(ops, b, e, out);
        });
  }

  core::Result<V, K> step(core::Op<K, V> op) override {
    if (core::is_ordered(op.type)) {
      // Single-owner path: consult every shard synchronously and reduce.
      std::vector<core::Result<V, K>> answers;
      answers.reserve(shards_.size());
      for (auto& s : shards_) answers.push_back(s->step(op));
      return reduce_ordered(op.type, answers);
    }
    return shards_[shard_of(op.key)]->step(std::move(op));
  }

  void submit(core::Op<K, V> op, Ticket* ticket) override {
    if (!core::is_ordered(op.type)) {
      shards_[shard_of(op.key)]->submit(std::move(op), ticket);
      return;
    }
    // Scatter one sub-query per shard; the last completion reduces and
    // fulfills the caller's ticket. The gather state owns the sub-tickets
    // and frees itself — no thread waits.
    auto* gather = new OrderedGather(op.type, ticket, shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      gather->subs[s].owner = gather;
      gather->subs[s].on_complete = &OrderedGather::sub_done;
      shards_[s]->submit(op, &gather->subs[s]);
    }
  }

 private:
  /// Per-shard sub-ticket carrying the back-pointer the completion hook
  /// needs to find its gather state.
  struct SubTicket : core::OpTicket<V, K> {
    void* owner = nullptr;
  };

  /// Scatter/gather state for one ordered submission across all shards.
  struct OrderedGather {
    core::OpType type;
    Ticket* target;
    std::atomic<std::size_t> remaining;
    std::vector<SubTicket> subs;

    OrderedGather(core::OpType t, Ticket* tgt, std::size_t n)
        : type(t), target(tgt), remaining(n), subs(n) {}

    static void sub_done(core::OpTicket<V, K>* t) {
      auto* sub = static_cast<SubTicket*>(t);
      auto* g = static_cast<OrderedGather*>(sub->owner);
      if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      // Last shard in: reduce and deliver.
      g->target->fulfill(reduce_ordered(
          g->type, g->subs | std::views::transform(
                                 [](SubTicket& s) -> core::Result<V, K>& {
                                   return s.result;
                                 })));
      delete g;
    }
  };

  /// The ordered reduce over every shard's answer to one query:
  /// predecessor keeps the max matched key, successor the min,
  /// range-count the sum. Any errored answer (a shard shed it, or its
  /// deadline passed) poisons the whole reduce — a reduce over fewer
  /// than all shards would silently return a wrong answer, and an
  /// errored op must surface as errored (the blocking path's retry
  /// resubmits the full scatter).
  template <typename Answers>
  static core::Result<V, K> reduce_ordered(core::OpType type,
                                           Answers&& answers) {
    for (const core::Result<V, K>& r : answers) {
      if (r.is_error()) return core::Result<V, K>::error(r.status);
    }
    core::Result<V, K> best;
    for (core::Result<V, K>& r : answers) {
      if (type == core::OpType::kRangeCount) {
        best.count += r.count;
      } else if (r.status == core::ResultStatus::kFound &&
                 (!best.matched_key.has_value() ||
                  (type == core::OpType::kPredecessor
                       ? *best.matched_key < *r.matched_key
                       : *r.matched_key < *best.matched_key))) {
        best = std::move(r);
      }
    }
    if (type == core::OpType::kRangeCount) {
      best.status = core::ResultStatus::kFound;
    }
    return best;
  }

  /// One point phase scattered by shard; per-shard run()s go on the
  /// shards' runner threads, NOT on pool workers: an inner run() may block
  /// its thread on pool progress (M2's execute_batch awaits pipeline
  /// activations; AsyncMap's quiesce spins), so hosting it on the pool
  /// deadlocks once blocking shard tasks occupy every worker. The shards'
  /// internal parallelism still runs on the one shared scheduler. The
  /// calling thread takes the first non-empty shard itself; a runner
  /// thread starts the first time its shard is handed off. Exceptions are
  /// captured per shard and the first rethrown after every runner
  /// finished, matching the unsharded drivers' propagation. Bulk runs are
  /// serialized (one job per runner at a time).
  void run_point_phase(const std::vector<core::Op<K, V>>& ops,
                       std::size_t begin, std::size_t end,
                       std::vector<core::Result<V, K>>& out) {
    const std::size_t n = shards_.size();
    std::vector<std::vector<core::Op<K, V>>> scatter(n);
    std::vector<std::vector<std::size_t>> origin(n);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t s = shard_of(ops[i].key);
      scatter[s].push_back(ops[i]);
      origin[s].push_back(i);
    }

    std::vector<std::vector<core::Result<V, K>>> partial(n);
    std::vector<std::exception_ptr> errors(n);
    auto run_shard = [&](std::size_t s) noexcept {
      try {
        partial[s] = shards_[s]->run(scatter[s]);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    };
    std::lock_guard<std::mutex> bulk(bulk_mu_);
    std::size_t own = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (scatter[s].empty()) continue;
      if (own == n) {
        own = s;
        continue;
      }
      if (!runners_[s]) runners_[s] = std::make_unique<detail::ShardRunner>();
      runners_[s]->post([&run_shard, s] { run_shard(s); });
    }
    if (own != n) run_shard(own);
    for (auto& r : runners_) {
      if (r) r->wait();
    }
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < origin[s].size(); ++j) {
        out[origin[s][j]] = std::move(partial[s][j]);
      }
    }
  }

  /// One ordered phase: every query scatters to all shards through the
  /// async submission path (read-only, so concurrent shard reads are
  /// fine); the phase boundary waits for all gathers before the next
  /// point phase mutates anything.
  void run_ordered_phase(const std::vector<core::Op<K, V>>& ops,
                         std::size_t begin, std::size_t end,
                         std::vector<core::Result<V, K>>& out) {
    std::vector<core::OpTicket<V, K>> tickets(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      submit(ops[i], &tickets[i - begin]);
    }
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = tickets[i - begin].wait();
    }
  }

  // Shards die before the shared scheduler their front ends run on, and
  // the (idle) runners before the shards.
  detail::SchedulerHandle scheduler_;
  std::vector<std::unique_ptr<Driver<K, V>>> shards_;
  std::mutex bulk_mu_;  ///< one bulk point phase at a time
  std::vector<std::unique_ptr<detail::ShardRunner>> runners_;  ///< lazy
};

}  // namespace pwss::driver
