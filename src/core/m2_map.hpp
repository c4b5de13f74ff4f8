#pragma once
// M2 — the pipelined parallel working-set map (Section 7, Figures 2–3).
//
// Structure (Figure 2):
//
//   input -> feed (one FIFO) --cut batch--> [sort_chunk+Combine]
//         -> FIRST SLAB  S[0..m-1]   (m = ceil(log log 2p^2) + 1)
//         -> FILTER  (admission bound = one cut; one in-flight group per key)
//         -> FINAL SLAB  S[m] -> S[m+1] -> ... -> S[l]   (pipelined)
//
// The interface (an asynchronous activation) is ready iff input is pending
// and the filter holds at most one cut's worth of keys (or, while a bulk
// request waits, iff the filter has drained). Each run cuts
// M1's ceil(log n / p) p^2-sized bunches (core::cut_bunches), so a deep
// backlog moves ~p log n keys per stage run instead of p^2; with no backlog
// the cut is the single bunch that is waiting. It screens, sorts and
// combines the cut, sweeps the first slab like M1 (successful
// searches/updates finish immediately; successful deletions are tagged and
// continue; everything else continues), then — holding the neighbour-lock
// B[0] shared with S[m] and the front-lock FL[0] — processes S[m-1], passes
// the unfinished groups through the filter and hands them to S[m]. The
// submit, the parallel buffer, the feed and the cut are AsyncMap's
// FrontEnd; every cut lands in one interface-owned buffer.
//
// Final-slab segments are pipeline stages. Stage k runs under its two
// neighbour-locks; finished items are shifted to the front of S[m'] with
// m' = min(k-1, m) under the front-lock chain FL[k-m]..FL[0] (Figure 3),
// which also guards the filter and the contents of S[m]. Stage activations
// and everything they spawn run at HIGH priority; the interface runs LOW —
// the weak-priority discipline of Section 7.2.
//
// All locks are the paper's dedicated locks (Definition 37) used in
// continuation-passing style: a stage run never blocks an OS thread. Lock
// acquisition follows the global order B[0] < B[1] < ... < FL[max] < ... <
// FL[0], so the CPS chains cannot deadlock.
//
// Both slabs are one ladder (core/ladder.hpp): segs_ holds S[0..m-1] and
// stage j's S[m+j] in one vector, so the first-slab sweep repairs its
// prefixes with M1's restore_prefix_capacity and the ordered read, export
// and depth walks run over the whole vector. The interface and every stage
// own their segment buffers (the interface a BatchScratch, each stage a
// SweepScratch), single-owner through their gates.
//
// Bulk batches: an execute_batch point phase longer than one cut is one
// bulk request, not a stream of submits. The interface stops cutting,
// waits for the filter to drain, takes the full lock chain of the global
// ordered read, and runs M1's walk (walk_point_phase) over S[0..m+terminal]
// — the ops still queued in the front end first, then the request —
// before answering parked ordered queries and releasing. The walk writes each
// result straight into the caller's buffer and publishes one completion
// latch per request; tickets serve only short and ordered phases. Bulk ops
// get M1's bounds; submitted ops (wire, blocking calls) keep the pipeline's.
//
// Simplifications vs. the paper, documented in DESIGN.md:
//  * the cut and the filter bound are M1's ceil(log n / p) bunches, not
//    one p^2 bunch: the paper's p callers have at most p calls
//    outstanding, a Driver or wire server has thousands;
//  * a bulk batch sweeps the ladder under the full lock chain instead of
//    entering the pipeline: its caller waits for the slowest op anyway;
//  * segments/locks are preallocated up to kMaxStages (capacities are
//    doubly exponential, so 12 final-slab stages cover any feasible n);
//    empty terminal segments are kept instead of removed (step 5);
//  * batch work inside a stage runs through the shared scheduler rather
//    than dedicated processors — exactly the Section 8 adaptation.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/async_map.hpp"
#include "core/backend.hpp"
#include "core/group.hpp"
#include "core/ladder.hpp"
#include "core/ops.hpp"
#include "core/segment.hpp"
#include "sched/scheduler.hpp"
#include "sync/async_gate.hpp"
#include "sync/dedicated_lock.hpp"
#include "util/sites.hpp"
#include "util/validate.hpp"

namespace pwss::core {

template <typename K, typename V>
class M2Map : public MapCalls<M2Map<K, V>, K, V> {
 public:
  /// p defaults to the scheduler's worker count. The bunch size is p^2;
  /// the cut and the filter bound are ceil(log2 n / p) bunches; the first
  /// slab has m = ceil(log2 log2 (2 p^2)) + 1 segments.
  explicit M2Map(sched::Scheduler& scheduler, unsigned p = 0)
      : scheduler_(scheduler),
        p_(p ? p : std::max(1u, scheduler.worker_count())),
        bunch_(static_cast<std::size_t>(p_) * p_),
        m_(first_slab_segments_for(p_)),
        max_cut_bunches_(std::max<std::size_t>(
            1, static_cast<std::size_t>(segment_capacity(m_)) / bunch_)),
        pools_(&scheduler),
        filter_pool_(&scheduler),
        front_(bunch_),
        stages_(kMaxStages) {
    // All segments (first slab + pipeline stages) share this instance's
    // pool domain: stage k's extractions recycle exactly the nodes the
    // S[m'] front insertions re-draw, and the per-worker shards keep the
    // concurrently running stages from contending on one lock.
    segs_.reserve(m_ + kMaxStages);
    for (std::size_t k = 0; k < m_ + kMaxStages; ++k) {
      segs_.emplace_back(&pools_);
    }
    for (std::size_t j = 0; j <= kMaxStages; ++j) {
      // B[j]: key 0 = left user (interface for j==0, stage j-1 otherwise),
      // key 1 = stage j, key 2 (j >= 1) = the interface's global ordered
      // read (j == 0 reuses the interface's own key 0).
      nlocks_.push_back(std::make_unique<sync::DedicatedLock>(j == 0 ? 2 : 3));
    }
    for (std::size_t j = 0; j < kMaxStages; ++j) {
      // FL[j]: key 0 = adjacent stage j, key 1 = pass-through holder of
      // FL[j+1], key 2 = the interface (FL[0]'s boundary sweep; every
      // FL[j]'s global ordered read).
      flocks_.push_back(std::make_unique<sync::DedicatedLock>(3));
    }
  }

  ~M2Map() { quiesce(); }
  M2Map(const M2Map&) = delete;
  M2Map& operator=(const M2Map&) = delete;

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }
  unsigned p() const noexcept { return p_; }
  std::size_t first_slab_width() const noexcept { return m_; }
  std::size_t filter_occupancy() const noexcept {
    return filter_size_.load(std::memory_order_acquire);
  }

  /// Asynchronous submission: the ticket is fulfilled when the operation
  /// finishes (possibly deep in the pipeline; ordered kinds when the
  /// interface's next global ordered read completes). Thread-safe. Always
  /// delivers a terminal result: a buffer rejection (injected fault or a
  /// future bounded-capacity policy) completes the ticket kOverloaded
  /// right here on the submitting thread.
  void submit(Op<K, V> op, OpTicket<V, K>* ticket) {
    if (front_.submit(std::move(op), ticket)) activate_interface();
  }
  using MapCalls<M2Map, K, V>::submit;

  /// Runs the whole batch and waits for every result, written into a
  /// caller-owned buffer (cleared, then sized to the batch) so a steady
  /// bulk caller reuses the results capacity. Per-key program order is
  /// preserved within the batch, and the batch is sliced into
  /// point/ordered phases (each awaited before the next begins) so every
  /// ordered query observes exactly the point operations that precede it
  /// in submission order — fulfillment happens under the pipeline's locks
  /// before release, so awaited results are physically applied before the
  /// following phase's global read. A point phase longer than one cut goes
  /// to the interface whole, as a bulk request (see run_bulk): its results
  /// are written straight into the buffer and the caller waits once, on
  /// the request's latch. Shorter and ordered phases submit op by op, on
  /// tickets from an instance arena reused across batches by the steady
  /// single caller; concurrent callers fall back to a call-local block on
  /// try-lock contention, so the call remains safe from concurrent
  /// threads.
  void execute_batch(std::span<const Op<K, V>> ops,
                     std::vector<Result<V, K>>& results) {
    results.clear();
    results.resize(ops.size());
    std::unique_lock<std::mutex> arena_lk(tickets_mu_, std::try_to_lock);
    TicketBlock local;
    TicketBlock& block = arena_lk.owns_lock() ? tickets_ : local;
    // Every phase is awaited before the next is submitted; the phase
    // boundaries are what guarantees ordered queries observe every
    // preceding point op.
    auto phase = [&](std::size_t i, std::size_t j) {
      if (!is_ordered(ops[i].type) && j - i > cut_bunches() * bunch_) {
        OpTicket<V, K> done;
        front_.claim();
        {
          std::lock_guard<std::mutex> lk(bulk_mu_);
          bulk_.push_back(
              BulkRequest{ops.subspan(i, j - i), &results[i], &done});
          bulk_pending_.store(true, std::memory_order_release);
        }
        activate_interface();
        done.wait();
        return;
      }
      OpTicket<V, K>* tickets = block.ensure(j - i);
      for (std::size_t k = i; k < j; ++k) {
        tickets[k - i].reset();
        submit(ops[k], &tickets[k - i]);
      }
      for (std::size_t k = i; k < j; ++k) {
        results[k] = tickets[k - i].wait();
      }
    };
    for_each_phase(ops, phase, phase);
  }
  using MapCalls<M2Map, K, V>::execute_batch;

  /// Blocks until every submitted operation has completed and the pipeline
  /// is idle.
  void quiesce() {
    while (front_.in_flight() != 0 || pipeline_busy()) {
      std::this_thread::yield();
    }
  }

  /// Sorted drain of the full contents for the checkpoint writer
  /// (store/snapshot.hpp): appends every (key, value) in ascending key
  /// order. Callable only when quiescent (every segment is then at rest);
  /// recency stamps are not exported — a restored map starts with a fresh
  /// working set.
  void export_entries(std::vector<std::pair<K, V>>& out) {
    quiesce();
    out.reserve(out.size() + size());
    export_ladder<K, V>(segs_, out);
  }

  /// Deep structural check with a precise failure description; callable
  /// only when quiescent (a busy pipeline is itself reported as the
  /// failure). M2's balance invariants (Lemma 16) are lenient: prefixes
  /// may sit up to two cuts below capacity (the paper's 2p^2, with a cut
  /// of one p^2 bunch), so no fullness rule is checked. Checks the
  /// drained filter (both the counter and its tree/pool), every segment's
  /// own invariants, Lemma 16's lenient final-slab bound (S[k] holds at
  /// most 3·2^(2^k)), the size accounting, and the shared pool domain (one
  /// node per item sitting in a tree-represented segment). Empty string =
  /// OK.
  std::string validate() {
    util::Validator v("m2: ");
    if (!v.require(!pipeline_busy(),
                   "pipeline still busy: validation is quiescent-only")) {
      return std::move(v).take();
    }
    if (!v.require(filter_size_.load() == 0,
                   "filter not drained at quiescence: ", filter_size_.load(),
                   " in-flight groups still admitted")) {
      return std::move(v).take();
    }
    auto lemma16 = [&](std::size_t k) {
      const std::uint64_t bound = 3 * segment_capacity(k);
      return v.require(k < m_ || segs_[k].size() <= bound, "segment[", k,
                       "] holds ", segs_[k].size(),
                       " items, over its Lemma 16 bound 3*2^(2^", k, ") = ",
                       bound);
    };
    if (!validate_ladder<K, V>(v, segs_, size_.load(), &pools_, lemma16)) {
      return std::move(v).take();
    }
    if (!v.require(filter_.size() == 0,
                   "filter tree not empty at quiescence: ", filter_.size(),
                   " entries remain")) {
      return std::move(v).take();
    }
    if (!v.require(filter_pool_.live_nodes() == 0,
                   "filter-pool accounting broken: ",
                   filter_pool_.live_nodes(),
                   " live nodes but the filter is drained")) {
      return std::move(v).take();
    }
    v.absorb(filter_pool_.validate(), "filter-pool: ");
    return std::move(v).take();
  }

  /// Segment index (global numbering S[0..l]) holding `key`; quiescent only.
  std::optional<std::size_t> segment_of(const K& key) {
    return depth_of<K, V>(segs_, key);
  }

  /// The whole ladder S[0..m+kMaxStages-1], empty terminal segments
  /// included, for inspection; quiescent only.
  const std::vector<Segment<K, V>>& segments() const { return segs_; }

 private:
  static constexpr std::size_t kMaxStages = 12;

  using Ticket = OpTicket<V, K>*;
  using POp = PendingOp<K, V, Ticket>;
  using Group = GroupOp<K, V, Ticket>;
  using Item = typename Segment<K, V>::Item;
  using Lock = sync::DedicatedLock;

  static std::size_t first_slab_segments_for(unsigned p) {
    const double cap = 2.0 * static_cast<double>(p) * static_cast<double>(p);
    const double inner = std::max(1.0, std::log2(cap));
    return static_cast<std::size_t>(std::ceil(std::log2(inner))) + 1;
  }

  struct Stage {
    std::mutex inbox_mu;
    std::vector<std::vector<Group>> inbox;  // sorted batches, merged on flush
    sync::AsyncGate gate;
    /// Body of the stage's in-flight front-lock chain, parked here so the
    /// per-hop lock continuations capture only (this, indices) and stay on
    /// the Closure SBO path instead of boxing a 72-byte Closure per hop.
    /// Safe as a single slot: the stage gate admits one run at a time and
    /// the body is consumed before the run can end.
    sched::Closure front_body;
    /// The stage run's segment buffers; the gate makes them single-owner.
    SweepScratch<K, V> scratch;
  };

  struct FilterEntry {
    std::vector<POp> pending;  // ops that arrived while the key was in flight
  };

  /// A point phase execute_batch hands to the interface whole: its ops,
  /// its slice of the caller's results and one completion latch, all on
  /// the caller's side until the latch is published.
  struct BulkRequest {
    std::span<const Op<K, V>> ops;
    Result<V, K>* out;
    OpTicket<V, K>* done;
  };

  /// Fixed-capacity block of reusable tickets for short and ordered phases.
  /// OpTicket holds an atomic, so it is neither movable nor
  /// vector-growable; the block reallocates wholesale when a larger phase
  /// arrives and otherwise reuses its slots round after round.
  struct TicketBlock {
    std::unique_ptr<OpTicket<V, K>[]> slots;
    std::size_t cap = 0;
    OpTicket<V, K>* ensure(std::size_t n) {
      if (n > cap) {
        slots = std::make_unique<OpTicket<V, K>[]>(n);
        cap = n;
      }
      return slots.get();
    }
  };

  // ---- activation plumbing -------------------------------------------------

  void activate_interface() {
    if (interface_gate_.begin()) {
      scheduler_.spawn([this] { interface_tick(); }, sched::Priority::kLow);
    }
  }

  void activate_stage(std::size_t j) {
    if (stages_[j].gate.begin()) {
      scheduler_.spawn([this, j] { stage_tick(j); }, sched::Priority::kHigh);
    }
  }

  bool pipeline_busy() {
    if (interface_gate_.active()) return true;
    for (auto& st : stages_) {
      if (st.gate.active()) return true;
    }
    return false;
  }

  sync::DedicatedLock::ResumeSink hi_sink() {
    return scheduler_.resume_sink(sched::Priority::kHigh);
  }
  sync::DedicatedLock::ResumeSink lo_sink() {
    return scheduler_.resume_sink(sched::Priority::kLow);
  }

  // ---- the interface (Section 7.1 steps 1-6) --------------------------------

  /// Bunches per cut: M1's rule over the current size, capped at S[m]'s
  /// capacity. The filter admits a new cut while it holds at most one
  /// cut's worth of keys, so up to two cuts can finish into S[m] before
  /// stage m+1 next repairs it; the cap keeps S[m] within Lemma 16's
  /// 3·2^(2^m). Only p = 1 (S[m] = S[1], capacity 4) ever reaches it.
  std::size_t cut_bunches() const {
    return std::min(core::cut_bunches(size(), p_), max_cut_bunches_);
  }
  bool filter_has_room() const {
    return filter_size_.load(std::memory_order_acquire) <=
           cut_bunches() * bunch_;
  }

  bool filter_drained() const {
    return filter_size_.load(std::memory_order_acquire) == 0;
  }

  /// While a bulk request waits the interface stops cutting, until the
  /// filter drains (step 4e's wakeup re-activates it).
  bool interface_ready() {
    if (bulk_pending_.load(std::memory_order_acquire)) return filter_drained();
    return front_.pending() && filter_has_room();
  }

  void interface_tick() {
    if (!interface_ready()) {
      if (interface_gate_.finish()) {
        scheduler_.spawn([this] { interface_tick(); }, sched::Priority::kLow);
      }
      return;
    }

    if (bulk_pending_.load(std::memory_order_acquire) && filter_drained()) {
      // No group is in flight, so every earlier op is done or still waits
      // in the front end's buffers, which run_bulk walks first.
      PWSS_SCHED_POINT("m2.bulk.drained");
      bulk_tick_ = true;
      acquire_chain_from(0);
      return;
    }

    // Step 1: flush the parallel buffer into the feed; cut ceil(log n / p)
    // bunches as the batch.
    std::vector<POp>& batch = cut_batch_;
    front_.cut(cut_bunches(), batch);
    assert(ordered_batch_.empty());
    admit(batch, [](Ticket t) { return t; }, emit_fn());

    // Step 2: stable sort + combine.
    sort_chunk(batch, cut_sort_);
    std::vector<Group> groups;
    coalesce_sorted_into(batch, groups);

    // Step 3 (part 1): sweep S[0..m-2] — exclusively owned by the interface.
    first_slab_sweep(groups);

    // Step 3 (part 2) to step 5: S[m-1], the filter, and S[m]'s buffer are
    // shared with the final slab, guarded by B[0] and FL[0]. The groups
    // move through the continuation captures (Closure allows move-only
    // captures); a parked continuation carries them past this frame.
    auto boundary_cont = [this, groups = std::move(groups)]() mutable {
      auto front_cont = [this, groups = std::move(groups)]() mutable {
        sweep_first_slab(m_ - 1, groups);
        filter_and_feed_stage0(std::move(groups));
        flocks_[0]->release(lo_sink());
        nlocks_[0]->release(lo_sink());
        if (!ordered_batch_.empty()) {
          acquire_chain_from(0);
        } else {
          interface_epilogue();
        }
      };
      static_assert(sched::Closure::fits_inline<decltype(front_cont)>(),
                    "interface continuations must stay on the SBO path");
      flocks_[0]->acquire(/*key=*/2, std::move(front_cont), lo_sink());
    };
    static_assert(sched::Closure::fits_inline<decltype(boundary_cont)>(),
                  "interface continuations must stay on the SBO path");
    nlocks_[0]->acquire(/*key=*/0, std::move(boundary_cont), lo_sink());
  }

  /// Step 6: reactivate while ready; otherwise release ownership (the
  /// pending mark catches concurrent submissions/stage wakeups).
  void interface_epilogue() {
    if (interface_ready() || interface_gate_.finish()) {
      scheduler_.spawn([this] { interface_tick(); }, sched::Priority::kLow);
    }
  }

  /// The batch-cut boundary, over a cut or one bulk chunk: screen_cut
  /// completes the cancelled and expired ops, or on an injected pool
  /// exhaustion every op, through `deliver(target, result)`, with every
  /// segment, the filter and the stage inboxes untouched.
  /// `ticket_of(target)` is null for a bulk request's ops: no ticket to
  /// cancel, never ordered.
  ///
  /// Protocol v2: ordered kinds need one consistent view of EVERY segment,
  /// which the per-key pipeline cannot give them, so they park for the
  /// global ordered read that ends this tick; within a concurrent bunch
  /// "point ops first, ordered reads second" is a legal linearization (no
  /// submitter of a parked op has a result yet). The interface gate makes
  /// the parked batch single-owner.
  template <typename Target, typename TicketOf, typename Deliver>
  void admit(std::vector<PendingOp<K, V, Target>>& ops, TicketOf&& ticket_of,
             Deliver&& deliver) {
    screen_cut(ops, ticket_of, deliver,
               [] { return PWSS_FAULT_POINT("m2.batch.pool_reserve"); });
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      auto& op = ops[i];
      if (is_ordered(op.type)) {
        assert(ticket_of(op.target) && "bulk requests are point phases");
        ordered_batch_.push_back(POp{op.type, std::move(op.key),
                                     std::move(op.value), std::move(op.key2),
                                     ticket_of(op.target), op.deadline_ns});
      } else if (w++ != i) {
        ops[w - 1] = std::move(op);
      }
    }
    ops.resize(w);
  }

  // ---- the full lock chain: global ordered read, bulk tick ------------------
  // kPredecessor/kSuccessor/kRangeCount are answered against one
  // consistent snapshot of every segment, and a bulk tick walks them all.
  // The interface (single-owner via its gate) CPS-acquires the FULL lock
  // chain in the established global order B[0] < B[1] < ... < B[kMaxStages]
  // < FL[kMaxStages-1] < ... < FL[0]: holding every neighbour-lock stops
  // all stage runs, and FL[0] covers the deep-stage front sections and the
  // filter, so no stage touches a segment while the chain is held. Because
  // the acquisition order matches the stages' own order, the chain cannot
  // deadlock — any stage mid-run simply finishes and releases. Groups
  // still sitting in the filter/stage inboxes have not emitted results, so
  // linearizing them after an ordered read is legal; a bulk tick waits for
  // the filter to drain, so there are none. The parked work rides members
  // (not the hop captures), keeping every hop on the Closure SBO path.

  /// Chain position i covers B[i] for i <= kMaxStages, then
  /// FL[2*kMaxStages - i] for larger i (descending FL order).
  void acquire_chain_from(std::size_t i) {
    constexpr std::size_t kChain = 2 * kMaxStages + 1;
    if (i == kChain) {
      chain_held();
      return;
    }
    Lock& lk = i <= kMaxStages ? *nlocks_[i] : *flocks_[2 * kMaxStages - i];
    // B[0] / FL[0] use the interface's own keys (0 / 2); every other lock
    // has a dedicated reader key 2.
    const std::size_t key = i == 0 ? 0 : 2;
    auto cont = [this, i] { acquire_chain_from(i + 1); };
    static_assert(sched::Closure::fits_inline<decltype(cont)>(),
                  "lock-chain hops must stay on the closure SBO path");
    lk.acquire(key, std::move(cont), lo_sink());
  }

  /// All locks held: a bulk tick walks the ladder first (run_bulk); then
  /// the parked queries are answered (identical (type, key, key2) tuples
  /// combine — computed once, fanned out to every ticket), the chain is
  /// released and the interface loop resumes.
  void chain_held() {
    if (bulk_tick_) {
      bulk_tick_ = false;
      run_bulk();
    }
    auto emit = emit_fn();
    answer_ordered<K, V>(segs_, std::span<const POp>(ordered_batch_),
                         iface_scratch_.ordered, /*scheduler=*/nullptr,
                         [&](std::size_t i, const Result<V, K>& r) {
                           emit(ordered_batch_[i].target, Result<V, K>(r));
                         });
    ordered_batch_.clear();
    for (std::size_t j = 0; j < kMaxStages; ++j) flocks_[j]->release(lo_sink());
    for (std::size_t j = 0; j <= kMaxStages; ++j) nlocks_[j]->release(lo_sink());
    interface_epilogue();
  }

  // ---- the bulk tick (DESIGN.md section 8, simplification 7) ----------------

  /// With the filter drained and the full chain held, M1's ladder walk
  /// runs over S[0..m+terminal]: first every op still waiting in the front
  /// end's buffers (they arrived earlier), then each queued bulk request in
  /// order, its results written straight into the caller's buffer. The
  /// requests are taken before the buffers are flushed, so an op its caller
  /// submitted before execute_batch is in that flush. Bulk ops get M1's
  /// bounds; the walk leaves M1's prefix rule, which implies Lemma 16.
  /// Each latch is published once size_ is settled.
  void run_bulk() {
    {
      std::lock_guard<std::mutex> lk(bulk_mu_);
      bulk_batch_.swap(bulk_);
      bulk_pending_.store(false, std::memory_order_release);
    }
    std::vector<POp>& early = cut_batch_;
    front_.cut(~std::size_t{0}, early);  // everything queued
    std::size_t live = m_ + terminal_.load(std::memory_order_acquire) + 1;
    auto emit = emit_fn();
    live = bulk_walk(
        live, early.size(),
        [&](std::size_t i) -> const POp& { return early[i]; },
        [&](std::size_t i) { return early[i].target; },
        [&](std::size_t i, Result<V, K>&& r) {
          emit(early[i].target, std::move(r));
        });
    for (const BulkRequest& req : bulk_batch_) {
      live = bulk_walk(
          live, req.ops.size(),
          [&](std::size_t i) -> const Op<K, V>& { return req.ops[i]; },
          [](std::size_t) -> Ticket { return nullptr; },
          [&](std::size_t i, Result<V, K>&& r) { req.out[i] = std::move(r); });
    }
    assert(live <= m_ + kMaxStages && "ladder deeper than kMaxStages");
    terminal_.store(std::max(live, m_ + 1) - m_ - 1, std::memory_order_release);
    std::size_t total = 0;
    for (const auto& seg : segs_) total += seg.size();
    size_.store(total, std::memory_order_release);
    for (const BulkRequest& req : bulk_batch_) {
      PWSS_SCHED_POINT("m2.bulk.delivered");
      // Debit before publish: the caller frees the latch once it wakes.
      front_.debit(1);
      req.done->fulfill(Result<V, K>{});
    }
    bulk_batch_.clear();
  }

  /// One source of n ops (`at(i)`, results to `deliver(i, r)`; `ticket_of`
  /// as in admit) through walk_point_phase, each chunk passing admit()
  /// first. Returns the new live segment count.
  template <typename At, typename TicketOf, typename Deliver>
  std::size_t bulk_walk(std::size_t live, std::size_t n, At&& at,
                        TicketOf&& ticket_of, Deliver&& deliver) {
    using Tagged = PendingOp<K, V, std::size_t>;
    auto fill = [&](std::size_t b, std::size_t e, std::vector<Tagged>& tagged) {
      for (std::size_t i = b; i < e; ++i) {
        const auto& op = at(i);
        tagged.push_back(
            {op.type, op.key, op.value, op.key2, i, op.deadline_ns});
      }
      admit(tagged, ticket_of, deliver);
    };
    return walk_point_phase<K, V>(segs_, live, &pools_, n, fill,
                                  iface_scratch_, par_ctx(), deliver,
                                  /*probes=*/nullptr);
  }

  /// M1-style sweep of S[0..m-2]: resolves groups that find their item,
  /// leaving the unfinished ones in `pending`.
  void first_slab_sweep(std::vector<Group>& pending) {
    for (std::size_t k = 0; k + 1 < m_ && !pending.empty(); ++k) {
      // The sweep order is static, so request the next segment's entry
      // lines while this one is being processed (the interface thread
      // holds every first-slab lock here, so touching S[k+1] is safe).
      if (k + 2 < m_) segs_[k + 1].prefetch();
      sweep_first_slab(k, pending);
    }
  }

  /// Sweeps first-slab segment S[k], then restores the first-slab prefixes
  /// S[0..i-1] for boundaries i = k..1 — never S[m-1]'s boundary with
  /// S[m]: holes accumulate in S[m-1] and are repaired by stage 0 (Lemma 16
  /// invariant 2). Successful searches/updates finish immediately (shifted
  /// one segment forward) and leave `pending`; net deletions are tagged
  /// and keep their place among the groups that missed S[k].
  void sweep_first_slab(std::size_t k, std::vector<Group>& pending) {
    auto resolve = [&](Group& g, V value) {
      std::optional<V> fin =
          resolve_ops<K, V, Ticket>(std::move(value), g.ops, emit_fn());
      if (!fin) {
        // Tagged successful deletion flows to the terminal segment.
        size_.fetch_sub(1, std::memory_order_release);
        g.ops.clear();  // results already emitted
        g.deletion_succeeded = true;
      }
      return fin;
    };
    // Hits link in key order, by seq, as the final slab's finish_group
    // links its arrivals.
    sweep_segment<K, V>(
        segs_, k, pending, /*keep_deletions=*/true, iface_scratch_, par_ctx(),
        [](const Group& g) { return std::uint64_t{g.seq}; }, resolve);
    restore_prefix_capacity<K, V>(std::span(segs_).first(m_), k,
                                  iface_scratch_, par_ctx());
  }

  /// Step 4: pass unfinished groups through the filter; keys already in
  /// flight get their ops appended to the filter entry, fresh keys enter
  /// the filter and S[m]'s inbox. Caller holds FL[0].
  void filter_and_feed_stage0(std::vector<Group> groups) {
    if (groups.empty()) return;
    std::vector<Group> admitted;
    for (auto& g : groups) {
      if (FilterEntry* entry = filter_.find(g.key)) {
        // In flight: combine into the existing entry (and account for a
        // tagged deletion's already-emitted results — only the ops matter).
        for (auto& op : g.ops) entry->pending.push_back(std::move(op));
      } else {
        filter_.insert(g.key, FilterEntry{});
        filter_size_.fetch_add(1, std::memory_order_release);
        admitted.push_back(std::move(g));
      }
    }
    if (!admitted.empty()) {
      {
        std::lock_guard<std::mutex> lk(stages_[0].inbox_mu);
        stages_[0].inbox.push_back(std::move(admitted));
      }
      activate_stage(0);
    }
  }

  // ---- final-slab stages (Section 7.1 segment runs) --------------------------

  bool stage_ready(std::size_t j) {
    std::lock_guard<std::mutex> lk(stages_[j].inbox_mu);
    return !stages_[j].inbox.empty();
  }

  void stage_tick(std::size_t j) {
    if (!stage_ready(j)) {
      if (stages_[j].gate.finish()) {
        scheduler_.spawn([this, j] { stage_tick(j); }, sched::Priority::kHigh);
      }
      return;
    }
    // Acquire neighbour-locks left then right (global order B[j] < B[j+1]).
    nlocks_[j]->acquire(
        /*key=*/1,
        [this, j] {
          nlocks_[j + 1]->acquire(
              /*key=*/0,
              [this, j] {
                if (j == 0) {
                  // Stage m holds FL[0] for its whole run (Figure 3: FL[0]
                  // guards the filter and the contents of S[m]).
                  flocks_[0]->acquire(
                      /*key=*/0, [this, j] { stage_body(j); }, hi_sink());
                } else {
                  stage_body(j);
                }
              },
              hi_sink());
        },
        hi_sink());
  }

  void stage_body(std::size_t j) {
    Stage& st = stages_[j];
    auto& sc = st.scratch;

    // Step 4: flush the inbox (batches are key-sorted; merge them).
    std::vector<Group> batch = flush_inbox(st);

    // 4a: search and detach the accessed items present in S[k] (into the
    // stage's found buffer, which front_section consumes).
    sc.keys.clear();
    for (const auto& g : batch) sc.keys.push_back(g.key);
    segs_[m_ + j].extract_by_keys(sc.keys, sc.found, par_ctx(), &sc.seg);

    // Step 3 and 4b-4f: the front-locked section (filter + S[m'] access).
    // Stage 0 already holds FL[0]; deeper stages acquire FL[j]..FL[1]
    // descending then FL[0]. The batch moves through the continuation
    // capture; a parked continuation carries it past this frame.
    auto body = [this, j, batch = std::move(batch)]() mutable {
      front_section(j, std::move(batch));
    };
    static_assert(sched::Closure::fits_inline<decltype(body)>(),
                  "stage body must stay on the closure SBO path");
    acquire_front_chain(j, std::move(body));
  }

  /// Acquires FL[j]..FL[0] (descending) for stage j > 0; stage 0 holds
  /// FL[0] already. Then runs `body`. The body is parked in the stage's
  /// front_body slot, NOT captured per hop — wrapping the 72-byte Closure
  /// at every chain level used to heap-allocate once per hop.
  void acquire_front_chain(std::size_t j, sched::Closure body) {
    if (j == 0) {
      body();
      return;
    }
    assert(!stages_[j].front_body && "front chain already in flight");
    stages_[j].front_body = std::move(body);
    acquire_front_from(j, j);
  }

  void acquire_front_from(std::size_t stage_j, std::size_t lock_i) {
    const std::size_t key = lock_i == stage_j ? 0 : 1;
    auto cont = [this, stage_j, lock_i] {
      if (lock_i == 0) {
        sched::Closure body = std::move(stages_[stage_j].front_body);
        body();
      } else {
        acquire_front_from(stage_j, lock_i - 1);
      }
    };
    static_assert(sched::Closure::fits_inline<decltype(cont)>(),
                  "front-chain hops must stay on the closure SBO path");
    flocks_[lock_i]->acquire(key, std::move(cont), hi_sink());
  }

  void release_front_chain(std::size_t j) {
    // Paper step 4f: release FL[0] up to FL[j] in that order. Stage 0 keeps
    // FL[0] until the end of its run.
    if (j == 0) return;
    for (std::size_t i = 0; i <= j; ++i) flocks_[i]->release(hi_sink());
  }

  void front_section(std::size_t j, std::vector<Group> batch) {
    const std::size_t k = m_ + j;  // global segment index
    // Step 3: grow the terminal segment if S[k-1], S[k] exceed capacity
    // (S[k]'s size before 4a's extraction). It runs under the front chain
    // because stage m+1's left neighbour is S[m], whose contents FL[0]
    // guards: deeper stages insert there concurrently.
    auto& sc = stages_[j].scratch;
    std::vector<Item>& found = sc.found;
    if (terminal_.load(std::memory_order_acquire) == j &&
        j + 1 < kMaxStages) {
      if (segs_[k - 1].size() + segs_[k].size() + found.size() >
          segment_capacity(k - 1) + segment_capacity(k)) {
        terminal_.store(j + 1, std::memory_order_release);
      }
    }

    const bool is_terminal = terminal_.load(std::memory_order_acquire) == j;
    const std::size_t mprime = std::min(k - 1, m_);  // S[m'] destination

    std::vector<Group> unfinished;
    std::vector<Item>& to_front = sc.promote;  // items for the front of S[m']
    to_front.clear();
    std::size_t deletions_in_batch = 0;

    std::size_t fi = 0;
    for (auto& g : batch) {
      const bool found_here =
          fi < found.size() && found[fi].key == g.key;
      std::optional<V> state;
      if (found_here) {
        state = std::move(found[fi++].value);
      }
      if (g.deletion_succeeded) {
        assert(!found_here);
        ++deletions_in_batch;
        if (!is_terminal) {
          unfinished.push_back(std::move(g));
          continue;
        }
        // Terminal: finish the tagged deletion — drain the filter entry.
        finish_group(g, std::nullopt, /*counted=*/false, to_front);
        continue;
      }
      if (found_here) {
        std::optional<V> fin =
            resolve_ops<K, V, Ticket>(std::move(state), g.ops, emit_fn());
        if (fin) {
          // R': searched/updated — finishes here; item goes to front of
          // S[m'], and any ops accumulated in the filter resolve now.
          finish_group(g, std::move(fin), /*counted=*/true, to_front);
        } else {
          // Became a successful deletion here.
          size_.fetch_sub(1, std::memory_order_release);
          ++deletions_in_batch;
          g.ops.clear();
          g.deletion_succeeded = true;
          if (is_terminal) {
            finish_group(g, std::nullopt, /*counted=*/false, to_front);
          } else {
            unfinished.push_back(std::move(g));
          }
        }
        continue;
      }
      // Not found here.
      if (is_terminal) {
        // Resolve against an absent item; insertions materialize at the
        // front of S[m'].
        finish_group(g,
                     resolve_ops<K, V, Ticket>(std::nullopt, g.ops, emit_fn()),
                     /*counted=*/false, to_front);
      } else {
        unfinished.push_back(std::move(g));
      }
    }

    // 4d: insert the finished items at the front of S[m'] (guarded: S[m-1]
    // by B[0] when j==0; S[m] by FL[0] otherwise).
    if (!to_front.empty()) {
      segs_[mprime].insert_front_batch(std::span(to_front), par_ctx(),
                                       &sc.seg);
    }

    // 4e: wake the interface when the filter has room again.
    if (filter_has_room()) activate_interface();

    // 4f, except for stage m+1: its 4g-4h transfers touch S[m], so it
    // keeps the front chain until after_front has made them.
    if (j != 1) release_front_chain(j);
    after_front(j, k, std::move(unfinished), deletions_in_batch);
  }

  /// Finishes a group whose resolved state is `state` (`counted`: the
  /// item is still counted in size_): drains the filter entry (ops that
  /// arrived mid-flight) against that state, settles size_ when the drain
  /// leaves the item present or absent contrary to `counted` (a
  /// filter-accumulated erase or insert), and queues the surviving item
  /// for the front of S[m'].
  void finish_group(Group& g, std::optional<V> state, bool counted,
                    std::vector<Item>& to_front) {
    state = drain_filter_entry(g.key, std::move(state));
    if (state && !counted) size_.fetch_add(1, std::memory_order_release);
    if (!state && counted) size_.fetch_sub(1, std::memory_order_release);
    if (state) to_front.push_back(Item{g.key, std::move(*state), g.seq});
  }

  /// Removes `key` from the filter and resolves its accumulated ops
  /// against `state`. Caller holds FL[0].
  std::optional<V> drain_filter_entry(const K& key, std::optional<V> state) {
    std::optional<FilterEntry> entry = filter_.erase(key);
    if (!entry) return state;
    filter_size_.fetch_sub(1, std::memory_order_release);
    if (entry->pending.empty()) return state;
    return resolve_ops<K, V, Ticket>(std::move(state), entry->pending,
                                     emit_fn());
  }

  /// Steps 4g-4i + 7: capacity repair with the left neighbour, handoff to
  /// stage j+1, lock release, re-activation.
  void after_front(std::size_t j, std::size_t k, std::vector<Group> unfinished,
                   std::size_t deletions_in_batch) {
    Stage& st = stages_[j];
    auto& sc = st.scratch;
    Segment<K, V>& left = segs_[k - 1];
    Segment<K, V>& seg = segs_[k];
    const std::size_t left_cap =
        static_cast<std::size_t>(segment_capacity(k - 1));

    // 4g: rearward transfer — left over-full.
    if (left.size() > left_cap) {
      left.extract_least_recent(left.size() - left_cap, sc.moved, par_ctx(),
                                &sc.seg);
      seg.insert_front_batch(std::span(sc.moved), par_ctx(), &sc.seg);
    }
    // 4h: frontward transfer — left under-full, bounded by successful
    // deletions observed in this batch.
    if (left.size() < left_cap) {
      const std::size_t holes = left_cap - left.size();
      const std::size_t move_n =
          std::min({holes, seg.size(), deletions_in_batch});
      if (move_n > 0) {
        seg.extract_most_recent(move_n, sc.moved, par_ctx(), &sc.seg);
        left.insert_back_batch(std::span(sc.moved), par_ctx(), &sc.seg);
      }
    }
    if (j == 1) release_front_chain(j);

    // 4i: pass the unfinished operations to S[k+1].
    if (!unfinished.empty()) {
      assert(j + 1 < kMaxStages && "pipeline deeper than kMaxStages");
      if (terminal_.load(std::memory_order_acquire) == j) {
        terminal_.store(j + 1, std::memory_order_release);
      }
      {
        std::lock_guard<std::mutex> lk(stages_[j + 1].inbox_mu);
        stages_[j + 1].inbox.push_back(std::move(unfinished));
      }
      activate_stage(j + 1);
    }

    // Release locks (stage 0 also surrenders FL[0]).
    if (j == 0) flocks_[0]->release(hi_sink());
    nlocks_[j + 1]->release(hi_sink());
    nlocks_[j]->release(hi_sink());

    // Step 7: reactivate while work remains.
    if (stage_ready(j) || st.gate.finish()) {
      scheduler_.spawn([this, j] { stage_tick(j); }, sched::Priority::kHigh);
    }
  }

  /// Merges the inbox's key-sorted batches into one key-sorted batch.
  /// Distinct batches never share a key (the filter admits one in-flight
  /// group per key).
  std::vector<Group> flush_inbox(Stage& st) {
    std::vector<std::vector<Group>> batches;
    {
      std::lock_guard<std::mutex> lk(st.inbox_mu);
      batches.swap(st.inbox);
    }
    std::vector<Group> merged;
    for (auto& b : batches) {
      if (merged.empty()) {
        merged = std::move(b);
        continue;
      }
      std::vector<Group> next;
      next.reserve(merged.size() + b.size());
      std::merge(std::make_move_iterator(merged.begin()),
                 std::make_move_iterator(merged.end()),
                 std::make_move_iterator(b.begin()),
                 std::make_move_iterator(b.end()), std::back_inserter(next),
                 [](const Group& a, const Group& c) { return a.key < c.key; });
      merged = std::move(next);
    }
    return merged;
  }

  auto emit_fn() {
    return [this](Ticket t, Result<V, K>&& r) {
      t->fulfill(std::move(r));
      front_.debit(1);
    };
  }

  tree::ParCtx par_ctx() { return tree::ParCtx{&scheduler_, 128}; }

  // ---- members ---------------------------------------------------------------

  sched::Scheduler& scheduler_;
  unsigned p_;
  std::size_t bunch_;
  std::size_t m_;
  std::size_t max_cut_bunches_;

  // Pool domains first: every segment/tree below dies before its pool.
  SegmentPools<K, V> pools_;
  typename tree::JTree<K, FilterEntry>::Pool filter_pool_;

  FrontEnd<K, V> front_;
  sync::AsyncGate interface_gate_;

  // The current cut (a tick's batch or a bulk tick's early ops), parked
  // ordered queries of the current tick, the bulk requests a bulk tick
  // serves, the interface's walk arena (the first-slab sweep uses its
  // SweepScratch half) and its cut sort's buffers — owned by the
  // interface (single-owner via its gate), so the lock-chain hop closures
  // stay small and every buffer reuses capacity across ticks.
  std::vector<POp> cut_batch_;
  std::vector<POp> ordered_batch_;
  std::vector<BulkRequest> bulk_batch_;
  bool bulk_tick_ = false;
  BatchScratch<K, V> iface_scratch_;
  ChunkSortScratch<K, V, Ticket> cut_sort_;

  // Bulk requests queued by execute_batch; bulk_pending_ mirrors
  // !bulk_.empty() for the interface's readiness check.
  std::mutex bulk_mu_;
  std::vector<BulkRequest> bulk_;
  std::atomic<bool> bulk_pending_{false};

  // Ticket arena of short and ordered phases (see execute_batch);
  // try-locked so concurrent callers degrade to a call-local block.
  std::mutex tickets_mu_;
  TicketBlock tickets_;

  // S[0..m+kMaxStages-1]: the first slab S[0..m-1] is interface-owned,
  // S[m+j] is stage j's segment.
  std::vector<Segment<K, V>> segs_;
  std::vector<Stage> stages_;
  std::atomic<std::size_t> terminal_{0};   // stage index of the terminal seg

  tree::JTree<K, FilterEntry> filter_{&filter_pool_};  // guarded by FL[0]
  std::atomic<std::size_t> filter_size_{0};

  std::vector<std::unique_ptr<Lock>> nlocks_;  // B[0..kMaxStages]
  std::vector<std::unique_ptr<Lock>> flocks_;  // FL[0..kMaxStages-1]

  std::atomic<std::size_t> size_{0};
};

static_assert(MapBackend<M2Map<int, int>, int, int>);

}  // namespace pwss::core
