#pragma once
// NodePool — a parallel-safe free-list allocator for tree nodes, the
// allocation-discipline layer under tree/jtree.hpp (see DESIGN.md
// "Allocation discipline"). Every deep segment of the working-set
// hierarchy is a JTree, so every insert/extract/split/join used to pay one
// global `new`/`delete` per node; the pool turns that steady-state churn
// into pointer pushes on a worker-local free list.
//
// Structure:
//  * storage comes from chunk allocations (kChunkNodes nodes per heap
//    call), tracked on an intrusive chunk list and released only when the
//    pool dies — individual node lifecycles never touch the heap;
//  * each shard has one free list, private to its owner: the first thread
//    to touch a shard claims it (one CAS on a thread-identity cookie,
//    never released), and from then on that thread's node churn is plain
//    pointer pushes/pops with no lock and no atomic RMW. Shards are indexed
//    by the scheduler's worker id (`Scheduler::worker_slot`), so the two
//    halves of a `parallel_invoke` recursion allocate and free on
//    different shards and every worker owns its own; slot 0 serves every
//    external (non-worker) thread, and the first of those claims it;
//  * a global overflow spine, under one spinlock, is the only shared free
//    list. A thread that does not own its home shard (the other external
//    threads on slot 0) allocates and frees there, one node per critical
//    section, carving a fresh chunk onto the spine when it is empty. An
//    owner refills its empty list with a chunk's worth from the spine (or
//    a fresh chunk), and spills a chunk's worth back past kShardCapChunks,
//    which bounds how many free nodes an owner can strand; every bulk
//    `recycle_chain` of a torn-down tree splices there in O(1).
//
// Ownership contract: one pool domain per map instance (SegmentPools in
// core/segment.hpp); trees must die before their pool. The pool never
// shrinks below its high-water chunk count — acceptable because segment
// transfers recycle as many nodes as they consume at steady state.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/sites.hpp"
#include "util/validate.hpp"

namespace pwss::util {

/// Thrown by NodePool::grow_spine when the "node_pool.chunk_alloc"
/// fault site fires: injected heap exhaustion. Derives from
/// std::bad_alloc so code written for the real failure handles it too.
struct PoolExhausted : std::bad_alloc {
  const char* what() const noexcept override {
    return "pwss: node-pool chunk allocation failed (injected)";
  }
};

/// Tiny test-and-test-and-set lock for the pool's overflow spine:
/// uncontended acquire/release is two atomic ops, and owner-private shards
/// make contention the exception, not the rule.
class SpinLock {
 public:
  void lock() noexcept {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
        if (++spins > 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

template <typename T>
class NodePool {
 private:
  struct FreeLink {
    FreeLink* next;
  };

 public:
  /// Nodes carved per heap allocation.
  static constexpr std::size_t kChunkNodes = 64;

  /// A shard holding more than this many free nodes spills a chunk's worth
  /// to the overflow spine, so memory freed by one worker reaches the
  /// others instead of pinning to the freeing shard.
  static constexpr std::size_t kShardCapChunks = 4;

  explicit NodePool(sched::Scheduler* scheduler = nullptr)
      : scheduler_(scheduler),
        shards_(scheduler ? scheduler->worker_count() + 1 : 1) {}

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  ~NodePool() {
    assert(total_allocs() == total_frees() &&
           "pool destroyed with live nodes — a tree outlived its pool");
    ChunkHeader* c = chunks_;
    while (c != nullptr) {
      ChunkHeader* next = c->next;
      ::operator delete(static_cast<void*>(c),
                        std::align_val_t{chunk_align()});
      c = next;
    }
  }

  /// Raw-storage chain for bulk recycling: an iterative tree teardown
  /// pushes every (already destructed) node here and hands the whole chain
  /// back in one pool call.
  class FreeChain {
   public:
    void push(void* p) noexcept {
      auto* link = static_cast<FreeLink*>(p);
      link->next = head_;
      if (head_ == nullptr) tail_ = link;
      head_ = link;
      ++count_;
    }
    bool empty() const noexcept { return head_ == nullptr; }
    std::size_t size() const noexcept { return count_; }

   private:
    friend NodePool;
    FreeLink* pop() noexcept {
      FreeLink* p = head_;
      head_ = p->next;
      if (--count_ == 0) tail_ = nullptr;
      return p;
    }

    FreeLink* head_ = nullptr;
    FreeLink* tail_ = nullptr;
    std::size_t count_ = 0;
  };

  /// Constructs a T in pooled storage. If T's constructor throws, the
  /// slot goes back to the pool (accounting stays balanced).
  template <typename... Args>
  T* create(Args&&... args) {
    void* p = allocate_raw();
    try {
      return ::new (p) T(std::forward<Args>(args)...);
    } catch (...) {
      recycle_raw(p);
      throw;
    }
  }

  /// Destructs and recycles one node.
  void destroy(T* node) noexcept {
    node->~T();
    recycle_raw(static_cast<void*>(node));
  }

  /// Recycles a chain of already-destructed node storage in O(1) splices:
  /// a small chain freed by its shard's owner lands on the private list;
  /// any other chain goes to the overflow spine in one global-lock splice.
  void recycle_chain(FreeChain chain) noexcept {
    if (chain.empty()) return;
    Shard& s = home_shard();
    if (chain.count_ < kChunkNodes && owns(s)) {
      bump(s.priv_frees, chain.count_);
      if (splice_private(s, chain) > kShardCapChunks * kChunkNodes) {
        spill_private(s);
      }
      return;
    }
    // relaxed: pure statistic — nothing is published through frees_;
    // totals are only read exactly from quiescent states.
    frees_.fetch_add(chain.count_, std::memory_order_relaxed);
    std::lock_guard<SpinLock> lk(global_mu_);
    splice_into_overflow(chain);
  }

  /// Uninitialized storage for one node (for callers doing their own
  /// placement new).
  void* allocate_raw() {
    Shard& s = home_shard();
    if (owns(s)) {
      // Private fast path: no lock, no CAS, no RMW — the claim protocol
      // guarantees this thread is the only one touching priv_head, and the
      // accounting goes to owner-written counters (plain load+store).
      if (s.priv_head == nullptr) refill_private(s);
      FreeLink* p = s.priv_head;
      s.priv_head = p->next;
      // relaxed: single-writer counter (this owner); stats readers accept
      // approximate values outside quiescence.
      s.priv_count.store(s.priv_count.load(std::memory_order_relaxed) - 1,
                         std::memory_order_relaxed);
      bump(s.priv_allocs, 1);
      return static_cast<void*>(p);
    }
    // Not the shard's owner: one node off the spine.
    std::lock_guard<SpinLock> lk(global_mu_);
    if (overflow_.head_ == nullptr) grow_spine();
    // relaxed: pure statistic; the node handoff is ordered by global_mu_.
    allocs_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<void*>(overflow_.pop());
  }

  /// Recycles storage whose T was already destructed.
  void recycle_raw(void* p) noexcept {
    Shard& s = home_shard();
    if (owns(s)) {
      bump(s.priv_frees, 1);
      auto* link = static_cast<FreeLink*>(p);
      link->next = s.priv_head;
      s.priv_head = link;
      // relaxed: single-writer counter (this owner), as in allocate_raw.
      const std::size_t n =
          s.priv_count.load(std::memory_order_relaxed) + 1;
      s.priv_count.store(n, std::memory_order_relaxed);
      if (n > kShardCapChunks * kChunkNodes) spill_private(s);
      return;
    }
    // relaxed: pure statistic; the push below is ordered by global_mu_.
    frees_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<SpinLock> lk(global_mu_);
    overflow_.push(p);
  }

  /// Counting hook for tests and the perf trajectory. `free_nodes` walks
  /// no lists (per-shard counters) — call it from quiescent states only if
  /// exactness matters.
  struct Stats {
    std::uint64_t node_allocs = 0;   // create/allocate_raw calls
    std::uint64_t node_frees = 0;    // destroy/recycle calls (chain-weighted)
    std::uint64_t chunk_allocs = 0;  // heap allocations performed
    std::size_t free_nodes = 0;      // nodes parked on shards + spine
  };
  Stats stats() const {
    Stats st;
    st.node_allocs = total_allocs();
    st.node_frees = total_frees();
    // relaxed: monotone statistic; exactness is only claimed quiescently.
    st.chunk_allocs = chunk_count_.load(std::memory_order_relaxed);
    for (const auto& s : shards_) {
      // The priv_* counters are relaxed atomics written only by the
      // shard's owner; reading them here is approximate unless the pool
      // is quiescent.
      st.free_nodes += s.priv_count.load(std::memory_order_relaxed);
    }
    {
      std::lock_guard<SpinLock> lk(global_mu_);
      st.free_nodes += overflow_.count_;
    }
    return st;
  }

  /// Nodes currently constructed out of this pool (exact when quiescent).
  std::uint64_t live_nodes() const noexcept {
    return total_allocs() - total_frees();
  }

  /// Deep accounting check — QUIESCENT POOLS ONLY (it walks the
  /// owner-private lists from this thread). Verifies, with bounded walks
  /// so a cycle cannot hang it: every shard's private list length matches
  /// its counter, the overflow spine's length matches its count, the chunk
  /// list matches chunk_count_, and conservation: free nodes + live nodes
  /// == chunks * nodes-per-chunk. Empty = OK.
  std::string validate() const {
    util::Validator v("node_pool: ");
    const std::uint64_t chunks = chunk_count_.load(std::memory_order_relaxed);
    const std::uint64_t slots = chunks * kChunkNodes;
    // One past every slot: a healthy list can never be longer.
    const std::uint64_t walk_cap = slots + 1;
    auto walk = [walk_cap](const FreeLink* head) {
      std::uint64_t n = 0;
      for (const FreeLink* p = head; p != nullptr && n < walk_cap;
           p = p->next) {
        ++n;
      }
      return n;
    };

    std::uint64_t free_total = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = shards_[i];
      const std::uint64_t priv_len = walk(s.priv_head);
      const std::uint64_t priv_count =
          s.priv_count.load(std::memory_order_relaxed);
      if (!v.require(priv_len == priv_count, "shard ", i,
                     ": private free list holds ", priv_len,
                     " nodes (walk capped at ", walk_cap,
                     ") but priv_count says ", priv_count)) {
        return std::move(v).take();
      }
      free_total += priv_len;
    }
    {
      std::lock_guard<SpinLock> lk(global_mu_);
      const std::uint64_t spine_len = walk(overflow_.head_);
      if (!v.require(spine_len == overflow_.count_,
                     "overflow spine holds ", spine_len,
                     " nodes (walk capped at ", walk_cap,
                     ") but its count says ", overflow_.count_)) {
        return std::move(v).take();
      }
      free_total += spine_len;
      std::uint64_t chunk_len = 0;
      for (const ChunkHeader* c = chunks_; c != nullptr && chunk_len <= chunks;
           c = c->next) {
        ++chunk_len;
      }
      if (!v.require(chunk_len == chunks, "chunk list holds ", chunk_len,
                     " chunks but chunk_count_ says ", chunks)) {
        return std::move(v).take();
      }
    }
    const std::uint64_t allocs = total_allocs();
    const std::uint64_t frees = total_frees();
    if (!v.require(frees <= allocs, "free/alloc imbalance: ", frees,
                   " frees exceed ", allocs, " allocs")) {
      return std::move(v).take();
    }
    const std::uint64_t live = allocs - frees;
    v.require(free_total + live == slots, "node conservation broken: ",
              free_total, " free + ", live, " live != ", chunks,
              " chunks * ", kChunkNodes, " nodes");
    return std::move(v).take();
  }

 private:
  struct ChunkHeader {
    ChunkHeader* next;
  };

  struct alignas(64) Shard {
    // Owner-private free list: claimed once (owner CAS below), then
    // touched only by the claiming thread — no lock, no atomics on the
    // list itself. The counters are atomic solely so stats() can read
    // them from other threads; the owner is their only writer, updating
    // with plain load+store (never an RMW — that would put a locked
    // instruction back on the fast path the private list exists to
    // strip).
    std::atomic<void*> owner{nullptr};
    FreeLink* priv_head = nullptr;
    std::atomic<std::size_t> priv_count{0};
    std::atomic<std::uint64_t> priv_allocs{0};
    std::atomic<std::uint64_t> priv_frees{0};
  };

  /// Single-writer counter bump: load+store, not fetch_add.
  template <typename U, typename By>
  static void bump(std::atomic<U>& c, By by) noexcept {
    // relaxed: the caller is the counter's only writer (owner-private
    // path), so load-then-store cannot lose updates; readers tolerate
    // staleness outside quiescence.
    c.store(c.load(std::memory_order_relaxed) + static_cast<U>(by),
            std::memory_order_relaxed);
  }

  /// Pool-wide alloc/free totals: the shared RMW counters plus every
  /// shard's owner-private counters (exact when quiescent).
  std::uint64_t total_allocs() const noexcept {
    // relaxed (all four loads below): statistics summation; exact totals
    // are only claimed from quiescent states, where every writer's
    // updates are already visible via thread join/lock edges.
    std::uint64_t a = allocs_.load(std::memory_order_relaxed);
    for (const auto& s : shards_) {
      a += s.priv_allocs.load(std::memory_order_relaxed);
    }
    return a;
  }
  std::uint64_t total_frees() const noexcept {
    std::uint64_t f = frees_.load(std::memory_order_relaxed);
    for (const auto& s : shards_) {
      f += s.priv_frees.load(std::memory_order_relaxed);
    }
    return f;
  }

  /// Per-thread identity for the shard-claim protocol: the address of a
  /// thread_local is unique among live threads. A dead thread's cookie
  /// value may be reused by a new thread, which then simply inherits the
  /// claim — still a single owner, so the protocol stays sound.
  static void* thread_cookie() noexcept {
    static thread_local char cookie;
    return static_cast<void*>(&cookie);
  }

  /// True iff the calling thread owns `s`'s private list, claiming it if
  /// unclaimed. Fast path is one relaxed load.
  bool owns(Shard& s) noexcept {
    void* const me = thread_cookie();
    // relaxed: `cur == me` reads this thread's OWN earlier CAS (a thread
    // always sees its own writes); `cur != nullptr` routes to the spine,
    // whose lock carries its own ordering — no data flows through owner.
    void* cur = s.owner.load(std::memory_order_relaxed);
    if (cur == me) return true;
    if (cur != nullptr) return false;
    // acq_rel claim: acquire pairs with a previous claimant's release in
    // the cookie-reuse case (inheriting its priv list state); release
    // publishes the claim before this thread's private-list writes.
    // relaxed on failure: we fall back to the spine regardless.
    const bool claimed = s.owner.compare_exchange_strong(
        cur, me, std::memory_order_acq_rel, std::memory_order_relaxed);
    if (claimed) {
      // A freshly claimed shard: the claimant now runs the no-atomics
      // private path against priv_head/priv_count.
      PWSS_SCHED_POINT("node_pool.owner.claim");
    }
    return claimed;
  }

  static constexpr std::size_t slot_align() noexcept {
    return alignof(T) > alignof(FreeLink) ? alignof(T) : alignof(FreeLink);
  }
  /// Slot stride, rounded up to slot_align so every slot in a chunk can
  /// hold either a T or a properly aligned FreeLink.
  static constexpr std::size_t slot_size() noexcept {
    const std::size_t raw =
        sizeof(T) > sizeof(FreeLink) ? sizeof(T) : sizeof(FreeLink);
    return (raw + slot_align() - 1) / slot_align() * slot_align();
  }
  static constexpr std::size_t chunk_align() noexcept {
    return slot_align() > alignof(ChunkHeader) ? slot_align()
                                               : alignof(ChunkHeader);
  }
  /// Header rounded up so slot 0 is properly aligned.
  static constexpr std::size_t header_span() noexcept {
    return (sizeof(ChunkHeader) + slot_align() - 1) / slot_align() *
           slot_align();
  }

  Shard& home_shard() noexcept {
    std::size_t slot =
        scheduler_ != nullptr ? scheduler_->worker_slot() : 0;
    if (slot >= shards_.size()) slot = 0;  // foreign-scheduler safety net
    return shards_[slot];
  }

  /// Caller holds global_mu_.
  void splice_into_overflow(FreeChain& chain) noexcept {
    chain.tail_->next = overflow_.head_;
    if (overflow_.head_ == nullptr) overflow_.tail_ = chain.tail_;
    overflow_.head_ = chain.head_;
    overflow_.count_ += chain.count_;
    chain.head_ = chain.tail_ = nullptr;
    chain.count_ = 0;
  }

  /// Caller holds global_mu_ and saw the spine empty: carves one fresh
  /// heap chunk onto it.
  void grow_spine() {
    // Injected heap exhaustion. Placed before any state changes so a
    // failed growth leaves the pool exactly as it was — the same
    // guarantee the real ::operator new failure gives (create() is
    // exception-safe), just deterministic and recoverable.
    if (PWSS_FAULT_POINT("node_pool.chunk_alloc")) throw PoolExhausted{};
    const std::size_t bytes = header_span() + kChunkNodes * slot_size();
    auto* raw = static_cast<unsigned char*>(
        ::operator new(bytes, std::align_val_t{chunk_align()}));
    auto* header = reinterpret_cast<ChunkHeader*>(raw);
    header->next = chunks_;
    chunks_ = header;
    // relaxed: pure statistic; the chunk list itself is guarded by
    // global_mu_, held here.
    chunk_count_.fetch_add(1, std::memory_order_relaxed);
    unsigned char* slots = raw + header_span();
    // A T that keeps tags in its pointers' spare bits names them (JTree's
    // node): the first and last slots bound every slot's address, and the
    // stride keeps the first one's alignment.
    if constexpr (requires { T::kTagBits; }) {
      [[maybe_unused]] const auto tagged = [](const unsigned char* p) {
        return (reinterpret_cast<std::uintptr_t>(p) & T::kTagBits) != 0;
      };
      assert(!tagged(slots) &&
             !tagged(slots + (kChunkNodes - 1) * slot_size()) &&
             "chunk address overlaps the node's tag bits");
    }
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      overflow_.push(static_cast<void*>(slots + i * slot_size()));
    }
  }

  /// Restocks the calling owner's empty private list with up to one
  /// chunk's worth of nodes off the spine, growing it first if it is
  /// empty; a spine of at most a chunk moves whole in one splice. Caller
  /// must own `s`.
  void refill_private(Shard& s) {
    // Private list just observed empty; other threads may be at the spine.
    PWSS_SCHED_POINT("node_pool.refill_private");
    FreeChain chain;
    {
      std::lock_guard<SpinLock> lk(global_mu_);
      if (overflow_.head_ == nullptr) grow_spine();
      if (overflow_.count_ <= kChunkNodes) {
        chain = std::exchange(overflow_, FreeChain{});
      } else {
        while (chain.count_ < kChunkNodes) chain.push(overflow_.pop());
      }
    }
    splice_private(s, chain);
  }

  /// Splices `chain` onto the calling owner's private list and returns
  /// the list's new length. Caller must own `s`.
  static std::size_t splice_private(Shard& s, FreeChain& chain) noexcept {
    chain.tail_->next = s.priv_head;
    s.priv_head = chain.head_;
    // relaxed: single-writer counter (this owner; see Shard); atomicity
    // exists only for cross-thread stats reads, which are approximate.
    const std::size_t n =
        s.priv_count.load(std::memory_order_relaxed) + chain.count_;
    s.priv_count.store(n, std::memory_order_relaxed);
    return n;
  }

  /// Moves a chunk's worth of nodes from the calling owner's private list
  /// to the overflow spine. Caller must own `s`.
  void spill_private(Shard& s) noexcept {
    // Shard over its cap: a chunk's worth of private nodes is about to
    // move to the spine (private accounting shrinks before the splice).
    PWSS_SCHED_POINT("node_pool.spill_private");
    FreeChain spill;
    // relaxed (both): single-writer counter (this owner; see Shard).
    std::size_t n = s.priv_count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kChunkNodes && s.priv_head != nullptr; ++i) {
      FreeLink* p = s.priv_head;
      s.priv_head = p->next;
      --n;
      spill.push(static_cast<void*>(p));
    }
    s.priv_count.store(n, std::memory_order_relaxed);
    std::lock_guard<SpinLock> lk(global_mu_);
    splice_into_overflow(spill);
  }

  sched::Scheduler* scheduler_;
  std::vector<Shard> shards_;  // [0] = external threads, [1+i] = worker i

  mutable SpinLock global_mu_;      // guards overflow_ and chunks_
  FreeChain overflow_;              // the rebalancing spine
  ChunkHeader* chunks_ = nullptr;   // intrusive list of heap chunks

  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  std::atomic<std::uint64_t> chunk_count_{0};
};

}  // namespace pwss::util
