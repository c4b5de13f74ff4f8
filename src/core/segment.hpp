#pragma once
// Segment S[k] of a working-set structure: a set of items ordered two ways,
// by key and by recency — Section 5 of the paper. Capacity of segment k is
// 2^(2^k); the recency order across the whole structure is the
// concatenation of segments (most recent first within each).
//
// Recency within a segment is represented by a 64-bit stamp: larger stamp
// = more recent. Stamps are strictly *per-segment*: the abstract list R of
// Lemma 6 orders items by segment first and recency within the segment
// second, and M0/M2's localized promotion means an item's arrival position
// (front or back of the destination segment) is NOT a function of its
// global access time. Every arrival is therefore restamped by the
// destination segment: front arrivals above the current maximum, back
// arrivals below the current minimum, preserving the relative order of a
// batch of arrivals.
//
// A segment has TWO physical representations behind one logical API:
//
//  * flat  (size <= kFlatSegmentMax): a FlatSegment — two parallel sorted
//    arrays, branchless binary-search probes, memmove point edits, merge
//    batch edits. This is where S[0]/S[1]/S[2] (2+4+16 items) live, which
//    is where working-set-friendly workloads resolve almost every probe.
//  * tree  (larger): ONE JTree mapping key -> SegmentEntry (value, stamp,
//    newer, older). The two links thread a doubly linked recency list
//    through the tree's nodes, most recent at head_, least recent at
//    tail_ — the paper's leaf-to-leaf direct pointers. A node keeps its
//    address across split and join, so batch tree work never disturbs the
//    list. Every arrival is linked at an end (insert_front*/insert_back*
//    restamp), so the list stays in stamp order without an ordered splice;
//    recency extraction walks c nodes from one end, and key extraction
//    unlinks the nodes it found before the tree drops them.
//
// Dispatch rules: a segment starts flat; an insert that would push it past
// kFlatSegmentMax first *promotes* (bulk-builds the tree from the already
// key-sorted arrays, drawing nodes from the segment's pool domain, and
// links the list in stamp order); an extract that brings a tree segment
// down to kFlatSegmentDemote (= kFlatSegmentMax/2, hysteresis so a segment
// oscillating at the boundary doesn't thrash) *demotes* back, bulk-
// recycling every node in one pool splice. The stamp generator survives
// representation changes, so recency semantics never notice.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_segment.hpp"
#include "core/ops.hpp"
#include "tree/jtree.hpp"
#include "util/sites.hpp"
#include "util/validate.hpp"

namespace pwss::core {

/// Allocates recency stamps for one segment. Front stamps grow from 2^62
/// upward, back stamps shrink from 2^62-1 downward; 2^62 arrivals in each
/// direction before exhaustion (unreachable in practice; asserted).
class StampGen {
 public:
  std::uint64_t fresh_front() noexcept {
    assert(hi_ != ~0ULL);
    return ++hi_;
  }
  std::uint64_t fresh_back() noexcept {
    assert(lo_ != 0);
    return lo_--;
  }

 private:
  std::uint64_t hi_ = 1ULL << 62;
  std::uint64_t lo_ = (1ULL << 62) - 1;
};

/// Capacity of segment k: 2^(2^k), saturated so it never overflows.
constexpr std::uint64_t segment_capacity(std::size_t k) noexcept {
  const std::uint64_t exponent = k >= 6 ? 62 : (1ULL << k);
  return 1ULL << exponent;
}

/// Per-depth probe accounting: hits[b] counts probes answered at segment
/// depth b (bucket 3 aggregates every depth >= 3, i.e. the tree-backed
/// deep segments), misses counts probes for absent keys. Plain counters —
/// the owner is the structure's single-owner operation path (M0's
/// sequential contract, M1's batch owner), never concurrent writers.
struct ProbeDepthCounts {
  std::uint64_t hits[4] = {0, 0, 0, 0};
  std::uint64_t misses = 0;

  void note_hit(std::size_t depth) noexcept {
    ++hits[depth < 3 ? depth : 3];
  }
  void note_miss() noexcept { ++misses; }
  void reset() noexcept {
    hits[0] = hits[1] = hits[2] = hits[3] = 0;
    misses = 0;
  }
  std::uint64_t total() const noexcept {
    return hits[0] + hits[1] + hits[2] + hits[3] + misses;
  }
};

template <typename K, typename V>
struct SegmentEntry;

/// The key tree of a tree-represented segment.
template <typename K, typename V>
using SegmentTree = tree::JTree<K, SegmentEntry<K, V>>;

/// Payload of one tree-segment node: the value, its recency stamp, and the
/// node's neighbours in the segment's recency list (null at the ends).
template <typename K, typename V>
struct SegmentEntry {
  using Link = typename SegmentTree<K, V>::Handle;
  V value;
  std::uint64_t stamp;
  Link newer = nullptr;  // toward the most recent end
  Link older = nullptr;  // toward the least recent end
};

/// One node-pool domain for a map instance: every tree-represented segment
/// of the instance allocates its nodes from `node_pool`. Sharing the domain
/// across the instance's segments is what makes segment→segment batch
/// transfers heap-free at steady state — the extract side recycles exactly
/// the nodes the insert side re-draws. Pools are never shared across
/// instances (driver_test's arena/pool independence guarantee); the owner
/// must keep the pool alive until every segment is gone (declare the pools
/// before the segments).
template <typename K, typename V>
struct SegmentPools {
  typename SegmentTree<K, V>::Pool node_pool;

  /// The scheduler the instance forks batch work on (null for sequential
  /// instances): the pool shards its free lists by its worker ids.
  explicit SegmentPools(sched::Scheduler* scheduler = nullptr)
      : node_pool(scheduler) {}
};

/// Reusable buffers for a Segment's batched operations. Owned by whatever
/// runs the batches (core::SweepScratch: M1's instance arena, M2's
/// interface and each M2 stage) and passed down by pointer; a null scratch
/// falls back to per-call buffers. One runner uses a scratch at a time —
/// M1's single-owner batch contract and M2's per-runner gates guarantee it.
template <typename K, typename V>
struct SegmentScratch {
  using Link = typename SegmentTree<K, V>::Handle;
  std::vector<std::optional<SegmentEntry<K, V>>> entries;
  std::vector<K> keys;
  std::vector<std::pair<K, SegmentEntry<K, V>>> key_entries;
  std::vector<Link> nodes;     // parallel to keys / key_entries
  std::vector<Link> by_stamp;  // new nodes in recency order
  std::vector<std::size_t> idx;
};

template <typename K, typename V>
class Segment {
 public:
  using Item = SegmentItem<K, V>;

  Segment() = default;
  /// Binds the tree to the instance's pool domain (null = unpooled).
  explicit Segment(SegmentPools<K, V>* pools)
      : tree_(pools != nullptr ? &pools->node_pool : nullptr) {}

  std::size_t size() const noexcept {
    return is_tree_ ? tree_.size() : flat_.size();
  }
  bool empty() const noexcept { return size() == 0; }

  /// True while the segment uses the flat (sorted-array) representation.
  bool is_flat() const noexcept { return !is_tree_; }

  /// Test/bench hook: converts to the tree representation and pins it
  /// there (demotion disabled), so the two layouts can be A/B-compared
  /// through the identical public API.
  void debug_force_tree() {
    pin_tree_ = true;
    if (!is_tree_) promote(nullptr);
  }

  /// Requests the representation's entry lines ahead of a probe: the flat
  /// arrays' first lines, or the tree root. Used by the M1/M2 batch sweeps
  /// to overlap the next segment's memory latency with the current
  /// segment's work.
  void prefetch() const noexcept {
    if (is_tree_) {
      tree_.prefetch_root();
    } else {
      flat_.prefetch();
    }
  }

  // ---- point operations (used by M0 / Iacono / small paths) -------------

  /// Value for key, or nullptr (no recency effect).
  const V* peek(const K& key) const {
    if (!is_tree_) return flat_.peek(key);
    const Entry* e = tree_.find(key);
    return e != nullptr ? &e->value : nullptr;
  }
  V* peek(const K& key) {
    return const_cast<V*>(std::as_const(*this).peek(key));
  }

  /// Removes the item with `key` if present.
  std::optional<Item> extract(const K& key) {
    if (!is_tree_) return flat_.extract(key);
    const Link n = tree_.find_node(key);
    if (n == nullptr) return std::nullopt;
    return extract_node(n);
  }

  /// Inserts one item at the front (most recent); the stamp is reassigned.
  void insert_front(Item item) {
    item.stamp = stamps_.fresh_front();
    insert_one(std::move(item), /*front=*/true);
  }

  /// Inserts one item at the back (least recent); the stamp is reassigned.
  void insert_back(Item item) {
    item.stamp = stamps_.fresh_back();
    insert_one(std::move(item), /*front=*/false);
  }

  /// Inserts a batch at the front, preserving the arrivals' relative
  /// recency (larger incoming stamp stays more recent). Items may be in any
  /// order; sorted by key internally. The span's items are consumed
  /// (moved-from); the caller keeps the backing buffer for reuse.
  void insert_front_batch(std::span<Item> items, const tree::ParCtx& ctx = {},
                          SegmentScratch<K, V>* s = nullptr) {
    insert_batch(items, /*front=*/true, ctx, s);
  }

  /// Inserts a batch at the back, preserving relative recency.
  void insert_back_batch(std::span<Item> items, const tree::ParCtx& ctx = {},
                         SegmentScratch<K, V>* s = nullptr) {
    insert_batch(items, /*front=*/false, ctx, s);
  }

  // ---- ordered queries (protocol v2) -------------------------------------
  // Read-only against the key order: no recency effect, no restructuring.
  // Pointers valid until the next mutation.

  /// Entry with the greatest key strictly below `key` in this segment.
  std::pair<const K*, const V*> predecessor(const K& key) const {
    if (!is_tree_) return flat_.predecessor(key);
    auto [k, e] = tree_.predecessor(key);
    return {k, e != nullptr ? &e->value : nullptr};
  }

  /// Entry with the least key strictly above `key` in this segment.
  std::pair<const K*, const V*> successor(const K& key) const {
    if (!is_tree_) return flat_.successor(key);
    auto [k, e] = tree_.successor(key);
    return {k, e != nullptr ? &e->value : nullptr};
  }

  /// Number of this segment's keys in the inclusive range [lo, hi].
  std::size_t range_count(const K& lo, const K& hi) const {
    return is_tree_ ? tree_.range_count(lo, hi) : flat_.range_count(lo, hi);
  }

  std::optional<Item> extract_least_recent() {
    if (empty()) return std::nullopt;
    if (!is_tree_) return flat_.extract_at(flat_.least_recent_idx());
    return extract_node(tail_);
  }

  std::optional<Item> extract_most_recent() {
    if (empty()) return std::nullopt;
    if (!is_tree_) return flat_.extract_at(flat_.most_recent_idx());
    return extract_node(head_);
  }

  /// Key of the least-recent item (for inspection/tests).
  std::optional<K> least_recent_key() const {
    if (empty()) return std::nullopt;
    if (!is_tree_) return flat_.key_at(flat_.least_recent_idx());
    return Tree::key_of(tail_);
  }

  // ---- batched operations (used by M1 / M2) ------------------------------

  /// Removes every present key from `keys` (sorted, distinct); appends the
  /// removed items to `out` sorted by key. `out` is cleared first, so a
  /// caller-owned buffer keeps its capacity across batches.
  void extract_by_keys(std::span<const K> keys, std::vector<Item>& out,
                       const tree::ParCtx& ctx = {},
                       SegmentScratch<K, V>* s = nullptr) {
    out.clear();
    if (!is_tree_) {
      flat_.extract_by_keys(keys, out);
      return;
    }
    SegmentScratch<K, V> local;
    SegmentScratch<K, V>& sc = s ? *s : local;
    tree_.multi_find(keys, sc.nodes, ctx);
    sc.keys.clear();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (sc.nodes[i] == nullptr) continue;
      unlink(sc.nodes[i]);
      sc.keys.push_back(keys[i]);
    }
    extract_unlinked(sc, out, ctx);
  }

  /// Removes the `c` least-recent items into `out` (cleared), sorted by key.
  void extract_least_recent(std::size_t c, std::vector<Item>& out,
                            const tree::ParCtx& ctx = {},
                            SegmentScratch<K, V>* s = nullptr) {
    extract_end(c, /*least=*/true, out, ctx, s);
  }

  /// Removes the `c` most-recent items into `out` (cleared), sorted by key.
  void extract_most_recent(std::size_t c, std::vector<Item>& out,
                           const tree::ParCtx& ctx = {},
                           SegmentScratch<K, V>* s = nullptr) {
    extract_end(c, /*least=*/false, out, ctx, s);
  }

  /// In-order (by key) visit of (key, value, stamp).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!is_tree_) {
      flat_.for_each(fn);
      return;
    }
    tree_.for_each(
        [&](const K& k, const Entry& e) { fn(k, e.value, e.stamp); });
  }

  /// Deep representation check with a precise failure description.
  /// Flat: the flat arrays' own invariants, an empty tree and list, stamps
  /// distinct. Tree: the tree's own invariants, the demotion hysteresis
  /// (an unpinned tree segment at or below kFlatSegmentDemote should have
  /// demoted on the mutation that shrank it), and the recency list: null
  /// ends, newer/older links that mirror each other, stamps strictly
  /// falling from head_ to tail_, every list node the tree's node for its
  /// key, and exactly size() nodes — the walk stops at that budget, so a
  /// cycle is reported instead of hanging. Empty string = OK.
  std::string validate() const {
    util::Validator v("segment: ");
    if (!v.require(!pin_tree_ || is_tree_,
                   "pinned to the tree representation but currently flat")) {
      return std::move(v).take();
    }
    if (!is_tree_) {
      if (!v.absorb(flat_.validate(), "")) return std::move(v).take();
      if (!v.require(tree_.empty() && head_ == nullptr && tail_ == nullptr,
                     "flat representation but the tree still holds ",
                     tree_.size(), " items or the recency list is not "
                     "empty")) {
        return std::move(v).take();
      }
      std::vector<std::pair<std::uint64_t, K>> stamps;
      stamps.reserve(flat_.size());
      flat_.for_each([&](const K& k, const V&, std::uint64_t stamp) {
        stamps.emplace_back(stamp, k);
      });
      std::sort(stamps.begin(), stamps.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = 1; i < stamps.size(); ++i) {
        if (!v.require(stamps[i - 1].first != stamps[i].first,
                       "duplicate recency stamp ", stamps[i].first,
                       " shared by keys ", stamps[i - 1].second, " and ",
                       stamps[i].second)) {
          return std::move(v).take();
        }
      }
      return std::move(v).take();
    }
    if (!v.absorb(tree_.validate(), "tree: ")) return std::move(v).take();
    const std::size_t n = tree_.size();
    if (!v.require(pin_tree_ || n > kFlatSegmentDemote,
                   "hysteresis violated: tree representation with size ", n,
                   " <= demote bound ", kFlatSegmentDemote, " and not pinned")) {
      return std::move(v).take();
    }
    // Walking from head_ toward tail_ within a budget of n nodes checks
    // both ends too: a stray head_, a non-null outer link or a cycle runs
    // the walk past n nodes or off tail_.
    std::size_t walked = 0;
    Link prev = nullptr;
    for (Link x = head_; x != nullptr; prev = x, x = entry(x).older) {
      const K& k = Tree::key_of(x);
      if (!v.require(++walked <= n, "recency list runs past the tree's ", n,
                     " items (cycle or stray node)") ||
          !v.require(entry(x).newer == prev, "recency links disagree at key ",
                     k, ": its newer link is not the node before it") ||
          !v.require(prev == nullptr || entry(x).stamp < entry(prev).stamp,
                     "stamps not strictly falling along the recency list at "
                     "key ", k) ||
          !v.require(tree_.find_node(k) == x, "recency list node with key ",
                     k, " is not the tree's node for that key")) {
        return std::move(v).take();
      }
    }
    if (v.require(walked == n, "recency list holds ", walked,
                  " nodes but the tree ", n)) {
      v.require(prev == tail_, "recency list from head_ does not end at "
                "tail_");
    }
    return std::move(v).take();
  }

 private:
  using Tree = SegmentTree<K, V>;
  using Entry = SegmentEntry<K, V>;
  using Link = typename Tree::Handle;

  static Entry& entry(Link n) noexcept { return Tree::value_of(n); }

  // ---- the recency list --------------------------------------------------

  void link_front(Link n) noexcept {
    entry(n).newer = nullptr;
    entry(n).older = head_;
    (head_ != nullptr ? entry(head_).newer : tail_) = n;
    head_ = n;
  }

  void link_back(Link n) noexcept {
    entry(n).older = nullptr;
    entry(n).newer = tail_;
    (tail_ != nullptr ? entry(tail_).older : head_) = n;
    tail_ = n;
  }

  void unlink(Link n) noexcept {
    const Entry& e = entry(n);
    (e.newer != nullptr ? entry(e.newer).older : head_) = e.older;
    (e.older != nullptr ? entry(e.older).newer : tail_) = e.newer;
  }

  // ---- tree-side edits ---------------------------------------------------

  /// Point insert of a freshly stamped item at one end of the recency
  /// order.
  void insert_one(Item item, bool front) {
    if (!is_tree_) {
      if (flat_.size() < kFlatSegmentMax) {
        flat_.insert(std::move(item));
        return;
      }
      promote(nullptr);
    }
    const std::pair<K, Entry> kv{std::move(item.key),
                                 Entry{std::move(item.value), item.stamp}};
    Link n = nullptr;
    [[maybe_unused]] const std::size_t before = tree_.size();
    tree_.multi_insert(std::span(&kv, 1), {}, std::span(&n, 1));
    assert(tree_.size() == before + 1 && "inserted key must be absent");
    front ? link_front(n) : link_back(n);
  }

  /// Restamps a batch onto one end, sorts it by key and inserts it. The
  /// tree side is one multi_insert that reports each item's node; the list
  /// side links those nodes at that end in stamp order. restamp() hands a
  /// batch consecutive stamps, so a stamp's offset from the batch's least
  /// is the node's place in that order.
  void insert_batch(std::span<Item> items, bool front,
                    const tree::ParCtx& ctx, SegmentScratch<K, V>* s) {
    if (items.empty()) return;
    restamp(items, front, s);
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.key < b.key; });
    if (!is_tree_) {
      if (flat_.size() + items.size() <= kFlatSegmentMax) {
        flat_.merge_insert(items);
        return;
      }
      promote(s);  // overflow: spill to the tree representation
    }
    SegmentScratch<K, V> local;
    SegmentScratch<K, V>& sc = s ? *s : local;
    sc.key_entries.clear();
    sc.key_entries.reserve(items.size());
    std::uint64_t least = items[0].stamp;
    for (auto& it : items) {
      least = std::min(least, it.stamp);
      sc.key_entries.emplace_back(it.key,
                                  Entry{std::move(it.value), it.stamp});
    }
    sc.nodes.resize(items.size());
    [[maybe_unused]] const std::size_t before = tree_.size();
    tree_.multi_insert(sc.key_entries, ctx, sc.nodes);
    assert(tree_.size() == before + items.size() &&
           "batch keys must be absent");
    // Link order runs outward from the end the batch joins: ascending
    // stamps at the front, descending at the back.
    sc.by_stamp.resize(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::size_t r = items[i].stamp - least;
      assert(r < items.size());
      sc.by_stamp[front ? r : items.size() - 1 - r] = sc.nodes[i];
    }
    for (const Link n : sc.by_stamp) front ? link_front(n) : link_back(n);
  }

  /// Removes one node found by key or at a list end.
  Item extract_node(Link n) {
    unlink(n);
    K key = Tree::key_of(n);  // copy: erase frees the node
    auto e = tree_.erase(key);
    Item out{std::move(key), std::move(e->value), e->stamp};
    maybe_demote();
    return out;
  }

  /// Removes the `c` items at one end of the recency order into `out`
  /// (cleared), sorted by key. A tree segment unlinks c nodes from that end
  /// of its list — an O(c) sequential walk (DESIGN.md, Section-8
  /// simplification 6) — then runs one multi_extract.
  void extract_end(std::size_t c, bool least, std::vector<Item>& out,
                   const tree::ParCtx& ctx, SegmentScratch<K, V>* s) {
    if (!is_tree_) {
      out.clear();
      flat_.extract_by_recency(c, least, out);
      return;
    }
    SegmentScratch<K, V> local;
    SegmentScratch<K, V>& sc = s ? *s : local;
    sc.keys.clear();
    for (c = std::min(c, size()); c > 0; --c) {
      const Link n = least ? tail_ : head_;
      sc.keys.push_back(Tree::key_of(n));
      unlink(n);
    }
    std::sort(sc.keys.begin(), sc.keys.end());
    extract_unlinked(sc, out, ctx);
  }

  /// Extracts `sc.keys` (sorted, present, already off the list) into `out`
  /// (cleared) in key order.
  void extract_unlinked(SegmentScratch<K, V>& sc, std::vector<Item>& out,
                        const tree::ParCtx& ctx) {
    out.clear();
    tree_.multi_extract(sc.keys, sc.entries, ctx);
    out.reserve(sc.keys.size());
    for (std::size_t i = 0; i < sc.keys.size(); ++i) {
      assert(sc.entries[i] && "unlinked key missing from the tree");
      out.push_back(Item{std::move(sc.keys[i]),
                         std::move(sc.entries[i]->value),
                         sc.entries[i]->stamp});
    }
    maybe_demote();
  }

  // ---- representation changes --------------------------------------------

  /// Flat → tree: bulk-builds the tree from the key-sorted flat arrays
  /// (multi_insert into an empty tree is the O(n) balanced build, nodes
  /// drawn from the segment's pool domain), then links the list in stamp
  /// order — one sort of at most kFlatSegmentMax nodes.
  void promote(SegmentScratch<K, V>* s) {
    assert(!is_tree_);
    // Representation change in flight: flat arrays about to drain into a
    // freshly built tree (pool draws happen inside the build).
    PWSS_SCHED_POINT("segment.promote");
    SegmentScratch<K, V> local;
    SegmentScratch<K, V>& sc = s ? *s : local;
    sc.key_entries.clear();
    flat_.drain_sorted([&](K&& k, V&& value, std::uint64_t stamp) {
      sc.key_entries.emplace_back(std::move(k),
                                  Entry{std::move(value), stamp});
    });
    sc.nodes.resize(sc.key_entries.size());
    tree_.multi_insert(sc.key_entries, {}, sc.nodes);
    std::sort(sc.nodes.begin(), sc.nodes.end(), [](Link a, Link b) {
      return entry(a).stamp < entry(b).stamp;
    });
    for (const Link n : sc.nodes) link_front(n);
    is_tree_ = true;
  }

  /// Tree → flat once the segment shrinks to the demotion bound (half the
  /// flat capacity — hysteresis against representation thrash). The
  /// tree's in-order walk refills the flat arrays already sorted, then the
  /// tree bulk-recycles its nodes in one pool splice.
  void maybe_demote() {
    if (!is_tree_ || pin_tree_) return;
    if (tree_.size() > kFlatSegmentDemote) return;
    // Representation change in flight: tree contents about to walk back
    // into the flat arrays, then the tree bulk-recycles its nodes.
    PWSS_SCHED_POINT("segment.demote");
    flat_.clear();
    tree_.for_each([&](const K& k, const Entry& e) {
      flat_.append_sorted(k, e.value, e.stamp);
    });
    tree_.clear();
    head_ = tail_ = nullptr;
    is_tree_ = false;
  }

  /// Reassigns stamps so arrivals land at the front (above every stamp in
  /// this segment) or at the back (below), preserving the arrivals'
  /// relative order as given by their incoming stamps. The batch receives
  /// consecutive stamps.
  void restamp(std::span<Item> items, bool front,
               SegmentScratch<K, V>* s = nullptr) {
    // Order of (index, old stamp) ascending by old stamp.
    SegmentScratch<K, V> local;
    std::vector<std::size_t>& idx = (s ? *s : local).idx;
    idx.resize(items.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return items[a].stamp < items[b].stamp;
    });
    if (front) {
      // Least recent arrival gets the smallest fresh-front stamp.
      for (const std::size_t i : idx) items[i].stamp = stamps_.fresh_front();
    } else {
      // Most recent arrival gets the largest fresh-back stamp.
      for (auto it = idx.rbegin(); it != idx.rend(); ++it) {
        items[*it].stamp = stamps_.fresh_back();
      }
    }
  }

  FlatSegment<K, V> flat_;
  Tree tree_;
  Link head_ = nullptr;  // most recent tree node; null while flat
  Link tail_ = nullptr;  // least recent tree node; null while flat
  StampGen stamps_;
  bool is_tree_ = false;   // starts flat; see promote()/maybe_demote()
  bool pin_tree_ = false;  // debug_force_tree() disables demotion
};

}  // namespace pwss::core
