#pragma once
// Segment S[k] of a working-set structure: a set of items ordered two ways,
// by key (the key-map) and by recency (the recency-map) — Section 5 of the
// paper. Capacity of segment k is 2^(2^k); the recency order across the
// whole structure is the concatenation of segments (most recent first
// within each).
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
//  * tree  (larger): the JTree pair — the key-map stores
//    key -> (value, stamp); the recency-map stores stamp -> key with order
//    statistics standing in for the paper's leaf-to-leaf "direct pointers"
//    (reverse-indexing = rank/select).
//
// Dispatch rules: a segment starts flat; an insert that would push it past
// kFlatSegmentMax first *promotes* (bulk-builds both trees via
// JTree::from_sorted from the already-sorted arrays, drawing nodes from
// the segment's pool domain); an extract that brings a tree segment down
// to kFlatSegmentDemote (= kFlatSegmentMax/2, hysteresis so a segment
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

/// One node-pool domain for a map instance: every segment of the instance
/// allocates its key-map nodes from `key_pool` and its recency-map nodes
/// from `rec_pool`. Sharing the domain across the instance's segments is
/// what makes segment→segment batch transfers heap-free at steady state —
/// the extract side recycles exactly the nodes the insert side re-draws.
/// Pools are never shared across instances (driver_test's arena/pool
/// independence guarantee); the owner must keep the pools alive until
/// every segment is gone (declare the pools before the segments).
template <typename K, typename V>
struct SegmentPools {
  using KeyTree = tree::JTree<K, std::pair<V, std::uint64_t>>;
  using RecTree = tree::JTree<std::uint64_t, K>;

  typename KeyTree::Pool key_pool;
  typename RecTree::Pool rec_pool;

  /// The scheduler the instance forks batch work on (null for sequential
  /// instances): the pools shard their free lists by its worker ids.
  explicit SegmentPools(sched::Scheduler* scheduler = nullptr)
      : key_pool(scheduler), rec_pool(scheduler) {}

  /// Deep check shared by the maps' validate(): every item held in a
  /// tree-represented segment owns exactly one node in each pool, and
  /// each pool is internally consistent. Empty = clean.
  std::string validate(std::size_t tree_items) const {
    util::Validator v;
    if (v.require(key_pool.live_nodes() == tree_items,
                  "key-pool accounting broken: ", key_pool.live_nodes(),
                  " live nodes but ", tree_items,
                  " items live in tree-represented segments") &&
        v.require(rec_pool.live_nodes() == tree_items,
                  "recency-pool accounting broken: ", rec_pool.live_nodes(),
                  " live nodes but ", tree_items,
                  " items live in tree-represented segments") &&
        v.absorb(key_pool.validate(), "key-pool: ")) {
      v.absorb(rec_pool.validate(), "recency-pool: ");
    }
    return std::move(v).take();
  }
};

/// Reusable buffers for a Segment's batched operations. Owned by the
/// structure that drives the batches (one arena per M1 instance, inside
/// core::BatchScratch) and passed down by pointer; a null scratch falls
/// back to per-call buffers. Never share one arena across concurrently
/// mutated segments — the owner must serialize batch calls, which M1's
/// single-owner batch contract already guarantees.
template <typename K, typename V>
struct SegmentScratch {
  std::vector<std::optional<std::pair<V, std::uint64_t>>> entries;
  std::vector<std::uint64_t> stamps;
  std::vector<std::optional<K>> removed_keys;
  std::vector<K> keys;
  std::vector<std::pair<K, std::pair<V, std::uint64_t>>> key_entries;
  std::vector<std::pair<std::uint64_t, K>> rec_entries;
  std::vector<std::size_t> idx;
};

template <typename K, typename V>
class Segment {
 public:
  using Item = SegmentItem<K, V>;

  Segment() = default;
  /// Binds both trees to the instance's pool domain (null = unpooled).
  explicit Segment(SegmentPools<K, V>* pools)
      : by_key_(pools != nullptr ? &pools->key_pool : nullptr),
        by_recency_(pools != nullptr ? &pools->rec_pool : nullptr) {}

  /// Late binding for segments that must be default-constructed first
  /// (vector-of-count members, M2's Stage); only legal while empty.
  void bind_pools(SegmentPools<K, V>* pools) noexcept {
    by_key_.set_pool(pools != nullptr ? &pools->key_pool : nullptr);
    by_recency_.set_pool(pools != nullptr ? &pools->rec_pool : nullptr);
  }

  std::size_t size() const noexcept {
    return is_tree_ ? by_key_.size() : flat_.size();
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
  /// arrays' first lines, or the key-map root. Used by the M1/M2 batch
  /// sweeps to overlap the next segment's memory latency with the current
  /// segment's work.
  void prefetch() const noexcept {
    if (is_tree_) {
      by_key_.prefetch_root();
    } else {
      flat_.prefetch();
    }
  }

  // ---- point operations (used by M0 / Iacono / small paths) -------------

  /// Value+stamp for key, or nullptr (no recency effect).
  const std::pair<V, std::uint64_t>* peek(const K& key) const {
    return is_tree_ ? by_key_.find(key) : flat_.peek(key);
  }
  std::pair<V, std::uint64_t>* peek(const K& key) {
    return is_tree_ ? by_key_.find(key) : flat_.peek(key);
  }

  /// Removes the item with `key` if present.
  std::optional<Item> extract(const K& key_ref) {
    if (!is_tree_) return flat_.extract(key_ref);
    // Copy first: the caller's reference may point into one of our trees
    // (e.g. the recency map's value we are about to delete).
    K key = key_ref;
    auto entry = by_key_.erase(key);
    if (!entry) return std::nullopt;
    by_recency_.erase(entry->second);
    Item out{std::move(key), std::move(entry->first), entry->second};
    maybe_demote();
    return out;
  }

  /// Inserts one item at the front (most recent); the stamp is reassigned.
  void insert_front(Item item) {
    item.stamp = stamps_.fresh_front();
    insert_item(std::move(item));
  }

  /// Inserts one item at the back (least recent); the stamp is reassigned.
  void insert_back(Item item) {
    item.stamp = stamps_.fresh_back();
    insert_item(std::move(item));
  }

  /// Inserts a batch at the front, preserving the arrivals' relative
  /// recency (larger incoming stamp stays more recent). Items may be in any
  /// order; sorted by key internally. The span's items are consumed
  /// (moved-from); the caller keeps the backing buffer for reuse.
  void insert_front_batch(std::span<Item> items, const tree::ParCtx& ctx = {},
                          SegmentScratch<K, V>* s = nullptr) {
    restamp(items, /*front=*/true, s);
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.key < b.key; });
    insert_items(items, ctx, s);
  }
  void insert_front_batch(std::vector<Item> items,
                          const tree::ParCtx& ctx = {}) {
    insert_front_batch(std::span<Item>(items), ctx);
  }

  /// Inserts a batch at the back, preserving relative recency.
  void insert_back_batch(std::span<Item> items, const tree::ParCtx& ctx = {},
                         SegmentScratch<K, V>* s = nullptr) {
    restamp(items, /*front=*/false, s);
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.key < b.key; });
    insert_items(items, ctx, s);
  }
  void insert_back_batch(std::vector<Item> items,
                         const tree::ParCtx& ctx = {}) {
    insert_back_batch(std::span<Item>(items), ctx);
  }

  /// Inserts an item; the stamp must be distinct from all stamps present.
  void insert_item(Item item) {
    if (!is_tree_) {
      if (flat_.size() < kFlatSegmentMax) {
        flat_.insert(std::move(item));
        return;
      }
      promote(nullptr);
    }
    [[maybe_unused]] const bool fresh_key =
        by_key_.insert(item.key, {std::move(item.value), item.stamp});
    [[maybe_unused]] const bool fresh_stamp =
        by_recency_.insert(item.stamp, item.key);
    assert(fresh_key && fresh_stamp);
  }

  // ---- ordered queries (protocol v2) -------------------------------------
  // Read-only against the key-map: no recency effect, no restructuring.
  // Pointers valid until the next mutation.

  /// Entry with the greatest key strictly below `key` in this segment.
  std::pair<const K*, const V*> predecessor(const K& key) const {
    if (!is_tree_) return flat_.predecessor(key);
    auto [k, e] = by_key_.predecessor(key);
    return {k, e != nullptr ? &e->first : nullptr};
  }

  /// Entry with the least key strictly above `key` in this segment.
  std::pair<const K*, const V*> successor(const K& key) const {
    if (!is_tree_) return flat_.successor(key);
    auto [k, e] = by_key_.successor(key);
    return {k, e != nullptr ? &e->first : nullptr};
  }

  /// Number of this segment's keys in the inclusive range [lo, hi].
  std::size_t range_count(const K& lo, const K& hi) const {
    return is_tree_ ? by_key_.range_count(lo, hi) : flat_.range_count(lo, hi);
  }

  std::optional<Item> extract_least_recent() {
    if (empty()) return std::nullopt;
    if (!is_tree_) return flat_.extract_at(flat_.least_recent_idx());
    const K key = by_recency_.at(0).second;  // copy before mutating
    return extract(key);
  }

  std::optional<Item> extract_most_recent() {
    if (empty()) return std::nullopt;
    if (!is_tree_) return flat_.extract_at(flat_.most_recent_idx());
    const K key = by_recency_.at(by_recency_.size() - 1).second;
    return extract(key);
  }

  /// Key of the least-recent item (for inspection/tests).
  std::optional<K> least_recent_key() const {
    if (empty()) return std::nullopt;
    if (!is_tree_) return flat_.key_at(flat_.least_recent_idx());
    return by_recency_.at(0).second;
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
    by_key_.multi_extract(keys, sc.entries, ctx);
    sc.stamps.clear();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (sc.entries[i]) {
        out.push_back(Item{keys[i], std::move(sc.entries[i]->first),
                           sc.entries[i]->second});
        sc.stamps.push_back(sc.entries[i]->second);
      }
    }
    std::sort(sc.stamps.begin(), sc.stamps.end());
    by_recency_.multi_extract(sc.stamps, sc.removed_keys, ctx);
    maybe_demote();
  }
  std::vector<Item> extract_by_keys(std::span<const K> keys,
                                    const tree::ParCtx& ctx = {}) {
    std::vector<Item> found;
    extract_by_keys(keys, found, ctx);
    return found;
  }

  /// Looks up keys without removing; out[i] is the (value, stamp) entry or
  /// nullptr. Pointers valid until the next mutation.
  void find_batch(std::span<const K> keys,
                  std::vector<const std::pair<V, std::uint64_t>*>& out,
                  const tree::ParCtx& ctx = {}) const {
    if (!is_tree_) {
      flat_.find_batch(keys, out);
      return;
    }
    by_key_.multi_find(keys, out, ctx);
  }

  /// Inserts items (sorted by key, distinct keys, distinct stamps). The
  /// span's values are moved out; the caller keeps the backing buffer.
  void insert_items(std::span<Item> items, const tree::ParCtx& ctx = {},
                    SegmentScratch<K, V>* s = nullptr) {
    if (items.empty()) return;
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
    for (auto& it : items) {
      sc.key_entries.emplace_back(
          it.key, std::pair<V, std::uint64_t>{std::move(it.value), it.stamp});
    }
    by_key_.multi_insert(sc.key_entries, ctx);
    sc.rec_entries.clear();
    sc.rec_entries.reserve(items.size());
    for (auto& it : items) sc.rec_entries.emplace_back(it.stamp, it.key);
    std::sort(sc.rec_entries.begin(), sc.rec_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    by_recency_.multi_insert(sc.rec_entries, ctx);
  }
  void insert_items(std::vector<Item> items, const tree::ParCtx& ctx = {}) {
    insert_items(std::span<Item>(items), ctx);
  }

  /// Removes the `c` least-recent items into `out` (cleared), sorted by key.
  void extract_least_recent(std::size_t c, std::vector<Item>& out,
                            const tree::ParCtx& ctx = {},
                            SegmentScratch<K, V>* s = nullptr) {
    if (!is_tree_) {
      out.clear();
      flat_.extract_by_recency(c, /*least=*/true, out);
      return;
    }
    extract_by_recency(by_recency_.extract_prefix(c), out, ctx, s);
    maybe_demote();
  }
  std::vector<Item> extract_least_recent(std::size_t c,
                                         const tree::ParCtx& ctx = {}) {
    std::vector<Item> out;
    extract_least_recent(c, out, ctx);
    return out;
  }

  /// Removes the `c` most-recent items into `out` (cleared), sorted by key.
  void extract_most_recent(std::size_t c, std::vector<Item>& out,
                           const tree::ParCtx& ctx = {},
                           SegmentScratch<K, V>* s = nullptr) {
    if (!is_tree_) {
      out.clear();
      flat_.extract_by_recency(c, /*least=*/false, out);
      return;
    }
    extract_by_recency(by_recency_.extract_suffix(c), out, ctx, s);
    maybe_demote();
  }
  std::vector<Item> extract_most_recent(std::size_t c,
                                        const tree::ParCtx& ctx = {}) {
    std::vector<Item> out;
    extract_most_recent(c, out, ctx);
    return out;
  }

  /// Removes everything; returned sorted by key.
  std::vector<Item> extract_all(const tree::ParCtx& ctx = {}) {
    return extract_least_recent(size(), ctx);
  }

  /// In-order (by key) visit of (key, value, stamp).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!is_tree_) {
      flat_.for_each(fn);
      return;
    }
    by_key_.for_each([&](const K& k, const std::pair<V, std::uint64_t>& e) {
      fn(k, e.first, e.second);
    });
  }

  /// Structural validation: representation invariants hold, both orders
  /// cover the same items, stamps distinct.
  bool check_invariants() const { return validate().empty(); }

  /// Deep representation check with a precise failure description.
  /// Flat: the flat arrays' own invariants, both trees empty, stamps
  /// distinct. Tree: both trees' own invariants, equal sizes, the
  /// recency<->key bijection, and the demotion hysteresis (an unpinned
  /// tree segment at or below kFlatSegmentDemote should have demoted on
  /// the mutation that shrank it). Empty string = OK.
  std::string validate() const {
    util::Validator v("segment: ");
    if (!v.require(!pin_tree_ || is_tree_,
                   "pinned to the tree representation but currently flat")) {
      return std::move(v).take();
    }
    if (!is_tree_) {
      if (!v.absorb(flat_.validate(), "")) return std::move(v).take();
      if (!v.require(by_key_.empty() && by_recency_.empty(),
                     "flat representation but the trees still hold ",
                     by_key_.size(), " key-map / ", by_recency_.size(),
                     " recency-map items")) {
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
    if (!v.absorb(by_key_.validate(), "key-map: ")) return std::move(v).take();
    if (!v.absorb(by_recency_.validate(), "recency-map: ")) {
      return std::move(v).take();
    }
    if (!v.require(by_key_.size() == by_recency_.size(),
                   "tree sizes diverged: key-map holds ", by_key_.size(),
                   " items, recency-map ", by_recency_.size())) {
      return std::move(v).take();
    }
    if (!v.require(pin_tree_ || by_key_.size() > kFlatSegmentDemote,
                   "hysteresis violated: tree representation with size ",
                   by_key_.size(), " <= demote bound ", kFlatSegmentDemote,
                   " and not pinned")) {
      return std::move(v).take();
    }
    by_key_.for_each([&](const K& k, const std::pair<V, std::uint64_t>& e) {
      const K* back = by_recency_.find(e.second);
      if (!v.require(back != nullptr, "recency map is missing stamp ",
                     e.second, " of key ", k)) {
        return;
      }
      v.require(*back == k, "recency map maps stamp ", e.second, " to key ",
                *back, " but the key map says ", k);
    });
    return std::move(v).take();
  }

 private:
  using KeyTree = tree::JTree<K, std::pair<V, std::uint64_t>>;
  using RecTree = tree::JTree<std::uint64_t, K>;

  /// Flat → tree: bulk-builds both trees from the flat arrays. The key
  /// side is already key-sorted, so it feeds JTree::from_sorted directly
  /// (O(n) build, nodes drawn from the segment's pool domain); the recency
  /// side needs one stamp sort of at most kFlatSegmentMax pairs.
  void promote(SegmentScratch<K, V>* s) {
    assert(!is_tree_);
    // Representation change in flight: flat arrays about to drain into
    // freshly built trees (pool draws happen inside from_sorted).
    PWSS_SCHED_POINT("segment.promote");
    SegmentScratch<K, V> local;
    SegmentScratch<K, V>& sc = s ? *s : local;
    sc.key_entries.clear();
    sc.rec_entries.clear();
    flat_.drain_sorted(sc.key_entries, sc.rec_entries);
    std::sort(sc.rec_entries.begin(), sc.rec_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    by_key_ = KeyTree::from_sorted(sc.key_entries, {}, by_key_.pool());
    by_recency_ = RecTree::from_sorted(sc.rec_entries, {}, by_recency_.pool());
    is_tree_ = true;
  }

  /// Tree → flat once the segment shrinks to the demotion bound (half the
  /// flat capacity — hysteresis against representation thrash). The key-
  /// map's in-order walk refills the flat arrays already sorted, then both
  /// trees bulk-recycle their nodes in one pool splice each.
  void maybe_demote() {
    if (!is_tree_ || pin_tree_) return;
    if (by_key_.size() > kFlatSegmentDemote) return;
    // Representation change in flight: tree contents about to walk back
    // into the flat arrays, then both trees bulk-recycle their nodes.
    PWSS_SCHED_POINT("segment.demote");
    flat_.clear();
    by_key_.for_each([&](const K& k, const std::pair<V, std::uint64_t>& e) {
      flat_.append_sorted(k, e);
    });
    by_key_.clear();
    by_recency_.clear();
    is_tree_ = false;
  }

  /// Reassigns stamps so arrivals land at the front (above every stamp in
  /// this segment) or at the back (below), preserving the arrivals'
  /// relative order as given by their incoming stamps.
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

  void extract_by_recency(std::vector<std::pair<std::uint64_t, K>> rec_items,
                          std::vector<Item>& out, const tree::ParCtx& ctx,
                          SegmentScratch<K, V>* s = nullptr) {
    SegmentScratch<K, V> local;
    SegmentScratch<K, V>& sc = s ? *s : local;
    sc.keys.clear();
    sc.keys.reserve(rec_items.size());
    for (auto& [stamp, key] : rec_items) sc.keys.push_back(std::move(key));
    std::sort(sc.keys.begin(), sc.keys.end());
    by_key_.multi_extract(sc.keys, sc.entries, ctx);
    out.clear();
    out.reserve(sc.keys.size());
    for (std::size_t i = 0; i < sc.keys.size(); ++i) {
      assert(sc.entries[i] && "recency map referenced a missing key");
      out.push_back(Item{std::move(sc.keys[i]), std::move(sc.entries[i]->first),
                         sc.entries[i]->second});
    }
  }

  FlatSegment<K, V> flat_;
  KeyTree by_key_;
  RecTree by_recency_;
  StampGen stamps_;
  bool is_tree_ = false;   // starts flat; see promote()/maybe_demote()
  bool pin_tree_ = false;  // debug_force_tree() disables demotion
};

/// Answers one read-only ordered query (kPredecessor / kSuccessor /
/// kRangeCount) against the union of segments a structure is partitioned
/// into. `visit` enumerates the segments: it invokes its argument once per
/// Segment<K, V>. A key lives in exactly one segment, so predecessor is
/// the max of per-segment predecessors, successor the min of per-segment
/// successors, and range-count the sum of per-segment counts. Shared by
/// M0, M1, Iacono and M2 (whose segments live in two collections).
template <typename K, typename V, typename Visit>
Result<V, K> ordered_query_over(OpType type, const K& key, const K& key2,
                                Visit&& visit) {
  Result<V, K> r;
  if (type == OpType::kRangeCount) {
    std::uint64_t total = 0;
    visit([&](const Segment<K, V>& seg) { total += seg.range_count(key, key2); });
    r.status = ResultStatus::kFound;
    r.count = total;
    return r;
  }
  const K* best_key = nullptr;
  const V* best_value = nullptr;
  visit([&](const Segment<K, V>& seg) {
    auto [k, v] = type == OpType::kPredecessor ? seg.predecessor(key)
                                               : seg.successor(key);
    if (k == nullptr) return;
    const bool better =
        best_key == nullptr ||
        (type == OpType::kPredecessor ? *best_key < *k : *k < *best_key);
    if (better) {
      best_key = k;
      best_value = v;
    }
  });
  if (best_key != nullptr) {
    r.status = ResultStatus::kFound;
    r.matched_key = *best_key;
    r.value = *best_value;
  }
  return r;
}

}  // namespace pwss::core
