#pragma once
// Join-based balanced search tree with batched parallel operations and
// order statistics — our substitute for the paper's Batched Parallel 2-3
// Tree (Appendix A.2, adapted from Paul–Vishkin–Wagener).
//
// Rationale (see DESIGN.md "Substitutions"): the working-set maps only rely
// on the *interface costs* of the segment trees — Θ(b·log n) work per
// sorted batch of b operations and polylogarithmic span. A join-based AVL
// tree (Blelloch, Ferizovic, Sun — "Just Join for Parallel Ordered Sets",
// SPAA 2016) gives exactly that: every batch op is a divide-and-conquer
// over split/join, parallelized with binary fork/join. Subtree sizes give
// rank for range counts. Recency order is not the tree's business: a node
// keeps its address across every split, join and rotation, so callers
// thread their own links through the values and hold nodes by Handle
// (core::Segment's recency list stands in for the paper's leaf-to-leaf
// direct pointers that way).
//
// Concurrency contract: a JTree is externally synchronized (the maps
// guarantee exclusive access via the paper's locking schemes). Const
// queries may run concurrently with each other but not with mutation; a
// batch operation forks only inside its own recursion, over disjoint
// subtrees.
//
// Allocation contract: a JTree constructed over a util::NodePool (the
// production configuration — see core::SegmentPools) draws every node from
// that pool and returns every node to it: point insert/erase churn is
// heap-free once the pool is warm, a node multi_extract detaches goes back
// through release() once the caller has read it, and teardown (clear and
// the destructor) recycles iteratively as ONE spliced free chain instead of
// node-by-node deletes. The pool must outlive the tree. A pool-less JTree
// (tests, ad-hoc use) falls back to plain new/delete.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/node_pool.hpp"
#include "util/prefetch.hpp"
#include "util/validate.hpp"

// Node tags its child pointers (see JTree::Node): the layout needs 8-byte
// aligned nodes at 48-bit user-space addresses.
#if !defined(__x86_64__) && !defined(__aarch64__)
#error "tree/jtree.hpp packs node fields into pointer bits: x86-64/AArch64 only"
#endif
static_assert(sizeof(void*) == 8, "tree/jtree.hpp needs 64-bit pointers");

namespace pwss::tree {

/// Parallelism context for batch operations. A null scheduler (or a batch
/// smaller than `grain`) runs sequentially; otherwise the divide-and-conquer
/// recursion forks through the scheduler.
struct ParCtx {
  sched::Scheduler* scheduler = nullptr;
  std::size_t grain = 128;
};

template <typename K, typename V, typename Compare = std::less<K>>
class JTree {
 private:
  struct Node;

 public:
  /// The node pool a production JTree allocates from; owned by the map
  /// instance (one pool domain per instance, shared by all its segments'
  /// trees of this shape) and passed in by pointer.
  using Pool = util::NodePool<Node>;

  /// One live node. Stable until its key is removed: split, join and
  /// rebalancing relink nodes but never move or copy them.
  using Handle = Node*;
  static const K& key_of(const Node* n) noexcept { return n->key; }
  static V& value_of(Node* n) noexcept { return n->value; }
  static constexpr std::size_t node_bytes() noexcept { return sizeof(Node); }

  JTree() = default;
  explicit JTree(Compare cmp) : cmp_(std::move(cmp)) {}
  explicit JTree(Pool* pool) : pool_(pool) {}
  JTree(Compare cmp, Pool* pool) : cmp_(std::move(cmp)), pool_(pool) {}
  JTree(const JTree&) = delete;
  JTree& operator=(const JTree&) = delete;
  JTree(JTree&& other) noexcept
      : root_(other.root_), cmp_(other.cmp_), pool_(other.pool_) {
    other.root_ = nullptr;
  }
  JTree& operator=(JTree&& other) noexcept {
    if (this != &other) {
      destroy(root_);
      root_ = other.root_;
      other.root_ = nullptr;
      cmp_ = other.cmp_;
      pool_ = other.pool_;
    }
    return *this;
  }
  ~JTree() { destroy(root_); }

  Pool* pool() const noexcept { return pool_; }

  std::size_t size() const noexcept { return node_size(root_); }
  bool empty() const noexcept { return root_ == nullptr; }

  /// Requests the root node's cache line ahead of a descent (the rest of
  /// the path is data-dependent and cannot usefully be prefetched).
  void prefetch_root() const noexcept { util::prefetch_read(root_); }

  void clear() {
    destroy(root_);
    root_ = nullptr;
  }

  // ---- point operations -------------------------------------------------

  /// The node holding `key`, or nullptr.
  Handle find_node(const K& key) const {
    Node* n = root_;
    while (n) {
      if (cmp_(key, n->key)) {
        n = n->left();
      } else if (cmp_(n->key, key)) {
        n = n->right();
      } else {
        return n;
      }
    }
    return nullptr;
  }

  /// Pointer to the value for `key`, or nullptr.
  const V* find(const K& key) const {
    const Node* n = find_node(key);
    return n ? &n->value : nullptr;
  }
  V* find(const K& key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  /// Inserts (key, value); if key exists, overwrites the value. Returns
  /// true iff the key was newly inserted.
  bool insert(const K& key, V value) {
    auto [l, m, r] = split(root_, key);
    const bool fresh = (m == nullptr);
    if (m) {
      m->value = std::move(value);
    } else {
      m = create_node(key, std::move(value));
    }
    root_ = join(l, m, r);
    return fresh;
  }

  /// Removes key if present; returns the removed value.
  std::optional<V> erase(const K& key) {
    Node* m = detach_one(root_, key);
    if (m == nullptr) return std::nullopt;
    std::optional<V> out = std::move(m->value);
    dispose_node(m);
    return out;
  }

  // ---- ordered queries (protocol v2) --------------------------------------
  // Read-only; pointers are valid until the next mutation.

  /// Entry with the greatest key strictly below `key`, as {&key, &value};
  /// {nullptr, nullptr} when every key is >= `key`.
  std::pair<const K*, const V*> predecessor(const K& key) const {
    const Node* best = nullptr;
    const Node* n = root_;
    while (n) {
      if (cmp_(n->key, key)) {
        best = n;  // n->key < key: candidate; better ones are to the right
        n = n->right();
      } else {
        n = n->left();
      }
    }
    if (!best) return {nullptr, nullptr};
    return {&best->key, &best->value};
  }

  /// Entry with the least key strictly above `key`;
  /// {nullptr, nullptr} when every key is <= `key`.
  std::pair<const K*, const V*> successor(const K& key) const {
    const Node* best = nullptr;
    const Node* n = root_;
    while (n) {
      if (cmp_(key, n->key)) {
        best = n;  // n->key > key: candidate; better ones are to the left
        n = n->left();
      } else {
        n = n->right();
      }
    }
    if (!best) return {nullptr, nullptr};
    return {&best->key, &best->value};
  }

  /// The least and greatest keys, as {&least, &greatest}; {nullptr,
  /// nullptr} when empty. One walk down each spine, O(log n).
  std::pair<const K*, const K*> key_bounds() const noexcept {
    if (root_ == nullptr) return {nullptr, nullptr};
    const Node* lo = root_;
    while (lo->left() != nullptr) lo = lo->left();
    const Node* hi = root_;
    while (hi->right() != nullptr) hi = hi->right();
    return {&lo->key, &hi->key};
  }

  /// Number of keys in the inclusive range [lo, hi] (0 when hi < lo): one
  /// descent counts the keys <= hi, rank(lo) those < lo. O(log n).
  std::size_t range_count(const K& lo, const K& hi) const {
    if (cmp_(hi, lo)) return 0;
    std::size_t le_hi = 0;
    for (const Node* n = root_; n != nullptr;) {
      if (cmp_(hi, n->key)) {
        n = n->left();
      } else {
        le_hi += node_size(n->left()) + 1;
        n = n->right();
      }
    }
    return le_hi - rank(lo);
  }

  // ---- order statistics ---------------------------------------------------

  /// Number of keys strictly less than `key`.
  std::size_t rank(const K& key) const {
    std::size_t r = 0;
    const Node* n = root_;
    while (n) {
      if (cmp_(key, n->key)) {
        n = n->left();
      } else if (cmp_(n->key, key)) {
        r += node_size(n->left()) + 1;
        n = n->right();
      } else {
        return r + node_size(n->left());
      }
    }
    return r;
  }

  // ---- batched operations -------------------------------------------------
  // All batch inputs must be sorted by key and duplicate-free; asserted in
  // debug builds. These correspond to the "normal batch operation" of the
  // paper's parallel 2-3 tree.

  /// Inserts every (key, value); existing keys get their value overwritten.
  /// A non-empty `nodes` (one slot per item) receives each item's node.
  void multi_insert(std::span<const std::pair<K, V>> items,
                    const ParCtx& ctx = {}, std::span<Handle> nodes = {}) {
    assert_sorted_pairs(items);
    assert(nodes.empty() || nodes.size() == items.size());
    root_ = multi_insert_rec(root_, items,
                             nodes.empty() ? nullptr : nodes.data(), ctx);
  }

  /// Removes every present key in one batch descent: each node splits the
  /// key span around its key, so the batch costs the union of its search
  /// paths. `out` has one slot per key; out[i] receives the node detached
  /// for keys[i], or nullptr when the key is absent. A detached node is off
  /// the tree but still allocated, key and value intact: read it, then hand
  /// it to release().
  void multi_extract(std::span<const K> keys, std::span<Handle> out,
                     const ParCtx& ctx = {}) {
    assert_sorted_keys(keys);
    assert(out.size() == keys.size());
    std::fill(out.begin(), out.end(), nullptr);
    multi_extract_rec(root_, keys, out.data(), ctx);
  }

  /// Gives a node multi_extract detached back to the pool (or the heap).
  void release(Handle n) noexcept { dispose_node(n); }

  /// In-order traversal.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_rec(root_, fn);
  }

  std::vector<std::pair<K, V>> to_vector() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(size());
    for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  /// Builds from a sorted, duplicate-free vector in O(n).
  static JTree from_sorted(std::span<const std::pair<K, V>> items,
                           Compare cmp = {}, Pool* pool = nullptr) {
    JTree t(std::move(cmp), pool);
    t.assert_sorted_pairs(items);
    t.root_ = t.build_balanced(items);
    return t;
  }

  /// Deep structural validation with a precise failure description:
  /// strict key order within every subtree's bounds, height and size
  /// fields consistent with the children, AVL balance, and an acyclicity
  /// budget (a link cycle or corrupt size field trips the node budget
  /// instead of hanging the walk). Empty string = OK. Requires K
  /// streamable.
  std::string validate() const {
    util::Validator v("jtree: ");
    // One node over the root's claim: a healthy walk visits exactly
    // node_size(root_) nodes, so exceeding the budget means the links
    // reach more nodes than the size fields admit.
    std::uint64_t budget = node_size(root_) + 1;
    validate_rec(root_, nullptr, nullptr, v, budget);
    return std::move(v).take();
  }

 private:
  /// Key, then the two child words the descent reads, then the value: a
  /// u64 -> u64 node is 32 B. The node's own AVL height (6 bits) and
  /// subtree size (32 bits) ride in its child words' spare bits: a node is
  /// 8-aligned, so a child pointer's low 3 bits are zero, and a user-space
  /// address on x86-64 and AArch64 fits in 48 bits, so its high 16 are
  /// zero too. The left word holds height bits 0-2 (low) and size bits
  /// 0-15 (high), the right word height bits 3-5 and size bits 16-31.
  /// Every child read masks the tag off, set_left/set_right keep it, and
  /// set_meta rewrites it.
  struct Node {
    static constexpr std::uintptr_t kTagBits = 0xffff'0000'0000'0007u;
    static constexpr int kHeightBits = 3;  // per word
    static constexpr int kSizeShift = 48;
    static constexpr std::uint64_t kMaxSize = 0xffff'ffffu;

    Node(const K& k, V v) : key(k), value(std::move(v)) {}

    Node* left() const noexcept { return untag(left_word); }
    Node* right() const noexcept { return untag(right_word); }
    void set_left(Node* p) noexcept {
      left_word = (left_word & kTagBits) | addr(p);
    }
    void set_right(Node* p) noexcept {
      right_word = (right_word & kTagBits) | addr(p);
    }
    /// Both children to null; the tag stays until the next set_meta.
    void unlink() noexcept {
      left_word &= kTagBits;
      right_word &= kTagBits;
    }

    int height() const noexcept {
      return static_cast<int>((left_word & 7) |
                              ((right_word & 7) << kHeightBits));
    }
    std::size_t size() const noexcept {
      return static_cast<std::size_t>((left_word >> kSizeShift) |
                                      ((right_word >> kSizeShift) << 16));
    }
    void set_meta(std::uint64_t height, std::uint64_t size) noexcept {
      left_word =
          (left_word & ~kTagBits) | (height & 7) | (size << kSizeShift);
      right_word = (right_word & ~kTagBits) | (height >> kHeightBits) |
                   ((size >> 16) << kSizeShift);
    }

    static std::uintptr_t addr(const Node* p) noexcept {
      return reinterpret_cast<std::uintptr_t>(p);
    }
    static Node* untag(std::uintptr_t w) noexcept {
      return reinterpret_cast<Node*>(w & ~kTagBits);
    }

    K key;
    // Read through left()/right(); a fresh node has height 1 and size 1.
    std::uintptr_t left_word = (std::uintptr_t{1} << kSizeShift) | 1;
    std::uintptr_t right_word = 0;
    V value;
  };

  // ---- node lifecycle (pooled when a pool is bound) ----------------------

  template <typename VV>
  Node* create_node(const K& key, VV&& value) {
    if (pool_ != nullptr) return pool_->create(key, std::forward<VV>(value));
    Node* n = new Node(key, std::forward<VV>(value));
    assert((Node::addr(n) & Node::kTagBits) == 0 &&
           "node address overlaps the child words' tag bits");
    return n;
  }

  void dispose_node(Node* n) noexcept {
    if (pool_ != nullptr) {
      pool_->destroy(n);
    } else {
      delete n;
    }
  }

  /// Tears down a whole subtree iteratively (right-spine rotation walk —
  /// O(n) time, O(1) extra space, no recursion depth to blow on degenerate
  /// shapes) and applies `dispose` to every node exactly once.
  template <typename Dispose>
  static void flatten_dispose(Node* t, Dispose dispose) noexcept {
    while (t != nullptr) {
      if (t->left() != nullptr) {
        Node* l = t->left();
        t->set_left(l->right());
        l->set_right(t);
        t = l;
      } else {
        Node* r = t->right();
        dispose(t);
        t = r;
      }
    }
  }

  static int node_height(const Node* n) noexcept {
    return n ? n->height() : 0;
  }
  static std::size_t node_size(const Node* n) noexcept {
    return n ? n->size() : 0;
  }

  /// A subtree past 2^32 - 1 nodes would overflow the size field: M1's
  /// S[5] reaches it only past ~4.3 G keys (unreachable in practice;
  /// asserted). Height stays far below 63 at that size.
  static Node* update(Node* n) noexcept {
    const Node* l = n->left();
    const Node* r = n->right();
    const std::uint64_t height = 1 + std::max(node_height(l), node_height(r));
    const std::uint64_t size = 1 + node_size(l) + node_size(r);
    assert(size <= Node::kMaxSize && "subtree size overflows 32 bits");
    n->set_meta(height, size);
    return n;
  }

  static Node* rotate_left(Node* n) noexcept {
    Node* r = n->right();
    n->set_right(r->left());
    r->set_left(update(n));
    return update(r);
  }

  static Node* rotate_right(Node* n) noexcept {
    Node* l = n->left();
    n->set_left(l->right());
    l->set_right(update(n));
    return update(l);
  }

  /// AVL join (Blelloch–Ferizovic–Sun): all keys in l < m->key < all in r;
  /// m is a detached node whose child pointers are overwritten.
  static Node* join(Node* l, Node* m, Node* r) noexcept {
    if (node_height(l) > node_height(r) + 1) return join_right(l, m, r);
    if (node_height(r) > node_height(l) + 1) return join_left(l, m, r);
    m->set_left(l);
    m->set_right(r);
    return update(m);
  }

  static Node* join_right(Node* l, Node* m, Node* r) noexcept {
    // height(l) > height(r) + 1: descend l's right spine.
    if (node_height(l->right()) <= node_height(r) + 1) {
      m->set_left(l->right());
      m->set_right(r);
      l->set_right(update(m));
      update(l);
      if (node_height(l->right()) > node_height(l->left()) + 1) {
        l->set_right(rotate_right(l->right()));
        update(l);
        return rotate_left(l);
      }
      return l;
    }
    l->set_right(join_right(l->right(), m, r));
    update(l);
    if (node_height(l->right()) > node_height(l->left()) + 1) {
      return rotate_left(l);
    }
    return l;
  }

  static Node* join_left(Node* l, Node* m, Node* r) noexcept {
    if (node_height(r->left()) <= node_height(l) + 1) {
      m->set_left(l);
      m->set_right(r->left());
      r->set_left(update(m));
      update(r);
      if (node_height(r->left()) > node_height(r->right()) + 1) {
        r->set_left(rotate_left(r->left()));
        update(r);
        return rotate_right(r);
      }
      return r;
    }
    r->set_left(join_left(l, m, r->left()));
    update(r);
    if (node_height(r->left()) > node_height(r->right()) + 1) {
      return rotate_right(r);
    }
    return r;
  }

  /// Join without a middle node.
  static Node* join2(Node* l, Node* r) noexcept {
    if (!l) return r;
    if (!r) return l;
    auto [rest, last] = split_last(l);
    return join(rest, last, r);
  }

  /// Detaches the in-order last node of t. Returns {rest, last}.
  static std::pair<Node*, Node*> split_last(Node* t) noexcept {
    if (!t->right()) {
      Node* rest = t->left();
      t->set_left(nullptr);
      return {rest, t};
    }
    auto [rest, last] = split_last(t->right());
    t->set_right(nullptr);
    return {join(t->left(), t, rest), last};
  }

  struct SplitResult {
    Node* left;
    Node* mid;  // detached node with key == split key, or nullptr
    Node* right;
  };

  SplitResult split(Node* t, const K& key) const {
    if (!t) return {nullptr, nullptr, nullptr};
    if (cmp_(key, t->key)) {
      auto [l, m, r] = split(t->left(), key);
      Node* right_tree = t->right();
      t->unlink();
      return {l, m, join(r, t, right_tree)};
    }
    if (cmp_(t->key, key)) {
      auto [l, m, r] = split(t->right(), key);
      Node* left_tree = t->left();
      t->unlink();
      return {join(left_tree, t, l), m, r};
    }
    Node* l = t->left();
    Node* r = t->right();
    t->unlink();
    return {l, t, r};
  }

  /// `nodes` is null or parallel to `items` (see multi_insert).
  Node* multi_insert_rec(Node* t, std::span<const std::pair<K, V>> items,
                         Handle* nodes, const ParCtx& ctx) {
    if (items.empty()) return t;
    if (!t) return build_balanced(items, nodes);
    const std::size_t mid = items.size() / 2;
    auto [l, m, r] = split(t, items[mid].first);
    if (m) {
      m->value = items[mid].second;
    } else {
      m = create_node(items[mid].first, items[mid].second);
    }
    if (nodes) nodes[mid] = m;
    Node* nl = nullptr;
    Node* nr = nullptr;
    auto left_work = [&] {
      nl = multi_insert_rec(l, items.subspan(0, mid), nodes, ctx);
    };
    auto right_work = [&] {
      nr = multi_insert_rec(r, items.subspan(mid + 1),
                            nodes ? nodes + mid + 1 : nullptr, ctx);
    };
    if (ctx.scheduler && items.size() > ctx.grain) {
      ctx.scheduler->parallel_invoke(sched::FnView(left_work),
                                     sched::FnView(right_work));
    } else {
      left_work();
      right_work();
    }
    return join(nl, m, nr);
  }

  /// Removes `keys` from the subtree t, replacing t in place; returns how
  /// many nodes it detached (`out` is parallel to `keys`, all null on
  /// entry). A hit closes its gap with join2, a node above a hit rejoins
  /// with join, and a subtree that lost nothing is not touched again. The
  /// halves fork only when both exceed the grain, and the sequential case
  /// calls the children directly. A one-key span goes to detach_one.
  std::size_t multi_extract_rec(Node*& t, std::span<const K> keys,
                                Handle* out, const ParCtx& ctx) {
    if (t == nullptr || keys.empty()) return 0;
    if (keys.size() == 1) {
      out[0] = detach_one(t, keys[0]);
      return out[0] != nullptr ? 1 : 0;
    }
    const auto it = std::lower_bound(keys.begin(), keys.end(), t->key, cmp_);
    const auto lo = static_cast<std::size_t>(it - keys.begin());
    const bool hit = it != keys.end() && !cmp_(t->key, *it);
    const std::size_t skip = lo + (hit ? 1 : 0);
    const std::span<const K> left = keys.first(lo);
    const std::span<const K> right = keys.subspan(skip);
    Node* l = t->left();
    Node* r = t->right();
    std::size_t gone_l = 0;
    std::size_t gone_r = 0;
    if (ctx.scheduler && left.size() > ctx.grain &&
        right.size() > ctx.grain) {
      auto left_work = [&] { gone_l = multi_extract_rec(l, left, out, ctx); };
      auto right_work = [&] {
        gone_r = multi_extract_rec(r, right, out + skip, ctx);
      };
      ctx.scheduler->parallel_invoke(sched::FnView(left_work),
                                     sched::FnView(right_work));
    } else {
      if (!left.empty()) gone_l = multi_extract_rec(l, left, out, ctx);
      if (!right.empty()) gone_r = multi_extract_rec(r, right, out + skip, ctx);
    }
    if (hit) {
      out[lo] = t;
      t->unlink();
      t = join2(l, r);
    } else if (gone_l + gone_r != 0) {
      t = join(l, t, r);
    }
    return gone_l + gone_r + (hit ? 1 : 0);
  }

  /// An AVL tree this deep would hold more than 2^64 nodes.
  static constexpr int kMaxDepth = 96;

  /// Removes `key` from the subtree t, replacing t in place; returns the
  /// detached node or nullptr. One walk down records the path; a miss leaves
  /// t untouched, and a hit rejoins the recorded ancestors bottom-up.
  Node* detach_one(Node*& t, const K& key) {
    assert(node_height(t) <= kMaxDepth);
    Node* path[kMaxDepth];
    int depth = 0;
    Node* n = t;
    while (n != nullptr) {
      const bool left = cmp_(key, n->key);
      if (!left && !cmp_(n->key, key)) break;
      path[depth++] = n;
      n = left ? n->left() : n->right();
    }
    if (n == nullptr) return nullptr;
    Node* sub = join2(n->left(), n->right());
    n->unlink();
    Node* child = n;
    while (depth > 0) {
      Node* p = path[--depth];
      sub = p->left() == child ? join(sub, p, p->right())
                               : join(p->left(), p, sub);
      child = p;
    }
    t = sub;
    return n;
  }

  Node* build_balanced(std::span<const std::pair<K, V>> items,
                       Handle* nodes = nullptr) {
    if (items.empty()) return nullptr;
    const std::size_t mid = items.size() / 2;
    Node* n = create_node(items[mid].first, items[mid].second);
    if (nodes) nodes[mid] = n;
    n->set_left(build_balanced(items.subspan(0, mid), nodes));
    n->set_right(build_balanced(items.subspan(mid + 1),
                                nodes ? nodes + mid + 1 : nullptr));
    return update(n);
  }

  template <typename Fn>
  static void for_each_rec(const Node* t, Fn& fn) {
    if (!t) return;
    for_each_rec(t->left(), fn);
    fn(t->key, t->value);
    for_each_rec(t->right(), fn);
  }

  /// Iterative teardown; with a pool the subtree goes back as ONE spliced
  /// free chain (a single pool splice instead of n shard pushes).
  void destroy(Node* t) noexcept {
    if (t == nullptr) return;
    if (pool_ != nullptr) {
      typename Pool::FreeChain chain;
      flatten_dispose(t, [&chain](Node* n) noexcept {
        n->~Node();
        chain.push(static_cast<void*>(n));
      });
      pool_->recycle_chain(std::move(chain));
    } else {
      flatten_dispose(t, [](Node* n) noexcept { delete n; });
    }
  }

  void validate_rec(const Node* t, const K* lo, const K* hi,
                    util::Validator& v, std::uint64_t& budget) const {
    if (t == nullptr || !v.ok()) return;
    if (!v.require(budget > 0, "links reach more nodes than the root's ",
                   "size field ", node_size(root_),
                   " admits (cycle or corrupt size)")) {
      return;
    }
    --budget;
    if (!v.require(lo == nullptr || cmp_(*lo, t->key), "order violated at key ",
                   t->key, ": not above its subtree's lower bound ",
                   lo != nullptr ? *lo : t->key)) {
      return;
    }
    if (!v.require(hi == nullptr || cmp_(t->key, *hi), "order violated at key ",
                   t->key, ": not below its subtree's upper bound ",
                   hi != nullptr ? *hi : t->key)) {
      return;
    }
    const int want_h =
        1 + std::max(node_height(t->left()), node_height(t->right()));
    if (!v.require(node_height(t) == want_h, "height field wrong at key ",
                   t->key, ": stored ", node_height(t), ", children imply ",
                   want_h)) {
      return;
    }
    const std::size_t want_n =
        1 + node_size(t->left()) + node_size(t->right());
    if (!v.require(node_size(t) == want_n, "size field wrong at key ", t->key,
                   ": stored ", node_size(t), ", children imply ", want_n)) {
      return;
    }
    const int skew = node_height(t->left()) - node_height(t->right());
    if (!v.require(skew >= -1 && skew <= 1, "AVL balance violated at key ",
                   t->key, ": left height ", node_height(t->left()),
                   " vs right height ", node_height(t->right()))) {
      return;
    }
    validate_rec(t->left(), lo, &t->key, v, budget);
    validate_rec(t->right(), &t->key, hi, v, budget);
  }

  void assert_sorted_pairs(
      [[maybe_unused]] std::span<const std::pair<K, V>> items) const {
#ifndef NDEBUG
    for (std::size_t i = 1; i < items.size(); ++i) {
      assert(cmp_(items[i - 1].first, items[i].first) &&
             "batch must be sorted and duplicate-free");
    }
#endif
  }
  void assert_sorted_keys([[maybe_unused]] std::span<const K> keys) const {
#ifndef NDEBUG
    for (std::size_t i = 1; i < keys.size(); ++i) {
      assert(cmp_(keys[i - 1], keys[i]) &&
             "batch must be sorted and duplicate-free");
    }
#endif
  }

  Node* root_ = nullptr;
  Compare cmp_;
  Pool* pool_ = nullptr;
};

}  // namespace pwss::tree
