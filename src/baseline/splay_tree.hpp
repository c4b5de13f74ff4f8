#pragma once
// Top-down splay tree (Sleator–Tarjan [37]) — the classical self-adjusting
// baseline. Satisfies the working-set bound amortized, so E8 compares it
// head-to-head with M0/M1/M2 under skew.
//
// Every node carries its subtree size, so the tree answers the ordered
// kinds too: predecessor/successor return the neighbouring entry and
// range_count is a difference of two ranks. Like every splay access they
// splay the nodes they touch — that is what keeps them amortized
// O(log n) — but they never change the key set or a stored value.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/validate.hpp"

namespace pwss::baseline {

template <typename K, typename V>
class SplayTree {
 public:
  SplayTree() = default;
  SplayTree(const SplayTree&) = delete;
  SplayTree& operator=(const SplayTree&) = delete;
  SplayTree(SplayTree&& other) noexcept
      : root_(std::exchange(other.root_, nullptr)) {}
  SplayTree& operator=(SplayTree&& other) noexcept {
    if (this != &other) {
      destroy(root_);
      root_ = std::exchange(other.root_, nullptr);
    }
    return *this;
  }
  ~SplayTree() { destroy(root_); }

  std::size_t size() const noexcept { return size_of(root_); }
  bool empty() const noexcept { return root_ == nullptr; }

  /// Self-adjusting search: splays the accessed (or closest) node to the
  /// root. Returns the value if found.
  std::optional<V> search(const K& key) {
    root_ = splay(root_, key);
    if (root_ && root_->key == key) return root_->value;
    return std::nullopt;
  }

  /// Insert or overwrite; returns true iff newly inserted.
  bool insert(const K& key, V value) {
    if (!root_) {
      root_ = new Node(key, std::move(value));
      return true;
    }
    root_ = splay(root_, key);
    if (root_->key == key) {
      root_->value = std::move(value);
      return false;
    }
    auto* n = new Node(key, std::move(value));
    if (key < root_->key) {
      n->left = root_->left;
      n->right = root_;
      root_->left = nullptr;
    } else {
      n->right = root_->right;
      n->left = root_;
      root_->right = nullptr;
    }
    pull(root_);
    pull(n);
    root_ = n;
    return true;
  }

  /// Remove; returns the removed value.
  std::optional<V> erase(const K& key) {
    if (!root_) return std::nullopt;
    root_ = splay(root_, key);
    if (root_->key != key) return std::nullopt;
    std::optional<V> out = std::move(root_->value);
    Node* old = root_;
    if (!root_->left) {
      root_ = root_->right;
    } else {
      Node* left = splay(root_->left, key);  // max of left subtree to root
      left->right = root_->right;
      pull(left);
      root_ = left;
    }
    delete old;
    return out;
  }

  // ---- ordered queries (protocol v2) --------------------------------------
  // After splay(key) every key in the root's left subtree is below `key`
  // unless the root itself is, and symmetrically on the right; the second
  // splay raises the answer from that subtree (its max or its min).

  /// Entry with the greatest key strictly below `key`.
  std::optional<std::pair<K, V>> predecessor(const K& key) {
    if (!root_) return std::nullopt;
    root_ = splay(root_, key);
    if (root_->key < key) return entry(root_);
    if (!root_->left) return std::nullopt;
    root_->left = splay(root_->left, key);
    return entry(root_->left);
  }

  /// Entry with the least key strictly above `key`.
  std::optional<std::pair<K, V>> successor(const K& key) {
    if (!root_) return std::nullopt;
    root_ = splay(root_, key);
    if (key < root_->key) return entry(root_);
    if (!root_->right) return std::nullopt;
    root_->right = splay(root_->right, key);
    return entry(root_->right);
  }

  /// Number of keys in the inclusive range [lo, hi] (0 when hi < lo).
  std::uint64_t range_count(const K& lo, const K& hi) {
    if (hi < lo) return 0;
    const std::size_t below_lo = rank(lo);
    std::size_t upto_hi = rank(hi);  // splays hi to the root when present
    if (root_ && root_->key == hi) ++upto_hi;
    return upto_hi - below_lo;
  }

  /// Height of the tree (for tests demonstrating that splay trees do not
  /// maintain worst-case balance).
  std::size_t height() const { return height_rec(root_); }

  /// In-order traversal over (key, value) without splaying — the
  /// checkpoint export must not perturb the tree it drains.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_rec(root_, fn);
  }

  /// Deep structural check without splaying: keys strictly increase in
  /// order and every node's size counts its subtree. Empty string = OK.
  /// Requires K streamable.
  std::string validate() const {
    util::Validator v("splay: ");
    validate_rec(root_, nullptr, nullptr, v);
    return std::move(v).take();
  }

 private:
  struct Node {
    Node(const K& k, V v) : key(k), value(std::move(v)) {}
    K key;
    V value;
    Node* left = nullptr;
    Node* right = nullptr;
    std::size_t size = 1;  // nodes in this subtree
  };

  static std::size_t size_of(const Node* t) noexcept {
    return t ? t->size : 0;
  }
  static void pull(Node* t) noexcept {
    t->size = 1 + size_of(t->left) + size_of(t->right);
  }
  static std::pair<K, V> entry(const Node* t) { return {t->key, t->value}; }

  /// Keys strictly below `key`; splays `key` (or its neighbour) to the
  /// root.
  std::size_t rank(const K& key) {
    if (!root_) return 0;
    root_ = splay(root_, key);
    return size_of(root_->left) + (root_->key < key ? 1 : 0);
  }

  /// Top-down splay (Sleator–Tarjan's simplified version) with subtree
  /// sizes: nodes linked into the left/right trees get their sizes fixed
  /// in one pass down each spine once the middle node is known.
  static Node* splay(Node* t, const K& key) {
    if (!t) return nullptr;
    Node header{key, V{}};
    Node* left_max = &header;
    Node* right_min = &header;
    std::size_t left_size = 0;  // nodes in the left tree so far
    std::size_t right_size = 0;
    for (;;) {
      if (key < t->key) {
        if (!t->left) break;
        if (key < t->left->key) {  // zig-zig: rotate right
          Node* l = t->left;
          t->left = l->right;
          l->right = t;
          pull(t);
          t = l;
          if (!t->left) break;
        }
        right_min->left = t;  // link right
        right_min = t;
        t = t->left;
        right_size += 1 + size_of(right_min->right);
      } else if (t->key < key) {
        if (!t->right) break;
        if (t->right->key < key) {  // zag-zag: rotate left
          Node* r = t->right;
          t->right = r->left;
          r->left = t;
          pull(t);
          t = r;
          if (!t->right) break;
        }
        left_max->right = t;  // link left
        left_max = t;
        t = t->right;
        left_size += 1 + size_of(left_max->left);
      } else {
        break;
      }
    }
    left_size += size_of(t->left);
    right_size += size_of(t->right);
    t->size = left_size + right_size + 1;
    left_max->right = nullptr;
    right_min->left = nullptr;
    for (Node* y = header.right; y; y = y->right) {
      y->size = left_size;
      left_size -= 1 + size_of(y->left);
    }
    for (Node* y = header.left; y; y = y->left) {
      y->size = right_size;
      right_size -= 1 + size_of(y->right);
    }
    left_max->right = t->left;
    right_min->left = t->right;
    t->left = header.right;
    t->right = header.left;
    return t;
  }

  static void destroy(Node* t) noexcept {
    if (!t) return;
    destroy(t->left);
    destroy(t->right);
    delete t;
  }

  template <typename Fn>
  static void for_each_rec(const Node* t, Fn& fn) {
    if (t == nullptr) return;
    for_each_rec(t->left, fn);
    fn(t->key, t->value);
    for_each_rec(t->right, fn);
  }

  static std::size_t height_rec(const Node* t) noexcept {
    if (!t) return 0;
    return 1 + std::max(height_rec(t->left), height_rec(t->right));
  }

  /// `t` lies strictly between *lo and *hi (null = unbounded).
  static bool validate_rec(const Node* t, const K* lo, const K* hi,
                           util::Validator& v) {
    if (!t) return true;
    return v.require((!lo || *lo < t->key) && (!hi || t->key < *hi),
                     "key ", t->key, " out of order") &&
           v.require(t->size == 1 + size_of(t->left) + size_of(t->right),
                     "node ", t->key, " size ", t->size,
                     " does not count its subtree") &&
           validate_rec(t->left, lo, &t->key, v) &&
           validate_rec(t->right, &t->key, hi, v);
  }

  Node* root_ = nullptr;
};

}  // namespace pwss::baseline
