#pragma once
// Operation and result types shared by every map in the library (M0, M1,
// M2, baselines' batched adapters) — protocol v2.
//
// v1 exposed search/insert/erase with a bool-plus-optional result. v2 opens
// the *ordered* surface the working-set structures already pay for (every
// segment is a balanced search tree with order statistics): predecessor,
// successor and range-count queries, plus an explicit upsert, and replaces
// the result bool with a ResultStatus enum that distinguishes "inserted"
// from "updated" and carries the matched key for ordered queries.
//
// Semantics:
//   * kSearch       — self-adjusting lookup (counts as an access).
//   * kInsert       — write-either-way: overwrites an existing key (counts
//                     as an access), else inserts. Status kInserted/kUpdated.
//   * kUpsert       — the v2 name for the same write-either-way operation;
//                     kInsert is retained as the v1 spelling.
//   * kErase        — remove; status kErased/kNotFound.
//   * kPredecessor  — greatest key strictly below `key`. Read-only: no
//                     recency effect (the splay baseline still splays, as
//                     every splay access does, but changes no entry).
//   * kSuccessor    — least key strictly above `key`. Read-only.
//   * kRangeCount   — number of keys in the inclusive range [key, key2].
//                     Read-only; always answered (status kFound).
//
// Ordered kinds do not commute with mutations on *other* keys, so batched
// maps execute a batch as alternating point/ordered phases (see
// M1Map::execute_batch); within an ordered phase identical queries combine
// the same way duplicate point operations do (Section 6.1).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace pwss::core {

/// Monotonic nanoseconds since the steady-clock epoch — the time base of
/// every Op deadline. One clock for the whole protocol so a deadline
/// stamped by a client compares directly against the front end's batch-cut
/// clock read.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Converts a relative timeout into the absolute deadline Op carries;
/// zero-duration (and negative) timeouts produce an already-expired
/// deadline, not "no deadline".
inline std::uint64_t deadline_after(std::chrono::nanoseconds timeout) noexcept {
  const auto ns = timeout.count();
  return now_ns() + (ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
}

enum class OpType : std::uint8_t {
  kSearch,
  kInsert,
  kErase,
  kUpsert,       // v2: explicit write-either-way (same effect as kInsert)
  kPredecessor,  // v2 ordered: greatest key < key
  kSuccessor,    // v2 ordered: least key > key
  kRangeCount,   // v2 ordered: |{k : key <= k <= key2}|
};

/// True for the read-only ordered-query kinds (predecessor / successor /
/// range-count), which batched maps execute in separate phases.
constexpr bool is_ordered(OpType t) noexcept {
  return t == OpType::kPredecessor || t == OpType::kSuccessor ||
         t == OpType::kRangeCount;
}

/// True for kinds that can change the key set or a stored value.
constexpr bool is_mutation(OpType t) noexcept {
  return t == OpType::kInsert || t == OpType::kUpsert || t == OpType::kErase;
}

template <typename K, typename V>
struct Op {
  OpType type;
  K key;
  V value{};  // payload for inserts/upserts
  K key2{};   // kRangeCount: inclusive high bound of [key, key2]
  /// Absolute deadline on the now_ns() clock; 0 = none. An op whose
  /// deadline has passed completes with kTimedOut instead of executing —
  /// checked on submission and again at batch-cut boundaries (the op may
  /// still execute if it was already cut into a batch when the deadline
  /// passed; expiry is best-effort, terminal delivery is not).
  std::uint64_t deadline_ns = 0;

  /// Builder-style deadline attachment: Op::search(k).with_deadline(...).
  Op&& with_deadline(std::uint64_t abs_ns) && noexcept {
    deadline_ns = abs_ns;
    return std::move(*this);
  }
  Op&& with_timeout(std::chrono::nanoseconds timeout) && noexcept {
    deadline_ns = deadline_after(timeout);
    return std::move(*this);
  }
  bool expired(std::uint64_t now) const noexcept {
    return deadline_ns != 0 && now >= deadline_ns;
  }

  static Op search(K k) { return {OpType::kSearch, std::move(k), V{}, K{}}; }
  static Op insert(K k, V v) {
    return {OpType::kInsert, std::move(k), std::move(v), K{}};
  }
  static Op upsert(K k, V v) {
    return {OpType::kUpsert, std::move(k), std::move(v), K{}};
  }
  static Op erase(K k) { return {OpType::kErase, std::move(k), V{}, K{}}; }
  static Op predecessor(K k) {
    return {OpType::kPredecessor, std::move(k), V{}, K{}};
  }
  static Op successor(K k) {
    return {OpType::kSuccessor, std::move(k), V{}, K{}};
  }
  static Op range_count(K lo, K hi) {
    return {OpType::kRangeCount, std::move(lo), V{}, std::move(hi)};
  }
};

/// What one operation did. Replaces v1's bool: kInserted vs kUpdated are
/// now distinguishable, and ordered queries report whether a candidate key
/// was matched.
enum class ResultStatus : std::uint8_t {
  kNotFound,  // search/erase/pred/succ found nothing
  kFound,     // search hit; pred/succ matched; range-count answered
  kInserted,  // insert/upsert created the key
  kUpdated,   // insert/upsert overwrote an existing value
  kErased,    // erase removed the key
  // ---- terminal error statuses (overload-robustness layer) ----
  // The op did NOT execute; the map is unchanged by it. Every submitted
  // op reaches exactly one terminal status — fulfilled (one of the five
  // above) or one of these — never both, never neither.
  kOverloaded,   // shed by admission control / buffer or pool rejection
  kTimedOut,     // deadline passed before the op was executed
  kCancelled,    // cancel() observed at a batch-cut boundary
  kReadOnly,     // mutation shed: driver degraded to read-only after a
                 // persistence failure (store layer; sticky until restart)
};

/// True for the terminal error statuses: the op was not executed and had
/// no effect on the map. Composes with the v2 statuses — a Result is
/// either fulfilled (one of the five execution statuses, value/matched_key/
/// count meaningful) or errored (one of these, payload fields empty).
constexpr bool is_error(ResultStatus s) noexcept {
  return s == ResultStatus::kOverloaded || s == ResultStatus::kTimedOut ||
         s == ResultStatus::kCancelled || s == ResultStatus::kReadOnly;
}

/// Result of one operation.
///  * search: kFound/kNotFound, value = the found value
///  * insert/upsert: kInserted/kUpdated
///  * erase: kErased/kNotFound, value = the removed value
///  * predecessor/successor: kFound/kNotFound, matched_key = the key
///    actually matched, value = its value
///  * range-count: kFound, count = |[key, key2]|
///
/// The second template parameter is the key type carried by matched_key;
/// it defaults to V so v1-era spellings like Result<std::uint64_t> (where
/// K == V, the common case in tests and examples) keep compiling.
template <typename V, typename K = V>
struct Result {
  ResultStatus status = ResultStatus::kNotFound;
  std::optional<V> value{};
  std::optional<K> matched_key{};  // ordered queries: the key matched
  std::uint64_t count = 0;         // kRangeCount: keys in [key, key2]

  /// v1 compatibility accessor: the old bool. True exactly when v1
  /// reported true — search hit, fresh insert, successful erase, matched
  /// ordered query. An upsert/insert that updated in place reports false,
  /// matching v1's "insert on existing key" convention.
  constexpr bool success() const noexcept {
    return status == ResultStatus::kFound ||
           status == ResultStatus::kInserted ||
           status == ResultStatus::kErased;
  }

  /// True when the op reached a terminal ERROR status (shed, expired,
  /// cancelled, or read-only) — it never executed. Distinct from
  /// !success(): a kNotFound search executed fine, it just missed.
  constexpr bool is_error() const noexcept { return core::is_error(status); }

  /// An error Result for one terminal error status (the shape every shed/
  /// expiry/cancellation path delivers).
  static constexpr Result error(ResultStatus s) noexcept {
    Result r;
    r.status = s;
    return r;
  }
};

/// An ordered query's result as the blocking APIs' optional (key, value)
/// pair: the matched entry on kFound, nullopt otherwise. A result decoded
/// off the wire may lack the matched key, which also reads as nullopt.
template <typename V, typename K>
std::optional<std::pair<K, V>> ordered_pair(Result<V, K> r) {
  if (r.status != ResultStatus::kFound || !r.matched_key) return std::nullopt;
  return std::pair<K, V>{std::move(*r.matched_key),
                         std::move(r.value).value_or(V{})};
}

/// Splits a batch into maximal same-phase runs (point vs ordered kinds)
/// and invokes point_fn(begin, end) / ordered_fn(begin, end) on each in
/// submission order — the phase slicing every batched execution path
/// uses so ordered queries observe exactly the point operations that
/// precede them.
template <typename K, typename V, typename PointFn, typename OrderedFn>
void for_each_phase(std::span<const Op<K, V>> ops, PointFn&& point_fn,
                    OrderedFn&& ordered_fn) {
  std::size_t i = 0;
  while (i < ops.size()) {
    const bool ordered = is_ordered(ops[i].type);
    std::size_t j = i + 1;
    while (j < ops.size() && is_ordered(ops[j].type) == ordered) ++j;
    if (ordered) {
      ordered_fn(i, j);
    } else {
      point_fn(i, j);
    }
    i = j;
  }
}

}  // namespace pwss::core
