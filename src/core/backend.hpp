#pragma once
// MapBackend — the one batched-map concept every map in the library
// satisfies: the paper's structures (M0 sequential, M1 batch-parallel, M2
// pipelined) and the baselines' batched adapters (splay, AVL, Iacono,
// locked). A backend executes a key-ordered-combinable batch of operations
// and reports its size; everything else (scheduler lifetime, asynchronous
// front ends, blocking per-op APIs) is layered on top by driver/.
//
// Per-backend capabilities are described by backend_traits<B>, specialized
// next to each backend's definition:
//   * needs_scheduler — the backend's constructor requires a live
//     sched::Scheduler (its batch internals fork parallel work);
//   * native_async    — the backend runs its own asynchronous front end
//     (submit/quiesce, thread-safe blocking calls), like M2; the driver
//     must NOT wrap it in AsyncMap;
//   * supports_async  — the backend may sit behind core::AsyncMap's
//     implicit-batching front end (Section 4 / Appendix A.1). True for any
//     single-owner batched map; false only for natively-async backends,
//     which already provide the same service;
//   * point_thread_safe — the backend's per-op path may be called from
//     many threads without an async front end (the locked baseline).
//
// Every backend executes the full protocol, ordered kinds included.

#include <concepts>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"

namespace pwss::core {

/// The unified batched-map concept. `execute_batch` must realize a legal
/// linearization of the batch: per-key program order preserved, results in
/// submission order (Definition 8). Ordered kinds observe every earlier
/// point operation of the batch and none of the later ones
/// (phase slicing — see M1Map::execute_batch).
template <typename B, typename K, typename V>
concept MapBackend = requires(B b, std::span<const Op<K, V>> ops) {
  { b.execute_batch(ops) } -> std::same_as<std::vector<Result<V, K>>>;
  { b.size() } -> std::convertible_to<std::size_t>;
};

/// Default traits: a single-owner sequential batched map (M0-like) that
/// executes the full v2 protocol.
template <typename B>
struct backend_traits {
  static constexpr bool needs_scheduler = false;
  static constexpr bool native_async = false;
  static constexpr bool supports_async = true;
  static constexpr bool point_thread_safe = false;
};

/// True when the backend can also deliver batch results into a
/// caller-owned buffer (capacity reused across batches). The driver layer
/// and AsyncMap's drive loop prefer this surface so a steady stream of
/// batches stops reallocating its results vector.
template <typename B, typename K, typename V>
concept HasBatchInto = requires(B b, std::span<const Op<K, V>> ops,
                                std::vector<Result<V, K>>& out) {
  b.execute_batch(ops, out);
};

/// One batch through the best surface the backend has: the reusable-buffer
/// overload when present, else the allocating one.
template <typename K, typename V, typename B>
void execute_batch_into(B& backend, std::span<const Op<K, V>> ops,
                        std::vector<Result<V, K>>& out) {
  if constexpr (HasBatchInto<B, K, V>) {
    backend.execute_batch(ops, out);
  } else {
    out = backend.execute_batch(ops);
  }
}

/// True when the backend exposes check_invariants(); drivers surface it
/// through Driver::check() so cross-backend tests can validate uniformly.
template <typename B>
concept HasInvariantCheck = requires(B b) {
  { b.check_invariants() } -> std::convertible_to<bool>;
};

/// True when the backend's validator also produces a failure description
/// (validate() returning "" = sound). Drivers surface it through
/// Driver::validate() so cross-backend fuzzers report WHAT broke, not
/// just that something did.
template <typename B>
concept HasDeepValidate = requires(B b) {
  { b.validate() } -> std::convertible_to<std::string>;
};

/// True when the backend reports which segment currently holds a key — the
/// working-set structures' recency depth. Drivers surface it through
/// Driver::depth_of(); non-adjusting backends report nullopt.
template <typename B, typename K>
concept HasRecencyDepth = requires(B b, const K& k) {
  { b.segment_of(k) } -> std::convertible_to<std::optional<std::size_t>>;
};

/// True when the backend also has the classic point-op surface; drivers
/// use it for the sequential fast path instead of singleton batches.
template <typename B, typename K, typename V>
concept HasPointOps = requires(B b, const K& k, V v) {
  b.search(k);
  { b.insert(k, std::move(v)) } -> std::convertible_to<bool>;
  { b.erase(k) } -> std::convertible_to<std::optional<V>>;
};

/// True when the backend can drain its full contents into a sorted
/// (key, value) vector — the multi_extract-style sorted export the
/// checkpoint writer (store/snapshot.hpp) serializes. Must be called
/// quiescent; drivers surface it through Driver::export_sorted(). The
/// backend appends to `out` in ascending key order.
template <typename B, typename K, typename V>
concept HasExportEntries =
    requires(B b, std::vector<std::pair<K, V>>& out) { b.export_entries(out); };

}  // namespace pwss::core
