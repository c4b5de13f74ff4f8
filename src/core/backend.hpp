#pragma once
// MapBackend — the one batched-map concept every map in the library
// satisfies: the paper's structures (M0 sequential, M1 batch-parallel, M2
// pipelined) and the baselines' batched adapters (splay, AVL, Iacono,
// locked). A backend executes a key-ordered-combinable batch of operations
// and reports its size; everything else (scheduler lifetime, asynchronous
// front ends, blocking per-op APIs) is layered on top by driver/.
//
// Which front end a backend sits behind is chosen where it is registered
// (driver/registry.hpp).
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
///
/// Both remaining members must be called quiescent:
///   * validate() — deep structural validation with a failure description
///     ("" = sound); drivers surface it through Driver::validate() so
///     cross-backend fuzzers report WHAT broke;
///   * export_entries(out) — appends the full contents to `out` in
///     ascending key order, the sorted export the checkpoint writer
///     (store/snapshot.hpp) serializes.
template <typename B, typename K, typename V>
concept MapBackend = requires(B b, std::span<const Op<K, V>> ops,
                              std::vector<std::pair<K, V>>& out) {
  { b.execute_batch(ops) } -> std::same_as<std::vector<Result<V, K>>>;
  { b.size() } -> std::convertible_to<std::size_t>;
  { b.validate() } -> std::convertible_to<std::string>;
  b.export_entries(out);
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

/// True when the backend reports which segment currently holds a key — the
/// working-set structures' recency depth. Drivers surface it through
/// Driver::depth_of(); non-adjusting backends report nullopt.
template <typename B, typename K>
concept HasRecencyDepth = requires(B b, const K& k) {
  { b.segment_of(k) } -> std::convertible_to<std::optional<std::size_t>>;
};

}  // namespace pwss::core
