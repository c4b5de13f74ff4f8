#pragma once
// BatchScratch — the per-instance arena behind M1's (and M0's, via the
// shared Segment paths) batch processing. Every execute_batch used to build
// ~7 fresh vectors per segment sweep (tagged ops, sort scratch, group lists,
// key lists, extracted items, promotion lists, capacity transfers) plus the
// PESort scratch copy; with the arena those buffers live as long as the map
// instance and repeated batches reuse capacity instead of reallocating.
//
// Ownership rule (see DESIGN.md "Allocation discipline"): one arena per map
// instance, used only under that instance's single-owner batch contract.
// Arenas are never shared across driver instances (each ShardedDriver shard
// owns its own backend and therefore its own arena) and never touched by
// two batches concurrently. Its segment-sweep half, SweepScratch, is also
// what each M2 runner (the interface, every stage) owns.

#include <cstddef>
#include <vector>

#include "core/group.hpp"
#include "core/ladder.hpp"
#include "core/segment.hpp"
#include "sort/pesort.hpp"

namespace pwss::core {

template <typename K, typename V, typename Target>
struct BatchScratch : SweepScratch<K, V> {
  using Pending = PendingOp<K, V, Target>;

  /// Tagged + entropy-sorted copy of the incoming batch. Groups reference
  /// it by index, so it must stay unmoved for the whole batch.
  std::vector<Pending> tagged;
  /// PESort partition + classification + pivot-median buffers.
  sort::PESortScratch<Pending, K> sort;
  /// Coalesced index groups still looking for their item.
  std::vector<IndexGroup<K>> pending;
  /// Groups that continue past the current segment (swapped with pending).
  std::vector<IndexGroup<K>> unfinished;
  /// Ordered-phase duplicate combining (answer_ordered).
  OrderedScratch<K, V> ordered;

  /// Drops everything the arena holds (capacity included); handy in tests.
  void release() { *this = BatchScratch(); }
};

}  // namespace pwss::core
