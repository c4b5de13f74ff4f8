#pragma once
// Primitives used by the entropy sort and the batch machinery: exclusive
// prefix sums, stable three-way partition (the "standard prefix-sum
// technique" of Definition 32) and the one stable insertion sort.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"

namespace pwss::sort {

/// Stable insertion sort of `v` by `key_of(v[i])`: PESort's base case and
/// small-input path, the walk's 16-op merge runs, and core::sort_chunk's
/// in-place path. Unlike std::stable_sort it never allocates.
template <typename T, typename KeyFn>
void insertion_sort(std::span<T> v, const KeyFn& key_of) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    T tmp = std::move(v[i]);
    const auto& key = key_of(tmp);
    std::size_t j = i;
    // Strict < keeps equal keys in place: stable.
    for (; j > 0 && key < key_of(v[j - 1]); --j) v[j] = std::move(v[j - 1]);
    v[j] = std::move(tmp);
  }
}

/// Exclusive prefix sum of `v` in place; returns the total. Two-pass
/// blocked algorithm: O(n) work, O(n / p + log p) span in practice.
std::uint64_t exclusive_prefix_sum(std::vector<std::uint64_t>& v,
                                   sched::Scheduler* scheduler = nullptr,
                                   std::size_t grain = 4096);

/// Stable three-way partition of `input` by the classification in `cls`
/// (0 = below pivot, 1 = equal, 2 = above). Writes the partitioned
/// permutation into `output` (same size, must not alias input). Returns the
/// two boundaries {begin_equal, begin_above}. Parallelized via blocked
/// counting + prefix-sum + scatter — the "standard prefix-sum technique" of
/// Definition 32. Stability within each class is what preserves per-key
/// operation order through PESort.
template <typename T>
std::pair<std::size_t, std::size_t> three_way_partition(
    std::span<const T> input, std::span<const std::uint8_t> cls,
    std::span<T> output, sched::Scheduler* scheduler = nullptr,
    std::size_t grain = 4096) {
  const std::size_t n = input.size();
  assert(cls.size() == n && output.size() == n);
  const std::size_t blocks =
      scheduler ? (n + grain - 1) / grain : (n ? 1 : 0);
  const std::size_t block_size = blocks ? (n + blocks - 1) / blocks : 0;

  if (blocks <= 1) {
    // Single-block (sequential) case: scalar counters, no per-call count
    // vectors — this is every recursion level below the parallel grain,
    // so the whole sequential sort stays off the allocator.
    std::size_t n0 = 0, n1 = 0;
    for (std::size_t i = 0; i < n; ++i) {
      n0 += (cls[i] == 0);
      n1 += (cls[i] == 1);
    }
    const std::size_t begin_equal = n0;
    const std::size_t begin_above = n0 + n1;
    std::size_t p0 = 0, p1 = begin_equal, p2 = begin_above;
    for (std::size_t i = 0; i < n; ++i) {
      switch (cls[i]) {
        case 0: output[p0++] = input[i]; break;
        case 1: output[p1++] = input[i]; break;
        default: output[p2++] = input[i]; break;
      }
    }
    return {begin_equal, begin_above};
  }

  // Per-block counts of each class.
  std::vector<std::uint64_t> c0(blocks + 1, 0), c1(blocks + 1, 0),
      c2(blocks + 1, 0);
  auto count_body = [&](std::size_t blo, std::size_t bhi) {
    for (std::size_t b = blo; b < bhi; ++b) {
      const std::size_t lo = b * block_size;
      const std::size_t hi = std::min(n, lo + block_size);
      std::uint64_t n0 = 0, n1 = 0, n2 = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        n0 += (cls[i] == 0);
        n1 += (cls[i] == 1);
        n2 += (cls[i] == 2);
      }
      c0[b] = n0;
      c1[b] = n1;
      c2[b] = n2;
    }
  };
  if (scheduler && blocks > 1) {
    scheduler->parallel_for(0, blocks, 1, count_body);
  } else {
    count_body(0, blocks);
  }

  const std::uint64_t t0 = exclusive_prefix_sum(c0, scheduler);
  const std::uint64_t t1 = exclusive_prefix_sum(c1, scheduler);
  exclusive_prefix_sum(c2, scheduler);

  const std::size_t begin_equal = static_cast<std::size_t>(t0);
  const std::size_t begin_above = static_cast<std::size_t>(t0 + t1);

  auto scatter_body = [&](std::size_t blo, std::size_t bhi) {
    for (std::size_t b = blo; b < bhi; ++b) {
      const std::size_t lo = b * block_size;
      const std::size_t hi = std::min(n, lo + block_size);
      std::size_t p0 = static_cast<std::size_t>(c0[b]);
      std::size_t p1 = begin_equal + static_cast<std::size_t>(c1[b]);
      std::size_t p2 = begin_above + static_cast<std::size_t>(c2[b]);
      for (std::size_t i = lo; i < hi; ++i) {
        switch (cls[i]) {
          case 0: output[p0++] = input[i]; break;
          case 1: output[p1++] = input[i]; break;
          default: output[p2++] = input[i]; break;
        }
      }
    }
  };
  if (scheduler && blocks > 1) {
    scheduler->parallel_for(0, blocks, 1, scatter_body);
  } else {
    scatter_body(0, blocks);
  }
  return {begin_equal, begin_above};
}

}  // namespace pwss::sort
