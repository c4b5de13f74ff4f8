#pragma once
// PESort — Parallel Entropy Sort (Definition 32): a parallel three-way
// quicksort whose pivots come from the Parallel Pivot Algorithm (Lemma 34),
// guaranteeing the pivot lies within the two middle quartiles. Elements
// equal to the pivot terminate at that recursion level, which is where the
// entropy adaptivity comes from: an item with frequency q·n traverses only
// O(log(1/q)) levels, so total work is O(n·H + n) (Theorem 33) with
// O(log² n) span.
//
// The sort is *stable* (stable base case + stable prefix-sum partition),
// which the maps rely on: operations on the same key keep their program
// order through batch sorting.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sched/scheduler.hpp"
#include "sort/parallel_primitives.hpp"
#include "util/rng.hpp"

namespace pwss::sort {

/// Ranges at or below PESortOptions::base_case use the sequential stable
/// sort; whole *inputs* at or below 2x this threshold skip the block/median
/// machinery (and its scratch allocation) entirely — see pesort().
inline constexpr std::size_t kSmallSortThreshold = 64;

struct PESortOptions {
  /// Use the easier randomized pivot (the Remark after Lemma 34) instead of
  /// the deterministic PPivot. Ablated in bench E3.
  bool random_pivot = false;
  std::uint64_t seed = 0x5eed5eed5eedULL;
  /// Ranges at or below this size use the sequential stable sort.
  std::size_t base_case = kSmallSortThreshold;
  /// Minimum range size for forking the two recursive calls.
  std::size_t grain = 2048;
};

/// Reusable buffers for pesort: the partition scratch copy, the per-pass
/// classification bytes, and the pivot-algorithm block-median buffer
/// (sliced in lockstep with the data, like cls, so no recursion level
/// allocates its own). Owned by the caller (e.g. core::BatchScratch) so
/// repeated sorts reuse capacity instead of reallocating; a null scratch
/// falls back to per-call buffers.
template <typename T, typename Key>
struct PESortScratch {
  std::vector<T> buf;
  std::vector<std::uint8_t> cls;
  std::vector<Key> medians;
};

namespace detail {

/// Parallel Pivot Algorithm (Lemma 34): split into blocks of size ~log k,
/// take each block's median, return the median of medians — always within
/// the middle two quartiles. `med` is the caller's median buffer, sliced
/// in lockstep with the data like the classification bytes: concurrent
/// recursion branches write disjoint slices and no level allocates. The
/// per-block key buffer is a stack array — block <= bit_width(SIZE_MAX),
/// i.e. at most 64 keys.
template <typename T, typename Key, typename KeyFn>
Key ppivot(std::span<const T> v, std::span<Key> med, const KeyFn& key_of,
           sched::Scheduler* scheduler) {
  const std::size_t k = v.size();
  const std::size_t block = std::max<std::size_t>(1, std::bit_width(k));
  const std::size_t blocks = (k + block - 1) / block;
  auto body = [&](std::size_t blo, std::size_t bhi) {
    Key keys[65];
    for (std::size_t b = blo; b < bhi; ++b) {
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(k, lo + block);
      const std::size_t n = hi - lo;
      for (std::size_t i = 0; i < n; ++i) keys[i] = key_of(v[lo + i]);
      std::nth_element(keys, keys + n / 2, keys + n);
      med[b] = keys[n / 2];
    }
  };
  if (scheduler && blocks > 64) {
    scheduler->parallel_for(0, blocks, 16, body);
  } else {
    body(0, blocks);
  }
  auto mid = med.begin() + static_cast<std::ptrdiff_t>(blocks / 2);
  std::nth_element(med.begin(), mid, med.begin() + static_cast<std::ptrdiff_t>(blocks));
  return *mid;
}

/// Randomized alternative: sample pivots until one lands in the middle two
/// quartiles (O(1) expected attempts).
template <typename T, typename KeyFn>
auto random_quartile_pivot(std::span<const T> v, const KeyFn& key_of,
                           util::Xoshiro256& rng) {
  using Key = std::decay_t<decltype(key_of(v[0]))>;
  const std::size_t k = v.size();
  for (;;) {
    const Key candidate = key_of(v[rng.bounded(k)]);
    std::size_t below = 0, above = 0;
    for (const auto& x : v) {
      below += key_of(x) < candidate;
      above += candidate < key_of(x);
    }
    if (below <= 3 * k / 4 && above <= 3 * k / 4) return candidate;
  }
}

template <typename T, typename Key, typename KeyFn>
void pesort_rec(std::span<T> data, std::span<T> scratch,
                std::span<std::uint8_t> cls, std::span<Key> med,
                const KeyFn& key_of, sched::Scheduler* scheduler,
                const PESortOptions& opts, std::uint64_t seed) {
  const std::size_t n = data.size();
  if (n <= opts.base_case) {
    insertion_sort(data, key_of);
    return;
  }

  auto pivot = [&] {
    if (opts.random_pivot) {
      util::Xoshiro256 rng(seed);
      return random_quartile_pivot(std::span<const T>(data), key_of, rng);
    }
    return ppivot(std::span<const T>(data), med, key_of, scheduler);
  }();

  // Classify, partition into scratch, copy back. `cls` is the top-level
  // classification buffer sliced in lockstep with data/scratch, so no
  // recursion level allocates its own.
  auto classify = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto k = key_of(data[i]);
      cls[i] = k < pivot ? 0 : (pivot < k ? 2 : 1);
    }
  };
  if (scheduler && n > opts.grain) {
    scheduler->parallel_for(0, n, opts.grain, classify);
  } else {
    classify(0, n);
  }
  const auto [eq, above] = three_way_partition(
      std::span<const T>(data), std::span<const std::uint8_t>(cls), scratch,
      scheduler, opts.grain);
  auto copy_back = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) data[i] = std::move(scratch[i]);
  };
  if (scheduler && n > opts.grain) {
    scheduler->parallel_for(0, n, opts.grain, copy_back);
  } else {
    copy_back(0, n);
  }

  auto left = [&] {
    pesort_rec(data.subspan(0, eq), scratch.subspan(0, eq), cls.subspan(0, eq),
               med.subspan(0, eq), key_of, scheduler, opts,
               seed * 0x9e3779b97f4a7c15ULL + 1);
  };
  auto right = [&] {
    pesort_rec(data.subspan(above), scratch.subspan(above), cls.subspan(above),
               med.subspan(above), key_of, scheduler, opts,
               seed * 0xda942042e4dd58b5ULL + 3);
  };
  if (scheduler && n > opts.grain) {
    scheduler->parallel_invoke(sched::FnView(left), sched::FnView(right));
  } else {
    left();
    right();
  }
}

}  // namespace detail

/// Stable entropy-adaptive sort of `v` by `key_of(v[i])`. Passing a
/// scheduler enables the parallel recursion; nullptr runs sequentially with
/// identical results. A non-null `scratch` supplies the partition and
/// classification buffers, so repeated sorts (one per batch in M1/M2)
/// reuse capacity instead of reallocating.
///
/// Small inputs (<= 2 * base_case) take a sequential stable insertion sort
/// directly: no pivot blocks, no medians, no scratch, no allocation — the
/// path point-op batches and small bunches ride.
template <typename T, typename KeyFn,
          typename Key = std::decay_t<std::invoke_result_t<const KeyFn&, const T&>>>
void pesort(std::vector<T>& v, const KeyFn& key_of,
            sched::Scheduler* scheduler = nullptr,
            const PESortOptions& opts = {},
            PESortScratch<T, Key>* scratch = nullptr) {
  if (v.size() <= 1) return;
  if (v.size() <= 2 * opts.base_case) {
    insertion_sort(std::span<T>(v), key_of);
    return;
  }
  PESortScratch<T, Key> local;
  PESortScratch<T, Key>& s = scratch ? *scratch : local;
  if (s.buf.size() < v.size()) s.buf.resize(v.size());
  if (s.cls.size() < v.size()) s.cls.resize(v.size());
  if (s.medians.size() < v.size()) s.medians.resize(v.size());
  auto run = [&] {
    detail::pesort_rec(std::span<T>(v), std::span<T>(s.buf).first(v.size()),
                       std::span<std::uint8_t>(s.cls).first(v.size()),
                       std::span<Key>(s.medians).first(v.size()), key_of,
                       scheduler, opts, opts.seed);
  };
  if (scheduler && !scheduler->on_worker() && v.size() > opts.grain) {
    scheduler->run_sync(run);
  } else {
    run();
  }
}

}  // namespace pwss::sort
