#pragma once
// ESort — the sequential entropy sort of Definition 29. Inserts every item
// into a working-set dictionary (Iacono's structure) tagged with its list
// of input positions; repeated items are cheap accesses, which is exactly
// why the total cost is O(n·H + n) (Theorem 30). The per-segment key-sorted
// lists are then merged smallest-segment-first and each item expanded to
// its position list.
//
// Position lists: most keys occur once or twice, so the first two
// positions live inline in the dictionary node; further occurrences chain
// through ONE shared side arena (a single growing vector for the whole
// sort) instead of spilling a per-key heap vector — duplicate-heavy inputs
// used to pay one allocation per key passing the inline capacity.
//
// Output: a permutation of [0, n) such that input keys appear in
// non-decreasing order and equal keys keep their input order (stable).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "baseline/iacono_map.hpp"

namespace pwss::sort {

namespace detail {

inline constexpr std::uint32_t kEsortNil =
    std::numeric_limits<std::uint32_t>::max();

/// Per-key position list head: two inline slots plus head/tail indices of
/// a forward chain in the shared arena.
struct EsortPositions {
  std::size_t inline_pos[2] = {0, 0};
  std::uint32_t count = 0;
  std::uint32_t head = kEsortNil;
  std::uint32_t tail = kEsortNil;
};

struct EsortChainNode {
  std::size_t pos;
  std::uint32_t next;
};

inline void esort_append(EsortPositions& p, std::size_t pos,
                         std::vector<EsortChainNode>& chain) {
  if (p.count < 2) {
    p.inline_pos[p.count] = pos;
  } else {
    const auto node = static_cast<std::uint32_t>(chain.size());
    chain.push_back({pos, kEsortNil});
    if (p.tail == kEsortNil) {
      p.head = node;
    } else {
      chain[p.tail].next = node;
    }
    p.tail = node;
  }
  ++p.count;
}

}  // namespace detail

template <typename T, typename KeyFn>
std::vector<std::size_t> esort(const std::vector<T>& input,
                               const KeyFn& key_of) {
  using Key = std::decay_t<decltype(key_of(input[0]))>;
  using Positions = detail::EsortPositions;
  baseline::IaconoMap<Key, Positions> dict;
  std::vector<detail::EsortChainNode> chain;  // shared overflow arena

  for (std::size_t i = 0; i < input.size(); ++i) {
    const Key k = key_of(input[i]);
    if (auto* positions = dict.search(k)) {
      detail::esort_append(*positions, i, chain);
    } else {
      Positions p;
      detail::esort_append(p, i, chain);
      dict.insert(k, p);
    }
  }

  // Each segment is sorted by key already; merge them smallest-capacity
  // first. Segment sizes are doubly exponential, so the repeated two-way
  // merge costs O(u) total over u distinct keys.
  using Tagged = std::pair<Key, const Positions*>;
  std::vector<Tagged> merged;
  merged.reserve(dict.size());
  for (const auto& seg : dict.segments()) {
    std::vector<Tagged> seg_items;
    seg_items.reserve(seg.size());
    seg.for_each([&](const Key& k, const Positions& pos) {
      seg_items.emplace_back(k, &pos);
    });
    if (merged.empty()) {
      merged = std::move(seg_items);
      continue;
    }
    std::vector<Tagged> next;
    next.reserve(merged.size() + seg_items.size());
    std::merge(merged.begin(), merged.end(), seg_items.begin(),
               seg_items.end(), std::back_inserter(next),
               [](const Tagged& a, const Tagged& b) { return a.first < b.first; });
    merged = std::move(next);
  }

  std::vector<std::size_t> order;
  order.reserve(input.size());
  for (const auto& [key, positions] : merged) {
    (void)key;
    const std::uint32_t inline_n = std::min<std::uint32_t>(positions->count, 2);
    for (std::uint32_t i = 0; i < inline_n; ++i) {
      order.push_back(positions->inline_pos[i]);
    }
    for (std::uint32_t node = positions->head; node != detail::kEsortNil;
         node = chain[node].next) {
      order.push_back(chain[node].pos);
    }
  }
  return order;
}

}  // namespace pwss::sort
