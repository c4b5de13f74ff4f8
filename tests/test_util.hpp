#pragma once
// Shared helpers for the gtest suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"
#include "util/rng.hpp"

namespace pwss::testutil {

/// gtest test names allow only [A-Za-z0-9_]; "sharded:m1" -> "sharded_m1".
inline std::string gtest_safe(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    if (!ok) c = '_';
  }
  return name;
}

/// Sequential protocol-v2 oracle: applies one Op to a std::map in
/// submission order, with lower_bound/upper_bound realizing the ordered
/// kinds. Valid reference for every backend: per-key program order is
/// preserved, point ops on distinct keys commute, and ordered kinds are
/// phase-sliced to observe exactly the preceding point ops.
template <typename K, typename V>
core::Result<V, K> reference_apply(std::map<K, V>& ref,
                                   const core::Op<K, V>& op) {
  using core::OpType;
  using core::ResultStatus;
  core::Result<V, K> r;
  switch (op.type) {
    case OpType::kSearch: {
      const auto it = ref.find(op.key);
      if (it != ref.end()) {
        r.status = ResultStatus::kFound;
        r.value = it->second;
      }
      break;
    }
    case OpType::kInsert:
    case OpType::kUpsert:
      r.status = ref.count(op.key) != 0 ? ResultStatus::kUpdated
                                        : ResultStatus::kInserted;
      ref[op.key] = op.value;
      break;
    case OpType::kErase: {
      const auto it = ref.find(op.key);
      if (it != ref.end()) {
        r.status = ResultStatus::kErased;
        r.value = it->second;
        ref.erase(it);
      }
      break;
    }
    case OpType::kPredecessor: {
      auto it = ref.lower_bound(op.key);
      if (it != ref.begin()) {
        --it;
        r.status = ResultStatus::kFound;
        r.matched_key = it->first;
        r.value = it->second;
      }
      break;
    }
    case OpType::kSuccessor: {
      const auto it = ref.upper_bound(op.key);
      if (it != ref.end()) {
        r.status = ResultStatus::kFound;
        r.matched_key = it->first;
        r.value = it->second;
      }
      break;
    }
    case OpType::kRangeCount: {
      r.status = ResultStatus::kFound;
      if (!(op.key2 < op.key)) {
        r.count = static_cast<std::uint64_t>(std::distance(
            ref.lower_bound(op.key), ref.upper_bound(op.key2)));
      }
      break;
    }
  }
  return r;
}

/// Full-surface comparison of one backend result against the oracle's.
template <typename K, typename V>
void expect_result_eq(const core::Result<V, K>& got,
                      const core::Result<V, K>& want, const char* what,
                      std::size_t i) {
  ASSERT_EQ(static_cast<int>(got.status), static_cast<int>(want.status))
      << what << " op " << i;
  ASSERT_EQ(got.value, want.value) << what << " op " << i;
  ASSERT_EQ(got.matched_key, want.matched_key) << what << " op " << i;
  ASSERT_EQ(got.count, want.count) << what << " op " << i;
}

/// Deterministic mixed-op script over a bounded key universe. With
/// `with_ordered`, roughly a third of the ops are the v2 ordered kinds
/// (predecessor/successor/range-count) plus occasional upserts.
template <typename K, typename V>
std::vector<core::Op<K, V>> scripted_ops(std::uint64_t seed, std::size_t count,
                                         std::uint64_t universe,
                                         bool with_ordered) {
  util::Xoshiro256 rng(seed);
  std::vector<core::Op<K, V>> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto key = static_cast<K>(rng.bounded(universe));
    const auto value = static_cast<V>(seed * 100000 + i);
    switch (rng.bounded(with_ordered ? 9 : 4)) {
      case 0:
      case 1:
        ops.push_back(core::Op<K, V>::insert(key, value));
        break;
      case 2:
        ops.push_back(core::Op<K, V>::erase(key));
        break;
      case 3:
        ops.push_back(core::Op<K, V>::search(key));
        break;
      case 4:
        ops.push_back(core::Op<K, V>::upsert(key, value));
        break;
      case 5:
        ops.push_back(core::Op<K, V>::predecessor(key));
        break;
      case 6:
        ops.push_back(core::Op<K, V>::successor(key));
        break;
      default:
        ops.push_back(core::Op<K, V>::range_count(
            key, static_cast<K>(key + rng.bounded(universe / 4 + 1))));
    }
  }
  return ops;
}

/// An ordered-only batch for the duplicate-combining tests: `distinct`
/// distinct queries cycling through predecessor, successor and
/// range-count, each issued `copies` times, shuffled. Keys run from below
/// the key universe to past it, so some queries find nothing.
inline std::vector<core::Op<int, int>> ordered_batch_with_duplicates(
    int distinct, int copies, std::uint64_t seed) {
  std::vector<core::Op<int, int>> ops;
  for (int q = 0; q < distinct; ++q) {
    const int key = q * 5 - 7;
    for (int c = 0; c < copies; ++c) {
      switch (q % 3) {
        case 0:
          ops.push_back(core::Op<int, int>::predecessor(key));
          break;
        case 1:
          ops.push_back(core::Op<int, int>::successor(key));
          break;
        default:
          ops.push_back(core::Op<int, int>::range_count(key, key + q % 40));
      }
    }
  }
  util::Xoshiro256 rng(seed);
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.bounded(i)]);
  }
  return ops;
}

}  // namespace pwss::testutil
