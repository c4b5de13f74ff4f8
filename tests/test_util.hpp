#pragma once
// Shared helpers for the gtest suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
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

/// mkdtemp scratch directory under gtest's temp dir, recursively removed
/// at scope exit. Socket files live there too.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir() + "pwss-XXXXXX";
    char* got = ::mkdtemp(tmpl.data());
    EXPECT_NE(got, nullptr);
    path_ = got == nullptr ? "." : got;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

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

/// reference_apply over a batch: the oracle's results in submission order.
template <typename K, typename V>
std::vector<core::Result<V, K>> reference_results(
    std::map<K, V>& ref, const std::vector<core::Op<K, V>>& ops) {
  std::vector<core::Result<V, K>> out;
  for (const auto& op : ops) out.push_back(reference_apply(ref, op));
  return out;
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

/// A point phase of `chunks` chunks of `chunk_ops` ops each, then a short
/// scripted tail, over keys [0, universe): each chunk holds 8 upserts,
/// erases and searches on each of chunk_ops / 8 distinct keys, laid out
/// in one of three arrival orders, chunk c taking order c % 3:
///   0: non-monotone (8 rounds over the keys, each round shuffled);
///   1: key-descending (each key's 8 ops in a run, runs by falling key);
///   2: already key-sorted (the runs by rising key).
/// The walk-order tests pass the walk's chunk size, so every chunk lines
/// up with one walk chunk.
inline std::vector<core::Op<int, int>> walk_order_phase(std::uint64_t seed,
                                                        std::size_t chunk_ops,
                                                        std::size_t chunks,
                                                        int universe) {
  constexpr std::size_t kOpsPerKey = 8;
  util::Xoshiro256 rng(seed);
  auto shuffle = [&](std::vector<int>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.bounded(i)]);
    }
  };
  std::vector<int> pool(static_cast<std::size_t>(universe));
  for (int k = 0; k < universe; ++k) pool[static_cast<std::size_t>(k)] = k;
  std::vector<core::Op<int, int>> ops;
  int value = 0;
  auto op_on = [&](int key) {
    switch (rng.bounded(3)) {
      case 0: return core::Op<int, int>::upsert(key, ++value);
      case 1: return core::Op<int, int>::erase(key);
      default: return core::Op<int, int>::search(key);
    }
  };
  for (std::size_t c = 0; c < chunks; ++c) {
    shuffle(pool);
    std::vector<int> keys(pool.begin(),
                          pool.begin() + static_cast<std::ptrdiff_t>(
                                             chunk_ops / kOpsPerKey));
    if (c % 3 == 0) {
      for (std::size_t round = 0; round < kOpsPerKey; ++round) {
        shuffle(keys);
        for (int k : keys) ops.push_back(op_on(k));
      }
      continue;
    }
    std::sort(keys.begin(), keys.end());
    if (c % 3 == 1) std::reverse(keys.begin(), keys.end());
    for (int k : keys) {
      for (std::size_t i = 0; i < kOpsPerKey; ++i) ops.push_back(op_on(k));
    }
  }
  const auto tail = scripted_ops<int, int>(
      seed, chunk_ops / 8, static_cast<std::uint64_t>(universe),
      /*with_ordered=*/false);
  ops.insert(ops.end(), tail.begin(), tail.end());
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

/// Extends an FNV-1a hash chain with one ladder's logical state: for each
/// segment in order, its index and size, then its keys from most to least
/// recent, which fixes each key's recency position. Stamps themselves are
/// left out, so only the order they encode is pinned.
template <typename Segments>
std::uint64_t chain_ladder_state(std::uint64_t chain, const Segments& segs) {
  auto mix = [&chain](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      chain ^= (x >> (8 * b)) & 0xff;
      chain *= 0x100000001b3ULL;
    }
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_stamp;
  for (std::size_t k = 0; k < segs.size(); ++k) {
    by_stamp.clear();
    segs[k].for_each([&](const auto& key, const auto&, std::uint64_t stamp) {
      by_stamp.emplace_back(stamp, static_cast<std::uint64_t>(key));
    });
    std::sort(by_stamp.rbegin(), by_stamp.rend());
    mix(k);
    mix(by_stamp.size());
    for (const auto& [stamp, key] : by_stamp) mix(key);
  }
  return chain;
}

/// The golden ladder-state stream, as batches: an ascending load of 2^14
/// keys in 2,048-op batches, then 48 batches of 1,024 ops over a sliding
/// 512-key working set (searches), with upserts (a fifth of them on keys
/// past the load) and erases mixed in.
inline std::vector<std::vector<core::Op<int, int>>> golden_ladder_stream(
    std::uint64_t seed) {
  constexpr int kLoad = 1 << 14;
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<core::Op<int, int>>> batches;
  for (int b = 0; b < kLoad; b += 2048) {
    auto& batch = batches.emplace_back();
    for (int k = b; k < b + 2048; ++k) {
      batch.push_back(core::Op<int, int>::insert(k, 3 * k));
    }
  }
  for (int r = 0; r < 48; ++r) {
    auto& batch = batches.emplace_back();
    const int window = r * 256;
    for (int i = 0; i < 1024; ++i) {
      const auto u = rng.bounded(100);
      const int ws_key = window + static_cast<int>(rng.bounded(512));
      if (u < 60) {
        batch.push_back(core::Op<int, int>::search(ws_key));
      } else if (u < 80) {
        const int key = static_cast<int>(rng.bounded(kLoad + kLoad / 4));
        batch.push_back(core::Op<int, int>::upsert(key, r * 1024 + i));
      } else if (u < 95) {
        batch.push_back(core::Op<int, int>::erase(ws_key));
      } else {
        const int key = static_cast<int>(rng.bounded(kLoad));
        batch.push_back(core::Op<int, int>::search(key));
      }
    }
  }
  return batches;
}

}  // namespace pwss::testutil
