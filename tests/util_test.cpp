// Tests for the workload-generation and statistics substrate (src/util).
#include <gtest/gtest.h>

#include <limits>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workload.hpp"
#include "util/zipf.hpp"

namespace pwss {
namespace {

using util::OpKind;

TEST(Rng, DeterministicForSameSeed) {
  util::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, BoundedStaysInRange) {
  util::Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedOneAlwaysZero) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, Uniform01InUnitInterval) {
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  util::Xoshiro256 rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  util::Xoshiro256 rng(3);
  util::ZipfGenerator zipf(100, 0.0);
  std::vector<int> counts(100, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  // Every bucket within 30% of expectation.
  for (int c : counts) EXPECT_NEAR(c, n / 100, n / 100 * 0.3);
}

TEST(Zipf, HighThetaConcentratesOnHead) {
  util::Xoshiro256 rng(5);
  util::ZipfGenerator zipf(1 << 16, 0.99);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) head += (zipf(rng) < 16);
  // Zipf(0.99) over 64k items puts a large fraction of mass on the head.
  EXPECT_GT(head, n / 10);
}

TEST(Zipf, SamplesWithinUniverse) {
  util::Xoshiro256 rng(9);
  for (double theta : {0.0, 0.5, 0.99, 1.2}) {
    util::ZipfGenerator zipf(1000, theta);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf(rng), 1000u);
  }
}

TEST(Workload, UniformKeysDeterministicAndBounded) {
  const auto a = util::uniform_keys(500, 1000, 42);
  const auto b = util::uniform_keys(500, 1000, 42);
  EXPECT_EQ(a, b);
  for (const auto k : a) EXPECT_LT(k, 500u);
}

TEST(Workload, ZipfKeysSkewShowsInDistinctCount) {
  const auto uniform = util::zipf_keys(1 << 20, 0.0, 50000, 1);
  const auto skewed = util::zipf_keys(1 << 20, 1.2, 50000, 1);
  const auto distinct = [](const std::vector<std::uint64_t>& v) {
    return std::unordered_set<std::uint64_t>(v.begin(), v.end()).size();
  };
  EXPECT_GT(distinct(uniform), 2 * distinct(skewed));
}

TEST(Workload, WorkingSetKeysRespectWindow) {
  // With miss_rate 0 (after warmup) all accesses come from the window.
  const auto keys = util::working_set_keys(1 << 30, 64, 0.0, 10000, 77);
  std::unordered_set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_LE(distinct.size(), 64u);
}

TEST(Workload, WorkingSetKeysMissRateOneIsUniform) {
  const auto keys = util::working_set_keys(1 << 30, 64, 1.0, 10000, 77);
  std::unordered_set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_GT(distinct.size(), 9000u);  // collisions in 2^30 are rare
}

TEST(Workload, WorkingSetRejectsZeroWindow) {
  EXPECT_THROW(util::working_set_keys(10, 0, 0.5, 10, 1),
               std::invalid_argument);
}

TEST(Workload, DuplicateHeavyBatchShape) {
  const auto batch = util::duplicate_heavy_batch(1 << 20, 1000, 0.9, 5);
  ASSERT_EQ(batch.size(), 1000u);
  std::unordered_map<std::uint64_t, int> freq;
  for (const auto& op : batch) ++freq[op.key];
  int max_freq = 0;
  for (const auto& [k, c] : freq) max_freq = std::max(max_freq, c);
  EXPECT_GE(max_freq, 900);
}

TEST(Workload, ApplyMixProportions) {
  const auto keys = util::uniform_keys(1000, 30000, 3);
  const auto ops = util::apply_mix(keys, {.search = 0.5, .insert = 0.3, .erase = 0.2}, 4);
  ASSERT_EQ(ops.size(), keys.size());
  std::size_t searches = 0, inserts = 0, erases = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kSearch: ++searches; break;
      case OpKind::kInsert: ++inserts; break;
      case OpKind::kErase: ++erases; break;
      default: FAIL() << "point mix produced an ordered kind";
    }
  }
  EXPECT_NEAR(static_cast<double>(searches) / ops.size(), 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(erases) / ops.size(), 0.2, 0.02);
}

TEST(Workload, ApplyMixOrderedKinds) {
  // The v2 fractions produce the ordered kinds, and range-count ops carry
  // key2 = key + range_span.
  util::OpMix mix;
  mix.search = 0.4;
  mix.insert = 0.2;
  mix.erase = 0.0;
  mix.pred = 0.2;
  mix.succ = 0.1;
  mix.range = 0.1;
  mix.range_span = 77;
  const auto keys = util::uniform_keys(1000, 30000, 5);
  const auto ops = util::apply_mix(keys, mix, 6);
  std::size_t preds = 0, succs = 0, ranges = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kPredecessor: ++preds; break;
      case OpKind::kSuccessor: ++succs; break;
      case OpKind::kRangeCount:
        ++ranges;
        ASSERT_EQ(op.key2, op.key + 77);
        break;
      default: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(preds) / ops.size(), 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(succs) / ops.size(), 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(ranges) / ops.size(), 0.1, 0.02);
}

TEST(Workload, ApplyMixValidatesFractions) {
  EXPECT_THROW(util::apply_mix({1, 2, 3}, {.search = 0.5, .insert = 0.1, .erase = 0.1}, 0),
               std::invalid_argument);
  util::OpMix over;
  over.search = 0.9;
  over.pred = 0.2;
  EXPECT_THROW(util::apply_mix({1, 2, 3}, over, 0), std::invalid_argument);
  // NaN compares false against everything; the validation must still trip.
  util::OpMix nan_mix;
  nan_mix.search = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(util::apply_mix({1, 2, 3}, nan_mix, 0), std::invalid_argument);
}

TEST(Workload, EntropySingleKeyIsZero) {
  EXPECT_DOUBLE_EQ(util::empirical_entropy_bits({7, 7, 7, 7}), 0.0);
}

TEST(Workload, EntropyUniformIsLogU) {
  std::vector<std::uint64_t> keys;
  for (int rep = 0; rep < 10; ++rep)
    for (std::uint64_t k = 0; k < 256; ++k) keys.push_back(k);
  EXPECT_NEAR(util::empirical_entropy_bits(keys), 8.0, 1e-9);
}

TEST(Workload, EntropyEmptyIsZero) {
  EXPECT_DOUBLE_EQ(util::empirical_entropy_bits({}), 0.0);
}

TEST(Workload, WorkingSetBoundRepeatedKeyIsCheap) {
  // n accesses to one key: first costs log(1)+1, rest cost log(1)+1 = 1.
  const std::vector<std::uint64_t> keys(1000, 42);
  EXPECT_NEAR(util::working_set_bound(keys), 1000.0, 1e-6);
}

TEST(Workload, WorkingSetBoundAllDistinctMatchesInsertCosts) {
  std::vector<std::uint64_t> keys(256);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  // i-th first access has rank i+1 -> cost log2(i+1)+1.
  double expected = 0;
  for (std::size_t i = 0; i < keys.size(); ++i)
    expected += std::log2(static_cast<double>(i + 1)) + 1.0;
  EXPECT_NEAR(util::working_set_bound(keys), expected, 1e-6);
}

TEST(Workload, WorkingSetBoundRoundRobinRank) {
  // Cycling over u keys: steady-state accesses all have rank u.
  const std::size_t u = 16, reps = 100;
  std::vector<std::uint64_t> keys;
  for (std::size_t r = 0; r < reps; ++r)
    for (std::uint64_t k = 0; k < u; ++k) keys.push_back(k);
  const double bound = util::working_set_bound(keys);
  const double steady = static_cast<double>((reps - 1) * u) * (std::log2(u) + 1.0);
  EXPECT_GT(bound, steady);                     // plus first-access costs
  EXPECT_LT(bound, steady + u * (std::log2(u) + 2.0));
}

TEST(Workload, WorkingSetBoundLocalityBeatsUniform) {
  const auto local = util::working_set_keys(1 << 20, 16, 0.01, 20000, 9);
  const auto uniform = util::uniform_keys(1 << 20, 20000, 9);
  EXPECT_LT(util::working_set_bound(local), 0.5 * util::working_set_bound(uniform));
}

TEST(Stats, SummaryBasics) {
  const auto s = util::summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, SummaryEmpty) {
  const auto s = util::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummaryPercentilesOrdered) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  const auto s = util::summarize(v);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Stats, LinearFitExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto f = util::fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, LinearFitDegenerate) {
  const auto f = util::fit_linear({1.0}, {2.0});
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
}

}  // namespace
}  // namespace pwss
