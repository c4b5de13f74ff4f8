// Property-based sweeps (parameterized gtest): randomized differential and
// invariant checks across seeds and structure parameters, complementing
// the per-module unit tests with breadth.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "driver/registry.hpp"
#include "sort/esort.hpp"
#include "sort/pesort.hpp"
#include "test_util.hpp"
#include "tree/jtree.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace pwss {
namespace {

// ---------- JTree properties across seeds -----------------------------------

class JTreeSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JTreeSeedTest, OrderStatisticsConsistentWithSortedContent) {
  util::Xoshiro256 rng(GetParam());
  tree::JTree<int, int> t;
  std::set<int> ref;
  for (int i = 0; i < 3000; ++i) {
    const int k = static_cast<int>(rng.bounded(10000));
    if (rng.bounded(4) == 0) {
      t.erase(k);
      ref.erase(k);
    } else {
      t.insert(k, k);
      ref.insert(k);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  // The in-order walk enumerates exactly the sorted reference, and each
  // key's rank is its position in it.
  std::vector<int> walked;
  t.for_each([&](int k, int) { walked.push_back(k); });
  ASSERT_EQ(walked, std::vector<int>(ref.begin(), ref.end()))
      << "seed " << GetParam();
  std::size_t i = 0;
  for (const int k : ref) {
    ASSERT_EQ(t.rank(k), i) << "seed " << GetParam();
    ++i;
  }
  EXPECT_EQ(t.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, JTreeSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- PESort equals std::stable_sort across seeds/shapes --------------

struct SortCase {
  std::uint64_t seed;
  std::size_t n;
  std::uint64_t universe;
};

class SortEquivalenceTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortEquivalenceTest, PESortMatchesStableSort) {
  const auto [seed, n, universe] = GetParam();
  util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint64_t, std::size_t>> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.emplace_back(rng.bounded(universe), i);
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sort::pesort(v, [](const auto& p) { return p.first; });
  EXPECT_EQ(v, expected);
}

TEST_P(SortEquivalenceTest, ESortMatchesStableSortOrder) {
  const auto [seed, n, universe] = GetParam();
  if (n > 20000) GTEST_SKIP() << "ESort is the slow reference sort";
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.bounded(universe);
  const auto order = sort::esort(keys, [](std::uint64_t x) { return x; });
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  EXPECT_EQ(order, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortEquivalenceTest,
    ::testing::Values(SortCase{1, 0, 10}, SortCase{2, 1, 10},
                      SortCase{3, 1000, 3},        // tiny universe: huge dup runs
                      SortCase{4, 1000, 1000000},  // near-distinct
                      SortCase{5, 10000, 100}, SortCase{6, 10000, 1 << 20},
                      SortCase{7, 100000, 1 << 10},
                      SortCase{8, 100000, 1 << 30}));

// ---------- every backend == std::map semantics across seeds ----------------
// Parameterized over (registry backend, seed): the point-op stream drives
// the driver's sequential step() path; every backend must agree with the
// std::map reference op for op.

class MapAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(MapAgreementTest, BackendAgreesWithStdMap) {
  const auto& [backend, seed] = GetParam();
  util::Xoshiro256 rng(seed);
  driver::Options opts;
  opts.workers = 2;
  auto map = driver::make_driver<int, int>(backend, opts);
  std::map<int, int> ref;
  using IntOp = core::Op<int, int>;
  for (int step = 0; step < 8000; ++step) {
    const int key = static_cast<int>(rng.bounded(200));
    switch (rng.bounded(3)) {
      case 0: {
        const int val = static_cast<int>(rng.bounded(1 << 20));
        const bool fresh = ref.find(key) == ref.end();
        ASSERT_EQ(map->step(IntOp::insert(key, val)).success(), fresh);
        ref[key] = val;
        break;
      }
      case 1: {
        auto it = ref.find(key);
        const auto want = it == ref.end() ? std::optional<int>{}
                                          : std::optional<int>{it->second};
        ASSERT_EQ(map->step(IntOp::erase(key)).value, want);
        if (it != ref.end()) ref.erase(it);
        break;
      }
      default: {
        auto it = ref.find(key);
        const auto want = it == ref.end() ? std::optional<int>{}
                                          : std::optional<int>{it->second};
        ASSERT_EQ(map->step(IntOp::search(key)).value, want);
      }
    }
  }
  EXPECT_EQ(map->size(), ref.size());
  EXPECT_EQ(map->validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    BackendsXSeeds, MapAgreementTest,
    ::testing::Combine(::testing::Values("m0", "m1", "m2", "iacono", "splay",
                                         "avl", "locked", "sharded:m1",
                                         "sharded:locked"),
                       ::testing::Values(11, 22, 33)),
    [](const auto& info) {
      return testutil::gtest_safe(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- M2 across p values -----------------------------------------------

class M2ParamTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(M2ParamTest, DifferentialAcrossBunchSizes) {
  const unsigned p = GetParam();
  sched::Scheduler scheduler(2);
  core::M2Map<int, int> m2(scheduler, p);
  std::map<int, int> ref;
  util::Xoshiro256 rng(p * 1000 + 1);
  using IntOp = core::Op<int, int>;
  for (int round = 0; round < 25; ++round) {
    std::vector<IntOp> batch;
    const std::size_t b = 1 + rng.bounded(150);
    for (std::size_t i = 0; i < b; ++i) {
      const int key = static_cast<int>(rng.bounded(256));
      switch (rng.bounded(3)) {
        case 0: batch.push_back(IntOp::insert(key, round * 1000 + static_cast<int>(i))); break;
        case 1: batch.push_back(IntOp::erase(key)); break;
        default: batch.push_back(IntOp::search(key));
      }
    }
    // Odd rounds submit op by op, so the bunch size shapes every cut; even
    // rounds run execute_batch, which sweeps a phase longer than one cut
    // as a bulk request.
    std::vector<core::Result<int>> got;
    if (round % 2 == 1) {
      auto tickets = std::make_unique<core::OpTicket<int>[]>(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        m2.submit(batch[i], &tickets[i]);
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        got.push_back(tickets[i].wait());
      }
    } else {
      got = m2.execute_batch(batch);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& op = batch[i];
      auto it = ref.find(op.key);
      switch (op.type) {
        case core::OpType::kSearch:
          ASSERT_EQ(got[i].success(), it != ref.end()) << "p=" << p;
          if (it != ref.end()) { ASSERT_EQ(got[i].value, it->second); }
          break;
        case core::OpType::kInsert:
          ASSERT_EQ(got[i].success(), it == ref.end()) << "p=" << p;
          ref[op.key] = op.value;
          break;
        case core::OpType::kErase:
          ASSERT_EQ(got[i].success(), it != ref.end()) << "p=" << p;
          if (it != ref.end()) {
            ASSERT_EQ(got[i].value, it->second);
            ref.erase(it);
          }
          break;
        default:
          break;  // this script is point-only
      }
    }
    // Deep pipeline validation (quiescent-only) every few rounds so a
    // corruption introduced mid-run is pinned near its round.
    if (round % 8 == 7) {
      m2.quiesce();
      ASSERT_EQ(m2.validate(), "") << "p=" << p << " round " << round;
    }
  }
  m2.quiesce();
  EXPECT_EQ(m2.size(), ref.size());
  EXPECT_EQ(m2.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(PValues, M2ParamTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ---------- M1 batch-size sweep: equivalence to single huge batch ------------

class M1BatchSplitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(M1BatchSplitTest, SplittingBatchesPreservesFinalState) {
  const std::size_t chunk = GetParam();
  sched::Scheduler scheduler(2);
  core::M1Map<int, int> split_map(&scheduler);
  core::M1Map<int, int> whole_map(&scheduler);
  using IntOp = core::Op<int, int>;

  util::Xoshiro256 rng(chunk * 7 + 3);
  std::vector<IntOp> ops;
  for (int i = 0; i < 3000; ++i) {
    const int key = static_cast<int>(rng.bounded(300));
    switch (rng.bounded(3)) {
      case 0: ops.push_back(IntOp::insert(key, i)); break;
      case 1: ops.push_back(IntOp::erase(key)); break;
      default: ops.push_back(IntOp::search(key));
    }
  }
  whole_map.execute_batch(ops);
  for (std::size_t off = 0; off < ops.size(); off += chunk) {
    const std::size_t hi = std::min(ops.size(), off + chunk);
    split_map.execute_batch(
        std::vector<IntOp>(ops.begin() + static_cast<std::ptrdiff_t>(off),
                           ops.begin() + static_cast<std::ptrdiff_t>(hi)));
  }
  ASSERT_EQ(split_map.size(), whole_map.size());
  // Same final contents.
  for (int k = 0; k < 300; ++k) {
    ASSERT_EQ(split_map.search(k), whole_map.search(k)) << "key " << k;
  }
  EXPECT_EQ(split_map.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, M1BatchSplitTest,
                         ::testing::Values(1, 7, 64, 500, 3000));

// ---------- Zipf workloads keep every backend sound --------------------------
// Parameterized over (registry backend, theta): skewed mixed batches
// through the bulk run() path, differential against an M0 reference batch
// for batch (M0 is the paper's model structure for M1/M2 equivalence).

class ZipfSoundnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ZipfSoundnessTest, BackendsSurviveSkewedMixes) {
  const auto& [backend, theta] = GetParam();
  driver::Options opts;
  opts.workers = 2;
  auto map = driver::make_driver<std::uint64_t, std::uint64_t>(backend, opts);
  core::M0Map<std::uint64_t, std::uint64_t> ref;
  using IntOp = core::Op<std::uint64_t, std::uint64_t>;

  const auto keys = util::zipf_keys(1 << 10, theta, 8000, 9);
  const auto mixed =
      util::apply_mix(keys, {.search = 0.5, .insert = 0.35, .erase = 0.15}, 10);
  std::vector<IntOp> batch;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    switch (mixed[i].kind) {
      case util::OpKind::kSearch: batch.push_back(IntOp::search(mixed[i].key)); break;
      case util::OpKind::kInsert: batch.push_back(IntOp::insert(mixed[i].key, mixed[i].value)); break;
      case util::OpKind::kErase: batch.push_back(IntOp::erase(mixed[i].key)); break;
      default: break;  // point mix only
    }
    if (batch.size() == 1024 || i + 1 == mixed.size()) {
      const auto got = map->run(batch);
      const auto want = ref.execute_batch(batch);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(got[j].success(), want[j].success())
            << backend << " theta " << theta << " op " << j;
        ASSERT_EQ(got[j].value, want[j].value) << backend;
      }
      batch.clear();
    }
  }
  EXPECT_EQ(map->size(), ref.size());
  EXPECT_EQ(map->validate(), "");
  EXPECT_EQ(ref.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    BackendsXThetas, ZipfSoundnessTest,
    ::testing::Combine(::testing::Values("m1", "m2", "splay", "locked",
                                         "sharded:m1"),
                       ::testing::Values(0.0, 0.5, 0.9, 0.99, 1.2)),
    [](const auto& info) {
      const double theta = std::get<1>(info.param);
      return testutil::gtest_safe(std::get<0>(info.param)) + "_theta" +
             std::to_string(static_cast<int>(theta * 100));
    });

}  // namespace
}  // namespace pwss
