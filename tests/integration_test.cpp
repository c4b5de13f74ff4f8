// Cross-module integration tests: the full stack (scheduler + buffer +
// sort + segments + maps + driver) exercised together. The cross-backend
// suites are parameterized over BackendRegistry names — every backend is
// run differentially against the M0 reference (the paper's model
// structure) or a deterministic replay.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "driver/registry.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace pwss {
namespace {

using core::Op;
using core::OpType;
using core::Result;
using IntOp = Op<std::uint64_t, std::uint64_t>;

std::vector<IntOp> random_batch(util::Xoshiro256& rng, std::size_t size,
                                std::uint64_t universe, std::uint64_t round) {
  std::vector<IntOp> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t key = rng.bounded(universe);
    switch (rng.bounded(4)) {
      case 0:
      case 1: batch.push_back(IntOp::insert(key, round * 100000 + i)); break;
      case 2: batch.push_back(IntOp::erase(key)); break;
      default: batch.push_back(IntOp::search(key));
    }
  }
  return batch;
}

driver::Options two_workers() {
  driver::Options o;
  o.workers = 2;
  return o;
}

class BackendIntegrationTest
    : public ::testing::TestWithParam<std::string> {};

// Every backend agrees batch-for-batch with the M0 reference.
TEST_P(BackendIntegrationTest, AgreesWithM0ReferenceOnBatches) {
  auto map = driver::make_driver<std::uint64_t, std::uint64_t>(GetParam(),
                                                               two_workers());
  core::M0Map<std::uint64_t, std::uint64_t> ref;

  util::Xoshiro256 rng(2024);
  for (int round = 0; round < 30; ++round) {
    const auto batch = random_batch(rng, 1 + rng.bounded(256), 300,
                                    static_cast<std::uint64_t>(round));
    const auto want = ref.execute_batch(batch);
    const auto got = map->run(batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].success(), want[i].success())
          << GetParam() << " round " << round << " op " << i;
      ASSERT_EQ(got[i].value, want[i].value)
          << GetParam() << " round " << round << " op " << i;
    }
    ASSERT_EQ(map->size(), ref.size()) << GetParam() << " round " << round;
    // Deep validator sweep (representation flags, hysteresis, pool
    // accounting) every few rounds, with the failure description when a
    // backend provides one.
    if (round % 10 == 9) {
      ASSERT_EQ(map->validate(), "") << GetParam() << " round " << round;
      ASSERT_EQ(ref.validate(), "") << "reference, round " << round;
    }
  }
  EXPECT_EQ(map->validate(), "") << GetParam();
  EXPECT_EQ(ref.validate(), "");
}

// Concurrent clients with per-thread key spaces: the backend converges to
// exactly the state a sequential replay of each thread's ops predicts.
TEST_P(BackendIntegrationTest, ConcurrentClientsConvergeToReplayState) {
  auto map = driver::make_driver<std::uint64_t, std::uint64_t>(GetParam(),
                                                               two_workers());
  constexpr int kThreads = 4, kOpsPer = 800;

  auto thread_ops = [](int t) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 131 + 7);
    std::vector<IntOp> ops;
    ops.reserve(kOpsPer);
    for (int i = 0; i < kOpsPer; ++i) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(t) * 1000000 + rng.bounded(200);
      switch (rng.bounded(3)) {
        case 0: ops.push_back(IntOp::insert(key, rng.bounded(1 << 20))); break;
        case 1: ops.push_back(IntOp::erase(key)); break;
        default: ops.push_back(IntOp::search(key));
      }
    }
    return ops;
  };

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (const auto& op : thread_ops(t)) {
        switch (op.type) {
          case OpType::kInsert: map->insert(op.key, op.value); break;
          case OpType::kErase: map->erase(op.key); break;
          case OpType::kSearch: map->search(op.key); break;
          default: break;  // this script is point-only
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  map->quiesce();

  // Replay: per-thread key spaces are disjoint, so the final state is the
  // union of each thread's sequential outcome.
  std::map<std::uint64_t, std::uint64_t> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& op : thread_ops(t)) {
      if (op.type == OpType::kInsert) {
        expected[op.key] = op.value;
      } else if (op.type == OpType::kErase) {
        expected.erase(op.key);
      }
    }
  }
  ASSERT_EQ(map->size(), expected.size()) << GetParam();
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t k = 0; k < 200; ++k) {
      const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000000 + k;
      const auto it = expected.find(key);
      const auto got = map->search(key);
      ASSERT_EQ(got.has_value(), it != expected.end())
          << GetParam() << " key " << key;
      if (it != expected.end()) {
        ASSERT_EQ(*got, it->second) << GetParam() << " key " << key;
      }
    }
  }
  EXPECT_EQ(map->validate(), "");
}

// Sustained growth and shrink cycles across segment-count transitions.
TEST_P(BackendIntegrationTest, GrowShrinkCycles) {
  auto map = driver::make_driver<std::uint64_t, std::uint64_t>(GetParam(),
                                                               two_workers());
  core::M0Map<std::uint64_t, std::uint64_t> ref;
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::vector<IntOp> ins, del;
    const std::uint64_t n = 1000 + static_cast<std::uint64_t>(cycle) * 700;
    for (std::uint64_t i = 0; i < n; ++i) {
      ins.push_back(IntOp::insert(i, i + static_cast<std::uint64_t>(cycle)));
      if (i % 2 == 0) del.push_back(IntOp::erase(i));
    }
    map->run(ins);
    ref.execute_batch(ins);
    map->run(del);
    ref.execute_batch(del);
    ASSERT_EQ(map->size(), ref.size()) << GetParam() << " cycle " << cycle;
    ASSERT_EQ(map->validate(), "") << GetParam() << " cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendIntegrationTest,
                         ::testing::Values("m0", "m1", "m2", "iacono",
                                           "splay", "avl", "locked",
                                           "sharded:m1", "sharded:locked"),
                         [](const auto& info) {
                           return testutil::gtest_safe(info.param);
                         });

// Zipf-heavy workload with all op kinds: M1 invariants hold throughout
// (structure-specific; uses the concrete type).
TEST(Integration, ZipfWorkloadSoundness) {
  sched::Scheduler scheduler(4);
  core::M1Map<std::uint64_t, std::uint64_t> m1(&scheduler);
  const auto keys = util::zipf_keys(1 << 12, 1.1, 30000, 3);
  const auto ops = util::apply_mix(keys, {.search = 0.6, .insert = 0.3, .erase = 0.1}, 4);

  std::vector<IntOp> batch;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case util::OpKind::kSearch: batch.push_back(IntOp::search(ops[i].key)); break;
      case util::OpKind::kInsert: batch.push_back(IntOp::insert(ops[i].key, ops[i].value)); break;
      case util::OpKind::kErase: batch.push_back(IntOp::erase(ops[i].key)); break;
      default: break;  // point mix only
    }
    if (batch.size() == 2048 || i + 1 == ops.size()) {
      m1.execute_batch(batch);
      batch.clear();
      ASSERT_EQ(m1.validate(), "");
    }
  }
}

// Hot items end up shallower than cold items in every working-set backend,
// observed through the uniform depth_of() API.
TEST(Integration, WorkingSetPropertyAcrossBackends) {
  for (const char* name : {"m0", "m1", "iacono"}) {
    auto map = driver::make_driver<std::uint64_t, std::uint64_t>(
        name, two_workers());
    std::vector<Op<std::uint64_t, std::uint64_t>> warm;
    for (std::uint64_t i = 0; i < 5000; ++i) {
      warm.push_back(Op<std::uint64_t, std::uint64_t>::insert(i, 1));
    }
    map->run(warm);

    // Drive a hot set (late-inserted, hence initially deep).
    for (int round = 0; round < 10; ++round) {
      std::vector<Op<std::uint64_t, std::uint64_t>> hot;
      for (std::uint64_t k = 4990; k < 4998; ++k) {
        hot.push_back(Op<std::uint64_t, std::uint64_t>::search(k));
      }
      map->run(hot);
    }
    for (std::uint64_t k = 4990; k < 4998; ++k) {
      ASSERT_TRUE(map->depth_of(k).has_value()) << name << " key " << k;
      EXPECT_LE(*map->depth_of(k), 2u) << name << " key " << k;
    }
    // An untouched early key sits deeper than every hot key.
    ASSERT_TRUE(map->depth_of(4000).has_value()) << name;
    EXPECT_GT(*map->depth_of(4000), 2u) << name;
  }
  // Non-adjusting backends have no recency depth.
  auto avl =
      driver::make_driver<std::uint64_t, std::uint64_t>("avl", two_workers());
  avl->insert(1, 1);
  EXPECT_FALSE(avl->depth_of(1).has_value());
}

}  // namespace
}  // namespace pwss
