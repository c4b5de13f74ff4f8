// Cross-module integration tests: the full stack (scheduler + buffer +
// sort + segments + maps + driver) exercised together. The cross-backend
// suites are parameterized over BackendRegistry names — concurrent clients
// converge to a deterministic replay, and grow/shrink cycles agree with the
// M0 reference. (The batch-for-batch differential runs are the harness's,
// in property_test.)
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/m0_map.hpp"
#include "driver/registry.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using core::Op;
using core::OpType;
using IntOp = Op<std::uint64_t, std::uint64_t>;

driver::Options two_workers() {
  driver::Options o;
  o.workers = 2;
  return o;
}

class BackendIntegrationTest
    : public ::testing::TestWithParam<std::string> {};

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
