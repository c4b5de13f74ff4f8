// Tests for the sharded driver: sharded:<name> registry lookup, hash
// routing, the one-shared-scheduler wiring, aggregate introspection, and
// Definition 8 linearization of the scatter/gather bulk path — including
// shards with mixed wiring (AsyncMap-wrapped, natively async, direct).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/m0_map.hpp"
#include "driver/registry.hpp"
#include "driver/sharded.hpp"
#include "sched/scheduler.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using IntDriver = driver::Driver<std::uint64_t, std::uint64_t>;
using IntRegistry = driver::BackendRegistry<std::uint64_t, std::uint64_t>;
using IntSharded = driver::ShardedDriver<std::uint64_t, std::uint64_t>;
using IntOp = core::Op<std::uint64_t, std::uint64_t>;

driver::Options sharded_opts(unsigned shards, unsigned workers = 2) {
  driver::Options o;
  o.shards = shards;
  o.workers = workers;
  return o;
}

// ---- registry lookup --------------------------------------------------------

TEST(ShardedRegistry, EveryBackendResolvesWithShardedPrefix) {
  const auto& reg = IntRegistry::instance();
  for (const char* name :
       {"m0", "m1", "m2", "iacono", "splay", "avl", "locked"}) {
    const std::string sharded = std::string("sharded:") + name;
    EXPECT_TRUE(reg.contains(sharded)) << sharded;
    auto d = reg.create(sharded, sharded_opts(2));
    ASSERT_NE(d, nullptr) << sharded;
    EXPECT_EQ(d->name(), sharded);
    EXPECT_EQ(d->size(), 0u);
    auto* sd = dynamic_cast<IntSharded*>(d.get());
    ASSERT_NE(sd, nullptr) << sharded;
    EXPECT_EQ(sd->shard_count(), 2u);
  }
}

TEST(ShardedRegistry, UnknownInnerBackendThrowsAndDoesNotNest) {
  const auto& reg = IntRegistry::instance();
  EXPECT_FALSE(reg.contains("sharded:btree"));
  EXPECT_FALSE(reg.contains("sharded:sharded:m1"));
  EXPECT_THROW(reg.create("sharded:btree"), std::invalid_argument);
  EXPECT_THROW(reg.create("sharded:sharded:m1"), std::invalid_argument);
  try {
    reg.create("sharded:btree");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sharded:<name>"), std::string::npos) << msg;
  }
}

TEST(ShardedRegistry, ZeroShardsSelectsTheDefault) {
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:avl", sharded_opts(/*shards=*/0));
  auto* sd = dynamic_cast<IntSharded*>(d.get());
  ASSERT_NE(sd, nullptr);
  EXPECT_EQ(sd->shard_count(), driver::kDefaultShards);
}

// ---- one shared scheduler ---------------------------------------------------

TEST(ShardedDriverTest, ShardsShareTheDriversScheduler) {
  for (const char* inner : {"m1", "m2"}) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
        std::string("sharded:") + inner, sharded_opts(3, /*workers=*/2));
    auto* sd = dynamic_cast<IntSharded*>(d.get());
    ASSERT_NE(sd, nullptr) << inner;
    ASSERT_NE(d->scheduler(), nullptr) << inner;
    EXPECT_EQ(d->scheduler()->worker_count(), 2u) << inner;
    for (std::size_t s = 0; s < sd->shard_count(); ++s) {
      EXPECT_EQ(sd->shard(s).scheduler(), d->scheduler())
          << inner << " shard " << s;
    }
  }
  // Schedulerless shards stay schedulerless, and the sharded driver drops
  // the pool nothing would run on (bulk scatter/gather uses dedicated
  // threads, not pool workers).
  auto locked = driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:locked", sharded_opts(2));
  auto* sd = dynamic_cast<IntSharded*>(locked.get());
  ASSERT_NE(sd, nullptr);
  EXPECT_EQ(locked->scheduler(), nullptr);
  for (std::size_t s = 0; s < sd->shard_count(); ++s) {
    EXPECT_EQ(sd->shard(s).scheduler(), nullptr);
  }
  EXPECT_TRUE(locked->insert(1, 2));
  EXPECT_EQ(locked->run({IntOp::search(1)})[0].value, 2u);
}

TEST(ShardedDriverTest, HonorsCallerSuppliedScheduler) {
  sched::Scheduler pool(2);
  driver::Options opts = sharded_opts(3);
  opts.scheduler = &pool;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("sharded:m1",
                                                             opts);
  auto* sd = dynamic_cast<IntSharded*>(d.get());
  ASSERT_NE(sd, nullptr);
  EXPECT_EQ(d->scheduler(), &pool);
  for (std::size_t s = 0; s < sd->shard_count(); ++s) {
    EXPECT_EQ(sd->shard(s).scheduler(), &pool);
  }
  EXPECT_TRUE(d->insert(5, 25));
  EXPECT_EQ(d->search(5), 25u);
  d->quiesce();
}

// ---- routing ----------------------------------------------------------------

TEST(ShardedDriverTest, RoutingPartitionsKeysAcrossShards) {
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:m1", sharded_opts(4));
  auto* sd = dynamic_cast<IntSharded*>(d.get());
  ASSERT_NE(sd, nullptr);

  constexpr std::uint64_t kKeys = 512;
  std::vector<IntOp> warm;
  for (std::uint64_t k = 0; k < kKeys; ++k) warm.push_back(IntOp::insert(k, k));
  d->run(warm);

  std::vector<std::size_t> per_shard(sd->shard_count(), 0);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::size_t home = sd->shard_of(k);
    ASSERT_LT(home, sd->shard_count());
    ASSERT_EQ(home, sd->shard_of(k)) << "routing must be stable";
    ++per_shard[home];
    // The key lives in its home shard and in no other.
    for (std::size_t s = 0; s < sd->shard_count(); ++s) {
      const auto got = sd->shard(s).search(k);
      ASSERT_EQ(got.has_value(), s == home) << "key " << k << " shard " << s;
      if (got) {
        ASSERT_EQ(*got, k);
      }
    }
  }
  // The mixed hash spreads a contiguous range over every shard.
  for (std::size_t s = 0; s < sd->shard_count(); ++s) {
    EXPECT_GT(per_shard[s], 0u) << "shard " << s << " received no keys";
  }
  EXPECT_EQ(d->size(), kKeys);
}

TEST(ShardedDriverTest, DepthOfRoutesToOwningShard) {
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:m0", sharded_opts(4));
  std::vector<IntOp> warm;
  for (std::uint64_t k = 0; k < 2000; ++k) warm.push_back(IntOp::insert(k, 1));
  d->run(warm);
  // Hammer one key: it must become shallow in its shard.
  for (int i = 0; i < 10; ++i) d->search(1500);
  ASSERT_TRUE(d->depth_of(1500).has_value());
  EXPECT_LE(*d->depth_of(1500), 1u);
  EXPECT_FALSE(d->depth_of(999999).has_value());
}

// ---- counters: the shards' sums, each op counted where it is admitted -------

TEST(ShardedDriverTest, StatsCountEachPointOpOnce) {
  // A point op is admitted once, by the shard that owns its key; an
  // ordered query scatters, so every shard admits (or times out) its own
  // sub-query.
  constexpr std::uint64_t kShards = 4;
  constexpr std::uint64_t kPoint = 1000;
  constexpr std::uint64_t kOrdered = 10;
  for (const char* name : {"sharded:m1", "sharded:m2"}) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
        name, sharded_opts(kShards));
    for (std::uint64_t k = 0; k < kPoint; ++k) ASSERT_TRUE(d->insert(k, k));
    EXPECT_EQ(d->stats().admitted, kPoint) << name;

    for (std::uint64_t q = 0; q < kOrdered; ++q) {
      ASSERT_TRUE(d->predecessor(q * 100 + 50).has_value()) << name;
    }
    EXPECT_EQ(d->stats().admitted, kPoint + kOrdered * kShards) << name;

    EXPECT_EQ(d->run_blocking(IntOp::search(1).with_deadline(1)).status,
              core::ResultStatus::kTimedOut)
        << name;
    EXPECT_EQ(d->run_blocking(IntOp::predecessor(1).with_deadline(1)).status,
              core::ResultStatus::kTimedOut)
        << name;
    const driver::DriverStats s = d->stats();
    EXPECT_EQ(s.admitted, kPoint + kOrdered * kShards) << name;
    EXPECT_EQ(s.timed_out, 1 + kShards) << name;
    EXPECT_EQ(s.shed, 0u) << name;
    EXPECT_EQ(s.retries, 0u) << name;
    EXPECT_EQ(s.in_flight, 0u) << name;
  }
}

// ---- bulk path: scatter -> parallel execute -> submission-order gather ------

TEST(ShardedDriverTest, BulkRunMatchesM0Reference) {
  for (const char* name : {"sharded:m1", "sharded:avl", "sharded:m2"}) {
    auto map =
        driver::make_driver<std::uint64_t, std::uint64_t>(name, sharded_opts(4));
    core::M0Map<std::uint64_t, std::uint64_t> ref;
    util::Xoshiro256 rng(77);
    for (int round = 0; round < 20; ++round) {
      // Full v2 op set: ordered kinds in a sharded bulk run exercise the
      // phase slicing plus the scatter/gather reduce across shards.
      const std::size_t b = 1 + rng.bounded(300);
      const auto batch = testutil::scripted_ops<std::uint64_t, std::uint64_t>(
          rng.bounded(1u << 30), b, 250, /*with_ordered=*/true);
      const auto want = ref.execute_batch(batch);
      const auto got = map->run(batch);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        testutil::expect_result_eq(got[i], want[i], name, i);
      }
      ASSERT_EQ(map->size(), ref.size()) << name << " round " << round;
    }
    EXPECT_EQ(map->validate(), "") << name;
  }
}

TEST(ShardedDriverTest, BulkPreservesPerKeyProgramOrder) {
  auto map = driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:m1", sharded_opts(4));
  // insert -> search -> erase -> search per key, all in one batch: results
  // must reflect the per-key program order even though keys scatter.
  std::vector<IntOp> batch;
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    batch.push_back(IntOp::insert(k, k * 7));
    batch.push_back(IntOp::search(k));
    batch.push_back(IntOp::erase(k));
    batch.push_back(IntOp::search(k));
  }
  const auto got = map->run(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::size_t base = static_cast<std::size_t>(k) * 4;
    EXPECT_TRUE(got[base].success()) << "insert of fresh key " << k;
    ASSERT_TRUE(got[base + 1].value.has_value()) << "search after insert";
    EXPECT_EQ(*got[base + 1].value, k * 7);
    ASSERT_TRUE(got[base + 2].value.has_value()) << "erase of present key";
    EXPECT_EQ(*got[base + 2].value, k * 7);
    EXPECT_FALSE(got[base + 3].value.has_value()) << "search after erase";
  }
  EXPECT_EQ(map->size(), 0u);
}

// ---- aggregate state under concurrency --------------------------------------

TEST(ShardedDriverTest, ConcurrentClientsConvergeAndAggregate) {
  auto map = driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:m1", sharded_opts(4));
  constexpr int kThreads = 4, kOpsPer = 600;

  auto thread_ops = [](int t) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 313 + 17);
    std::vector<IntOp> ops;
    for (int i = 0; i < kOpsPer; ++i) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(t) * 1000000 + rng.bounded(150);
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
          case core::OpType::kInsert: map->insert(op.key, op.value); break;
          case core::OpType::kErase: map->erase(op.key); break;
          case core::OpType::kSearch: map->search(op.key); break;
          default: break;  // generator emits only the three point kinds
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  map->quiesce();

  std::map<std::uint64_t, std::uint64_t> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& op : thread_ops(t)) {
      if (op.type == core::OpType::kInsert) {
        expected[op.key] = op.value;
      } else if (op.type == core::OpType::kErase) {
        expected.erase(op.key);
      }
    }
  }
  ASSERT_EQ(map->size(), expected.size());
  for (const auto& [key, value] : expected) {
    const auto got = map->search(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    ASSERT_EQ(*got, value) << "key " << key;
  }
  EXPECT_EQ(map->validate(), "");
}

TEST(ShardedDriverTest, ShardCountSweepReachesTheSameState) {
  util::Xoshiro256 rng(404);
  std::vector<IntOp> script;
  for (int i = 0; i < 2500; ++i) {
    const std::uint64_t key = rng.bounded(400);
    switch (rng.bounded(3)) {
      case 0:
        script.push_back(IntOp::insert(key, static_cast<std::uint64_t>(i)));
        break;
      case 1: script.push_back(IntOp::erase(key)); break;
      default: script.push_back(IntOp::search(key));
    }
  }
  std::map<std::uint64_t, std::uint64_t> ref;
  for (const auto& op : script) {
    if (op.type == core::OpType::kInsert) {
      ref[op.key] = op.value;
    } else if (op.type == core::OpType::kErase) {
      ref.erase(op.key);
    }
  }
  for (const unsigned shards : {1u, 2u, 3u, 8u}) {
    auto map = driver::make_driver<std::uint64_t, std::uint64_t>(
        "sharded:m1", sharded_opts(shards));
    map->run(script);
    ASSERT_EQ(map->size(), ref.size()) << shards << " shards";
    for (const auto& [key, value] : ref) {
      const auto got = map->search(key);
      ASSERT_TRUE(got.has_value()) << shards << " shards, key " << key;
      ASSERT_EQ(*got, value) << shards << " shards, key " << key;
    }
    EXPECT_EQ(map->validate(), "") << shards << " shards";
  }
}

}  // namespace
}  // namespace pwss
