// Tests for the driver layer: BackendRegistry lookup/extension, Driver's
// scheduler-lifetime ownership, and bulk-vs-blocking result equivalence
// across every registered backend.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/future.hpp"
#include "core/m1_map.hpp"
#include "driver/registry.hpp"
#include "store/durability.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

using IntDriver = driver::Driver<std::uint64_t, std::uint64_t>;
using IntRegistry = driver::BackendRegistry<std::uint64_t, std::uint64_t>;
using IntOp = core::Op<std::uint64_t, std::uint64_t>;

// ---- registry lookup --------------------------------------------------------

TEST(Registry, KnowsAllSevenDefaultBackends) {
  const auto& reg = IntRegistry::instance();
  for (const char* name :
       {"m0", "m1", "m2", "iacono", "splay", "avl", "locked"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto d = reg.create(name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_EQ(d->name(), name);
    EXPECT_EQ(d->size(), 0u);
  }
}

TEST(Registry, UnknownBackendThrowsListingKnownNames) {
  const auto& reg = IntRegistry::instance();
  EXPECT_FALSE(reg.contains("btree"));
  try {
    reg.create("btree");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("btree"), std::string::npos);
    EXPECT_NE(msg.find("m2"), std::string::npos);
  }
}

TEST(Registry, AddRejectsDuplicatesAndAcceptsNewFactories) {
  // Duplicate rejection leaves the process-wide singleton unchanged.
  EXPECT_FALSE(
      IntRegistry::instance().add("m1", "dup", [](const driver::Options&) {
        return std::unique_ptr<IntDriver>();
      }));

  // Extension is one add() call — exercised on a local registry so the
  // singleton (shared by every other test in this process) stays pristine.
  IntRegistry local;
  EXPECT_FALSE(local.contains("m1-2w"));
  ASSERT_TRUE(local.add(
      "m1-2w", "M1 with a two-worker scheduler", [](const driver::Options&) {
        driver::Options pinned;
        pinned.workers = 2;
        return std::make_unique<driver::AsyncDriver<
            std::uint64_t, std::uint64_t,
            core::M1Map<std::uint64_t, std::uint64_t>>>("m1-2w", pinned);
      }));
  EXPECT_FALSE(local.add("m1-2w", "dup", nullptr));
  auto d = local.create("m1-2w");
  ASSERT_NE(d->scheduler(), nullptr);
  EXPECT_EQ(d->scheduler()->worker_count(), 2u);
  EXPECT_TRUE(d->insert(1, 10));
  EXPECT_EQ(d->search(1), 10u);
  EXPECT_FALSE(IntRegistry::instance().contains("m1-2w"));
}

// ---- scheduler lifetime -----------------------------------------------------

TEST(Driver, OwnsSchedulerForParallelBackendsOnly) {
  driver::Options two_workers;
  two_workers.workers = 2;
  for (const char* name : {"m0", "m1", "m2", "iacono", "splay", "avl"}) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name,
                                                               two_workers);
    ASSERT_NE(d->scheduler(), nullptr) << name;
    EXPECT_EQ(d->scheduler()->worker_count(), 2u) << name;
  }
  auto locked = driver::make_driver<std::uint64_t, std::uint64_t>("locked");
  EXPECT_EQ(locked->scheduler(), nullptr);
}

TEST(Driver, DestructionQuiescesInFlightWork) {
  // Destroying a driver right after a burst of concurrent submissions must
  // not crash or hang: the front end (and its in-flight tickets) dies
  // before the scheduler the work runs on.
  for (const char* name : {"m0", "m1", "m2", "locked"}) {
    for (int round = 0; round < 3; ++round) {
      auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name);
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          for (std::uint64_t i = 0; i < 500; ++i) {
            d->insert(static_cast<std::uint64_t>(t) * 1000 + i, i);
          }
        });
      }
      for (auto& th : threads) th.join();
      EXPECT_EQ(d->size(), 2000u) << name;
      EXPECT_EQ(d->validate(), "") << name;
      // d destroyed here, scheduler last.
    }
  }
}

// ---- bulk vs blocking equivalence across backends ---------------------------

class DriverBackendTest : public ::testing::TestWithParam<const char*> {};

std::vector<IntOp> scripted_ops(std::uint64_t seed, std::size_t count,
                                bool with_ordered = false) {
  return testutil::scripted_ops<std::uint64_t, std::uint64_t>(
      seed, count, 200, with_ordered);
}

core::Result<std::uint64_t> reference_apply(
    std::map<std::uint64_t, std::uint64_t>& ref, const IntOp& op) {
  return testutil::reference_apply(ref, op);
}

void expect_matches_reference(std::map<std::uint64_t, std::uint64_t>& ref,
                              const std::vector<IntOp>& ops,
                              const std::vector<core::Result<std::uint64_t>>& got,
                              const char* what) {
  ASSERT_EQ(got.size(), ops.size()) << what;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto want = reference_apply(ref, ops[i]);
    testutil::expect_result_eq(got[i], want, what, i);
  }
}

TEST(Driver, BatchArenasIndependentAcrossInstances) {
  // Each M1 instance owns its BatchScratch arena; interleaving bulk batches
  // across instances (including the sharded driver's per-shard backends,
  // which run shard batches on concurrent threads) must never bleed state.
  driver::Options opts;
  opts.workers = 2;
  auto a = driver::make_driver<std::uint64_t, std::uint64_t>("m1", opts);
  auto b = driver::make_driver<std::uint64_t, std::uint64_t>("m1", opts);
  opts.shards = 2;
  auto c =
      driver::make_driver<std::uint64_t, std::uint64_t>("sharded:m1", opts);
  std::map<std::uint64_t, std::uint64_t> ref_a, ref_b, ref_c;

  util::Xoshiro256 rng(123);
  for (int round = 0; round < 25; ++round) {
    // Different batch shapes per instance in the same round, so any shared
    // buffer would be resized mid-flight by the other instance.
    const auto ops_a = scripted_ops(1000 + round, 1 + rng.bounded(600));
    const auto ops_b = scripted_ops(2000 + round, 1 + rng.bounded(40));
    const auto ops_c = scripted_ops(3000 + round, 1 + rng.bounded(300));
    const auto got_a = a->run(ops_a);
    const auto got_b = b->run(ops_b);
    const auto got_c = c->run(ops_c);
    expect_matches_reference(ref_a, ops_a, got_a, "instance a");
    expect_matches_reference(ref_b, ops_b, got_b, "instance b");
    expect_matches_reference(ref_c, ops_c, got_c, "instance c");
    // Deep-validate all three instances (with failure descriptions)
    // every few rounds; structure churn accumulates across rounds, so
    // late rounds cover states the final check alone would miss.
    if (round % 5 == 4) {
      ASSERT_EQ(a->validate(), "") << "round " << round;
      ASSERT_EQ(b->validate(), "") << "round " << round;
      ASSERT_EQ(c->validate(), "") << "round " << round;
    }
  }
  EXPECT_EQ(a->validate(), "");
  EXPECT_EQ(b->validate(), "");
  EXPECT_EQ(c->validate(), "");
  EXPECT_EQ(a->size(), ref_a.size());
  EXPECT_EQ(b->size(), ref_b.size());
  EXPECT_EQ(c->size(), ref_c.size());
}

TEST_P(DriverBackendTest, BulkAndBlockingAgreeWithReference) {
  const char* name = GetParam();
  driver::Options opts;
  opts.workers = 2;
  auto bulk = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
  auto blocking =
      driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
  std::map<std::uint64_t, std::uint64_t> ref;

  // Every backend gets the full v2 op set, ordered kinds included.
  for (std::uint64_t round = 0; round < 6; ++round) {
    const auto ops = scripted_ops(round * 31 + 5, 300, /*with_ordered=*/true);
    const auto got = bulk->run(ops);
    ASSERT_EQ(got.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto want = reference_apply(ref, ops[i]);
      testutil::expect_result_eq(got[i], want, name, i);
      // The blocking per-op path must produce the identical result.
      ASSERT_NO_FATAL_FAILURE(
          testutil::expect_call_matches(*blocking, ops[i], want, name, i));
    }
    ASSERT_EQ(bulk->size(), ref.size()) << name;
    ASSERT_EQ(blocking->size(), ref.size()) << name;
  }
  EXPECT_EQ(bulk->validate(), "") << name;
  EXPECT_EQ(blocking->validate(), "") << name;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DriverBackendTest,
                         ::testing::Values("m0", "m1", "m2", "iacono",
                                           "splay", "avl", "locked",
                                           "sharded:m1", "sharded:splay"),
                         [](const auto& info) {
                           return testutil::gtest_safe(info.param);
                         });

// ---- run() alongside blocking callers ---------------------------------------

// The m2 and locked wirings allow the bulk path while other threads make
// blocking calls (AsyncMap-wrapped drivers quiesce first and must not be
// mixed). Each thread owns a disjoint key range, so a per-thread std::map
// oracle predicts every result exactly.
class DriverMixedTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DriverMixedTest, RunAlongsideBlockingCallers) {
  const char* name = GetParam();
  driver::Options opts;
  opts.workers = 2;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
  constexpr std::uint64_t kRange = 256;  // keys per thread
  constexpr std::uint64_t kRounds = 30;
  constexpr std::size_t kBatch = 200;

  std::thread runner([&] {
    std::map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      const auto ops = scripted_ops(round * 17 + 3, kBatch);  // keys [0, 200)
      const auto got = d->run(ops);
      ASSERT_EQ(got.size(), ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i) {
        testutil::expect_result_eq(got[i], reference_apply(ref, ops[i]),
                                   name, i);
      }
    }
  });
  auto blocking = [&](std::uint64_t base) {
    std::map<std::uint64_t, std::uint64_t> ref;
    util::Xoshiro256 rng(base);
    for (std::uint64_t i = 0; i < kRounds * kBatch; ++i) {
      const std::uint64_t key = base + rng.bounded(kRange);
      if (rng.bounded(2) == 0) {
        ASSERT_EQ(d->insert(key, i), ref.insert_or_assign(key, i).second)
            << name << " insert " << key;
      } else {
        const auto it = ref.find(key);
        ASSERT_EQ(d->search(key), it == ref.end()
                                      ? std::nullopt
                                      : std::optional<std::uint64_t>(
                                            it->second))
            << name << " search " << key;
      }
    }
  };
  std::thread t1(blocking, kRange);
  std::thread t2(blocking, 2 * kRange);
  runner.join();
  t1.join();
  t2.join();
  EXPECT_EQ(d->validate(), "") << name;
}

INSTANTIATE_TEST_SUITE_P(MixingWirings, DriverMixedTest,
                         ::testing::Values("m2", "locked"),
                         [](const auto& info) {
                           return testutil::gtest_safe(info.param);
                         });

// ---- asynchronous submission (futures / tickets / completions) --------------

class DriverSubmitTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DriverSubmitTest, OneThreadOverlapsManyOutstandingOps) {
  // The acceptance demo for the futures API: ONE thread submits the whole
  // script without waiting, holding every future; only then are results
  // collected. With one blocking thread per op this would need kOps
  // threads — here outstanding ops exceed submitting threads by 1024x.
  const char* name = GetParam();
  driver::Options opts;
  opts.workers = 2;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
  std::map<std::uint64_t, std::uint64_t> ref;
  constexpr std::size_t kOps = 1024;
  const auto ops = scripted_ops(77, kOps, /*with_ordered=*/false);

  std::vector<core::Future<std::uint64_t>> futures;
  futures.reserve(kOps);
  for (const auto& op : ops) futures.push_back(d->submit(op));

  // All ops are in flight (or already done) — nothing has been waited on.
  ASSERT_EQ(futures.size(), kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto want = reference_apply(ref, ops[i]);
    // Point ops on the same key keep submission order per key, so the
    // sequential oracle is exact even through the async front end.
    testutil::expect_result_eq(futures[i].get(), want, name, i);
  }
  ASSERT_EQ(d->size(), ref.size()) << name;
  EXPECT_EQ(d->validate(), "") << name;
}

TEST_P(DriverSubmitTest, TicketSubmissionAndCompletionCallbacks) {
  const char* name = GetParam();
  driver::Options opts;
  opts.workers = 2;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);

  // Raw-ticket form: caller-owned completion slots, zero extra allocation.
  constexpr std::size_t kOps = 256;
  std::vector<core::OpTicket<std::uint64_t>> tickets(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    d->submit(IntOp::insert(i, i * 3), &tickets[i]);
  }
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(tickets[i].wait().success()) << name << " op " << i;
  }

  // Completion-callback form: delivery on the fulfilling thread.
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> sum{0};
  for (std::size_t i = 0; i < kOps; ++i) {
    d->submit(IntOp::search(i),
              [&](core::Result<std::uint64_t>&& r) {
                sum.fetch_add(*r.value);
                done.fetch_add(1);
              });
  }
  d->quiesce();
  ASSERT_EQ(done.load(), kOps) << name;
  ASSERT_EQ(sum.load(), 3u * (kOps * (kOps - 1) / 2)) << name;

  // Ordered kinds through the same futures surface.
  auto pred = d->submit(IntOp::predecessor(10));
  auto succ = d->submit(IntOp::successor(10));
  auto cnt = d->submit(IntOp::range_count(0, kOps));
  EXPECT_EQ(pred.get().matched_key, 9u) << name;
  EXPECT_EQ(succ.get().matched_key, 11u) << name;
  EXPECT_EQ(cnt.get().count, kOps) << name;
}

INSTANTIATE_TEST_SUITE_P(AllWirings, DriverSubmitTest,
                         ::testing::Values("m0", "m1", "m2", "splay",
                                           "locked", "sharded:m1",
                                           "sharded:m2"),
                         [](const auto& info) {
                           return testutil::gtest_safe(info.param);
                         });

// Differential fuzz that crosses a full checkpoint→restart boundary at
// the midpoint: the driver snapshots + rotates its WAL, is destroyed,
// and a new driver recovers from the same directory while the std::map
// oracle carries straight across. Every post-restart result is checked
// against the oracle, so recovery dropping, duplicating, or reordering
// even one op diverges immediately.
TEST(Driver, DifferentialFuzzAcrossCheckpointRestart) {
  for (const std::string name : {"m1", "sharded:m1"}) {
    char tmpl[] = "/tmp/pwss-driver-ckpt-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    driver::Options opts;
    opts.workers = 2;
    opts.durability = store::DurabilityMode::kSync;
    opts.durability_dir = std::string(tmpl) + "/store";

    std::map<std::uint64_t, std::uint64_t> ref;
    util::Xoshiro256 rng(99);
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
    for (int round = 0; round < 40; ++round) {
      if (round == 20) {
        ASSERT_EQ(d->checkpoint(), "") << name;
        d.reset();
        d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
        ASSERT_EQ(d->validate(), "") << name;
        ASSERT_GT(d->stats().recovered_entries, 0u) << name;
      }
      const auto ops = scripted_ops(500 + round, 1 + rng.bounded(60));
      const auto got = d->run(ops);
      ASSERT_EQ(got.size(), ops.size()) << name;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto want = reference_apply(ref, ops[i]);
        testutil::expect_result_eq(got[i], want, name.c_str(), i);
      }
    }
    d->quiesce();
    ASSERT_EQ(d->size(), ref.size()) << name;
    EXPECT_EQ(d->validate(), "") << name;
    d.reset();
    std::filesystem::remove_all(tmpl);
  }
}

TEST(Driver, ShardedOrderedQueriesScatterGather) {
  // Keys deliberately straddle shard boundaries: predecessor/successor
  // must reduce across every shard's local answer and range counts must
  // sum across shards.
  driver::Options opts;
  opts.workers = 2;
  opts.shards = 4;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("sharded:m1",
                                                             opts);
  std::map<std::uint64_t, std::uint64_t> ref;
  for (std::uint64_t k = 0; k < 512; k += 3) {
    d->insert(k, k * 7);
    ref[k] = k * 7;
  }
  for (std::uint64_t probe = 0; probe < 520; probe += 11) {
    const auto want_p =
        reference_apply(ref, IntOp::predecessor(probe));
    const auto want_s = reference_apply(ref, IntOp::successor(probe));
    const auto got_p = d->predecessor(probe);
    const auto got_s = d->successor(probe);
    if (want_p.status == core::ResultStatus::kFound) {
      ASSERT_TRUE(got_p.has_value()) << probe;
      ASSERT_EQ(got_p->first, want_p.matched_key) << probe;
      ASSERT_EQ(got_p->second, want_p.value) << probe;
    } else {
      ASSERT_FALSE(got_p.has_value()) << probe;
    }
    if (want_s.status == core::ResultStatus::kFound) {
      ASSERT_TRUE(got_s.has_value()) << probe;
      ASSERT_EQ(got_s->first, want_s.matched_key) << probe;
    } else {
      ASSERT_FALSE(got_s.has_value()) << probe;
    }
    ASSERT_EQ(d->range_count(probe, probe + 100),
              reference_apply(ref, IntOp::range_count(probe, probe + 100))
                  .count)
        << probe;
  }
  // step()'s single-owner path reduces across shards too.
  const auto stepped = d->step(IntOp::predecessor(500));
  ASSERT_EQ(stepped.matched_key,
            reference_apply(ref, IntOp::predecessor(500)).matched_key);
}

}  // namespace
}  // namespace pwss
