// Tests for the overload-robustness layer (DESIGN.md "Overload & fault
// model"): admission control (a bounded in-flight window that sheds when
// full), op deadlines and cancellation (terminal-status exactness,
// quiescence-counter conservation), the retry/backoff helper, and the
// seeded schedule-point fault injector.
//
// The fault-injection suites GTEST_SKIP in ordinary builds (the sites
// compile to `false`); CI's sites job rebuilds with -DPWSS_SITES=ON and
// runs them for real across a seed sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/future.hpp"
#include "driver/admission.hpp"
#include "driver/registry.hpp"
#include "driver/retry.hpp"
#include "driver/sharded.hpp"
#include "sched/scheduler.hpp"
#include "util/node_pool.hpp"
#include "util/rng.hpp"
#include "util/sites.hpp"

namespace pwss {
namespace {

using IntDriver = driver::Driver<std::uint64_t, std::uint64_t>;
using IntOp = core::Op<std::uint64_t, std::uint64_t>;
using IntTicket = core::OpTicket<std::uint64_t>;

// Every registered wiring, plus sharded variants: the robustness layer
// lives in the shared Driver base, so each contract below must hold for
// all of them.
constexpr const char* kAllBackends[] = {"m0",  "m1",     "m2",
                                        "avl", "iacono", "splay",
                                        "locked", "sharded:m1", "sharded:m2"};

driver::Options two_workers() {
  driver::Options opts;
  opts.workers = 2;
  return opts;
}

// ---- protocol: deadlines -----------------------------------------------------

TEST(Deadline, ExpiredOpCompletesTimedOutWithoutExecuting) {
  for (const char* name : kAllBackends) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
        name, two_workers());
    d->insert(7, 70);

    // Async: an already-expired deadline never reaches the backend — the
    // ticket comes back kTimedOut (fulfilled by the admission screen or
    // at the first batch cut, depending on wiring).
    auto f = d->submit(IntOp::search(7).with_deadline(1));
    EXPECT_EQ(f.get().status, core::ResultStatus::kTimedOut) << name;

    // Blocking: same terminal status through run_blocking.
    const auto r = d->run_blocking(IntOp::erase(7).with_deadline(1));
    EXPECT_EQ(r.status, core::ResultStatus::kTimedOut) << name;

    // Nothing executed: the key survives both expired ops.
    EXPECT_EQ(d->search(7), 70u) << name;
    EXPECT_EQ(d->validate(), "") << name;
  }
}

TEST(Deadline, GenerousDeadlineExecutesNormally) {
  for (const char* name : kAllBackends) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
        name, two_workers());
    auto f = d->submit(
        IntOp::insert(1, 10).with_timeout(std::chrono::seconds(30)));
    EXPECT_EQ(f.get().status, core::ResultStatus::kInserted) << name;
    EXPECT_EQ(d->search(1), 10u) << name;
  }
}

// ---- protocol: cancellation --------------------------------------------------

TEST(Cancel, TerminalStatusIsExactUnderRacingCancels) {
  // Distinct insert keys make exactness observable: an op that reports
  // kCancelled must not have touched the structure, so size() equals the
  // count of kInserted results no matter where each cancel lands.
  for (const char* name : kAllBackends) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
        name, two_workers());
    constexpr std::size_t kOps = 512;
    std::vector<IntTicket> tickets(kOps);

    std::atomic<bool> go{false};
    std::thread canceller([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < kOps; i += 2) tickets[i].cancel();
    });
    for (std::size_t i = 0; i < kOps; ++i) {
      d->submit(IntOp::insert(i, i * 3), &tickets[i]);
      if (i == kOps / 8) go.store(true, std::memory_order_release);
    }
    go.store(true, std::memory_order_release);
    canceller.join();
    d->quiesce();

    std::size_t inserted = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(tickets[i].ready.load(std::memory_order_acquire))
          << name << " op " << i << " not terminal after quiesce()";
      const auto status = tickets[i].result.status;
      if (status == core::ResultStatus::kInserted) {
        ++inserted;
      } else {
        ASSERT_EQ(status, core::ResultStatus::kCancelled)
            << name << " op " << i;
      }
    }
    EXPECT_EQ(d->size(), inserted) << name;
    EXPECT_EQ(d->validate(), "") << name;
  }
}

TEST(Cancel, FutureCancelReachesTheTicket) {
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
      "m1", two_workers());
  // Cancel after completion is a harmless no-op and the result stands.
  auto f = d->submit(IntOp::insert(1, 10));
  d->quiesce();
  f.cancel();
  EXPECT_EQ(f.get().status, core::ResultStatus::kInserted);
  EXPECT_EQ(d->search(1), 10u);
}

TEST(Cancel, QuiescenceCountersConservedUnderConcurrentCancelAndQuiesce) {
  // The TSan target for the counter protocol: submitters, a canceller,
  // and a quiescer all running at once. Every op must reach a terminal
  // status and the in-flight window must read zero afterwards — a double
  // debit (cancelled AND fulfilled) or a missed one (vanished op) shows
  // up as a wrapped or stuck counter.
  for (const char* name : {"m1", "m2", "sharded:m1"}) {
    driver::Options opts = two_workers();
    opts.max_in_flight = 64;  // exercise the admission window too
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);

    constexpr int kSubmitters = 3;
    constexpr std::size_t kPerThread = 400;
    std::vector<std::vector<IntTicket>> tickets(kSubmitters);
    for (auto& v : tickets) v = std::vector<IntTicket>(kPerThread);

    std::atomic<bool> stop{false};
    std::thread quiescer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        d->quiesce();
        std::this_thread::yield();
      }
    });
    std::thread canceller([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (auto& v : tickets) {
          for (std::size_t i = 0; i < kPerThread; i += 7) v[i].cancel();
        }
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        util::Xoshiro256 rng(0x0b057ULL ^ (static_cast<std::uint64_t>(t) * 31));
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t key = rng.bounded(256);
          d->submit(IntOp::upsert(key, key + 1), &tickets[t][i]);
        }
      });
    }
    for (auto& th : submitters) th.join();
    d->quiesce();
    stop.store(true, std::memory_order_release);
    quiescer.join();
    canceller.join();
    d->quiesce();

    for (const auto& v : tickets) {
      for (const auto& ticket : v) {
        ASSERT_TRUE(ticket.ready.load(std::memory_order_acquire))
            << name << ": op not terminal after quiesce()";
      }
    }
    EXPECT_EQ(d->stats().in_flight, 0u) << name;
    EXPECT_EQ(d->validate(), "") << name;
  }
}

// ---- admission control -------------------------------------------------------

TEST(Admission, FullWindowShedsWithOverloadedAndNeverOverfills) {
  driver::Options opts = two_workers();
  opts.max_in_flight = 4;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("m1", opts);

  constexpr std::size_t kOps = 2000;
  std::vector<IntTicket> tickets(kOps);
  std::size_t max_seen = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    d->submit(IntOp::upsert(i % 64, i), &tickets[i]);
    max_seen = std::max(max_seen, d->stats().in_flight);
  }
  d->quiesce();

  std::size_t accepted = 0;
  std::size_t shed = 0;
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket.ready.load(std::memory_order_acquire));
    if (ticket.result.status == core::ResultStatus::kOverloaded) {
      ++shed;
    } else {
      ASSERT_FALSE(ticket.result.is_error());
      ++accepted;
    }
  }
  EXPECT_EQ(accepted + shed, kOps);
  EXPECT_GT(accepted, 0u);  // a window of 4 still makes progress
  EXPECT_LE(max_seen, opts.max_in_flight);
  EXPECT_EQ(d->stats().in_flight, 0u);
  EXPECT_EQ(d->validate(), "");
}

TEST(Admission, ExpiredDeadlineOutranksAFreeWindow) {
  // Controller-level determinism: an already-expired deadline is never
  // admitted, even to a free window, while a live one sheds only when the
  // window is full.
  driver::AdmissionController ctl(1);
  EXPECT_EQ(ctl.try_admit(1), driver::Admit::kExpired);
  EXPECT_EQ(ctl.in_flight(), 0u);
  ASSERT_EQ(ctl.try_admit(0), driver::Admit::kAdmitted);
  EXPECT_EQ(ctl.try_admit(core::deadline_after(std::chrono::seconds(10))),
            driver::Admit::kShed);
  ctl.release();
  EXPECT_EQ(ctl.in_flight(), 0u);

  // And through the driver: an expired deadline on the blocking path
  // surfaces kTimedOut without executing.
  driver::Options opts = two_workers();
  opts.max_in_flight = 1;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("m1", opts);
  const auto r = d->run_blocking(IntOp::search(1).with_deadline(1));
  EXPECT_EQ(r.status, core::ResultStatus::kTimedOut);
  EXPECT_EQ(d->stats().in_flight, 0u);
}

TEST(Admission, ShardedDriversShedPerShard) {
  driver::Options opts = two_workers();
  opts.shards = 4;
  opts.max_in_flight = 8;
  auto d =
      driver::make_driver<std::uint64_t, std::uint64_t>("sharded:m1", opts);

  // The window belongs to the shards: each one enforces its own 8, and
  // the sharded driver's counters are the shards' sums.
  auto& sd =
      dynamic_cast<driver::ShardedDriver<std::uint64_t, std::uint64_t>&>(*d);
  constexpr std::size_t kOps = 4000;
  std::vector<IntTicket> tickets(kOps);
  std::uint64_t max_shard_window = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    d->submit(IntOp::upsert(i, i), &tickets[i]);
    for (std::size_t s = 0; s < sd.shard_count(); ++s) {
      max_shard_window =
          std::max(max_shard_window, sd.shard(s).stats().in_flight);
    }
  }
  d->quiesce();
  std::size_t accepted = 0;
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket.ready.load(std::memory_order_acquire));
    if (!ticket.result.is_error()) ++accepted;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LE(max_shard_window, opts.max_in_flight);
  const driver::DriverStats stats = d->stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.admitted, accepted);
  EXPECT_EQ(stats.shed, kOps - accepted);
  EXPECT_EQ(stats.in_flight, 0u);
  // Distinct upsert keys: each accepted op inserted its own key, so the
  // conservation size() == #accepted is exact even with per-shard sheds.
  EXPECT_EQ(d->size(), accepted);
  EXPECT_EQ(d->validate(), "");
}

// ---- retry / backoff ---------------------------------------------------------

TEST(Retry, BackoffStopsAtTimeBudget) {
  // The budget is wall-clock time from the first retry, not a count: a
  // budget of 20 ms at 50-100 us steps allows many retries, then stops.
  driver::retry::BackoffPolicy policy;
  policy.initial_delay_ns = 100'000;
  policy.max_delay_ns = 100'000;
  policy.budget_ns = 20'000'000;
  driver::retry::Backoff backoff(policy);
  const std::uint64_t start = core::now_ns();
  while (backoff.next(0)) {
    ASSERT_LT(backoff.attempts(), 1000u) << "the time budget never ran out";
  }
  const std::uint64_t elapsed = core::now_ns() - start;
  EXPECT_GT(backoff.attempts(), 1u);
  // It stops only once the next step would end past the budget.
  EXPECT_GE(elapsed, policy.budget_ns - policy.max_delay_ns);
  EXPECT_FALSE(backoff.next(0));  // stays spent

  // A zero budget refuses even the first retry.
  policy.budget_ns = 0;
  driver::retry::Backoff none(policy);
  EXPECT_FALSE(none.next(0));
  EXPECT_EQ(none.attempts(), 0u);
}

TEST(Retry, BackoffRefusesToSleepPastTheDeadline) {
  driver::retry::Backoff backoff;  // first delay ~10us
  // A deadline closer than any possible jittered delay: refuse without
  // sleeping instead of overshooting it.
  EXPECT_FALSE(backoff.next(core::now_ns() + 1000));
}

TEST(Retry, BlockingConveniencesAbsorbTransientOverload) {
  // With a window of 1 and two hammering clients, the blocking path's
  // admission verdicts frequently come back kShed — the retry loop must
  // absorb every one of them (no deadline, ample attempts at these
  // depths) so callers never see a spurious failure.
  driver::Options opts = two_workers();
  opts.max_in_flight = 1;
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("m1", opts);
  constexpr std::uint64_t kPerClient = 200;
  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> ok{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(c) * kPerClient + i;
        if (d->insert(key, key * 2)) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(ok.load(), 2 * kPerClient);
  EXPECT_EQ(d->size(), 2 * kPerClient);
}

// ---- lost-wakeup regression --------------------------------------------------

TEST(Wakeup, FutureWaitSurvivesConcurrentQuiesce) {
  // Regression pin for the futex path in OpTicket::wait(): ready is
  // published with release + notify_all AFTER the result write, and
  // wait(false) returns immediately when the value already changed, so a
  // waiter that races the publish cannot sleep forever. A concurrent
  // quiescer maximises the racing window (quiesce fulfills whole cut
  // batches back-to-back while waiters are mid-transition from the spin
  // phase to the futex phase). A lost wakeup hangs this test; the ctest
  // timeout turns that into a failure.
  for (const char* name : {"m1", "m2"}) {
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
        name, two_workers());
    std::atomic<bool> stop{false};
    std::thread quiescer([&] {
      while (!stop.load(std::memory_order_acquire)) d->quiesce();
    });

    constexpr int kClients = 3;
    constexpr std::uint64_t kPerClient = 600;
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> completed{0};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::uint64_t i = 0; i < kPerClient; ++i) {
          const std::uint64_t key =
              static_cast<std::uint64_t>(c) * kPerClient + i;
          auto f = d->submit(IntOp::insert(key, key));
          if (f.get().status == core::ResultStatus::kInserted) {
            completed.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    stop.store(true, std::memory_order_release);
    quiescer.join();
    EXPECT_EQ(completed.load(), kClients * kPerClient) << name;
    EXPECT_EQ(d->size(), kClients * kPerClient) << name;
  }
}

// ---- fault injection ---------------------------------------------------------

#define PWSS_REQUIRE_FAULTS()                                        \
  do {                                                               \
    if (!util::sites::kCompiled) {                                   \
      GTEST_SKIP() << "fault sites compiled out; rebuild with "      \
                   << "-DPWSS_SITES=ON to run the injector";         \
    }                                                                \
  } while (0)

class FaultInjectTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::sites::disable();
    util::sites::clear();
  }
};

TEST_F(FaultInjectTest, ForcedNodePoolExhaustionSurfacesAndPoolRecovers) {
  PWSS_REQUIRE_FAULTS();
  struct Node {
    std::uint64_t payload;
  };
  sched::Scheduler scheduler(2);
  util::NodePool<Node> pool(&scheduler);

  // The pool allocates chunks lazily, so the very first create() needs a
  // chunk and the forced failure fires deterministically.
  util::sites::arm("node_pool.chunk_alloc", util::sites::Action::kFail, 1);
  EXPECT_THROW((void)pool.create(Node{1}), util::PoolExhausted);
  EXPECT_EQ(pool.validate(), "");  // failed acquire left the pool untouched
  EXPECT_EQ(pool.live_nodes(), 0u);

  // Recovery is simply "try again": the forced count is spent.
  Node* n = pool.create(Node{2});
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->payload, 2u);
  pool.destroy(n);
  EXPECT_EQ(pool.live_nodes(), 0u);
  EXPECT_EQ(pool.validate(), "");
}

TEST_F(FaultInjectTest, PoolExhaustedIsABadAlloc) {
  // Code written for real heap exhaustion handles the injected kind: the
  // exception derives from std::bad_alloc.
  static_assert(std::is_base_of_v<std::bad_alloc, util::PoolExhausted>);
  util::PoolExhausted e;
  EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
}

TEST_F(FaultInjectTest, SeededSweepEveryOpTerminalStructureClean) {
  PWSS_REQUIRE_FAULTS();
  // The acceptance sweep: seeded injection at every clean-by-construction
  // site while mixed async traffic runs against EVERY backend wiring.
  // After quiescing, all ops must be terminal (executed or kOverloaded —
  // nothing torn, nothing lost), deep validate() clean, and the
  // distinct-key insert conservation exact. Sched sites draw only where
  // named: scheduler.spawn.stall parks, no other schedule point does.
  for (const char* name : kAllBackends) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::sites::enable(0x5eedfa17ULL + seed * 0x9e3779b9ULL,
                          util::sites::kFault | util::sites::kSched,
                          /*period=*/8,
                          {"async_map.batch.pool_reserve",
                           "m2.batch.pool_reserve",
                           "parallel_buffer.submit.reject",
                           "scheduler.spawn.stall"});
      auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
          name, two_workers());
      constexpr std::size_t kOps = 600;
      std::vector<IntTicket> tickets(kOps);
      for (std::size_t i = 0; i < kOps; ++i) {
        d->submit(IntOp::insert(i, i * 5), &tickets[i]);
      }
      d->quiesce();
      util::sites::disable();

      std::size_t inserted = 0;
      for (std::size_t i = 0; i < kOps; ++i) {
        ASSERT_TRUE(tickets[i].ready.load(std::memory_order_acquire))
            << name << " seed " << seed << ": op " << i
            << " not terminal after quiesce()";
        const auto status = tickets[i].result.status;
        if (status == core::ResultStatus::kInserted) {
          ++inserted;
        } else {
          ASSERT_EQ(status, core::ResultStatus::kOverloaded)
              << name << " seed " << seed << " op " << i;
        }
      }
      ASSERT_EQ(d->size(), inserted) << name << " seed " << seed;
      ASSERT_EQ(d->validate(), "") << name << " seed " << seed;
      ASSERT_EQ(d->stats().in_flight, 0u) << name << " seed " << seed;
    }
  }
}

TEST_F(FaultInjectTest, M2BulkRunShedsEveryOpOnPoolReserveFault) {
  PWSS_REQUIRE_FAULTS();
  // A Driver::run batch longer than one cut reaches m2 as bulk requests;
  // with m2.batch.pool_reserve failing, each chunk's terminal-status pass
  // sheds every op kOverloaded into the caller's buffer before the ladder
  // is touched, and the run still returns.
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>("m2",
                                                             two_workers());
  std::vector<IntOp> load;
  for (std::uint64_t k = 0; k < 2000; ++k) load.push_back(IntOp::insert(k, k));
  (void)d->run(load);
  d->quiesce();
  const std::size_t before = d->size();
  ASSERT_EQ(before, 2000u);

  std::vector<IntOp> batch;
  for (std::uint64_t k = 0; k < 10000; ++k) {
    batch.push_back(k % 2 == 0 ? IntOp::insert(k + 5000, k) : IntOp::erase(k));
  }
  const std::uint64_t fires0 = util::sites::fires("m2.batch.pool_reserve");
  util::sites::arm("m2.batch.pool_reserve", util::sites::Action::kFail, 1000);
  const auto got = d->run(batch);
  util::sites::clear();
  EXPECT_GE(util::sites::fires("m2.batch.pool_reserve") - fires0, 3u)
      << "a 10,000-op run walks at least three chunks";
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].status, core::ResultStatus::kOverloaded) << "op " << i;
  }
  d->quiesce();
  EXPECT_EQ(d->size(), before);
  EXPECT_EQ(d->validate(), "");
}

TEST_F(FaultInjectTest, BlockingPathRetriesThroughInjectedRejections) {
  PWSS_REQUIRE_FAULTS();
  // Injected buffer rejections surface as kOverloaded, which the blocking
  // conveniences absorb via backoff — callers see only clean results.
  util::sites::enable(0xb10c4ed, util::sites::kFault, /*period=*/4,
                      {"parallel_buffer.submit.reject"});
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
      "m1", two_workers());
  for (std::uint64_t k = 0; k < 300; ++k) {
    EXPECT_TRUE(d->insert(k, k * 2));
  }
  util::sites::disable();
  EXPECT_GT(util::sites::fires("parallel_buffer.submit.reject"), 0u)
      << "the injector never fired — the sweep tested nothing";
  EXPECT_EQ(d->size(), 300u);
  EXPECT_EQ(d->validate(), "");
}

TEST_F(FaultInjectTest, RegistryCountsHitsAndFires) {
  PWSS_REQUIRE_FAULTS();
  const std::uint64_t hits_before =
      util::sites::hits("parallel_buffer.submit.reject");
  auto d = driver::make_driver<std::uint64_t, std::uint64_t>(
      "m1", two_workers());
  for (std::uint64_t k = 0; k < 50; ++k) (void)d->insert(k, k);
  d->quiesce();
  EXPECT_GT(util::sites::hits("parallel_buffer.submit.reject"), hits_before)
      << "the submit site is no longer on the hot path";
  bool found = false;
  for (const auto& s : util::sites::snapshot()) {
    if (s.name == "parallel_buffer.submit.reject") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pwss
