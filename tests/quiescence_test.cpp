// Regression stress tests for the submission/quiescence counter-ordering
// protocol (DESIGN.md "Submission and quiescence protocol"):
//
//  * ParallelBuffer::submit must credit pending_ BEFORE releasing the slot
//    lock — a racing flush() could otherwise take the item and debit first,
//    wrapping pending_ to a huge value and pinning AsyncMap::drive() in a
//    livelock.
//  * AsyncMap::submit must claim in_flight_ BEFORE publishing the op in the
//    parallel buffer — the drive loop could otherwise fulfill the op and
//    debit first, wrapping the counter so quiesce() spins (or transiently
//    reads 0 with an op still buffered).
//
// A wrapped (mis-ordered) counter reads near 2^64, far above kWrapBound.
// The mis-ordered windows are only a few instructions wide, so raw stress
// rarely lands in them on few-core machines; on Linux the suites therefore
// run a preemption fuzzer: a per-thread CPU timer whose SIGPROF handler
// parks the interrupted thread for several milliseconds at a random
// instruction. A submitter parked between publishing and crediting leaves
// the counter wrapped for the whole park, which the observers reliably
// sample. These suites run under TSan in CI alongside the scheduler/lock
// suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "buffer/parallel_buffer.hpp"
#include "core/async_map.hpp"
#include "core/future.hpp"
#include "core/m1_map.hpp"
#include "driver/registry.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/sites.hpp"

namespace pwss {
namespace {

using util::sites::PreemptionFuzzer;

using IntMap = core::M1Map<std::uint64_t, std::uint64_t>;
using IntAsyncMap = core::AsyncMap<std::uint64_t, std::uint64_t, IntMap>;
using IntOp = core::Op<std::uint64_t, std::uint64_t>;

// No run ever has this many ops outstanding; a wrapped counter exceeds it
// by five orders of magnitude.
constexpr std::size_t kWrapBound = std::size_t{1} << 40;

unsigned oversubscribed_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return 4 * (hw == 0 ? 4 : hw);
}

TEST(QuiescenceStress, ParallelBufferPendingNeverWraps) {
  // One slot per submitter: no slot-lock spinning, so a parked or
  // preempted submitter sits inside submit()'s critical ordering a
  // measurable fraction of the time. The flusher SLEEPS between flushes:
  // each wake-up preempts a running submitter, and the flusher then
  // drains every slot — including any item whose credit is still pending
  // on a parked thread — and its own post-flush check observes the
  // wrapped counter directly.
  const unsigned kSubmitters = oversubscribed_threads();
  buffer::ParallelBuffer<std::uint64_t> buf(kSubmitters);
  constexpr auto kRunFor = std::chrono::milliseconds(2000);

  std::atomic<bool> stop{false};
  std::atomic<bool> done_submitting{false};
  std::atomic<bool> wrapped{false};
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> drained{0};

  auto watch = [&](std::size_t seen) {
    if (seen > kWrapBound) wrapped.store(true);
  };

  std::thread flusher([&] {
    std::vector<std::uint64_t> out;
    auto drain = [&] {
      out.clear();
      buf.flush(out);
      drained.fetch_add(out.size(), std::memory_order_relaxed);
    };
    while (!done_submitting.load(std::memory_order_acquire) ||
           buf.pending() > 0) {
      drain();
      watch(buf.pending());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    drain();
  });

  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      PreemptionFuzzer fuzz(200'000 + 50'000 * (t % 7));
      std::size_t count = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (buf.submit(static_cast<std::uint64_t>(t) * 1000000 + count)) {
          ++count;
        }
        watch(buf.pending());
      }
      submitted.fetch_add(count, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(kRunFor);
  stop.store(true, std::memory_order_release);
  for (auto& th : submitters) th.join();
  done_submitting.store(true, std::memory_order_release);
  flusher.join();

  EXPECT_FALSE(wrapped.load()) << "pending() wrapped below zero";
  EXPECT_EQ(drained.load(), submitted.load());
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(QuiescenceStress, AsyncMapInFlightNeverWraps) {
  // Burst submitters concentrate their CPU time inside submit(), where
  // the fuzzer can park them between publishing an op and claiming
  // in_flight_ (the mis-ordering this guards against); the small pool
  // keeps the drive loop hot so a parked submitter's op is fulfilled —
  // and debited — during the park. Several short rounds with jittered
  // fuzzer phases beat one long run at hitting the window.
  constexpr int kRounds = 8;
  constexpr int kClients = 4;
  constexpr auto kRoundFor = std::chrono::milliseconds(1500);

  bool wrapped_any = false;
  for (int round = 0; round < kRounds && !wrapped_any; ++round) {
    sched::Scheduler scheduler(2);
    IntAsyncMap amap(IntMap(&scheduler), scheduler);
    std::atomic<bool> stop{false};
    std::atomic<bool> wrapped{false};

    auto watch = [&] {
      if (amap.in_flight() > kWrapBound) wrapped.store(true);
    };

    std::thread observer([&] {
      while (!stop.load(std::memory_order_acquire)) watch();
    });
    // A concurrent quiescer: every quiesce() must eventually return, and
    // a wrapped counter would pin it spinning.
    std::thread quiescer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        amap.quiesce();
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t, round] {
        PreemptionFuzzer fuzz(200'000 + 70'000 * t + 30'000 * round);
        util::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 977 + 11);
        std::deque<core::OpTicket<std::uint64_t>> tickets;
        while (!stop.load(std::memory_order_acquire)) {
          tickets.clear();
          for (int i = 0; i < 256; ++i) {
            auto& ticket = tickets.emplace_back();
            const std::uint64_t key = rng.bounded(512);
            switch (rng.bounded(3)) {
              case 0: amap.submit(IntOp::insert(key, key * 3), &ticket); break;
              case 1: amap.submit(IntOp::erase(key), &ticket); break;
              default: amap.submit(IntOp::search(key), &ticket);
            }
            watch();
          }
          for (auto& ticket : tickets) ticket.wait();
        }
      });
    }

    std::this_thread::sleep_for(kRoundFor);
    stop.store(true, std::memory_order_release);
    for (auto& th : clients) th.join();
    observer.join();
    quiescer.join();

    amap.quiesce();
    EXPECT_EQ(amap.in_flight(), 0u) << "round " << round;
    EXPECT_EQ(amap.map().validate(), "") << "round " << round;
    if (wrapped.load()) wrapped_any = true;
  }
  EXPECT_FALSE(wrapped_any) << "in_flight() wrapped below zero";
}

TEST(QuiescenceStress, QuiesceImpliesAllTicketsFulfilled) {
  sched::Scheduler scheduler(4);
  IntAsyncMap amap(IntMap(&scheduler), scheduler);
  constexpr int kThreads = 4;
  constexpr std::size_t kPerRound = 64;
  constexpr int kRounds = 40;

  // OpTicket is neither movable nor copyable; deques give stable storage.
  std::vector<std::deque<core::OpTicket<std::uint64_t>>> tickets(kThreads);

  for (int round = 0; round < kRounds; ++round) {
    for (auto& q : tickets) q.clear();
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerRound; ++i) {
          auto& ticket = tickets[static_cast<std::size_t>(t)].emplace_back();
          const auto key = static_cast<std::uint64_t>(t) * 1000 + (i % 128);
          amap.submit(i % 2 == 0 ? IntOp::insert(key, i) : IntOp::search(key),
                      &ticket);
        }
      });
    }
    // Join first: every submit() has returned, so quiesce() must cover
    // every one of these ops.
    for (auto& th : submitters) th.join();
    amap.quiesce();
    for (int t = 0; t < kThreads; ++t) {
      for (auto& ticket : tickets[static_cast<std::size_t>(t)]) {
        ASSERT_TRUE(ticket.ready.load(std::memory_order_acquire))
            << "round " << round << ": quiesce() returned with an "
            << "unfulfilled ticket";
      }
    }
    ASSERT_EQ(amap.in_flight(), 0u) << "round " << round;
  }
  EXPECT_EQ(amap.map().validate(), "");
}

// Protocol-v2 stress: client threads drive the driver-level submit()
// surface (futures + raw tickets, point AND ordered kinds) while a
// dedicated thread hammers quiesce() the whole time. Exercises the
// in_flight_ accounting of the ordered scatter/gather and of M2's global
// ordered read under concurrency; runs under TSan in CI alongside the
// other quiescence suites.
TEST(QuiescenceStress, ConcurrentSubmitAndQuiesceAcrossBackends) {
  for (const char* name : {"m1", "m2", "sharded:m1"}) {
    driver::Options opts;
    opts.workers = 4;
    opts.shards = 2;
    auto d = driver::make_driver<std::uint64_t, std::uint64_t>(name, opts);
    for (std::uint64_t k = 0; k < 256; ++k) d->insert(k, k);

    std::atomic<bool> stop{false};
    std::thread quiescer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        d->quiesce();
        std::this_thread::yield();
      }
    });

    constexpr int kThreads = 3;
    constexpr std::size_t kPerThread = 400;
    std::vector<std::thread> submitters;
    std::atomic<std::size_t> completion_submits{0};
    std::atomic<std::size_t> completions{0};
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
        std::vector<core::Future<std::uint64_t>> futures;
        futures.reserve(kPerThread);
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t key = rng.bounded(256);
          switch (rng.bounded(5)) {
            case 0:
              futures.push_back(d->submit(IntOp::insert(key, i)));
              break;
            case 1:
              futures.push_back(d->submit(IntOp::predecessor(key)));
              break;
            case 2:
              futures.push_back(d->submit(IntOp::range_count(key, key + 64)));
              break;
            case 3:
              completion_submits.fetch_add(1, std::memory_order_relaxed);
              d->submit(IntOp::successor(key),
                        [&](core::Result<std::uint64_t>&& r) {
                          (void)r;
                          completions.fetch_add(1,
                                                std::memory_order_relaxed);
                        });
              break;
            default:
              futures.push_back(d->submit(IntOp::search(key)));
          }
        }
        for (auto& f : futures) (void)f.get();
      });
    }
    for (auto& th : submitters) th.join();
    stop.store(true, std::memory_order_release);
    quiescer.join();
    d->quiesce();
    EXPECT_EQ(d->validate(), "") << name;
    // quiesce() returning implies every completion callback already ran
    // (fulfill — and the hook inside it — happens before the in-flight
    // decrement quiesce() waits on).
    EXPECT_EQ(completions.load(), completion_submits.load()) << name;
  }
}

}  // namespace
}  // namespace pwss
