// Tests for the implicit-batching plumbing: parallel buffer (A.1), the
// front end's FIFO feed and its cut (Section 6.1), AsyncGate, and the
// AsyncMap front end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "buffer/parallel_buffer.hpp"
#include "core/async_map.hpp"
#include "core/m1_map.hpp"
#include "sync/async_gate.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

TEST(ParallelBuffer, SubmitFlushRoundTrip) {
  buffer::ParallelBuffer<int> buf(4);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(buf.submit(i));
  EXPECT_EQ(buf.pending(), 100u);
  std::vector<int> out;
  buf.flush(out);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(buf.pending(), 0u);
  std::set<int> s(out.begin(), out.end());
  EXPECT_EQ(s.size(), 100u);
}

TEST(ParallelBuffer, FlushEmpty) {
  buffer::ParallelBuffer<int> buf(2);
  std::vector<int> out;
  buf.flush(out);
  EXPECT_TRUE(out.empty());
}

TEST(ParallelBuffer, FlushAppendsAfterExistingContents) {
  buffer::ParallelBuffer<int> buf(4);
  std::vector<int> out = {-2, -1};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(buf.submit(i));
  buf.flush(out);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out[0], -2);
  EXPECT_EQ(out[1], -1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i) + 2], i);
  buf.flush(out);  // nothing buffered: nothing appended
  EXPECT_EQ(out.size(), 12u);
}

TEST(ParallelBuffer, SameThreadOrderPreserved) {
  buffer::ParallelBuffer<int> buf(4);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(buf.submit(i));
  std::vector<int> out;
  buf.flush(out);
  // All from one thread => one slot => order preserved.
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
}

TEST(ParallelBuffer, ConcurrentSubmittersLoseNothing) {
  buffer::ParallelBuffer<std::uint64_t> buf(8);
  constexpr int kThreads = 8, kPer = 10000;
  std::atomic<std::size_t> flushed{0};
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    std::vector<std::uint64_t> out;
    while (!done.load() || buf.pending() > 0) {
      out.clear();
      buf.flush(out);
      flushed.fetch_add(out.size());
    }
    out.clear();
    buf.flush(out);
    flushed.fetch_add(out.size());
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        EXPECT_TRUE(buf.submit(static_cast<std::uint64_t>(t) * kPer + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  done = true;
  flusher.join();
  EXPECT_EQ(flushed.load(), static_cast<std::size_t>(kThreads) * kPer);
  EXPECT_EQ(buf.validate(), "");
}

// FrontEnd's feed is one FIFO: a cut of k bunches is its first
// min(k * bunch, queued) ops in arrival order.
using IntFrontEnd = core::FrontEnd<int, int>;
using IntTicket = core::OpTicket<int, int>;

/// Submits keys [from, to) from the calling thread, each on its own
/// ticket (a front end only touches a ticket when it refuses the op).
void submit_keys(IntFrontEnd& fe, std::deque<IntTicket>& tickets, int from,
                 int to) {
  for (int k = from; k < to; ++k) {
    fe.submit(core::Op<int, int>::search(k), &tickets.emplace_back());
  }
}

std::vector<int> keys_of(const std::vector<IntFrontEnd::POp>& cut) {
  std::vector<int> keys;
  for (const auto& op : cut) keys.push_back(op.key);
  return keys;
}

std::vector<int> iota_keys(int from, int to) {
  std::vector<int> keys;
  for (int k = from; k < to; ++k) keys.push_back(k);
  return keys;
}

TEST(FrontEnd, CutTakesBunchPrefixInArrivalOrderAcrossFlushes) {
  IntFrontEnd fe(4);
  std::deque<IntTicket> tickets;
  std::vector<IntFrontEnd::POp> cut;
  submit_keys(fe, tickets, 0, 3);
  fe.cut(0, cut);  // flushes 0..2 into the feed, takes nothing
  EXPECT_TRUE(cut.empty());
  submit_keys(fe, tickets, 3, 10);
  fe.cut(1, cut);
  EXPECT_EQ(keys_of(cut), iota_keys(0, 4));
  submit_keys(fe, tickets, 10, 21);
  fe.cut(2, cut);  // ops from three flushes
  EXPECT_EQ(keys_of(cut), iota_keys(4, 12));
  fe.cut(5, cut);  // five bunches asked, two and a bit queued
  EXPECT_EQ(keys_of(cut), iota_keys(12, 21));
  EXPECT_FALSE(fe.pending());
  fe.cut(1, cut);
  EXPECT_TRUE(cut.empty());
  fe.debit(21);
}

TEST(FrontEnd, ZeroBunchCutTakesNothing) {
  IntFrontEnd fe(3);
  std::deque<IntTicket> tickets;
  std::vector<IntFrontEnd::POp> cut;
  submit_keys(fe, tickets, 0, 5);
  fe.cut(1, cut);
  EXPECT_EQ(keys_of(cut), iota_keys(0, 3));
  fe.cut(0, cut);
  EXPECT_TRUE(cut.empty()) << "the out buffer is cleared first";
  EXPECT_TRUE(fe.pending());
  fe.cut(1, cut);
  EXPECT_EQ(keys_of(cut), iota_keys(3, 5));
  EXPECT_FALSE(fe.pending());
  fe.debit(5);
}

TEST(FrontEnd, CutEverythingTakesEverything) {
  // ~0 bunches of p^2 ops: the multiply would overflow, the cut must not.
  for (const std::size_t bunch : {std::size_t{1}, std::size_t{16},
                                  std::size_t{1} << 40}) {
    IntFrontEnd fe(bunch);
    std::deque<IntTicket> tickets;
    std::vector<IntFrontEnd::POp> cut;
    submit_keys(fe, tickets, 0, 100);
    fe.cut(~std::size_t{0}, cut);
    EXPECT_EQ(keys_of(cut), iota_keys(0, 100)) << "bunch " << bunch;
    submit_keys(fe, tickets, 100, 110);
    fe.cut(~std::size_t{0} / 2, cut);
    EXPECT_EQ(keys_of(cut), iota_keys(100, 110)) << "bunch " << bunch;
    EXPECT_FALSE(fe.pending());
    fe.debit(110);
  }
}

TEST(FrontEnd, PendingAndInFlightExactAtQuiescence) {
  IntFrontEnd fe(4);
  std::deque<IntTicket> tickets;
  std::vector<IntFrontEnd::POp> cut;
  EXPECT_FALSE(fe.pending());
  EXPECT_EQ(fe.in_flight(), 0u);
  submit_keys(fe, tickets, 0, 10);
  EXPECT_TRUE(fe.pending());
  EXPECT_EQ(fe.in_flight(), 10u) << "claimed on submit";
  fe.cut(1, cut);
  EXPECT_EQ(cut.size(), 4u);
  EXPECT_EQ(fe.in_flight(), 10u) << "a cut op stays in flight until debited";
  fe.debit(cut.size());
  EXPECT_EQ(fe.in_flight(), 6u);
  EXPECT_TRUE(fe.pending()) << "six ops still queued in the feed";
  fe.cut(2, cut);
  EXPECT_EQ(cut.size(), 6u);
  EXPECT_FALSE(fe.pending());
  fe.debit(cut.size());
  EXPECT_EQ(fe.in_flight(), 0u);
}

TEST(FrontEnd, RandomChurnMatchesAFifoModel) {
  // Random submits and cuts of random size against a deque: every cut is
  // the model's prefix, through the feed's drain resets and compactions.
  IntFrontEnd fe(4);
  std::deque<IntTicket> tickets;
  std::deque<int> model;
  std::vector<IntFrontEnd::POp> cut;
  util::Xoshiro256 rng(99);
  int next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng.bounded(2) == 0) {
      const int n = static_cast<int>(rng.bounded(20));
      submit_keys(fe, tickets, next, next + n);
      for (int k = next; k < next + n; ++k) model.push_back(k);
      next += n;
    } else {
      const std::size_t bunches = rng.bounded(4);
      fe.cut(bunches, cut);
      const std::size_t take = std::min(bunches * 4, model.size());
      ASSERT_EQ(cut.size(), take) << "step " << step;
      for (std::size_t i = 0; i < take; ++i) {
        ASSERT_EQ(cut[i].key, model.front()) << "step " << step;
        model.pop_front();
      }
      fe.debit(take);
    }
    ASSERT_EQ(fe.pending(), !model.empty()) << "step " << step;
    ASSERT_EQ(fe.in_flight(), model.size()) << "step " << step;
  }
}

TEST(FrontEnd, ManySubmittersKeepEachThreadsOrder) {
  // One runner cuts while submitters publish: every op arrives exactly
  // once, and each thread's ops arrive in its submission order.
  IntFrontEnd fe(4);
  constexpr int kThreads = 4, kPer = 5000;
  std::vector<std::deque<IntTicket>> tickets(kThreads);
  std::atomic<int> finished{0};
  std::vector<int> seen;
  std::thread runner([&] {
    std::vector<IntFrontEnd::POp> cut;
    util::Xoshiro256 rng(7);
    while (finished.load(std::memory_order_acquire) < kThreads ||
           fe.pending()) {
      fe.cut(rng.bounded(4), cut);
      for (const auto& op : cut) seen.push_back(op.key);
      fe.debit(cut.size());
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      submit_keys(fe, tickets[static_cast<std::size_t>(t)], t * kPer,
                  (t + 1) * kPer);
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  for (auto& th : submitters) th.join();
  runner.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kThreads) * kPer);
  std::vector<int> last(kThreads, -1);
  for (const int k : seen) {
    const int t = k / kPer;
    ASSERT_GT(k, last[static_cast<std::size_t>(t)]) << "thread " << t;
    last[static_cast<std::size_t>(t)] = k;
  }
  EXPECT_EQ(fe.in_flight(), 0u);
}

TEST(FrontEnd, CutBunchesIsCeilLogNOverP) {
  // Tiny maps still cut one bunch.
  EXPECT_EQ(core::cut_bunches(0, 2), 1u);
  EXPECT_EQ(core::cut_bunches(1, 2), 1u);
  EXPECT_EQ(core::cut_bunches(2, 2), 1u);
  EXPECT_EQ(core::cut_bunches(2, 1), 1u);
  // ceil(log2 n) rounds up between powers of two.
  EXPECT_EQ(core::cut_bunches(3, 1), 2u);
  EXPECT_EQ(core::cut_bunches(5, 1), 3u);
  const std::size_t n = std::size_t{1} << 20;
  EXPECT_EQ(core::cut_bunches(n, 1), 20u);
  EXPECT_EQ(core::cut_bunches(n, 2), 10u);
  EXPECT_EQ(core::cut_bunches(n, 4), 5u);
  EXPECT_EQ(core::cut_bunches(n, 3), 7u);
  EXPECT_EQ(core::cut_bunches(n + 1, 2), 11u);
  // p larger than log2 n: one bunch.
  EXPECT_EQ(core::cut_bunches(n, 64), 1u);
}

TEST(AsyncGate, BeginFinishSingleOwner) {
  sync::AsyncGate g;
  EXPECT_TRUE(g.begin());
  EXPECT_TRUE(g.active());
  EXPECT_FALSE(g.begin()) << "second begin must not grant ownership";
  EXPECT_TRUE(g.finish()) << "pending mark consumed, still owner";
  EXPECT_FALSE(g.finish());
  EXPECT_FALSE(g.active());
}

TEST(AsyncGate, PendingCollapses) {
  sync::AsyncGate g;
  EXPECT_TRUE(g.begin());
  EXPECT_FALSE(g.begin());
  EXPECT_FALSE(g.begin());  // multiple pendings collapse into one
  EXPECT_TRUE(g.finish());
  EXPECT_FALSE(g.finish());
}

TEST(AsyncGate, ConcurrentBeginsExactlyOneOwner) {
  for (int round = 0; round < 200; ++round) {
    sync::AsyncGate g;
    std::atomic<int> owners{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] { owners.fetch_add(g.begin() ? 1 : 0); });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(owners.load(), 1);
    while (g.finish()) {
    }
    EXPECT_FALSE(g.active());
  }
}

TEST(AsyncMapM1, BlockingOpsFromSingleThread) {
  sched::Scheduler scheduler(4);
  core::AsyncMap<int, int, core::M1Map<int, int>> amap(
      core::M1Map<int, int>(&scheduler), scheduler);
  EXPECT_TRUE(amap.insert(1, 10));
  EXPECT_FALSE(amap.insert(1, 11));
  EXPECT_EQ(amap.search(1), 11);
  EXPECT_EQ(amap.search(2), std::nullopt);
  EXPECT_EQ(amap.erase(1), 11);
  EXPECT_EQ(amap.search(1), std::nullopt);
}

TEST(AsyncMapM1, ManyConcurrentClients) {
  sched::Scheduler scheduler(4);
  core::AsyncMap<std::uint64_t, std::uint64_t,
                 core::M1Map<std::uint64_t, std::uint64_t>>
      amap(core::M1Map<std::uint64_t, std::uint64_t>(&scheduler), scheduler);
  constexpr int kThreads = 6, kOps = 3000;
  std::atomic<std::uint64_t> found{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = rng.bounded(512);
        switch (rng.bounded(3)) {
          case 0: amap.insert(key, key * 2); break;
          case 1: amap.erase(key); break;
          default: {
            auto v = amap.search(key);
            if (v) {
              EXPECT_EQ(*v, key * 2);  // values are a function of the key
              found.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  amap.quiesce();
  EXPECT_GT(found.load(), 0u);
  EXPECT_EQ(amap.map().validate(), "");
  EXPECT_LE(amap.map().size(), 512u);
}

TEST(AsyncMapM1, PerThreadProgramOrderRespected) {
  sched::Scheduler scheduler(4);
  core::AsyncMap<int, int, core::M1Map<int, int>> amap(
      core::M1Map<int, int>(&scheduler), scheduler);
  // One thread issuing insert -> search -> erase -> search on its own key
  // must see its own effects in order.
  std::vector<std::thread> clients;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const int key = t * 1000 + i;  // disjoint key space per thread
        if (!amap.insert(key, i)) ok = false;
        auto v = amap.search(key);
        if (!v || *v != i) ok = false;
        if (amap.erase(key) != i) ok = false;
        if (amap.search(key).has_value()) ok = false;
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_TRUE(ok.load());
  amap.quiesce();
  EXPECT_EQ(amap.map().size(), 0u);
}

}  // namespace
}  // namespace pwss
