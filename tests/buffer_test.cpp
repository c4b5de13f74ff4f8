// Tests for the implicit-batching plumbing: parallel buffer (A.1), feed
// buffer of bunches (Section 6.1), AsyncGate, and the AsyncMap front end.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "buffer/feed_buffer.hpp"
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
  auto out = buf.flush();
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(buf.pending(), 0u);
  std::set<int> s(out.begin(), out.end());
  EXPECT_EQ(s.size(), 100u);
}

TEST(ParallelBuffer, FlushEmpty) {
  buffer::ParallelBuffer<int> buf(2);
  EXPECT_TRUE(buf.flush().empty());
}

TEST(ParallelBuffer, SameThreadOrderPreserved) {
  buffer::ParallelBuffer<int> buf(4);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(buf.submit(i));
  const auto out = buf.flush();
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
    while (!done.load() || buf.pending() > 0) {
      flushed.fetch_add(buf.flush().size());
    }
    flushed.fetch_add(buf.flush().size());
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

TEST(FeedBuffer, CutsIntoBunches) {
  buffer::FeedBuffer<int> feed(10);
  std::vector<int> input(25);
  for (int i = 0; i < 25; ++i) input[static_cast<size_t>(i)] = i;
  feed.append(std::move(input));
  EXPECT_EQ(feed.size(), 25u);
  EXPECT_EQ(feed.bunch_count(), 3u);  // 10 + 10 + 5
}

TEST(FeedBuffer, TopsUpLastBunchFirst) {
  buffer::FeedBuffer<int> feed(10);
  feed.append({1, 2, 3});             // bunch: [3]
  EXPECT_EQ(feed.bunch_count(), 1u);
  feed.append({4, 5, 6, 7, 8, 9, 10, 11, 12});  // fills to 10, then [2]
  EXPECT_EQ(feed.bunch_count(), 2u);
  auto first = feed.take_bunches(1);
  EXPECT_EQ(first.size(), 10u);
  EXPECT_EQ(first[0], 1);
  auto second = feed.take_bunches(1);
  EXPECT_EQ(second.size(), 2u);
  EXPECT_TRUE(feed.empty());
}

TEST(FeedBuffer, TakeMoreThanAvailable) {
  buffer::FeedBuffer<int> feed(4);
  feed.append({1, 2, 3, 4, 5});
  auto out = feed.take_bunches(10);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(feed.empty());
  EXPECT_TRUE(feed.take_bunches(1).empty());
}

TEST(FeedBuffer, FifoAcrossBunches) {
  buffer::FeedBuffer<int> feed(3);
  feed.append({0, 1, 2, 3, 4, 5, 6, 7});
  auto all = feed.take_bunches(3);
  ASSERT_EQ(all.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(FeedBuffer, TopUpAccumulatesAcrossManySmallAppends) {
  buffer::FeedBuffer<int> feed(5);
  // Five 1-element appends must coalesce into ONE bunch, not five.
  for (int i = 0; i < 5; ++i) {
    feed.append({i});
    EXPECT_EQ(feed.bunch_count(), 1u) << "after append " << i;
    EXPECT_EQ(feed.size(), static_cast<std::size_t>(i) + 1);
  }
  // The sixth element starts a fresh bunch.
  feed.append({5});
  EXPECT_EQ(feed.bunch_count(), 2u);
  auto first = feed.take_bunches(1);
  ASSERT_EQ(first.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(first[static_cast<size_t>(i)], i);
  EXPECT_EQ(feed.take_bunches(1), std::vector<int>{5});
}

TEST(FeedBuffer, ExactlyFullLastBunchTakesNoTopUp) {
  buffer::FeedBuffer<int> feed(4);
  feed.append({0, 1, 2, 3});  // exactly one full bunch
  EXPECT_EQ(feed.bunch_count(), 1u);
  feed.append({4, 5});  // no room in the last bunch: a fresh one
  EXPECT_EQ(feed.bunch_count(), 2u);
  EXPECT_EQ(feed.take_bunches(1).size(), 4u);
  EXPECT_EQ(feed.take_bunches(1).size(), 2u);
}

TEST(FeedBuffer, AppendEmptyInputIsANoOp) {
  buffer::FeedBuffer<int> feed(3);
  feed.append({});
  EXPECT_TRUE(feed.empty());
  EXPECT_EQ(feed.size(), 0u);
  EXPECT_EQ(feed.bunch_count(), 0u);
  feed.append({1, 2});
  feed.append({});
  EXPECT_EQ(feed.size(), 2u);
  EXPECT_EQ(feed.bunch_count(), 1u);
}

TEST(FeedBuffer, TakeZeroBunchesLeavesEverything) {
  buffer::FeedBuffer<int> feed(3);
  feed.append({1, 2, 3, 4});
  EXPECT_TRUE(feed.take_bunches(0).empty());
  EXPECT_EQ(feed.size(), 4u);
  EXPECT_EQ(feed.bunch_count(), 2u);
}

TEST(FeedBuffer, TotalAccountingSurvivesMixedTakeAndAppend) {
  buffer::FeedBuffer<int> feed(4);
  feed.append({0, 1, 2, 3, 4, 5});  // bunches [4][2], total 6
  EXPECT_EQ(feed.size(), 6u);
  auto front = feed.take_bunches(1);  // removes [4]
  EXPECT_EQ(front.size(), 4u);
  EXPECT_EQ(feed.size(), 2u);
  // The partial [2] bunch is now the LAST bunch; a new append tops it up
  // (take must not have corrupted the top-up invariant).
  feed.append({6, 7, 8});  // [2+2][1]
  EXPECT_EQ(feed.size(), 5u);
  EXPECT_EQ(feed.bunch_count(), 2u);
  auto second = feed.take_bunches(1);
  ASSERT_EQ(second.size(), 4u);
  EXPECT_EQ(second, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(feed.size(), 1u);
  auto rest = feed.take_bunches(5);
  EXPECT_EQ(rest, std::vector<int>{8});
  EXPECT_EQ(feed.size(), 0u);
  EXPECT_TRUE(feed.empty());
  // Draining to empty and re-appending starts fresh bunches.
  feed.append({9});
  EXPECT_EQ(feed.size(), 1u);
  EXPECT_EQ(feed.bunch_count(), 1u);
  EXPECT_EQ(feed.validate(), "");
}

TEST(FeedBuffer, CutBunchesIsCeilLogNOverP) {
  // Tiny maps still cut one bunch.
  EXPECT_EQ(buffer::cut_bunches(0, 2), 1u);
  EXPECT_EQ(buffer::cut_bunches(1, 2), 1u);
  EXPECT_EQ(buffer::cut_bunches(2, 2), 1u);
  EXPECT_EQ(buffer::cut_bunches(2, 1), 1u);
  // ceil(log2 n) rounds up between powers of two.
  EXPECT_EQ(buffer::cut_bunches(3, 1), 2u);
  EXPECT_EQ(buffer::cut_bunches(5, 1), 3u);
  const std::size_t n = std::size_t{1} << 20;
  EXPECT_EQ(buffer::cut_bunches(n, 1), 20u);
  EXPECT_EQ(buffer::cut_bunches(n, 2), 10u);
  EXPECT_EQ(buffer::cut_bunches(n, 4), 5u);
  EXPECT_EQ(buffer::cut_bunches(n, 3), 7u);
  EXPECT_EQ(buffer::cut_bunches(n + 1, 2), 11u);
  // p larger than log2 n: one bunch.
  EXPECT_EQ(buffer::cut_bunches(n, 64), 1u);
}

TEST(FeedBuffer, ValidatorTracksMixedChurn) {
  // The credit-conservation validator must hold through an arbitrary
  // append/take interleaving, not just the scripted one above.
  buffer::FeedBuffer<int> feed(8);
  util::Xoshiro256 rng(99);
  int next = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.bounded(2) == 0) {
      std::vector<int> in(rng.bounded(20));
      for (auto& x : in) x = next++;
      feed.append(std::move(in));
    } else {
      (void)feed.take_bunches(rng.bounded(4));
    }
    ASSERT_EQ(feed.validate(), "") << "step " << step;
  }
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
