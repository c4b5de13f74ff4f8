// Tests for the QRMW-style synchronization primitives (src/sync):
// non-blocking lock (Def. 35) and dedicated lock (Def. 37). AsyncGate, the
// activation interface (Def. 36), is tested in buffer_test and
// lock_protocol_test.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sync/dedicated_lock.hpp"
#include "sync/nonblocking_lock.hpp"

namespace pwss {
namespace {

TEST(NonBlockingLock, AcquireReleaseSingleThread) {
  sync::NonBlockingLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(NonBlockingLock, MutualExclusionUnderContention) {
  sync::NonBlockingLock lock;
  std::atomic<int> in_critical{0};
  std::atomic<int> acquired{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        if (lock.try_lock()) {
          if (in_critical.fetch_add(1) != 0) violation = true;
          acquired.fetch_add(1);
          in_critical.fetch_sub(1);
          lock.unlock();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation);
  EXPECT_GT(acquired.load(), 0);
}

// Runs parked continuations inline on the releasing thread — enough for
// single-threaded protocol tests.
sync::DedicatedLock::ResumeSink inline_sink() {
  return sync::DedicatedLock::ResumeSink::inline_runner();
}

TEST(DedicatedLock, UncontendedAcquireRunsInline) {
  sync::DedicatedLock lock(2);
  bool ran = false;
  lock.acquire(0, [&] { ran = true; }, inline_sink());
  EXPECT_TRUE(ran);
  EXPECT_TRUE(lock.held());
  lock.release(inline_sink());
  EXPECT_FALSE(lock.held());
}

TEST(DedicatedLock, ContendedContinuationParkedUntilRelease) {
  sync::DedicatedLock lock(2);
  bool first = false, second = false;
  lock.acquire(0, [&] { first = true; }, inline_sink());
  // Lock is now held (continuation ran but no release yet).
  lock.acquire(1, [&] { second = true; }, inline_sink());
  EXPECT_TRUE(first);
  EXPECT_FALSE(second) << "parked continuation must not run before release";
  lock.release(inline_sink());  // hands off to key 1 and runs it inline
  EXPECT_TRUE(second);
  lock.release(inline_sink());
  EXPECT_FALSE(lock.held());
}

TEST(DedicatedLock, HandoffOrderIsCyclicFromHolderKey) {
  sync::DedicatedLock lock(3);
  std::vector<int> order;
  lock.acquire(1, [&] { order.push_back(1); }, inline_sink());
  lock.acquire(2, [&] { order.push_back(2); }, inline_sink());
  lock.acquire(0, [&] { order.push_back(0); }, inline_sink());
  // Holder used key 1; release scans 2, 0, 1 cyclically.
  lock.release(inline_sink());
  lock.release(inline_sink());
  lock.release(inline_sink());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(DedicatedLock, MutualExclusionAcrossThreads) {
  // Two keys, two threads repeatedly acquiring; critical sections must not
  // overlap and all continuations must eventually run.
  sync::DedicatedLock lock(2);
  std::atomic<int> in_critical{0};
  std::atomic<bool> violation{false};
  std::atomic<int> completed{0};
  constexpr int kIters = 5000;

  auto worker = [&](std::size_t key) {
    for (int i = 0; i < kIters; ++i) {
      std::atomic<bool> my_turn_done{false};
      const auto sink = sync::DedicatedLock::ResumeSink::inline_runner();
      lock.acquire(
          key,
          [&] {
            if (in_critical.fetch_add(1) != 0) violation = true;
            in_critical.fetch_sub(1);
            completed.fetch_add(1);
            lock.release(sink);
            my_turn_done = true;
          },
          sink);
      while (!my_turn_done.load()) std::this_thread::yield();
    }
  };
  std::thread t0(worker, 0), t1(worker, 1);
  t0.join();
  t1.join();
  EXPECT_FALSE(violation);
  EXPECT_EQ(completed.load(), 2 * kIters);
  EXPECT_FALSE(lock.held());
}

}  // namespace
}  // namespace pwss
