// Seeded interleaving explorer (DESIGN.md "Correctness-analysis toolbox").
//
// Each scenario below drives one of the delicate concurrent protocols —
// AsyncMap submission/quiescence, ParallelBuffer credit/debit, the
// DedicatedLock handoff, NodePool ownership/refill, Segment
// promote/demote, the WAL's group commit — while PWSS_SCHED_POINT hooks inside the protocol's
// windows inject seed-determined yields and multi-millisecond parks. A
// sweep runs every scenario under several seeds; a failing seed is
// appended to the file named by $PWSS_EXPLORER_ARTIFACT (CI uploads it)
// together with the precise invariant-validator report, so the schedule
// can be replayed with PWSS_EXPLORER_SEEDS/PWSS_EXPLORER_SEED_BASE.
//
// In builds without -DPWSS_SITES=ON the hooks compile to
// nothing and every scenario GTEST_SKIPs: a silent pass without any
// exploration would be worse than no test. The final suite
// member asserts that the instrumented windows actually executed, so a
// refactor that strands a hook on dead code fails loudly here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "buffer/parallel_buffer.hpp"
#include "core/async_map.hpp"
#include "core/m1_map.hpp"
#include "core/ops.hpp"
#include "sched/scheduler.hpp"
#include "store/wal.hpp"
#include "sync/dedicated_lock.hpp"
#include "util/node_pool.hpp"
#include "util/rng.hpp"
#include "util/sites.hpp"

namespace pwss {
namespace {

namespace sites = util::sites;

using IntMap = core::M1Map<std::uint64_t, std::uint64_t>;
using IntAsyncMap = core::AsyncMap<std::uint64_t, std::uint64_t, IntMap>;
using IntOp = core::Op<std::uint64_t, std::uint64_t>;

// A wrapped (mis-ordered) counter reads near 2^64, far above this.
constexpr std::size_t kWrapBound = std::size_t{1} << 40;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (end != env && v > 0) return static_cast<std::uint64_t>(v);
  }
  return fallback;
}

/// Seeds swept per scenario; the base seed shifts the whole sweep so a
/// failing seed can be replayed alone: PWSS_EXPLORER_SEEDS=1
/// PWSS_EXPLORER_SEED_BASE=<seed> ./interleave_explorer_test.
std::uint64_t sweep_count() { return env_u64("PWSS_EXPLORER_SEEDS", 6); }
std::uint64_t seed_base() {
  return env_u64("PWSS_EXPLORER_SEED_BASE", 0x5eedba5e0001ULL);
}

/// Appends a failing seed to the CI artifact file (no-op when the env var
/// is unset, e.g. in local runs).
void record_failing_seed(const char* scenario, std::uint64_t seed,
                         const std::string& what) {
  const char* path = std::getenv("PWSS_EXPLORER_ARTIFACT");
  if (path == nullptr) return;
  std::ofstream out(path, std::ios::app);
  out << scenario << " seed=0x" << std::hex << seed << std::dec << " : "
      << what << '\n';
}

/// Runs `scenario(seed)` (empty return = pass) for each seed of the sweep
/// with injection enabled, reporting every failing seed.
template <typename Fn>
void sweep(const char* name, Fn scenario) {
  const std::uint64_t n = sweep_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i * 0x9e3779b9ULL;
    sites::enable(seed, sites::kSched);
    std::string err = scenario(seed);
    sites::disable();
    if (!err.empty()) {
      record_failing_seed(name, seed, err);
      ADD_FAILURE() << name << " failed under seed 0x" << std::hex << seed
                    << std::dec << "\n  " << err
                    << "\n  replay: PWSS_EXPLORER_SEEDS=1 "
                    << "PWSS_EXPLORER_SEED_BASE=" << seed
                    << " ./interleave_explorer_test";
    }
  }
}

#define PWSS_REQUIRE_POINTS()                                              \
  do {                                                                     \
    if (!sites::kCompiled) {                                               \
      GTEST_SKIP()                                                         \
          << "named sites compiled out; rebuild with "                     \
          << "-DPWSS_SITES=ON to run the interleaving explorer";           \
    }                                                                      \
  } while (0)

// ---- scenario 1: AsyncMap submission/quiescence ------------------------------
//
// The PR-2 protocol: submit() must claim in_flight_ BEFORE publishing the
// op. The "async_map.submit.claim_publish" point sits exactly between the
// two; parking there is harmless with the fix and wraps the counter
// without it — reverting the fix makes this scenario fail within a few
// seeds (verified while building this suite; see DESIGN.md).
std::string async_map_scenario(std::uint64_t seed) {
  constexpr int kClients = 3;
  constexpr int kBursts = 3;
  constexpr std::size_t kPerBurst = 128;

  sched::Scheduler scheduler(2);
  IntAsyncMap amap(IntMap(&scheduler), scheduler);
  std::atomic<bool> stop{false};
  std::atomic<bool> wrapped{false};

  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (amap.in_flight() > kWrapBound) wrapped.store(true);
    }
  });
  std::thread quiescer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      amap.quiesce();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      util::Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(t) * 977 + 11));
      std::deque<core::OpTicket<std::uint64_t>> tickets;
      for (int burst = 0; burst < kBursts; ++burst) {
        tickets.clear();
        for (std::size_t i = 0; i < kPerBurst; ++i) {
          auto& ticket = tickets.emplace_back();
          const std::uint64_t key = rng.bounded(512);
          switch (rng.bounded(3)) {
            case 0: amap.submit(IntOp::insert(key, key * 3), &ticket); break;
            case 1: amap.submit(IntOp::erase(key), &ticket); break;
            default: amap.submit(IntOp::search(key), &ticket);
          }
          if (amap.in_flight() > kWrapBound) wrapped.store(true);
        }
        for (auto& ticket : tickets) ticket.wait();
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true, std::memory_order_release);
  observer.join();
  quiescer.join();
  amap.quiesce();

  if (wrapped.load()) return "in_flight() wrapped below zero";
  if (amap.in_flight() != 0) {
    std::ostringstream os;
    os << "in_flight() = " << amap.in_flight() << " after quiesce()";
    return os.str();
  }
  return amap.map().validate();
}

TEST(InterleaveExplorer, AsyncMapSubmitQuiesce) {
  PWSS_REQUIRE_POINTS();
  sweep("AsyncMapSubmitQuiesce", async_map_scenario);
}

// ---- scenario 2: ParallelBuffer credit conservation --------------------------
//
// submit() must credit pending_ before releasing the slot lock
// ("parallel_buffer.submit.credit" sits inside that window); flush() must
// debit only what it swapped out. The validator takes every slot lock and
// checks items == pending_ exactly, even mid-run.
std::string parallel_buffer_scenario(std::uint64_t seed) {
  constexpr unsigned kSubmitters = 4;
  constexpr std::size_t kPerThread = 1500;

  buffer::ParallelBuffer<std::uint64_t> buf(kSubmitters);
  std::atomic<bool> wrapped{false};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> drained{0};
  std::string validator_error;
  std::mutex validator_mu;

  std::thread flusher([&] {
    std::uint64_t rounds = 0;
    while (!done.load(std::memory_order_acquire) || buf.pending() > 0) {
      drained.fetch_add(buf.flush().size(), std::memory_order_relaxed);
      if (buf.pending() > kWrapBound) wrapped.store(true);
      if (++rounds % 16 == 0) {
        std::string err = buf.validate();
        if (!err.empty()) {
          std::lock_guard<std::mutex> lk(validator_mu);
          if (validator_error.empty()) validator_error = std::move(err);
        }
      }
      std::this_thread::yield();
    }
    drained.fetch_add(buf.flush().size(), std::memory_order_relaxed);
  });

  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        while (!buf.submit(static_cast<std::uint64_t>(t) * kPerThread + i)) {
        }
        if (buf.pending() > kWrapBound) wrapped.store(true);
      }
    });
  }
  for (auto& th : submitters) th.join();
  done.store(true, std::memory_order_release);
  flusher.join();
  (void)seed;

  if (wrapped.load()) return "pending() wrapped below zero";
  if (!validator_error.empty()) return validator_error;
  if (drained.load() != kSubmitters * kPerThread) {
    std::ostringstream os;
    os << "conservation broken: submitted " << kSubmitters * kPerThread
       << " items but drained " << drained.load();
    return os.str();
  }
  if (buf.pending() != 0) {
    std::ostringstream os;
    os << "pending() = " << buf.pending() << " after full drain";
    return os.str();
  }
  return buf.validate();
}

TEST(InterleaveExplorer, ParallelBufferConservation) {
  PWSS_REQUIRE_POINTS();
  sweep("ParallelBufferConservation", parallel_buffer_scenario);
}

// ---- scenario 3: DedicatedLock handoff ---------------------------------------
//
// "dedicated_lock.acquire.park" parks an acquirer between joining the
// count and parking its continuation; "dedicated_lock.release.scan" parks
// the releaser between giving up the count and scanning the key slots —
// the two windows whose overlap the Definition 37 protocol must survive
// without losing a parked continuation or running two critical sections.
std::string dedicated_lock_scenario(std::uint64_t seed) {
  constexpr std::size_t kKeys = 3;
  constexpr int kIters = 600;

  sync::DedicatedLock lock(kKeys);
  std::atomic<int> in_critical{0};
  std::atomic<bool> violation{false};
  std::atomic<int> completed{0};

  auto worker = [&](std::size_t key) {
    const auto sink = sync::DedicatedLock::ResumeSink::inline_runner();
    for (int i = 0; i < kIters; ++i) {
      std::atomic<bool> my_turn_done{false};
      lock.acquire(
          key,
          [&] {
            if (in_critical.fetch_add(1) != 0) violation = true;
            // Hold the lock across a yield: on a single-core box the
            // other workers never naturally overlap the critical
            // section, and without waiters piling up the contended
            // release path ("dedicated_lock.release.scan") and the
            // straggler park ("dedicated_lock.acquire.park") would go
            // unexercised entirely.
            std::this_thread::yield();
            in_critical.fetch_sub(1);
            completed.fetch_add(1);
            lock.release(sink);
            my_turn_done = true;
          },
          sink);
      while (!my_turn_done.load()) std::this_thread::yield();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t key = 0; key < kKeys; ++key) threads.emplace_back(worker, key);
  for (auto& th : threads) th.join();
  (void)seed;

  if (violation.load()) return "two continuations ran critical sections at once";
  if (completed.load() != static_cast<int>(kKeys) * kIters) {
    std::ostringstream os;
    os << "lost continuation: " << completed.load() << " of "
       << kKeys * kIters << " critical sections ran";
    return os.str();
  }
  if (lock.held()) return "lock still held after every holder released";
  return {};
}

TEST(InterleaveExplorer, DedicatedLockHandoff) {
  PWSS_REQUIRE_POINTS();
  sweep("DedicatedLockHandoff", dedicated_lock_scenario);
}

// ---- scenario 4: NodePool ownership and refill -------------------------------
//
// External (non-worker) threads all map to the pool's last shard, so the
// owner-claim CAS ("node_pool.owner.claim") and the locked alloc/free
// paths race continuously; cross-thread frees push traffic through the
// shard lists and overflow spine ("node_pool.refill.locked",
// "node_pool.spill_private"). The conservation validator runs after join.
std::string node_pool_scenario(std::uint64_t seed) {
  struct Node {
    std::uint64_t payload[2];
  };
  constexpr int kThreads = 3;
  constexpr int kRounds = 150;
  constexpr std::size_t kBatch = 48;

  sched::Scheduler scheduler(2);
  util::NodePool<Node> pool(&scheduler);
  std::mutex handoff_mu;
  std::vector<Node*> handoff;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(t) * 7919);
      std::vector<Node*> mine;
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          mine.push_back(pool.create(Node{{rng(), rng()}}));
        }
        // Half the batch is freed by whoever picks it up, so nodes cross
        // shards and the spill/refill paths stay busy.
        {
          std::lock_guard<std::mutex> lk(handoff_mu);
          for (std::size_t i = 0; i < kBatch / 2; ++i) {
            handoff.push_back(mine.back());
            mine.pop_back();
          }
          const std::size_t take = rng.bounded(handoff.size() + 1);
          for (std::size_t i = 0; i < take; ++i) {
            mine.push_back(handoff.back());
            handoff.pop_back();
          }
        }
        while (!mine.empty()) {
          pool.destroy(mine.back());
          mine.pop_back();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (Node* n : handoff) pool.destroy(n);
  handoff.clear();

  if (pool.live_nodes() != 0) {
    std::ostringstream os;
    os << "leak: " << pool.live_nodes() << " live nodes after freeing all";
    return os.str();
  }
  return pool.validate();
}

TEST(InterleaveExplorer, NodePoolOwnershipChurn) {
  PWSS_REQUIRE_POINTS();
  sweep("NodePoolOwnershipChurn", node_pool_scenario);
}

// ---- scenario 5: Segment promote/demote boundary -----------------------------
//
// Batches drive every segment of an M1 map back and forth across the
// flat<->tree representation boundary ("segment.promote" /
// "segment.demote" fire inside the rebuilds); the deep validator checks
// the representation flag, hysteresis, and pool accounting after every
// batch while the scheduler's workers execute the batch body in parallel.
std::string segment_boundary_scenario(std::uint64_t seed) {
  constexpr std::uint64_t kGrow = 96;   // past the flat capacity (64)
  constexpr std::uint64_t kShrink = 16; // below the demote bound (32)
  constexpr int kRounds = 4;

  sched::Scheduler scheduler(2);
  IntMap map(&scheduler);
  util::Xoshiro256 rng(seed);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<IntOp> grow;
    for (std::uint64_t k = 0; k < kGrow; ++k) {
      grow.push_back(IntOp::insert(k, k + rng.bounded(1000)));
    }
    map.execute_batch(grow);
    std::string err = map.validate();
    if (!err.empty()) return "after grow batch: " + err;

    std::vector<IntOp> shrink;
    for (std::uint64_t k = kShrink; k < kGrow; ++k) {
      shrink.push_back(IntOp::erase(k));
    }
    map.execute_batch(shrink);
    err = map.validate();
    if (!err.empty()) return "after shrink batch: " + err;
    if (map.size() != kShrink) {
      std::ostringstream os;
      os << "size() = " << map.size() << " after shrinking to " << kShrink;
      return os.str();
    }
  }
  return {};
}

TEST(InterleaveExplorer, SegmentPromoteDemoteBoundary) {
  PWSS_REQUIRE_POINTS();
  sweep("SegmentPromoteDemoteBoundary", segment_boundary_scenario);
}

// ---- scenario 6: cancellation racing fulfillment -----------------------------
//
// cancel() sets a request flag any thread may write at any time; only the
// drive loop fulfills, reading the flag at the batch-cut boundary
// ("async_map.drive.fulfill_debit" parks inside that window). The
// single-fulfiller rule makes the terminal status exact: an op is either
// kCancelled and never touched the structure, or it executed normally —
// so on distinct insert keys, size() must equal the count of kInserted
// results no matter where the canceller lands.
std::string cancel_race_scenario(std::uint64_t seed) {
  constexpr std::size_t kOps = 256;

  sched::Scheduler scheduler(2);
  IntAsyncMap amap(IntMap(&scheduler), scheduler);
  (void)seed;  // the schedule points consume it; the script is fixed

  std::vector<core::OpTicket<std::uint64_t>> tickets(kOps);
  std::atomic<bool> go{false};
  std::thread canceller([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    // Sweep cancel over the whole burst while the drive loop is cutting
    // batches: some requests land before the cut (op sheds kCancelled),
    // some after the fulfill (harmless no-op on a completed ticket).
    for (std::size_t i = 0; i < kOps; ++i) {
      if (i % 2 == 0) tickets[i].cancel();
    }
  });

  for (std::size_t i = 0; i < kOps; ++i) {
    amap.submit(IntOp::insert(1000 + i, i), &tickets[i]);
    if (i == kOps / 4) go.store(true, std::memory_order_release);
  }
  go.store(true, std::memory_order_release);  // tiny bursts: start anyway
  canceller.join();
  amap.quiesce();

  std::size_t inserted = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    if (!tickets[i].ready.load(std::memory_order_acquire)) {
      return "ticket not terminal after quiesce()";
    }
    const auto status = tickets[i].result.status;
    if (status == core::ResultStatus::kInserted) {
      ++inserted;
    } else if (status != core::ResultStatus::kCancelled) {
      std::ostringstream os;
      os << "unexpected terminal status " << static_cast<int>(status)
         << " for op " << i;
      return os.str();
    }
  }
  if (amap.in_flight() != 0) {
    std::ostringstream os;
    os << "in_flight() = " << amap.in_flight() << " after quiesce()";
    return os.str();
  }
  if (amap.map().size() != inserted) {
    std::ostringstream os;
    os << "terminal-status exactness broken: " << inserted
       << " ops reported kInserted but size() = " << amap.map().size();
    return os.str();
  }
  return amap.map().validate();
}

TEST(InterleaveExplorer, CancelRacesFulfill) {
  PWSS_REQUIRE_POINTS();
  sweep("CancelRacesFulfill", cancel_race_scenario);
}

// ---- scenario 7: injected pool exhaustion mid-batch --------------------------
//
// The "async_map.batch.pool_reserve" fault site sheds a whole cut batch
// with kOverloaded before the batch touches the structure. Forcing it to
// fire while a burst is in flight must leave every op terminal (inserted
// or shed — nothing torn), the quiescence counter at zero, and the
// distinct-key conservation size() == #kInserted intact.
std::string pool_exhaustion_scenario(std::uint64_t seed) {
  constexpr std::size_t kOps = 256;

  sched::Scheduler scheduler(2);
  IntAsyncMap amap(IntMap(&scheduler), scheduler);
  util::Xoshiro256 rng(seed ^ 0xfa17ULL);

  // A handful of forced batch-shed events land at seed-dependent moments
  // of the burst (the schedule points shift which ops each cut contains).
  sites::arm("async_map.batch.pool_reserve", sites::Action::kFail,
             1 + static_cast<std::int64_t>(rng.bounded(3)));

  std::vector<core::OpTicket<std::uint64_t>> tickets(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    amap.submit(IntOp::insert(5000 + i, i), &tickets[i]);
  }
  amap.quiesce();
  sites::clear();

  std::size_t inserted = 0;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    if (!tickets[i].ready.load(std::memory_order_acquire)) {
      return "ticket not terminal after quiesce()";
    }
    const auto status = tickets[i].result.status;
    if (status == core::ResultStatus::kInserted) {
      ++inserted;
    } else if (status == core::ResultStatus::kOverloaded) {
      ++shed;
    } else {
      std::ostringstream os;
      os << "unexpected terminal status " << static_cast<int>(status)
         << " for op " << i;
      return os.str();
    }
  }
  if (inserted + shed != kOps) return "ops neither inserted nor shed";
  if (amap.in_flight() != 0) {
    std::ostringstream os;
    os << "in_flight() = " << amap.in_flight() << " after quiesce()";
    return os.str();
  }
  if (amap.map().size() != inserted) {
    std::ostringstream os;
    os << "shed batch touched the structure: size() = " << amap.map().size()
       << " but only " << inserted << " ops reported kInserted";
    return os.str();
  }
  return amap.map().validate();
}

TEST(InterleaveExplorer, InjectedPoolExhaustionMidBatch) {
  PWSS_REQUIRE_POINTS();
  sweep("InjectedPoolExhaustionMidBatch", pool_exhaustion_scenario);
}

// ---- scenario 8: WAL group commit --------------------------------------------
//
// Committers log() a record and sync() it: one becomes leader and writes
// and fsyncs every buffered record outside the lock while the rest park
// on its round. "wal.sync.leader_unlocked" parks the leader inside that
// window, so later records miss its batch and their committers must wait
// for (or lead) the next round. Acked => durable: once sync(s) returns,
// the file holds every record up to s; after a clean close it holds
// exactly the records logged, in seq order, with no torn tail.
std::string wal_group_commit_scenario(std::uint64_t seed) {
  using IntWal = store::Wal<std::uint64_t, std::uint64_t>;
  using IntWalReader = store::WalReader<std::uint64_t, std::uint64_t>;
  constexpr std::uint64_t kCommitters = 3;
  constexpr std::uint64_t kPerCommitter = 12;
  constexpr std::uint64_t kTotal = kCommitters * kPerCommitter;

  const std::string path = ::testing::TempDir() + "pwss-explorer-wal-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(seed);
  IntWal wal;
  wal.open(path, 0, 0, 0);
  std::mutex mu;
  std::string err;
  std::vector<std::thread> committers;
  for (std::uint64_t c = 0; c < kCommitters; ++c) {
    committers.emplace_back([&, c] {
      try {
        for (std::uint64_t i = 0; i < kPerCommitter; ++i) {
          const std::uint64_t key = c * kPerCommitter + i;
          const std::uint64_t seq =
              wal.log(core::OpType::kInsert, key, key * 7);
          wal.sync(seq);
          const std::size_t on_disk = IntWalReader::scan(path).records.size();
          if (on_disk < seq) {
            std::lock_guard<std::mutex> lk(mu);
            err = "sync(" + std::to_string(seq) + ") returned with only " +
                  std::to_string(on_disk) + " records on disk";
          }
        }
      } catch (const store::StoreError& e) {
        std::lock_guard<std::mutex> lk(mu);
        err = e.what();
      }
    });
  }
  for (auto& th : committers) th.join();
  wal.close();
  const auto scanned = IntWalReader::scan(path);
  std::remove(path.c_str());
  if (!err.empty()) return err;
  if (scanned.torn_tail) return "torn tail after a clean close";
  if (scanned.records.size() != kTotal) {
    return "log holds " + std::to_string(scanned.records.size()) + " of " +
           std::to_string(kTotal) + " records";
  }
  std::vector<bool> seen(kTotal, false);
  for (const auto& r : scanned.records) {
    if (r.key >= kTotal || seen[r.key] || r.value != r.key * 7) {
      return "record seq " + std::to_string(r.seq) + " is duplicated or corrupt";
    }
    seen[r.key] = true;
  }
  return "";
}

TEST(InterleaveExplorer, WalGroupCommit) {
  PWSS_REQUIRE_POINTS();
  sweep("WalGroupCommit", wal_group_commit_scenario);
}

// ---- coverage: the instrumented windows actually executed --------------------
//
// Runs last (declaration order). A hook stranded on dead code by a
// refactor would silently stop exploring its window; this catches it.
TEST(InterleaveExplorer, ZInstrumentedPointsWereExercised) {
  PWSS_REQUIRE_POINTS();
  for (const char* name : {
           "async_map.submit.claim_publish",
           "async_map.drive.fulfill_debit",
           "parallel_buffer.submit.credit",
           "parallel_buffer.flush.debit",
           "parallel_buffer.slot.lock_spin",
           "dedicated_lock.acquire.park",
           "dedicated_lock.release.scan",
           "node_pool.owner.claim",
           "node_pool.refill.locked",
           "node_pool.refill_private",
           "segment.promote",
           "segment.demote",
           "wal.sync.leader_unlocked",
       }) {
    EXPECT_GT(sites::hits(name), 0u)
        << "schedule point \"" << name
        << "\" never executed: its window is no longer exercised";
  }
}

}  // namespace
}  // namespace pwss
