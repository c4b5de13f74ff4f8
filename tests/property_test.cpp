// Property-based sweeps (parameterized gtest): JTree and sort properties
// across seeds, and the differential harness (tests/prop.hpp) over every
// layer of the stack, from a backend's execute_batch to the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/batched.hpp"
#include "core/async_map.hpp"
#include "core/ladder.hpp"
#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "driver/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "prop.hpp"
#include "sched/scheduler.hpp"
#include "sort/esort.hpp"
#include "sort/pesort.hpp"
#include "store/snapshot.hpp"
#include "test_util.hpp"
#include "tree/jtree.hpp"
#include "util/rng.hpp"

namespace pwss {
namespace {

// ---------- JTree properties across seeds -----------------------------------

class JTreeSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JTreeSeedTest, OrderStatisticsConsistentWithSortedContent) {
  util::Xoshiro256 rng(GetParam());
  tree::JTree<int, int> t;
  std::set<int> ref;
  for (int i = 0; i < 3000; ++i) {
    const int k = static_cast<int>(rng.bounded(10000));
    if (rng.bounded(4) == 0) {
      t.erase(k);
      ref.erase(k);
    } else {
      t.insert(k, k);
      ref.insert(k);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  // The in-order walk enumerates exactly the sorted reference, and each
  // key's rank is its position in it.
  std::vector<int> walked;
  t.for_each([&](int k, int) { walked.push_back(k); });
  ASSERT_EQ(walked, std::vector<int>(ref.begin(), ref.end()))
      << "seed " << GetParam();
  std::size_t i = 0;
  for (const int k : ref) {
    ASSERT_EQ(t.rank(k), i) << "seed " << GetParam();
    ++i;
  }
  EXPECT_EQ(t.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, JTreeSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- PESort equals std::stable_sort across seeds/shapes --------------

struct SortCase {
  std::uint64_t seed;
  std::size_t n;
  std::uint64_t universe;
};

class SortEquivalenceTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortEquivalenceTest, PESortMatchesStableSort) {
  const auto [seed, n, universe] = GetParam();
  util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint64_t, std::size_t>> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.emplace_back(rng.bounded(universe), i);
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sort::pesort(v, [](const auto& p) { return p.first; });
  EXPECT_EQ(v, expected);
}

TEST_P(SortEquivalenceTest, ESortMatchesStableSortOrder) {
  const auto [seed, n, universe] = GetParam();
  if (n > 20000) GTEST_SKIP() << "ESort is the slow reference sort";
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.bounded(universe);
  const auto order = sort::esort(keys, [](std::uint64_t x) { return x; });
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  EXPECT_EQ(order, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortEquivalenceTest,
    ::testing::Values(SortCase{1, 0, 10}, SortCase{2, 1, 10},
                      SortCase{3, 1000, 3},        // tiny universe: huge dup runs
                      SortCase{4, 1000, 1000000},  // near-distinct
                      SortCase{5, 10000, 100}, SortCase{6, 10000, 1 << 20},
                      SortCase{7, 100000, 1 << 10},
                      SortCase{8, 100000, 1 << 30}));

// ---------- the differential harness: every layer x every stream -------------
// Each layer below is checked with tests/prop.hpp against the sequential
// oracle on a fixed set of seeded streams. A failure prints the shrunk
// case; paste it as a pinned test at the end of this file.

using namespace prop;

// Batch sizes straddle sort_chunk's in-place bound (core::kInPlaceSortMax,
// 64 ops) and M2's bulk threshold (cut_bunches() * p^2: at most 4 ops at
// p = 1, 256 at p = 16 below 2^16 keys).
const StreamSpec kBatchStreams[] = {
    {"small", 11, 200, 1, 4, 64},
    {"mixed", 22, 24, 1, 700, 400},
    {"dups", 33, 6, 1, 4096, 16},
    {"zipf099", 44, 10, 64, 1024, 1024, KeyShape::kZipf, 0.99, false},
    {"zipf120", 55, 10, 64, 1024, 1024, KeyShape::kZipf, 1.2, false},
    {"sliding", 66, 16, 1, 1500, 1 << 20, KeyShape::kSliding},
    {"wide", 77, 2, 2048, 4096, 1 << 20},
};
// The op-at-a-time paths, the wire and durable restarts get shorter streams.
const StreamSpec kShortStreams[] = {
    {"small", 11, 100, 1, 4, 64},
    {"mixed", 22, 10, 1, 200, 400},
    {"dups", 33, 6, 1, 120, 16},
    {"zipf099", 44, 4, 64, 256, 1024, KeyShape::kZipf, 0.99, false},
};

static_assert(core::kInPlaceSortMax == 64);

/// How a layer takes a batch.
enum class Path {
  kBatch,   // one execute_batch / Driver::run / Client::run per batch
  kSubmit,  // Future submit, a phase at a time
  kCalls,   // the core::MapCalls surface, op by op
  kStep,    // Driver::step, op by op
};

/// A map the layer owns, with the scheduler it runs on (none when
/// `workers` is 0). With `rebuild_every`, before every rebuild_every-th
/// batch the contents round-trip through the store's snapshot format and
/// a fresh map is rebuilt from the loaded entries, which must export the
/// same contents.
template <typename M, Path P>
class MapLayer final : public Layer {
 public:
  using Make = std::function<std::unique_ptr<M>(sched::Scheduler*)>;

  MapLayer(unsigned workers, Make make, std::size_t rebuild_every)
      : scheduler_(workers ? std::make_unique<sched::Scheduler>(workers)
                           : nullptr),
        make_(std::move(make)),
        map_(make_(scheduler_.get())),
        rebuild_every_(rebuild_every) {}

  std::string apply(const Batch& ops, std::vector<Result>& out) override {
    if constexpr (P == Path::kBatch) {
      if (rebuild_every_ != 0 && ++batches_ % rebuild_every_ == 0) {
        if (std::string err = rebuild(); !err.empty()) return err;
      }
      map_->execute_batch(std::span<const Op>(ops), out);
    } else if constexpr (P == Path::kSubmit) {
      prop::submit_phases(*map_, ops, out);
    } else {
      prop::call_each(*map_, ops, out);
    }
    return "";
  }
  std::size_t size() override { return backend().size(); }
  std::string validate() override {
    std::string err = backend().validate();
    if constexpr (requires { map_->in_flight(); }) {
      if (err.empty() && map_->in_flight() != 0) {
        err = "ops in flight at quiescence";
      }
    }
    return err;
  }

 private:
  /// The backend itself, quiescent (AsyncMap wraps one).
  auto& backend() {
    if constexpr (requires { map_->quiesce(); }) map_->quiesce();
    if constexpr (requires { map_->map(); }) {
      return map_->map();
    } else {
      return *map_;
    }
  }

  std::string rebuild() {
    std::vector<std::pair<K, V>> before;
    backend().export_entries(before);
    const std::string path = dir_.file("snapshot");
    store::SnapshotWriter<K, V>::write(path, batches_, before);
    map_ = make_(scheduler_.get());
    Batch load;
    for (const auto& [k, v] : store::SnapshotReader<K, V>::load(path).entries) {
      load.push_back(Op::insert(k, v));
    }
    map_->execute_batch(load);
    std::vector<std::pair<K, V>> after;
    backend().export_entries(after);
    return after == before ? "" : "rebuild changed the contents";
  }

  std::unique_ptr<sched::Scheduler> scheduler_;  // outlives the map
  Make make_;
  std::unique_ptr<M> map_;
  std::size_t rebuild_every_;
  std::size_t batches_ = 0;
  testutil::ScratchDir dir_;
};

/// A registry driver taking batches through `path`. With durability on,
/// the driver restarts from its directory before every restart_every-th
/// batch, checkpointing first on every other restart. The oracle carries
/// across, the contents must survive the restart, and the counters must
/// match exactly: before a restart, one WAL append per mutation since the
/// driver opened (and, under sync, an fsync if any); after it, the last
/// checkpoint's entries and the mutations since (a clean close flushes the
/// async log too).
class DriverLayer final : public Layer {
 public:
  DriverLayer(std::string name, Path path, driver::Options opts,
              std::size_t restart_every)
      : name_(std::move(name)),
        path_(path),
        opts_(std::move(opts)),
        restart_every_(restart_every) {
    opts_.durability_dir = dir_.file("store");
    driver_ = driver::make_driver<K, V>(name_, opts_);
  }

  std::string apply(const Batch& ops, std::vector<Result>& out) override {
    std::string err;
    if (restart_every_ != 0 && ++batches_ % restart_every_ == 0) {
      err = restart();
    }
    switch (path_) {
      case Path::kBatch: driver_->run(ops, out); break;
      case Path::kSubmit: prop::submit_phases(*driver_, ops, out); break;
      case Path::kCalls: prop::call_each(*driver_, ops, out); break;
      case Path::kStep:
        out.clear();
        for (const Op& op : ops) out.push_back(driver_->step(op));
        break;
    }
    for (const Op& op : ops) {
      const std::uint64_t m = core::is_mutation(op.type) ? 1 : 0;
      appended_ += m;
      logged_ += m;
    }
    return err;
  }
  std::size_t size() override { return driver_->size(); }
  std::string validate() override {
    std::string err = driver_->validate();
    if (err.empty() && driver_->stats().in_flight != 0) {
      err = "admission window not empty at quiescence";
    }
    return err;
  }

 private:
  std::string restart() {
    const driver::DriverStats s = driver_->stats();
    const bool sync = opts_.durability == store::DurabilityMode::kSync;
    if (!s.durable || s.wal_appends != appended_ ||
        (sync && appended_ != 0 && s.wal_fsyncs == 0)) {
      return "before restart: " + std::to_string(s.wal_appends) +
             " WAL appends, " + std::to_string(s.wal_fsyncs) +
             " fsyncs for " + std::to_string(appended_) + " mutations";
    }
    if (restarts_++ % 2 == 0) {
      if (std::string e = driver_->checkpoint(); !e.empty()) {
        return "checkpoint: " + e;
      }
      if (driver_->stats().checkpoints == 0) return "checkpoint not counted";
      snapshot_ = driver_->size();
      logged_ = 0;
    }
    const std::vector<std::pair<K, V>> before = driver_->export_sorted();
    driver_.reset();
    driver_ = driver::make_driver<K, V>(name_, opts_);
    appended_ = 0;
    if (driver_->export_sorted() != before) {
      return "restart changed the contents";
    }
    const driver::DriverStats r = driver_->stats();
    if (r.recovered_entries != snapshot_ || r.recovered_ops != logged_) {
      return "restart recovered " + std::to_string(r.recovered_entries) +
             " entries and " + std::to_string(r.recovered_ops) +
             " ops, want " + std::to_string(snapshot_) + " and " +
             std::to_string(logged_);
    }
    return "";
  }

  testutil::ScratchDir dir_;
  std::string name_;
  Path path_;
  driver::Options opts_;
  std::size_t restart_every_;
  std::unique_ptr<driver::Driver<K, V>> driver_;
  std::size_t batches_ = 0;
  std::size_t restarts_ = 0;
  std::uint64_t appended_ = 0;  ///< mutations since this driver opened
  std::uint64_t logged_ = 0;    ///< mutations since the last checkpoint
  std::uint64_t snapshot_ = 0;  ///< entries in the last checkpoint
};

/// A registry driver behind net::Server, driven by one net::Client over a
/// unix socket: Client::run a phase at a time, or the client's calls.
class WireLayer final : public Layer {
 public:
  WireLayer(const std::string& backend, Path path)
      : path_(path),
        driver_(driver::make_driver<K, V>(backend, {.workers = 2})),
        server_(*driver_, [&] {
          net::ServerConfig cfg;
          cfg.unix_path = dir_.file("serve.sock");
          return cfg;
        }()),
        client_(net::Client::dial_unix(dir_.file("serve.sock"))) {}

  std::string apply(const Batch& ops, std::vector<Result>& out) override {
    if (path_ == Path::kCalls) {
      prop::call_each(client_, ops, out);
      return "";
    }
    out.clear();
    std::vector<Result> part;
    prop::by_phase(ops, [&](std::size_t lo, std::size_t hi) {
      client_.run(Batch(ops.begin() + static_cast<std::ptrdiff_t>(lo),
                        ops.begin() + static_cast<std::ptrdiff_t>(hi)),
                  part);
      out.insert(out.end(), part.begin(), part.end());
    });
    return "";
  }
  std::size_t size() override { return driver_->size(); }
  std::string validate() override {
    if (const auto n = server_.stats().protocol_errors; n != 0) {
      return std::to_string(n) + " protocol errors";
    }
    return driver_->validate();
  }

 private:
  Path path_;
  testutil::ScratchDir dir_;
  std::unique_ptr<driver::Driver<K, V>> driver_;
  net::Server server_;
  net::Client client_;  // closes before the server stops
};

template <typename M, Path P>
LayerCase map_case(std::string name, unsigned workers,
                   typename MapLayer<M, P>::Make make,
                   std::size_t rebuild_every = 0) {
  return {std::move(name),
          [=] {
            return std::make_unique<MapLayer<M, P>>(workers, make,
                                                    rebuild_every);
          },
          P == Path::kCalls};
}

/// A backend that needs no scheduler, built by its default constructor.
template <typename B>
LayerCase plain_case(std::string name, std::size_t rebuild_every = 0) {
  return map_case<B, Path::kBatch>(
      std::move(name), 0, [](auto*) { return std::make_unique<B>(); },
      rebuild_every);
}

LayerCase driver_case(std::string label, const std::string& backend,
                      Path path, driver::Options opts = {.workers = 2},
                      std::size_t restart_every = 0) {
  const bool short_streams = path == Path::kCalls || path == Path::kStep ||
                             restart_every != 0;
  const bool may_shed = opts.max_in_flight != 0;
  return {std::move(label),
          [=] {
            return std::make_unique<DriverLayer>(backend, path, opts,
                                                 restart_every);
          },
          short_streams, may_shed};
}

LayerCase wire_case(const std::string& name, Path path) {
  return {(path == Path::kCalls ? "wire_calls:" : "wire_run:") + name,
          [=] { return std::make_unique<WireLayer>(name, path); },
          true};
}

/// Every layer the harness checks.
const std::vector<LayerCase>& layers() {
  static const std::vector<LayerCase> all = [] {
    using M1 = core::M1Map<K, V>;
    using M2 = core::M2Map<K, V>;
    using AsyncM1 = core::AsyncMap<K, V, M1>;
    auto m1 = [](sched::Scheduler* s) { return std::make_unique<M1>(s); };
    auto m2 = [](sched::Scheduler* s) { return std::make_unique<M2>(*s); };
    auto async_m1 = [](sched::Scheduler* s) {
      return std::make_unique<AsyncM1>(M1(s), *s);
    };
    std::vector<LayerCase> v = {
        // Backend execute_batch (M1 with no scheduler and on 4 workers),
        // and M1's and M2's contents through a snapshot every 5 batches.
        plain_case<core::M0Map<K, V>>("exec:m0"),
        plain_case<M1>("exec:m1"),
        map_case<M1, Path::kBatch>("exec:m1_4w", 4, m1),
        plain_case<baseline::BatchedIacono<K, V>>("exec:iacono"),
        plain_case<baseline::BatchedSplay<K, V>>("exec:splay"),
        plain_case<baseline::BatchedAvl<K, V>>("exec:avl"),
        plain_case<baseline::BatchedLocked<K, V>>("exec:locked"),
        plain_case<M1>("snapshot:m1", 5),
        map_case<M2, Path::kBatch>("snapshot:m2", 4, m2, 5),
        // Per-op tickets and calls on the front ends; M1's one-op batches.
        map_case<AsyncM1, Path::kSubmit>("submit:async_m1", 2, async_m1),
        map_case<AsyncM1, Path::kCalls>("calls:async_m1", 2, async_m1),
        map_case<M2, Path::kCalls>("calls:m2_map", 2, m2),
        map_case<M1, Path::kCalls>("calls:m1_map", 2, m1),
    };
    for (const unsigned p : {1u, 2u, 3u, 4u, 8u, 16u}) {
      auto m2p = [p](sched::Scheduler* s) {
        return std::make_unique<M2>(*s, p);
      };
      const std::string tag = "m2_p" + std::to_string(p);
      v.push_back(map_case<M2, Path::kBatch>("exec:" + tag, 2, m2p));
      v.push_back(map_case<M2, Path::kSubmit>("submit:" + tag, 2, m2p));
    }
    // Drivers: the bulk path, futures, step and the blocking calls; the
    // sharded driver's bulk path over the other wirings and shard counts.
    for (const std::string n : {"m0", "m1", "m2", "iacono", "splay", "avl",
                                "locked", "sharded:m1", "sharded:m2",
                                "sharded:locked"}) {
      v.push_back(driver_case("run:" + n, n, Path::kBatch));
      v.push_back(driver_case("submit:" + n, n, Path::kSubmit));
      v.push_back(driver_case("step:" + n, n, Path::kStep));
      v.push_back(driver_case("calls:" + n, n, Path::kCalls));
    }
    for (const std::string n : {"sharded:splay", "sharded:avl"}) {
      v.push_back(driver_case("run:" + n, n, Path::kBatch));
    }
    for (const unsigned shards : {1u, 2u, 3u, 8u}) {
      v.push_back(driver_case("run:sharded:m1_x" + std::to_string(shards),
                              "sharded:m1", Path::kBatch,
                              {.workers = 2, .shards = shards}));
    }
    // Windowed submit: a 4-op admission window sheds most of each phase.
    for (const std::string n : {"m1", "m2", "locked", "sharded:m1"}) {
      v.push_back(driver_case("window:" + n, n, Path::kSubmit,
                              {.workers = 2, .max_in_flight = 4}));
    }
    // Durable restart and checkpoint every 4 batches.
    for (const std::string n : {"m0", "m1", "m2", "locked", "sharded:m1"}) {
      v.push_back(driver_case(
          "restart:" + n, n, Path::kBatch,
          {.workers = 2, .durability = store::DurabilityMode::kSync}, 4));
    }
    v.push_back(driver_case(
        "restart_async:m1", "m1", Path::kBatch,
        {.workers = 2, .durability = store::DurabilityMode::kAsync}, 4));
    // The wire.
    for (const std::string n :
         {"m0", "m1", "m2", "locked", "sharded:m1", "splay"}) {
      v.push_back(wire_case(n, Path::kBatch));
      v.push_back(wire_case(n, Path::kCalls));
    }
    return v;
  }();
  return all;
}

struct HarnessCase {
  const LayerCase* layer;
  const StreamSpec* stream;
};

std::vector<HarnessCase> harness_cases() {
  std::vector<HarnessCase> out;
  for (const LayerCase& l : layers()) {
    const std::span<const StreamSpec> streams =
        l.short_streams ? std::span<const StreamSpec>(kShortStreams)
                 : std::span<const StreamSpec>(kBatchStreams);
    for (const StreamSpec& s : streams) out.push_back({&l, &s});
  }
  return out;
}

void PrintTo(const HarnessCase& c, std::ostream* os) {
  *os << c.layer->name << " x " << c.stream->name;
}

class Harness : public ::testing::TestWithParam<HarnessCase> {};

TEST_P(Harness, AgreesWithOracle) {
  prop::expect_passes(*GetParam().layer, *GetParam().stream);
}

INSTANTIATE_TEST_SUITE_P(
    LayersXStreams, Harness, ::testing::ValuesIn(harness_cases()),
    [](const auto& info) {
      return testutil::gtest_safe(info.param.layer->name + "__" +
                                  info.param.stream->name);
    });

// Single streams cross both thresholds above: batches of at most 4 ops and
// of more than 256, with some in (64, 256] between.
TEST(HarnessStreams, StraddleTheBatchThresholds) {
  for (const std::size_t s : {1, 2, 5}) {  // mixed, dups, sliding
    std::size_t tiny = 0, mid = 0, large = 0;
    for (const Batch& b : prop::generate(kBatchStreams[s])) {
      tiny += b.size() <= 4 ? 1 : 0;
      mid += b.size() > 64 && b.size() <= 256 ? 1 : 0;
      large += b.size() > 256 ? 1 : 0;
    }
    EXPECT_TRUE(tiny > 0 && mid > 0 && large > 0) << kBatchStreams[s].name;
  }
}

// ---------- pinned cases -----------------------------------------------------
// Shrunk harness failures, pasted as printed, stay here as regressions.

// Insert, overwrite, search, erase, search, ordered query and re-insert
// on one key in one batch: per-key program order (Definition 8).
TEST(Pinned, PerKeyProgramOrderInOneBatch) {
  const prop::Stream kCase = {
      {Op::insert(7, 70), Op::insert(7, 71), Op::search(7), Op::erase(7),
       Op::search(7), Op::predecessor(8), Op::insert(7, 72)},
  };
  for (const LayerCase& l : layers()) {
    EXPECT_EQ(prop::check(l, kCase), "") << l.name;
  }
}

}  // namespace
}  // namespace pwss
