// Micro-benchmarks (google-benchmark) for the substrates: join-tree point
// and batch ops, segment batch ops, PESort, scheduler fork/join + spawn
// overhead, plus a per-backend batch-search micro resolved through the
// BackendRegistry. Regression guards rather than paper experiments.
//
//   ./bench_micro [--backend=NAME[,NAME...]] [--json=FILE] [gbench flags]

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "core/segment.hpp"
#include "driver/cli.hpp"
#include "sched/scheduler.hpp"
#include "sort/pesort.hpp"
#include "store/recovery.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "tree/jtree.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace {

// The production configuration: trees draw nodes from an instance pool
// (warm insert/erase churn is heap-free). BM_JTreeInsertEraseUnpooled
// keeps the plain new/delete shape for contrast.
void BM_JTreeInsertErase(benchmark::State& state) {
  pwss::tree::JTree<std::uint64_t, std::uint64_t>::Pool pool;
  pwss::tree::JTree<std::uint64_t, std::uint64_t> t(&pool);
  pwss::util::Xoshiro256 rng(1);
  const std::uint64_t universe = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < universe / 2; ++i) t.insert(i * 2, i);
  for (auto _ : state) {
    const std::uint64_t k = rng.bounded(universe);
    t.insert(k, k);
    benchmark::DoNotOptimize(t.erase(k));
  }
}
BENCHMARK(BM_JTreeInsertErase)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_JTreeInsertEraseUnpooled(benchmark::State& state) {
  pwss::tree::JTree<std::uint64_t, std::uint64_t> t;
  pwss::util::Xoshiro256 rng(1);
  const std::uint64_t universe = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < universe / 2; ++i) t.insert(i * 2, i);
  for (auto _ : state) {
    const std::uint64_t k = rng.bounded(universe);
    t.insert(k, k);
    benchmark::DoNotOptimize(t.erase(k));
  }
}
BENCHMARK(BM_JTreeInsertEraseUnpooled)->Arg(1 << 10)->Arg(1 << 16);

// Front-segment representation A/B: the same Segment API probed at the
// sizes the front segments actually hold (|S[0]|=2, |S[1]|=4, |S[2]|=16,
// plus M2's 3x slack at 48), flat (production default) vs pinned-tree
// (debug_force_tree). The gap between the two series is the payoff of the
// flat layout; the JTree series also preserves continuity with the
// pre-flat benchmark history.
template <bool kForceTree>
void FrontSegmentProbe(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  pwss::core::Segment<std::uint64_t, std::uint64_t> seg;
  if constexpr (kForceTree) seg.debug_force_tree();
  for (std::uint64_t i = 0; i < n; ++i) seg.insert_front({i * 7, i, 0});
  pwss::util::Xoshiro256 rng(7);
  std::array<std::uint64_t, 64> probe;
  for (auto& p : probe) p = rng.bounded(n) * 7;  // all present
  // Unpredictable probe order (inline xorshift, identical cost in both
  // arms): a fixed cycle lets the branch predictor memorize the tree's
  // comparison outcomes, hiding the misprediction cost that separates
  // the two representations on real probe streams.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    benchmark::DoNotOptimize(seg.peek(probe[x & 63]));
  }
}
void BM_FrontSegmentProbeFlat(benchmark::State& state) {
  FrontSegmentProbe<false>(state);
}
void BM_FrontSegmentProbeJTree(benchmark::State& state) {
  FrontSegmentProbe<true>(state);
}
BENCHMARK(BM_FrontSegmentProbeFlat)->Arg(2)->Arg(4)->Arg(16)->Arg(48);
BENCHMARK(BM_FrontSegmentProbeJTree)->Arg(2)->Arg(4)->Arg(16)->Arg(48);

// Same A/B for the self-adjusting hot path: extract + re-insert at the
// front (what every M0 search hit does to S[0]) — memmove churn vs tree
// node churn.
template <bool kForceTree>
void FrontSegmentChurn(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  pwss::core::Segment<std::uint64_t, std::uint64_t> seg;
  if constexpr (kForceTree) seg.debug_force_tree();
  for (std::uint64_t i = 0; i < n; ++i) seg.insert_front({i * 7, i, 0});
  pwss::util::Xoshiro256 rng(9);
  std::array<std::uint64_t, 64> probe;
  for (auto& p : probe) p = rng.bounded(n) * 7;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;  // see FrontSegmentProbe
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto item = seg.extract(probe[x & 63]);
    seg.insert_front(std::move(*item));
    benchmark::DoNotOptimize(seg.size());
  }
}
void BM_FrontSegmentChurnFlat(benchmark::State& state) {
  FrontSegmentChurn<false>(state);
}
void BM_FrontSegmentChurnJTree(benchmark::State& state) {
  FrontSegmentChurn<true>(state);
}
BENCHMARK(BM_FrontSegmentChurnFlat)->Arg(2)->Arg(4)->Arg(16)->Arg(48);
BENCHMARK(BM_FrontSegmentChurnJTree)->Arg(2)->Arg(4)->Arg(16)->Arg(48);

// Probe latency by resident depth: peek (read-only, no self-adjustment,
// so an item's depth is stable across iterations) of keys living at
// segment depth d of a populated M0. Depths 0-2 are flat segments, depth
// 3 is the first tree-backed segment — the series shows where the
// working-set latency gradient actually bends.
void BM_M0PeekAtDepth(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  pwss::core::M0Map<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kUniverse = 1u << 12;
  for (std::uint64_t i = 0; i < kUniverse; ++i) map.insert(i, i);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < kUniverse && keys.size() < 64; ++i) {
    if (map.segment_of(i) == depth) keys.push_back(i);
  }
  if (keys.empty()) {
    state.SkipWithError("no keys resident at requested depth");
    return;
  }
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.peek(keys[j]));
    if (++j == keys.size()) j = 0;
  }
}
BENCHMARK(BM_M0PeekAtDepth)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Renamed from BM_JTreeMultiInsert: besides the pool, the timed region
// changed (tree teardown now happens under PauseTiming), so the old
// series must not be compared against this one.
void BM_JTreeMultiInsertPooled(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  pwss::tree::JTree<std::uint64_t, std::uint64_t>::Pool pool;
  for (auto _ : state) {
    state.PauseTiming();
    {
      pwss::tree::JTree<std::uint64_t, std::uint64_t> t(&pool);
      for (std::uint64_t i = 0; i < (1u << 16); i += 2) t.insert(i, i);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> items;
      for (std::size_t i = 0; i < batch; ++i) {
        items.emplace_back(i * 4 + 1, i);
      }
      state.ResumeTiming();
      t.multi_insert(items);
      benchmark::DoNotOptimize(t.size());
      state.PauseTiming();
    }  // teardown (bulk chain recycle) outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_JTreeMultiInsertPooled)->Arg(64)->Arg(1024)->Arg(16384);

// Batch extraction from a deep segment: a pooled 2^14-item tree segment
// (keys 0, 10, 20, ...) and a batch spread over its whole key range. Only
// the extraction is timed: the segment is built once, and the hits go back
// in with timing paused. The mostly-absent shape (every
// tenth key present) is a deep segment's sweep window; the all-present one
// is the hit side.
void SegmentExtractByKeysOnly(benchmark::State& state, bool all_present) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kItems = 1u << 14;
  pwss::core::SegmentPools<std::uint64_t, std::uint64_t> pools;
  pwss::core::Segment<std::uint64_t, std::uint64_t> seg(&pools);
  pwss::core::SegmentScratch<std::uint64_t, std::uint64_t> scratch;
  std::vector<decltype(seg)::Item> out;
  for (std::uint64_t i = 0; i < kItems; ++i) out.push_back({i * 10, i, 0});
  seg.insert_front_batch(out, {}, &scratch);
  // With the +1, key_j = j * (10m + 1) is a multiple of 10 exactly when j is.
  const std::uint64_t step = 10 * (kItems / batch) + (all_present ? 0 : 1);
  std::vector<std::uint64_t> keys;
  for (std::size_t j = 0; j < batch; ++j) keys.push_back(j * step);
  for (auto _ : state) {
    seg.extract_by_keys(keys, out, {}, &scratch);
    benchmark::DoNotOptimize(out.data());
    state.PauseTiming();
    seg.insert_front_batch(out, {}, &scratch);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
void BM_SegmentExtractByKeysMostlyAbsent(benchmark::State& state) {
  SegmentExtractByKeysOnly(state, false);
}
void BM_SegmentExtractByKeysAllPresent(benchmark::State& state) {
  SegmentExtractByKeysOnly(state, true);
}
BENCHMARK(BM_SegmentExtractByKeysMostlyAbsent)->Arg(64)->Arg(1024);
BENCHMARK(BM_SegmentExtractByKeysAllPresent)->Arg(64)->Arg(1024);

// Point extracts from a deep segment (M0's per-access removal, the
// ladder's erase): a pooled tree segment of n items, 256 present keys
// spread over its range, each removed with extract(key); only the extracts
// are timed.
void BM_SegmentPointExtract(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kKeys = 256;
  pwss::core::SegmentPools<std::uint64_t, std::uint64_t> pools;
  pwss::core::Segment<std::uint64_t, std::uint64_t> seg(&pools);
  pwss::core::SegmentScratch<std::uint64_t, std::uint64_t> scratch;
  std::vector<decltype(seg)::Item> out;
  for (std::uint64_t i = 0; i < n; ++i) out.push_back({i * 10, i, 0});
  seg.insert_front_batch(out, {}, &scratch);
  for (auto _ : state) {
    out.clear();
    for (std::uint64_t j = 0; j < kKeys; ++j) {
      out.push_back(std::move(*seg.extract(j * 10 * (n / kKeys))));
    }
    benchmark::DoNotOptimize(out.data());
    state.PauseTiming();
    seg.insert_front_batch(out, {}, &scratch);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_SegmentPointExtract)->Arg(1 << 14)->Arg(1 << 16);

void BM_PESortSequential(benchmark::State& state) {
  const double theta = static_cast<double>(state.range(0)) / 100.0;
  const auto base =
      pwss::util::zipf_keys(1u << 14, theta, 1u << 16, 3);
  for (auto _ : state) {
    auto copy = base;
    pwss::sort::pesort(copy, [](std::uint64_t x) { return x; });
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_PESortSequential)->Arg(0)->Arg(99)->Arg(130);

void BM_SchedulerForkJoin(benchmark::State& state) {
  pwss::sched::Scheduler s(4);
  for (auto _ : state) {
    std::atomic<int> n{0};
    s.parallel_for(0, 1024, 16, [&](std::size_t lo, std::size_t hi) {
      n.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(n.load());
  }
}
BENCHMARK(BM_SchedulerForkJoin);

// Steady-state spawn/execute cycle: the path M2 activations and AsyncMap
// drive loops live on. With the SBO closure + pooled task nodes this is
// allocation-free once warm.
void BM_SchedulerSpawnChain(benchmark::State& state) {
  pwss::sched::Scheduler s(2);
  for (auto _ : state) {
    std::atomic<int> remaining{256};
    s.run_sync([&] {
      struct Chain {
        pwss::sched::Scheduler& s;
        std::atomic<int>& remaining;
        void operator()() const {
          if (remaining.fetch_sub(1) > 1) s.spawn(Chain{s, remaining});
        }
      };
      Chain{s, remaining}();
    });
    while (remaining.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    benchmark::DoNotOptimize(remaining.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_SchedulerSpawnChain);

// Per-backend micro: one 1024-op zipf search batch through the bulk path
// of a pre-populated registry backend.
void BM_BackendBatchSearch(benchmark::State& state, std::string name,
                           pwss::driver::Options opts) {
  using IntOp = pwss::core::Op<std::uint64_t, std::uint64_t>;
  constexpr std::uint64_t kUniverse = 1u << 16;
  auto map = pwss::driver::make_driver<std::uint64_t, std::uint64_t>(name,
                                                                     opts);
  pwss::bench::prepopulate(*map, kUniverse);
  const auto keys = pwss::util::zipf_keys(kUniverse, 0.99, 1024, 5);
  std::vector<IntOp> batch;
  batch.reserve(keys.size());
  for (const auto k : keys) batch.push_back(IntOp::search(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->run(batch).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}

// Per-segment-depth hit accounting under a Zipf search stream, emitted as
// pwss-bench-v1 records (panel "probe_depth"). These are workload-shape
// counters, not latencies: compare_baseline.py reports them informationally
// and never gates on them. Runs only when --json is given.
void emit_probe_depth_panel() {
  auto& json = pwss::bench::BenchJson::instance();
  if (!json.enabled()) return;
  using IntOp = pwss::core::Op<std::uint64_t, std::uint64_t>;
  constexpr std::uint64_t kUniverse = 1u << 14;
  constexpr std::size_t kBatch = 1024;
  constexpr std::size_t kBatches = 64;
  pwss::sched::Scheduler sched(4);
  pwss::core::M1Map<std::uint64_t, std::uint64_t> map(&sched);
  std::vector<IntOp> batch;
  std::vector<pwss::core::Result<std::uint64_t, std::uint64_t>> results;
  batch.reserve(kUniverse);
  for (std::uint64_t i = 0; i < kUniverse; ++i) {
    batch.push_back(IntOp::insert(i, i));
  }
  map.execute_batch(batch, results);
  map.reset_probe_depth_counts();
  const auto keys =
      pwss::util::zipf_keys(kUniverse, 0.99, kBatch * kBatches, 11);
  for (std::size_t b = 0; b < kBatches; ++b) {
    batch.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(IntOp::search(keys[b * kBatch + i]));
    }
    map.execute_batch(batch, results);
  }
  const auto& pc = map.probe_depth_counts();
  const double total = static_cast<double>(pc.total());
  const std::initializer_list<std::pair<const char*, double>> params = {
      {"theta_x100", 99}, {"batch", kBatch}, {"universe", kUniverse}};
  json.record("probe_depth", "m1/zipf", "hits_s0",
              static_cast<double>(pc.hits[0]), params);
  json.record("probe_depth", "m1/zipf", "hits_s1",
              static_cast<double>(pc.hits[1]), params);
  json.record("probe_depth", "m1/zipf", "hits_s2",
              static_cast<double>(pc.hits[2]), params);
  json.record("probe_depth", "m1/zipf", "hits_deep",
              static_cast<double>(pc.hits[3]), params);
  json.record("probe_depth", "m1/zipf", "misses",
              static_cast<double>(pc.misses), params);
  json.record("probe_depth", "m1/zipf", "share_front",
              total == 0.0 ? 0.0
                           : static_cast<double>(pc.hits[0] + pc.hits[1] +
                                                 pc.hits[2]) /
                                 total,
              params);
}

// Durability-substrate recovery panel (panel "recovery"): snapshot
// write/load bandwidth and WAL scan+replay rate over a scratch
// directory. Info-only pwss-bench-v1 series — single-shot wall-clock
// numbers, machine-dependent and fsync-bound, so compare_baseline.py
// reports them without gating. Runs only when --json is given.
void emit_recovery_panel() {
  auto& json = pwss::bench::BenchJson::instance();
  if (!json.enabled()) return;
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  char tmpl[] = "/tmp/pwss-micro-recovery-XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) return;
  const std::string dir = tmpl;

  constexpr std::size_t kEntries = 1u << 18;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(kEntries);
  for (std::uint64_t i = 0; i < kEntries; ++i) entries.emplace_back(i * 2, i);
  const double payload_mb =
      static_cast<double>(kEntries * 2 * sizeof(std::uint64_t)) / 1e6;
  const std::initializer_list<std::pair<const char*, double>> snap_params = {
      {"entries", static_cast<double>(kEntries)}};

  auto t0 = Clock::now();
  pwss::store::SnapshotWriter<std::uint64_t, std::uint64_t>::write(
      pwss::store::snapshot_path(dir), kEntries, entries);
  json.record("recovery", "snapshot", "write_mb_per_sec",
              payload_mb / seconds_since(t0), snap_params);

  t0 = Clock::now();
  const auto loaded =
      pwss::store::SnapshotReader<std::uint64_t, std::uint64_t>::load(
          pwss::store::snapshot_path(dir));
  json.record("recovery", "snapshot", "load_mb_per_sec",
              payload_mb / seconds_since(t0), snap_params);

  // WAL suffix replay: append past the snapshot's seq, then time the
  // boot-path combination (scan + verify + rebuild into a map).
  constexpr std::size_t kWalOps = 1u << 16;
  {
    pwss::store::Wal<std::uint64_t, std::uint64_t> wal;
    wal.open(pwss::store::wal_path(dir), kEntries, kEntries, 0);
    for (std::size_t i = 0; i < kWalOps; ++i) {
      wal.log(pwss::core::OpType::kUpsert, i * 2 + 1, i);
    }
    wal.close();
  }
  t0 = Clock::now();
  const auto rec =
      pwss::store::recover_dir<std::uint64_t, std::uint64_t>(dir);
  pwss::core::M0Map<std::uint64_t, std::uint64_t> map;
  const std::size_t replayed = pwss::store::replay_into(
      rec,
      [&map](const std::vector<pwss::core::Op<std::uint64_t, std::uint64_t>>&
                 batch) {
        for (const auto& op : batch) {
          if (op.type == pwss::core::OpType::kErase) {
            map.erase(op.key);
          } else {
            map.insert(op.key, op.value);
          }
        }
      });
  json.record("recovery", "wal", "replay_ops_per_sec",
              static_cast<double>(loaded.entries.size() + replayed) /
                  seconds_since(t0),
              {{"entries", static_cast<double>(kEntries)},
               {"wal_ops", static_cast<double>(kWalOps)}});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Console output as usual, plus one JSON Lines record per run when --json
// is given (items_per_second when the bench reports it, else ns/iteration).
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    auto& json = pwss::bench::BenchJson::instance();
    if (!json.enabled()) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        json.record("micro", run.benchmark_name(), "items_per_sec",
                    items->second);
      } else {
        json.record("micro", run.benchmark_name(), "ns_per_iter",
                    run.GetAdjustedRealTime());
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  argc = pwss::bench::consume_json_flag(argc, argv, "micro");
  // Split our registry flags from google-benchmark's.
  std::vector<char*> ours{argv[0]};
  std::vector<char*> gbench{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend", 9) == 0 ||
        std::strncmp(argv[i], "--workers", 9) == 0 ||
        std::strcmp(argv[i], "--list-backends") == 0) {
      ours.push_back(argv[i]);
    } else {
      gbench.push_back(argv[i]);
    }
  }
  int ours_argc = static_cast<int>(ours.size());
  const auto cli = pwss::driver::parse<std::uint64_t, std::uint64_t>(
      ours_argc, ours.data(), {"m0", "m1", "avl"});
  for (const auto& name : cli.backends) {
    benchmark::RegisterBenchmark(
        ("BM_BackendBatchSearch/" + name).c_str(),
        [name, opts = cli.driver](benchmark::State& st) {
          BM_BackendBatchSearch(st, name, opts);
        });
  }

  int gbench_argc = static_cast<int>(gbench.size());
  benchmark::Initialize(&gbench_argc, gbench.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc, gbench.data())) {
    return 1;
  }
  JsonForwardingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  emit_probe_depth_panel();
  emit_recovery_panel();
  benchmark::Shutdown();
  return 0;
}
