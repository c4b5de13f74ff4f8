// Durability subsystem tests (store/ + driver wiring): WAL round-trip
// and torn-tail truncation at every byte offset, snapshot round-trip
// with corruption refusal, recovery-gap refusal, idempotent replay,
// restart round-trips for every backend wiring, fault-injected sticky
// read-only degradation, and the fork-based crash matrix — seeded kill
// points swept across backends with acked-op-loss / half-applied-op /
// validate() assertions on every recovery (tests/crash_harness.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crash_harness.hpp"
#include "driver/registry.hpp"
#include "store/durability.hpp"
#include "store/recovery.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/sites.hpp"

namespace pwss {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using IntOp = core::Op<K, V>;
using IntWal = store::Wal<K, V>;
using IntWalReader = store::WalReader<K, V>;
using IntSnapWriter = store::SnapshotWriter<K, V>;
using IntSnapReader = store::SnapshotReader<K, V>;

/// mkdtemp scratch directory, recursively removed at scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir() + "pwss-durability-XXXXXX";
    tmpl.push_back('\0');
    char* got = ::mkdtemp(tmpl.data());
    EXPECT_NE(got, nullptr);
    path_ = got == nullptr ? "." : got;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::vector<char> read_file(const std::string& path) {
  store::Fd fd(path, O_RDONLY);
  std::vector<char> bytes(fd.size());
  EXPECT_EQ(fd.read_some(bytes.data(), bytes.size()), bytes.size());
  return bytes;
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  store::Fd fd(path, O_WRONLY | O_CREAT | O_TRUNC);
  fd.write_all(bytes.data(), bytes.size());
}

/// A synced WAL with `n` insert records (seq 1..n, key i, value 100+i).
void write_wal(const std::string& path, std::size_t n) {
  IntWal wal;
  wal.open(path, 0, 0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    wal.log(core::OpType::kInsert, i, 100 + i);
  }
  wal.sync(n);
  wal.close();
}

// ---- WAL format --------------------------------------------------------------

TEST(WalFormat, RoundTripAndAppendAfterReopen) {
  ScratchDir d;
  const std::string path = d.file("wal.log");
  write_wal(path, 10);

  auto s = IntWalReader::scan(path);
  EXPECT_FALSE(s.missing_or_empty);
  EXPECT_FALSE(s.torn_tail);
  EXPECT_EQ(s.start_seq, 0u);
  ASSERT_EQ(s.records.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s.records[i].seq, i + 1);
    EXPECT_EQ(s.records[i].kind, core::OpType::kInsert);
    EXPECT_EQ(s.records[i].key, i);
    EXPECT_EQ(s.records[i].value, 100 + i);
  }

  // Reopen at the scanned position and keep appending: sequence numbers
  // continue, previous records are untouched.
  IntWal wal;
  wal.open(path, s.start_seq, s.records.back().seq, s.valid_bytes);
  EXPECT_EQ(wal.log(core::OpType::kErase, 3, 0), 11u);
  wal.sync(11);
  wal.close();
  auto s2 = IntWalReader::scan(path);
  ASSERT_EQ(s2.records.size(), 11u);
  EXPECT_EQ(s2.records.back().seq, 11u);
  EXPECT_EQ(s2.records.back().kind, core::OpType::kErase);
}

TEST(WalFormat, TornTailRecoveredByTruncationAtEveryByteOffset) {
  ScratchDir d;
  const std::string full_path = d.file("wal.log");
  write_wal(full_path, 5);
  const std::vector<char> full = read_file(full_path);
  const std::size_t rec = IntWal::kRecordBytes;
  const std::size_t base = full.size() - rec;  // end of the 4th record

  for (std::size_t off = 0; off < rec; ++off) {
    const std::string path = d.file("torn.log");
    write_file(path, std::vector<char>(full.begin(),
                                       full.begin() + base + off));
    auto s = IntWalReader::scan(path);
    ASSERT_EQ(s.records.size(), 4u) << "cut at +" << off;
    EXPECT_EQ(s.valid_bytes, base) << "cut at +" << off;
    EXPECT_EQ(s.torn_tail, off != 0) << "cut at +" << off;

    // The log must keep working after truncation: append, sync, rescan.
    IntWal wal;
    wal.open(path, s.start_seq, s.records.back().seq, s.valid_bytes);
    EXPECT_EQ(wal.log(core::OpType::kUpsert, 77, 7), 5u);
    wal.sync(5);
    wal.close();
    auto s2 = IntWalReader::scan(path);
    ASSERT_EQ(s2.records.size(), 5u) << "cut at +" << off;
    EXPECT_FALSE(s2.torn_tail) << "cut at +" << off;
    EXPECT_EQ(s2.records.back().key, 77u);
  }
}

TEST(WalFormat, CorruptMiddleRecordStopsScanAtLastGoodRecord) {
  ScratchDir d;
  const std::string path = d.file("wal.log");
  write_wal(path, 5);
  std::vector<char> bytes = read_file(path);
  // Flip one payload byte of the third record.
  const std::size_t rec = IntWal::kRecordBytes;
  const std::size_t hdr = bytes.size() - 5 * rec;
  bytes[hdr + 2 * rec + 12] ^= 0x40;
  write_file(path, bytes);

  auto s = IntWalReader::scan(path);
  EXPECT_EQ(s.records.size(), 2u);
  EXPECT_TRUE(s.torn_tail);
}

TEST(WalFormat, TornHeaderIsMissingButBadMagicRefuses) {
  ScratchDir d;
  // A 4-byte stub (crash during creation): fresh-log territory.
  write_file(d.file("stub.log"), {'P', 'W', 'S', 'S'});
  auto s = IntWalReader::scan(d.file("stub.log"));
  EXPECT_TRUE(s.missing_or_empty);
  EXPECT_TRUE(s.torn_tail);

  // A COMPLETE header with the wrong magic is foreign data, not a torn
  // artifact: refuse.
  write_file(d.file("foreign.log"), std::vector<char>(64, 'X'));
  EXPECT_THROW(IntWalReader::scan(d.file("foreign.log")), store::StoreError);
}

/// Nine ops, five of them mutations (inserts, upserts, an erase), the
/// rest reads of every kind.
std::vector<IntOp> mixed_ops() {
  return {IntOp::search(1),      IntOp::insert(1, 10), IntOp::upsert(2, 20),
          IntOp::predecessor(5), IntOp::erase(1),      IntOp::range_count(0, 9),
          IntOp::upsert(1, 11),  IntOp::successor(3),  IntOp::insert(7, 70)};
}

TEST(WalFormat, LogBatchMatchesPerRecordLog) {
  ScratchDir d;
  const std::vector<IntOp> ops = mixed_ops();
  const auto mutations = static_cast<std::uint64_t>(
      std::count_if(ops.begin(), ops.end(), [](const IntOp& op) {
        return core::is_mutation(op.type);
      }));
  ASSERT_EQ(mutations, 5u);
  {
    IntWal wal;
    wal.open(d.file("batch.log"), 0, 0, 0);
    EXPECT_EQ(wal.log_batch(ops), mutations);
    EXPECT_EQ(wal.appends(), mutations) << "reads are not counted";
    // A span without mutations returns 0 and logs nothing.
    const std::vector<IntOp> reads = {IntOp::search(1), IntOp::successor(2)};
    EXPECT_EQ(wal.log_batch(reads), 0u);
    EXPECT_EQ(wal.log_batch(std::span<const IntOp>()), 0u);
    EXPECT_EQ(wal.appends(), mutations);
    EXPECT_EQ(wal.last_seq(), mutations);
    EXPECT_EQ(wal.log_batch(ops), 2 * mutations) << "seqs continue";
    wal.sync(2 * mutations);
    wal.close();
  }
  {
    IntWal wal;
    wal.open(d.file("single.log"), 0, 0, 0);
    for (int round = 0; round < 2; ++round) {
      for (const auto& op : ops) {
        if (core::is_mutation(op.type)) wal.log(op.type, op.key, op.value);
      }
    }
    wal.sync(2 * mutations);
    wal.close();
  }
  EXPECT_EQ(read_file(d.file("batch.log")), read_file(d.file("single.log")));
  EXPECT_EQ(IntWalReader::scan(d.file("batch.log")).records.size(),
            2 * mutations);
}

// The version-1 WAL bytes for a fixed op span, pinned by the CRC32 of
// the whole file (header and five records) as the table-driven bytewise
// encoder wrote it. The format is native-endian; the figure is for
// little-endian hosts.
TEST(WalFormat, VersionOneFileBytesArePinned) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "pinned bytes are little-endian";
  }
  ScratchDir d;
  const std::vector<IntOp> ops = mixed_ops();
  IntWal wal;
  wal.open(d.file("wal.log"), 3, 3, 0);
  EXPECT_EQ(wal.log_batch(ops), 8u);
  wal.sync(8);
  wal.close();
  const std::vector<char> bytes = read_file(d.file("wal.log"));
  EXPECT_EQ(store::kWalVersion, 1u);
  EXPECT_EQ(bytes.size(), sizeof(store::WalHeader) + 5 * IntWal::kRecordBytes);
  EXPECT_EQ(store::crc32(bytes.data(), bytes.size()), 0x821EA287u);
}

// scan() reads kScanBlock bytes at a time: a record cut by the first
// block's end must parse when intact and stop the scan, at the record
// before it, when torn or corrupt.
TEST(WalFormat, BadRecordAcrossScanBlockBoundaryStopsScan) {
  ScratchDir d;
  const std::string path = d.file("wal.log");
  const std::size_t rec = IntWal::kRecordBytes;
  const std::size_t hdr = sizeof(store::WalHeader);
  const std::size_t block = IntWalReader::kScanBlock;
  const std::size_t straddler = (block - hdr) / rec;
  const std::size_t start = hdr + straddler * rec;
  ASSERT_LT(start, block);
  ASSERT_GT(start + rec, block);
  const std::size_t n = straddler + 100;
  write_wal(path, n);
  const std::vector<char> full = read_file(path);
  ASSERT_EQ(full.size(), hdr + n * rec);

  auto s = IntWalReader::scan(path);
  ASSERT_EQ(s.records.size(), n);
  EXPECT_FALSE(s.torn_tail);
  EXPECT_EQ(s.valid_bytes, full.size());
  EXPECT_EQ(s.records[straddler].seq, straddler + 1);
  EXPECT_EQ(s.records[straddler].key, straddler);
  EXPECT_EQ(s.records[straddler].value, 100 + straddler);

  auto expect_stops_at_straddler = [&](const std::vector<char>& bytes,
                                       const std::string& what) {
    write_file(path, bytes);
    const auto t = IntWalReader::scan(path);
    EXPECT_EQ(t.records.size(), straddler) << what;
    EXPECT_EQ(t.valid_bytes, start) << what;
    EXPECT_TRUE(t.torn_tail) << what;
  };
  for (std::size_t off = 1; off < rec; ++off) {
    expect_stops_at_straddler(
        std::vector<char>(full.begin(), full.begin() + start + off),
        "cut at +" + std::to_string(off));
  }
  for (const std::size_t at : {start, block - 1, block, start + rec - 1}) {
    std::vector<char> bytes = full;
    bytes[at] ^= 0x40;
    expect_stops_at_straddler(bytes, "flip at " + std::to_string(at));
  }
}

// ---- CRC32 -------------------------------------------------------------------

// One bit at a time, no tables: the definition crc32 must keep.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> crc_input() {
  std::vector<unsigned char> bytes(72);
  util::Xoshiro256 rng(99);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.bounded(256));
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(store::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(store::crc32("", 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const auto bytes = crc_input();
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(store::crc32(bytes.data() + off, len),
                crc32_bitwise(bytes.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
}

TEST(Crc32, SeedChainingEqualsOneShot) {
  const auto bytes = crc_input();
  const std::uint32_t whole = store::crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = store::crc32(bytes.data(), split);
    EXPECT_EQ(store::crc32(bytes.data() + split, bytes.size() - split, head),
              whole)
        << "split at " << split;
  }
}

// ---- snapshot format ---------------------------------------------------------

std::vector<std::pair<K, V>> snapshot_entries(std::size_t n) {
  std::vector<std::pair<K, V>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) entries.emplace_back(i * 3, i);
  return entries;
}

TEST(SnapshotFormat, MultiBlockRoundTrip) {
  ScratchDir d;
  const std::string path = d.file("snapshot");
  const auto entries = snapshot_entries(2500);  // three CRC blocks
  IntSnapWriter::write(path, 42, entries);
  auto loaded = IntSnapReader::load(path);
  EXPECT_EQ(loaded.seq, 42u);
  EXPECT_EQ(loaded.entries, entries);
}

TEST(SnapshotFormat, CorruptionRefusedWithPreciseReport) {
  ScratchDir d;
  const std::string path = d.file("snapshot");
  IntSnapWriter::write(path, 7, snapshot_entries(2500));
  const std::vector<char> good = read_file(path);

  auto expect_refused = [&](std::vector<char> bytes, const char* what) {
    write_file(path, bytes);
    EXPECT_THROW(IntSnapReader::load(path), store::StoreError) << what;
  };

  std::vector<char> flipped = good;
  flipped[sizeof(store::SnapshotHeader) + 8 + 100] ^= 0x01;
  expect_refused(flipped, "payload bit flip");

  expect_refused(std::vector<char>(good.begin(), good.end() - 5),
                 "truncated payload");

  std::vector<char> bad_header = good;
  bad_header[9] ^= 0x01;  // inside the version/crc region
  expect_refused(bad_header, "header corruption");

  // Undamaged file still loads (the refusals above were not stickiness).
  write_file(path, good);
  EXPECT_EQ(IntSnapReader::load(path).entries.size(), 2500u);
}

// ---- recovery ----------------------------------------------------------------

TEST(Recovery, WalAheadOfSnapshotRefused) {
  ScratchDir d;
  const std::string dir = d.file("store");
  store::ensure_dir(dir);
  // A WAL whose start_seq claims a snapshot at seq 5 existed — but there
  // is no snapshot: ops 1..5 are unrecoverable, refuse to serve.
  IntWal wal;
  wal.open(store::wal_path(dir), 5, 5, 0);
  wal.log(core::OpType::kInsert, 1, 1);
  wal.sync(6);
  wal.close();
  EXPECT_THROW((store::recover_dir<K, V>(dir)), store::StoreError);
}

TEST(Recovery, SnapshotPlusWalSuffixReplaysIdempotently) {
  ScratchDir d;
  const std::string dir = d.file("store");
  store::ensure_dir(dir);
  // Snapshot covers seq 2 = {1:10, 2:20}; the un-rotated WAL holds seq
  // 1..4 — records 1 and 2 are already covered and must be skipped.
  IntSnapWriter::write(store::snapshot_path(dir), 2, {{1, 10}, {2, 20}});
  IntWal wal;
  wal.open(store::wal_path(dir), 0, 0, 0);
  wal.log(core::OpType::kInsert, 1, 10);
  wal.log(core::OpType::kInsert, 2, 20);
  wal.log(core::OpType::kErase, 1, 0);
  wal.log(core::OpType::kUpsert, 5, 50);
  wal.sync(4);
  wal.close();

  auto rec = store::recover_dir<K, V>(dir);
  EXPECT_EQ(rec.snapshot_seq, 2u);
  EXPECT_EQ(rec.entries.size(), 2u);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].seq, 3u);
  EXPECT_EQ(rec.wal_last_seq, 4u);

  std::map<K, V> state;
  auto apply = [&](const std::vector<IntOp>& batch) {
    for (const auto& op : batch) testutil::reference_apply(state, op);
  };
  EXPECT_EQ(store::replay_into(rec, apply), 2u);
  const std::map<K, V> expect{{2, 20}, {5, 50}};
  EXPECT_EQ(state, expect);
  // Replaying the same suffix again converges to the same state
  // (upsert/erase are idempotent).
  store::replay_into(rec, apply);
  EXPECT_EQ(state, expect);
}

// ---- driver wiring: restart round trips --------------------------------------

const char* const kDurableBackends[] = {"m0", "m1", "m2", "sharded:m1",
                                        "locked"};

driver::Options durable_opts(const std::string& dir,
                             store::DurabilityMode mode) {
  driver::Options o;
  o.durability = mode;
  o.durability_dir = dir;
  return o;
}

std::map<K, V> run_scripted(driver::Driver<K, V>& drv, std::uint64_t seed,
                            std::size_t count, std::map<K, V> oracle = {}) {
  const auto ops = testutil::scripted_ops<K, V>(seed, count, 128, false);
  for (std::size_t i = 0; i < ops.size(); i += 64) {
    const std::vector<IntOp> batch(
        ops.begin() + i, ops.begin() + std::min(ops.size(), i + 64));
    drv.run(batch);
    for (const auto& op : batch) testutil::reference_apply(oracle, op);
  }
  return oracle;
}

void expect_matches_oracle(driver::Driver<K, V>& drv,
                           const std::map<K, V>& oracle, const char* what) {
  EXPECT_EQ(drv.validate(), "") << what;
  std::map<K, V> got;
  for (const auto& [k, v] : drv.export_sorted()) got[k] = v;
  EXPECT_EQ(got, oracle) << what;
}

TEST(DriverDurability, SyncRoundTripAcrossRestartEveryBackend) {
  for (const std::string backend : kDurableBackends) {
    ScratchDir d;
    const auto opts =
        durable_opts(d.file("store"), store::DurabilityMode::kSync);
    std::map<K, V> oracle;
    {
      auto drv = driver::make_driver<K, V>(backend, opts);
      oracle = run_scripted(*drv, 11, 400);
      const auto s = drv->stats();
      EXPECT_TRUE(s.durable) << backend;
      EXPECT_GT(s.wal_appends, 0u) << backend;
      EXPECT_GT(s.wal_fsyncs, 0u) << backend;
    }
    auto drv = driver::make_driver<K, V>(backend, opts);
    expect_matches_oracle(*drv, oracle, backend.c_str());
    EXPECT_GT(drv->stats().recovered_ops, 0u) << backend;
  }
}

TEST(DriverDurability, CheckpointCompactsAndRecoverySeesBothHalves) {
  for (const std::string backend : kDurableBackends) {
    ScratchDir d;
    const auto opts =
        durable_opts(d.file("store"), store::DurabilityMode::kSync);
    std::map<K, V> oracle;
    {
      auto drv = driver::make_driver<K, V>(backend, opts);
      oracle = run_scripted(*drv, 21, 300);
      EXPECT_EQ(drv->checkpoint(), "") << backend;
      oracle = run_scripted(*drv, 22, 300, std::move(oracle));
      EXPECT_GT(drv->stats().checkpoints, 0u) << backend;
    }
    auto drv = driver::make_driver<K, V>(backend, opts);
    expect_matches_oracle(*drv, oracle, backend.c_str());
    const auto s = drv->stats();
    // Both recovery sources contributed: the snapshot's entries and the
    // post-checkpoint WAL suffix.
    EXPECT_GT(s.recovered_entries, 0u) << backend;
    EXPECT_GT(s.recovered_ops, 0u) << backend;
  }
}

TEST(DriverDurability, AsyncModeRecoversAfterCleanClose) {
  ScratchDir d;
  const auto opts =
      durable_opts(d.file("store"), store::DurabilityMode::kAsync);
  std::map<K, V> oracle;
  {
    auto drv = driver::make_driver<K, V>("m1", opts);
    oracle = run_scripted(*drv, 31, 500);
    // Async promises little mid-run, but close() flushes and fsyncs.
  }
  auto drv = driver::make_driver<K, V>("m1", opts);
  expect_matches_oracle(*drv, oracle, "m1/async");
}

TEST(DriverDurability, OffModeWritesNothingAndReportsNotDurable) {
  ScratchDir d;
  driver::Options opts;  // durability defaults to kOff
  opts.durability_dir = d.file("never-created");
  auto drv = driver::make_driver<K, V>("m1", opts);
  run_scripted(*drv, 41, 200);
  EXPECT_FALSE(drv->stats().durable);
  EXPECT_FALSE(drv->read_only());
  EXPECT_FALSE(store::file_exists(opts.durability_dir));
  EXPECT_THROW(drv->checkpoint(), std::logic_error);
}

TEST(DriverDurability, BlockingPathCountsAppendsPerMutation) {
  ScratchDir d;
  auto drv = driver::make_driver<K, V>(
      "m1", durable_opts(d.file("store"), store::DurabilityMode::kSync));
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(drv->insert(i, i));
  }
  EXPECT_NE(drv->search(7), std::nullopt);  // reads are never logged
  const auto s = drv->stats();
  EXPECT_EQ(s.wal_appends, 32u);
  EXPECT_GE(s.wal_fsyncs, 1u);
  EXPECT_GE(s.admitted, 33u);
}

// A bulk run logs its mutations with one log_batch() and, unsharded,
// covers them with one group commit.
TEST(DriverDurability, RunLogsOneBatchPerCall) {
  const auto ops = testutil::scripted_ops<K, V>(51, 10000, 1024, true);
  std::map<K, V> oracle;
  for (const auto& op : ops) testutil::reference_apply(oracle, op);
  const auto mutations = static_cast<std::uint64_t>(
      std::count_if(ops.begin(), ops.end(), [](const IntOp& op) {
        return core::is_mutation(op.type);
      }));
  for (const std::string backend : {"m1", "m2", "sharded:m1"}) {
    ScratchDir d;
    const auto opts =
        durable_opts(d.file("store"), store::DurabilityMode::kSync);
    {
      auto drv = driver::make_driver<K, V>(backend, opts);
      const auto before = drv->stats();
      drv->run(ops);
      const auto after = drv->stats();
      EXPECT_EQ(after.wal_appends - before.wal_appends, mutations) << backend;
      if (backend.rfind("sharded:", 0) != 0) {
        EXPECT_EQ(after.wal_fsyncs - before.wal_fsyncs, 1u) << backend;
      }
    }
    auto drv = driver::make_driver<K, V>(backend, opts);
    expect_matches_oracle(*drv, oracle, backend.c_str());
  }
}

// ---- fault injection: sticky read-only degradation ---------------------------

TEST(DriverDurability, InjectedWalFaultDrivesStickyReadOnly) {
  if (!util::sites::kCompiled) {
    GTEST_SKIP() << "build without -DPWSS_SITES=ON";
  }
  for (const char* site : {"wal.append", "wal.fsync"}) {
    for (const std::string backend : {"m1", "sharded:m1"}) {
      ScratchDir d;
      auto drv = driver::make_driver<K, V>(
          backend,
          durable_opts(d.file("store"), store::DurabilityMode::kSync));
      for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(drv->insert(i, i));

      util::sites::arm(site, util::sites::Action::kFail, 1);
      // Sharded backends route by key hash: keep mutating until the
      // forced failure lands in whichever shard draws the short straw.
      core::ResultStatus hit = core::ResultStatus::kInserted;
      for (std::uint64_t i = 100; i < 164; ++i) {
        hit = drv->run_blocking(IntOp::upsert(i, i)).status;
        if (hit == core::ResultStatus::kReadOnly) break;
      }
      util::sites::clear();
      EXPECT_EQ(hit, core::ResultStatus::kReadOnly) << site << " " << backend;
      EXPECT_TRUE(drv->read_only()) << site << " " << backend;
      EXPECT_TRUE(drv->stats().read_only) << site << " " << backend;

      // Reads keep serving; the structure stayed sound; the degradation
      // is sticky even though the forced fault is long gone.
      EXPECT_EQ(drv->search(7), std::uint64_t{7}) << site << " " << backend;
      EXPECT_EQ(drv->validate(), "") << site << " " << backend;

      // A degraded bulk batch splits: reads execute, mutations shed.
      const std::vector<IntOp> batch{IntOp::search(7), IntOp::upsert(7, 99),
                                     IntOp::search(999)};
      const auto results = drv->run(batch);
      // A sharded driver degrades per shard — only ops routed to the
      // failed shard shed, so probe the shard that actually degraded by
      // checking at least the whole-driver flag plus read liveness.
      EXPECT_EQ(results[0].status, core::ResultStatus::kFound)
          << site << " " << backend;
      EXPECT_EQ(results[2].status, core::ResultStatus::kNotFound)
          << site << " " << backend;
    }
  }
}

TEST(DriverDurability, DegradedDriverShedsEverySubmitFormAndStep) {
  if (!util::sites::kCompiled) {
    GTEST_SKIP() << "build without -DPWSS_SITES=ON";
  }
  for (const std::string backend : {"m1", "m2", "locked"}) {
    ScratchDir d;
    driver::Options opts =
        durable_opts(d.file("store"), store::DurabilityMode::kSync);
    opts.max_in_flight = 4;
    auto drv = driver::make_driver<K, V>(backend, opts);
    for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(drv->insert(i, i));

    util::sites::arm("wal.append", util::sites::Action::kFail, 1);
    const core::ResultStatus hit =
        drv->run_blocking(IntOp::upsert(7, 50)).status;
    util::sites::clear();
    ASSERT_EQ(hit, core::ResultStatus::kReadOnly) << backend;
    ASSERT_TRUE(drv->read_only()) << backend;
    const std::uint64_t appends = drv->stats().wal_appends;

    // Every single-op entry point sheds a mutation with kReadOnly before
    // it logs or executes, and an admitted submission gives its window
    // slot back when it is shed.
    core::OpTicket<V, K> ticket;
    drv->submit(IntOp::upsert(7, 51), &ticket);
    EXPECT_EQ(ticket.wait().status, core::ResultStatus::kReadOnly) << backend;
    EXPECT_EQ(drv->stats().in_flight, 0u) << backend;

    auto future = drv->submit(IntOp::upsert(7, 52));
    EXPECT_EQ(future.get().status, core::ResultStatus::kReadOnly) << backend;
    EXPECT_EQ(drv->stats().in_flight, 0u) << backend;

    std::atomic<bool> called{false};
    core::ResultStatus seen = core::ResultStatus::kInserted;
    drv->submit(IntOp::erase(7), [&](core::Result<V, K>&& r) {
      seen = r.status;
      called.store(true, std::memory_order_release);
    });
    ASSERT_TRUE(called.load(std::memory_order_acquire)) << backend;
    EXPECT_EQ(seen, core::ResultStatus::kReadOnly) << backend;
    EXPECT_EQ(drv->stats().in_flight, 0u) << backend;

    EXPECT_EQ(drv->step(IntOp::upsert(7, 53)).status,
              core::ResultStatus::kReadOnly)
        << backend;

    EXPECT_EQ(drv->stats().wal_appends, appends) << backend;
    EXPECT_EQ(drv->search(7), std::uint64_t{7}) << backend;
    EXPECT_EQ(drv->stats().in_flight, 0u) << backend;
    EXPECT_EQ(drv->validate(), "") << backend;
  }
}

TEST(DriverDurability, InjectedSnapshotFaultFailsCheckpointAndDegrades) {
  if (!util::sites::kCompiled) {
    GTEST_SKIP() << "build without -DPWSS_SITES=ON";
  }
  ScratchDir d;
  auto drv = driver::make_driver<K, V>(
      "m1", durable_opts(d.file("store"), store::DurabilityMode::kSync));
  for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(drv->insert(i, i));
  util::sites::arm("snapshot.write", util::sites::Action::kFail, 1);
  const std::string err = drv->checkpoint();
  util::sites::clear();
  EXPECT_NE(err, "");
  EXPECT_TRUE(drv->read_only());
  EXPECT_EQ(drv->run_blocking(IntOp::upsert(1, 2)).status,
            core::ResultStatus::kReadOnly);
  EXPECT_EQ(drv->search(7), std::uint64_t{7});
}

// ---- observability: PWSS_FAULT_LIST dump surface -----------------------------

TEST(FaultList, DumpSitesReportsFaultAndSchedulePoints) {
  {
    // A sync-durability write runs the WAL commit crash sites, so the dump
    // has a crash kind to list even with nothing armed.
    ScratchDir d;
    auto drv = driver::make_driver<K, V>(
        "m1", durable_opts(d.file("store"), store::DurabilityMode::kSync));
    ASSERT_TRUE(drv->insert(1, 1));
  }
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  util::sites::dump_sites(f);
  std::rewind(f);
  char buf[16384];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  buf[n] = '\0';
  std::fclose(f);
  const std::string out(buf);
  EXPECT_NE(out.find("fault/schedule-point site dump"), std::string::npos);
  EXPECT_NE(out.find("fault points"), std::string::npos);
  EXPECT_NE(out.find("schedule points"), std::string::npos);
  EXPECT_NE(out.find("crash points"), std::string::npos);
  EXPECT_NE(out.find("wal.commit.after_fsync"), std::string::npos) << out;

  // One line per site name, however many statics (TUs, template copies)
  // carry it.
  std::map<std::string, int> lines_per_name;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" hits=") == std::string::npos) continue;
    std::istringstream words(line);
    std::string name;
    words >> name;
    ++lines_per_name[name];
  }
  EXPECT_FALSE(lines_per_name.empty());
  for (const auto& [name, count] : lines_per_name) {
    EXPECT_EQ(count, 1) << name << " listed on " << count << " lines";
  }
}

// ---- crash matrix ------------------------------------------------------------

TEST(CrashMatrix, SeededKillPointsRecoverAcrossBackends) {
  struct Kill {
    const char* site;
    std::uint64_t nth;
  };
  // nth > 1 moves the same site deeper into the workload; under sync
  // durability every mutation syncs, so the wal sites hit once per op.
  const Kill kills[] = {
      {"wal.append.before", 1},     {"wal.append.before", 7},
      {"wal.write.partial", 1},     {"wal.write.partial", 7},
      {"wal.commit.after_write", 1}, {"wal.commit.after_write", 7},
      {"wal.commit.after_fsync", 1}, {"wal.commit.after_fsync", 7},
      {"snapshot.after_rename", 1}, {"checkpoint.done", 1},
  };
  const char* const backends[] = {"m0", "m1", "m2", "sharded:m1"};

  int fired = 0;
  int total = 0;
  std::uint64_t seed = 1000;
  for (const char* backend : backends) {
    for (const Kill& kill : kills) {
      ScratchDir d;
      testutil::CrashScenario sc;
      sc.backend = backend;
      sc.site = kill.site;
      sc.nth = kill.nth;
      sc.seed = ++seed;
      sc.total_ops = 120;
      sc.checkpoint_at = 60;
      const int code =
          testutil::recover_and_check(sc, d.file("store"), d.file("acks"));
      ++total;
      if (code == util::sites::kCrashExitCode) ++fired;
      if (HasFatalFailure()) return;
    }
  }
  // Every scenario's site lies on a path the workload provably executes.
  EXPECT_EQ(fired, total) << "some armed kill points never fired";
}

TEST(CrashMatrix, TornSnapshotTmpLeavesLiveSnapshotIntact) {
  ScratchDir d;
  const std::string path = d.file("snapshot");
  const pid_t pid = ::fork();
  if (pid == 0) {
    util::sites::arm("snapshot.write.partial", util::sites::Action::kCrash,
                     1);
    IntSnapWriter::write(path, 10, snapshot_entries(100));  // one block: lands
    IntSnapWriter::write(path, 20, snapshot_entries(2500));  // dies mid-.tmp
    ::_exit(0);  // unreachable when the crash point fires
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), util::sites::kCrashExitCode);

  // The crash hit mid-.tmp: the live name still holds the old complete
  // snapshot, and recovery never looks at the torn temp file.
  auto loaded = IntSnapReader::load(path);
  EXPECT_EQ(loaded.seq, 10u);
  EXPECT_EQ(loaded.entries.size(), 100u);
  EXPECT_TRUE(store::file_exists(path + ".tmp"));
}

}  // namespace
}  // namespace pwss
