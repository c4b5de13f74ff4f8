#pragma once
// Recovery (DESIGN.md "Durability & recovery"): turns a durability
// directory back into map contents. The contract is asymmetric by
// design:
//
//   * the SNAPSHOT is trusted ground truth — any header/CRC/order
//     violation throws StoreError with a precise description and the
//     driver refuses to serve (better no service than silently wrong
//     answers);
//   * the WAL TAIL is expected to be torn after a crash — scanning stops
//     at the first bad record and recovery truncates there. A torn tail
//     is never a startup error: every record before it was verified, and
//     an op whose record did not fully land was by definition never
//     acked under sync durability.
//
// Replay is idempotent by sequence number: only records with
// seq > snapshot.seq are applied (a crash between snapshot rename and
// WAL rotation leaves records the snapshot already covers), and the
// record kinds themselves (upsert/erase) are idempotent, so replaying a
// suffix twice converges to the same state. After replay the driver
// runs the deep validators; recovery is only done when validate() is
// clean — the self-stabilization framing: converge to a certified-legal
// state or refuse.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace pwss::store {

inline std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot";
}
inline std::string wal_path(const std::string& dir) { return dir + "/wal.log"; }

template <typename K, typename V>
struct RecoveredState {
  std::uint64_t snapshot_seq = 0;
  std::vector<std::pair<K, V>> entries;  ///< snapshot contents, sorted
  std::vector<WalRecord<K, V>> records;  ///< WAL suffix, seq > snapshot_seq
  std::uint64_t wal_last_seq = 0;   ///< appends continue after this seq
  std::uint64_t wal_valid_bytes = 0;  ///< verified prefix; 0 = recreate file
  bool torn_tail = false;           ///< trailing garbage was truncated away
};

/// Scans (and fully verifies) the durability directory. Creates the
/// directory when absent (first boot). Throws StoreError on snapshot
/// corruption or a snapshot/WAL sequence gap; torn WAL tails are
/// reported, not thrown.
template <typename K, typename V>
RecoveredState<K, V> recover_dir(const std::string& dir) {
  ensure_dir(dir);
  RecoveredState<K, V> out;
  const std::string snap = snapshot_path(dir);
  if (file_exists(snap)) {
    auto loaded = SnapshotReader<K, V>::load(snap);
    out.snapshot_seq = loaded.seq;
    out.entries = std::move(loaded.entries);
  }
  auto scanned = WalReader<K, V>::scan(wal_path(dir));
  if (scanned.missing_or_empty) {
    // No WAL (first boot) or a header-less torn stub (crash during
    // creation): start fresh from the snapshot's position.
    out.wal_last_seq = out.snapshot_seq;
    out.wal_valid_bytes = 0;
    out.torn_tail = scanned.torn_tail;
    return out;
  }
  if (scanned.start_seq > out.snapshot_seq) {
    // The log starts after the snapshot ends: ops between them are gone.
    // That only happens when the snapshot file was replaced by an older
    // one (or deleted) outside our control — corruption, refuse.
    throw StoreError(
        "recovery gap: wal " + wal_path(dir) + " starts at seq " +
        std::to_string(scanned.start_seq) + " but snapshot covers only seq " +
        std::to_string(out.snapshot_seq));
  }
  for (auto& r : scanned.records) {
    if (r.seq > out.snapshot_seq) out.records.push_back(r);
  }
  out.wal_last_seq = scanned.records.empty()
                         ? (out.snapshot_seq > scanned.start_seq
                                ? out.snapshot_seq
                                : scanned.start_seq)
                         : (scanned.records.back().seq > out.snapshot_seq
                                ? scanned.records.back().seq
                                : out.snapshot_seq);
  out.wal_valid_bytes = scanned.valid_bytes;
  out.torn_tail = scanned.torn_tail;
  return out;
}

/// Streams the recovered state through `apply` (a callable taking
/// const std::vector<core::Op<K, V>>&) in replay order: snapshot entries
/// first as sorted upsert batches of `chunk` ops, which the caller runs
/// through its ordinary batch path, then the WAL suffix in sequence order.
/// Returns the count of WAL ops replayed.
template <typename K, typename V, typename ApplyBatch>
std::size_t replay_into(const RecoveredState<K, V>& rec, ApplyBatch&& apply,
                        std::size_t chunk = 4096) {
  std::vector<core::Op<K, V>> batch;
  batch.reserve(rec.entries.empty() && rec.records.empty()
                    ? 0
                    : (chunk < rec.entries.size() ? chunk
                                                  : rec.entries.size()));
  for (const auto& [k, v] : rec.entries) {
    batch.push_back(core::Op<K, V>::upsert(k, v));
    if (batch.size() >= chunk) {
      apply(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) {
    apply(batch);
    batch.clear();
  }
  for (const auto& r : rec.records) {
    batch.push_back(r.kind == core::OpType::kErase
                        ? core::Op<K, V>::erase(r.key)
                        : core::Op<K, V>::upsert(r.key, r.value));
    if (batch.size() >= chunk) {
      apply(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) apply(batch);
  return rec.records.size();
}

}  // namespace pwss::store
