#pragma once
// Durability — the driver-facing façade over snapshot + WAL + recovery
// (DESIGN.md "Durability & recovery"). One instance per driver (per
// shard for sharded drivers), owning the WAL handle, the mode, the
// sticky read-only flag, and the observability counters Driver::stats()
// reports.
//
// Lifecycle:
//   recover()  — scan the directory, verify, return the state to replay
//                (the driver bulk-loads it through its own batch path
//                with logging still disarmed);
//   arm()      — open the WAL for append; from here every mutation the
//                driver admits is logged before it executes;
//   log_batch()+commit() — the two-phase append (see wal.hpp): one
//                log_batch() per op or batch, then commit(), a group
//                fsync under sync mode, a threshold flush under async
//                mode, free under off (never constructed);
//   checkpoint() — snapshot the exported contents and rotate the log
//                (caller holds the driver's writer gate, quiesced);
//   close()    — final flush.
//
// Failure policy: any StoreError on the persistence path flips the
// sticky read-only flag before propagating. The driver maps the
// exception to kReadOnly shedding; reads keep serving, the flag never
// clears in-process — the acked⇒durable contract would be silently
// broken by un-degrading onto a failed log.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ops.hpp"
#include "store/format.hpp"
#include "store/recovery.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace pwss::store {

enum class DurabilityMode : std::uint8_t {
  kOff,    ///< no persistence (the default; zero hot-path cost)
  kAsync,  ///< WAL appended, flushed at thresholds, fsync only at close
  kSync,   ///< acked ⇒ fsynced: group commit before any mutation acks
};

inline const char* to_string(DurabilityMode m) {
  switch (m) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kAsync:
      return "async";
    case DurabilityMode::kSync:
      return "sync";
  }
  return "?";
}

inline std::optional<DurabilityMode> parse_durability(std::string_view s) {
  if (s == "off") return DurabilityMode::kOff;
  if (s == "async") return DurabilityMode::kAsync;
  if (s == "sync") return DurabilityMode::kSync;
  return std::nullopt;
}

/// The durability slice of Driver::stats().
struct DurabilityCounters {
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t recovered_ops = 0;         ///< WAL records replayed
  std::uint64_t recovered_entries = 0;     ///< snapshot entries restored
  std::uint64_t torn_tail_truncations = 0;
  std::uint64_t checkpoints = 0;
  bool read_only = false;
};

template <typename K, typename V>
class Durability {
 public:
  Durability(std::string dir, DurabilityMode mode)
      : dir_(std::move(dir)), mode_(mode) {}
  ~Durability() { close(); }
  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  DurabilityMode mode() const noexcept { return mode_; }
  const std::string& dir() const noexcept { return dir_; }

  /// Step 1: scan + verify the directory. Throws StoreError on
  /// corruption (the driver refuses to serve). The returned state is
  /// the driver's to replay; logging is not live yet.
  RecoveredState<K, V> recover() {
    RecoveredState<K, V> rec = recover_dir<K, V>(dir_);
    if (rec.torn_tail) ++torn_truncations_;
    recovered_ops_ = rec.records.size();
    recovered_entries_ = rec.entries.size();
    wal_open_.start_seq = rec.snapshot_seq;
    wal_open_.last_seq = rec.wal_last_seq;
    wal_open_.valid_bytes = rec.wal_valid_bytes;
    return rec;
  }

  /// Step 2: open the WAL for append at the recovered position. From
  /// here log()/commit() are live.
  void arm() {
    wal_.open(wal_path(dir_), wal_open_.start_seq, wal_open_.last_seq,
              wal_open_.valid_bytes);
    armed_.store(true, std::memory_order_release);
  }

  bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }

  /// Sticky: set on the first persistence failure, never cleared.
  bool read_only() const noexcept {
    return read_only_.load(std::memory_order_acquire);
  }
  void enter_read_only() noexcept {
    read_only_.store(true, std::memory_order_release);
  }

  /// Appends a record for every mutation of `ops` (Wal::log_batch);
  /// returns the last sequence number, 0 when `ops` holds no mutation.
  /// Flips read-only and rethrows on failure.
  std::uint64_t log_batch(std::span<const core::Op<K, V>> ops) {
    try {
      return wal_.log_batch(ops);
    } catch (const StoreError&) {
      enter_read_only();
      throw;
    }
  }

  /// Appends one mutation record; returns its sequence number. `kind`
  /// must be a mutation (a read would log nothing and return 0).
  std::uint64_t log(core::OpType kind, const K& key, const V& value) {
    assert(core::is_mutation(kind));
    const core::Op<K, V> op{kind, key, value};
    return log_batch(std::span<const core::Op<K, V>>(&op, 1));
  }

  /// Makes everything up to `seq` as durable as the mode promises:
  /// group fsync (sync), threshold flush (async). Flips read-only and
  /// rethrows on failure.
  void commit(std::uint64_t seq) {
    try {
      if (mode_ == DurabilityMode::kSync) {
        wal_.sync(seq);
      } else if (wal_.wants_flush()) {
        wal_.flush();
      }
    } catch (const StoreError&) {
      enter_read_only();
      throw;
    }
  }

  /// Snapshot + log rotation. The caller holds the driver's writer gate
  /// and has quiesced, so `entries` reflects every logged op and no new
  /// ops can log until this returns. Flips read-only and rethrows on
  /// failure (a half-written .tmp snapshot is harmless; a failed rotate
  /// leaves the old log intact — both recover cleanly).
  void checkpoint(const std::vector<std::pair<K, V>>& entries) {
    try {
      const std::uint64_t seq = wal_.last_seq();
      SnapshotWriter<K, V>::write(snapshot_path(dir_), seq, entries);
      wal_.rotate(seq);
      PWSS_CRASH_POINT("checkpoint.done");
      ++checkpoints_;
    } catch (const StoreError&) {
      enter_read_only();
      throw;
    }
  }

  void close() {
    if (armed_.exchange(false, std::memory_order_acq_rel)) wal_.close();
  }

  DurabilityCounters counters() const {
    DurabilityCounters c;
    c.wal_appends = wal_.appends();
    c.wal_fsyncs = wal_.fsyncs();
    c.recovered_ops = recovered_ops_;
    c.recovered_entries = recovered_entries_;
    c.torn_tail_truncations = torn_truncations_;
    c.checkpoints = checkpoints_;
    c.read_only = read_only();
    return c;
  }

 private:
  struct WalOpen {
    std::uint64_t start_seq = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t valid_bytes = 0;
  };

  std::string dir_;
  DurabilityMode mode_;
  Wal<K, V> wal_;
  WalOpen wal_open_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> read_only_{false};
  std::uint64_t recovered_ops_ = 0;
  std::uint64_t recovered_entries_ = 0;
  std::uint64_t torn_truncations_ = 0;
  std::uint64_t checkpoints_ = 0;
};

/// True when the store layer can serialize this key/value pair (both
/// file formats memcpy fixed-size records).
template <typename K, typename V>
inline constexpr bool kSerializable =
    std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>;

/// Stand-in for K/V the store layer cannot serialize: keeps Driver<K, V>
/// compiling for every instantiation (e.g. string keys) while
/// open_durability refuses such types at runtime. Never armed, so no
/// driver hot path ever reaches the throwing members.
class NoDurability {
 public:
  NoDurability(std::string, DurabilityMode) {}
  bool armed() const noexcept { return false; }
  bool read_only() const noexcept { return false; }
  void enter_read_only() noexcept {}
  template <typename Op>
  std::uint64_t log_batch(std::span<const Op>) {
    throw StoreError("durability requires trivially copyable key/value");
  }
  void commit(std::uint64_t) {}
  template <typename Entries>
  void checkpoint(const Entries&) {
    throw StoreError("durability requires trivially copyable key/value");
  }
  void close() {}
  DurabilityCounters counters() const { return {}; }
};

/// The durability implementation Driver<K, V> embeds: the real one when
/// the formats support K/V, the refusing stub otherwise.
template <typename K, typename V>
using DurabilityFor =
    std::conditional_t<kSerializable<K, V>, Durability<K, V>, NoDurability>;

}  // namespace pwss::store
