#pragma once
// Write-ahead log (DESIGN.md "Durability & recovery"). Every mutation
// the driver admits is logged BEFORE it executes; an op is acked to the
// caller only after its record is on disk (sync mode) or handed to the
// kernel (async mode). File layout:
//
//   header   "PWSSWAL1" | u32 version | u32 header_crc | u64 start_seq
//   records  u32 payload_len | u32 payload_crc | payload
//            (payload = u64 seq | u8 op kind | K key | V value)
//
// Appends are two-phase to support group commit: log() assigns the next
// sequence number and buffers the record under the mutex; sync(seq)
// makes everything up to seq durable with ONE write+fsync for however
// many records accumulated — concurrent committers elect a leader, the
// rest park on a condvar until the leader's fsync covers their seq.
// This is the batch-cut-boundary group commit: a driver bulk run logs
// its whole mutation slice with one sync() call.
//
// A crash mid-append leaves a torn tail: a record whose frame or payload
// is short or whose CRC does not match. WalReader::scan() stops at the
// first such record and reports the byte offset of the last good one;
// recovery truncates there and the log keeps working — a torn tail is
// the EXPECTED crash artifact, never a reason to refuse startup.
//
// Failure stickiness: any IO error or injected fault (wal.append /
// wal.fsync sites) marks the log failed(); every later log()/sync()
// call fails fast. The driver maps that to sticky read-only mode —
// mutations shed kReadOnly, reads keep serving.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ops.hpp"
#include "store/format.hpp"

namespace pwss::store {

inline constexpr char kWalMagic[8] = {'P', 'W', 'S', 'S', 'W', 'A', 'L', '1'};
inline constexpr std::uint32_t kWalVersion = 1;

struct WalHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_crc;  // CRC of the header with this field zeroed
  std::uint64_t start_seq;   // first record in this file has seq > this
};
static_assert(std::is_trivially_copyable_v<WalHeader>);

namespace detail {
inline std::uint32_t wal_header_crc(WalHeader h) {
  h.header_crc = 0;
  return crc32(&h, sizeof(h));
}
}  // namespace detail

/// One logical WAL record, as scanned back by WalReader.
template <typename K, typename V>
struct WalRecord {
  std::uint64_t seq;
  core::OpType kind;  // kInsert / kUpsert / kErase
  K key;
  V value;  // V{} for erases
};

template <typename K, typename V>
class Wal {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

 public:
  static constexpr std::size_t kPayloadBytes = 8 + 1 + sizeof(K) + sizeof(V);
  static constexpr std::size_t kRecordBytes = 8 + kPayloadBytes;

  /// Flush threshold for async mode: buffered record bytes are handed to
  /// the kernel once this much accumulates (or on sync()/close).
  static constexpr std::size_t kAsyncFlushBytes = 64 * 1024;

  Wal() = default;

  /// Opens (or creates) the log at `path` for appending. `last_seq` is
  /// the highest sequence number already recovered from this file —
  /// appends continue after it. `valid_bytes` is the verified length
  /// from WalReader::scan(); anything beyond it (a torn tail) is
  /// truncated away here. For a fresh log pass last_seq = start_seq and
  /// valid_bytes = 0.
  void open(const std::string& path, std::uint64_t start_seq,
            std::uint64_t last_seq, std::uint64_t valid_bytes) {
    path_ = path;
    if (valid_bytes == 0) {
      fd_ = Fd(path, O_WRONLY | O_CREAT | O_TRUNC);
      WalHeader h{};
      std::memcpy(h.magic, kWalMagic, sizeof(h.magic));
      h.version = kWalVersion;
      h.start_seq = start_seq;
      h.header_crc = detail::wal_header_crc(h);
      fd_.write_all(&h, sizeof(h));
      fd_.fsync_all();
      fsync_dir_of(path);
    } else {
      fd_ = Fd(path, O_WRONLY);
      if (fd_.size() > valid_bytes) {
        fd_.truncate(valid_bytes);  // drop the torn tail for good
        fd_.fsync_all();
      }
      if (::lseek(fd_.get(), static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
        throw_errno("lseek " + path);
      }
    }
    last_seq_ = last_seq;
    synced_seq_ = last_seq;
    failed_ = false;
    buf_.clear();
    buf_first_seq_ = 0;
  }

  bool is_open() const noexcept { return fd_.valid(); }
  const std::string& path() const noexcept { return path_; }

  /// Sticky failure flag: true once any append/flush/fsync failed. The
  /// log never recovers in-process — the driver degrades to read-only.
  bool failed() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return failed_;
  }

  std::uint64_t last_seq() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return last_seq_;
  }
  std::uint64_t synced_seq() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return synced_seq_;
  }

  std::uint64_t appends() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return appends_;
  }
  std::uint64_t fsyncs() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return fsyncs_;
  }

  /// Phase one: assigns the next sequence number and buffers the record.
  /// Throws StoreError on injected append failure or if the log already
  /// failed. Durable only after sync() covers the returned seq (or, in
  /// async mode, on a best-effort flush).
  std::uint64_t log(core::OpType kind, const K& key, const V& value) {
    std::unique_lock<std::mutex> lk(mu_);
    if (failed_) throw StoreError("wal failed earlier: " + path_);
    if (PWSS_FAULT_POINT("wal.append")) {
      fail_locked();
      throw StoreError("wal append failed (injected): " + path_);
    }
    const std::uint64_t seq = ++last_seq_;
    if (buf_.empty()) buf_first_seq_ = seq;
    encode_record(buf_, seq, kind, key, value);
    ++appends_;
    return seq;
  }

  /// Phase two: everything up to `seq` is on disk when this returns
  /// (group commit — one leader writes and fsyncs for every parked
  /// committer). Throws StoreError if durability could not be achieved.
  void sync(std::uint64_t seq) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (synced_seq_ >= seq) return;
      if (failed_) throw StoreError("wal failed: " + path_);
      if (!leader_active_) break;
      follower_cv_.wait(lk);
    }
    // Leader: take the buffered records, write+fsync outside the lock.
    leader_active_ = true;
    std::vector<char> batch;
    batch.swap(buf_);
    const std::uint64_t batch_last = last_seq_;
    lk.unlock();
    // Batch taken, lock dropped: later records miss this round, and their
    // committers park on it or lead the next one.
    PWSS_SCHED_POINT("wal.sync.leader_unlocked");

    bool ok = true;
    std::string error;
    try {
      write_batch(batch);
      PWSS_CRASH_POINT("wal.commit.after_write");
      if (PWSS_FAULT_POINT("wal.fsync")) {
        throw StoreError("wal fsync failed (injected): " + path_);
      }
      fd_.fsync_all();
      PWSS_CRASH_POINT("wal.commit.after_fsync");
    } catch (const StoreError& e) {
      ok = false;
      error = e.what();
    }

    lk.lock();
    leader_active_ = false;
    if (ok) {
      synced_seq_ = batch_last;
      ++fsyncs_;
    } else {
      fail_locked();
    }
    follower_cv_.notify_all();
    if (!ok) throw StoreError(error);
    if (synced_seq_ < seq) {
      // Records appended after our leadership window; rare — recurse
      // once (the next leader round covers them).
      lk.unlock();
      sync(seq);
    }
  }

  /// Best-effort flush of buffered records to the kernel without an
  /// fsync — the async-mode durability level. Errors mark the log
  /// failed and throw.
  void flush() {
    std::unique_lock<std::mutex> lk(mu_);
    if (buf_.empty()) return;
    if (failed_) throw StoreError("wal failed: " + path_);
    std::vector<char> batch;
    batch.swap(buf_);
    try {
      write_batch(batch);
    } catch (const StoreError&) {
      fail_locked();
      throw;
    }
  }

  /// True when async mode should flush now (buffered bytes crossed the
  /// threshold). Callers outside the lock use this to keep the common
  /// log() path cheap.
  bool wants_flush() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return buf_.size() >= kAsyncFlushBytes;
  }

  /// Log rotation after a checkpoint: atomically replaces the file with
  /// a fresh, empty log whose start_seq is the snapshot's seq. Requires
  /// the caller to have quiesced appends (the checkpoint holds the
  /// driver's writer gate).
  void rotate(std::uint64_t start_seq) {
    std::unique_lock<std::mutex> lk(mu_);
    if (failed_) throw StoreError("wal failed: " + path_);
    const std::string tmp = path_ + ".tmp";
    {
      Fd nf(tmp, O_WRONLY | O_CREAT | O_TRUNC);
      WalHeader h{};
      std::memcpy(h.magic, kWalMagic, sizeof(h.magic));
      h.version = kWalVersion;
      h.start_seq = start_seq;
      h.header_crc = detail::wal_header_crc(h);
      nf.write_all(&h, sizeof(h));
      nf.fsync_all();
      if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        throw_errno("rename " + tmp + " -> " + path_);
      }
      fsync_dir_of(path_);
      fd_ = std::move(nf);  // appends continue into the fresh file
    }
    buf_.clear();
    last_seq_ = start_seq;
    synced_seq_ = start_seq;
  }

  void close() {
    std::unique_lock<std::mutex> lk(mu_);
    if (!fd_.valid()) return;
    if (!failed_ && !buf_.empty()) {
      std::vector<char> batch;
      batch.swap(buf_);
      try {
        write_batch(batch);
        fd_.fsync_all();
        synced_seq_ = last_seq_;
      } catch (const StoreError&) {
        fail_locked();
      }
    }
    fd_.reset();
  }

 private:
  static void encode_record(std::vector<char>& out, std::uint64_t seq,
                            core::OpType kind, const K& key, const V& value) {
    char payload[kPayloadBytes];
    std::memcpy(payload, &seq, 8);
    payload[8] = static_cast<char>(kind);
    std::memcpy(payload + 9, &key, sizeof(K));
    std::memcpy(payload + 9 + sizeof(K), &value, sizeof(V));
    const std::uint32_t len = kPayloadBytes;
    const std::uint32_t crc = crc32(payload, kPayloadBytes);
    const std::size_t off = out.size();
    out.resize(off + kRecordBytes);
    std::memcpy(out.data() + off, &len, 4);
    std::memcpy(out.data() + off + 4, &crc, 4);
    std::memcpy(out.data() + off + 8, payload, kPayloadBytes);
  }

  /// One kernel write of a record batch, with the crash points that
  /// model power loss before / halfway through the write. On the armed
  /// wal.write.partial hit, half the batch's bytes reach the file and the
  /// process dies: a deterministic torn tail. Every other hit writes the
  /// whole batch (a surviving half-write would corrupt the log in a way
  /// the real fault never could).
  void write_batch(const std::vector<char>& batch) {
    if (batch.empty()) return;
    PWSS_CRASH_POINT("wal.append.before");
    if (PWSS_CRASH_DUE("wal.write.partial")) {
      const std::size_t half = batch.size() / 2;
      fd_.write_all(batch.data(), half == 0 ? 1 : half);
      util::sites::die();
    }
    fd_.write_all(batch.data(), batch.size());
  }

  void fail_locked() noexcept { failed_ = true; }

  mutable std::mutex mu_;
  std::condition_variable follower_cv_;
  Fd fd_;
  std::string path_;
  std::vector<char> buf_;            // encoded-but-unwritten records
  std::uint64_t buf_first_seq_ = 0;  // seq of buf_'s first record
  std::uint64_t last_seq_ = 0;       // highest assigned seq
  std::uint64_t synced_seq_ = 0;     // highest fsync-covered seq
  bool leader_active_ = false;
  bool failed_ = false;
  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
};

/// Scans a WAL file, verifying every record; stops (without error) at
/// the first torn/corrupt record. Used by recovery and by the torn-tail
/// property tests.
template <typename K, typename V>
class WalReader {
 public:
  struct Scanned {
    std::uint64_t start_seq = 0;
    std::vector<WalRecord<K, V>> records;  // ascending, verified
    std::uint64_t valid_bytes = 0;  // file prefix covered by good records
    bool torn_tail = false;         // trailing garbage was present
    bool missing_or_empty = false;  // no file / torn header: fresh log
  };

  static Scanned scan(const std::string& path) {
    Scanned out;
    if (!file_exists(path)) {
      out.missing_or_empty = true;
      return out;
    }
    Fd fd(path, O_RDONLY);
    WalHeader h{};
    if (fd.read_some(&h, sizeof(h)) != sizeof(h)) {
      // Crash during creation before the header landed: treat the file
      // as absent — recovery recreates it.
      out.missing_or_empty = true;
      out.torn_tail = fd.size() != 0;
      return out;
    }
    if (std::memcmp(h.magic, kWalMagic, sizeof(h.magic)) != 0) {
      throw StoreError("wal bad magic: " + path);
    }
    if (h.version != kWalVersion) {
      throw StoreError("wal unsupported version " + std::to_string(h.version) +
                       ": " + path);
    }
    if (h.header_crc != detail::wal_header_crc(h)) {
      throw StoreError("wal header checksum mismatch: " + path);
    }
    out.start_seq = h.start_seq;
    out.valid_bytes = sizeof(h);

    constexpr std::size_t kPayloadBytes = Wal<K, V>::kPayloadBytes;
    std::uint64_t prev_seq = h.start_seq;
    const std::uint64_t file_size = fd.size();
    char payload[kPayloadBytes];
    for (;;) {
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      if (fd.read_some(&len, 4) != 4 || fd.read_some(&crc, 4) != 4) break;
      if (len != kPayloadBytes) break;  // torn or foreign frame
      if (fd.read_some(payload, kPayloadBytes) != kPayloadBytes) break;
      if (crc32(payload, kPayloadBytes) != crc) break;
      WalRecord<K, V> rec;
      std::memcpy(&rec.seq, payload, 8);
      const auto kind = static_cast<core::OpType>(payload[8]);
      if (!core::is_mutation(kind)) break;   // corrupt kind byte
      if (rec.seq != prev_seq + 1) break;    // seq gap: corrupt record
      rec.kind = kind;
      std::memcpy(&rec.key, payload + 9, sizeof(K));
      std::memcpy(&rec.value, payload + 9 + sizeof(K), sizeof(V));
      out.records.push_back(rec);
      out.valid_bytes += 8 + kPayloadBytes;
      prev_seq = rec.seq;
    }
    out.torn_tail = out.valid_bytes < file_size;
    return out;
  }
};

}  // namespace pwss::store
