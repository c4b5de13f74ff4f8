#pragma once
// Checkpoint files (DESIGN.md "Durability & recovery"). A snapshot is
// the sorted contents of one map instance at a known WAL sequence
// number, serialized as:
//
//   header   "PWSSSNP1" | u32 version | u32 header_crc | u64 seq
//            | u64 count | u32 sizeof(K) | u32 sizeof(V)
//   blocks   u32 payload_len | u32 payload_crc | payload
//            (payload = packed K,V entry pairs, ascending key order,
//             at most kEntriesPerBlock entries per block)
//
// The writer reads the map through the backend's sorted-export surface
// (export_entries — for the working-set maps, core::export_ladder's
// in-order walk of every segment, then one key sort), streams blocks into
// <dir>/snapshot.tmp, fsyncs, renames over <dir>/snapshot, and fsyncs the
// directory: a crash anywhere in the sequence leaves either the complete
// old snapshot or the complete new one, never a half-file under the live
// name. The loader verifies the header and every block CRC and returns
// the sorted entries, which recovery replays as sorted upsert batches
// (store/recovery.hpp); any mismatch throws StoreError — a snapshot is
// trusted ground truth for recovery, so corruption there refuses
// service rather than guessing (unlike the WAL tail, which is truncated).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/format.hpp"

namespace pwss::store {

inline constexpr char kSnapshotMagic[8] = {'P', 'W', 'S', 'S',
                                           'S', 'N', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::size_t kEntriesPerBlock = 1024;

struct SnapshotHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_crc;  // CRC of the header with this field zeroed
  std::uint64_t seq;         // every op with seq <= this is reflected
  std::uint64_t count;       // entries across all blocks
  std::uint32_t key_size;
  std::uint32_t value_size;
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

namespace detail {
inline std::uint32_t header_crc(SnapshotHeader h) {
  h.header_crc = 0;
  return crc32(&h, sizeof(h));
}
}  // namespace detail

template <typename K, typename V>
class SnapshotWriter {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

 public:
  /// Writes `entries` (ascending key order) as the snapshot at `path`,
  /// atomically replacing any previous snapshot there. Throws StoreError
  /// on IO failure or injected fault — the caller (Durability) turns
  /// that into sticky read-only mode.
  static void write(const std::string& path, std::uint64_t seq,
                    const std::vector<std::pair<K, V>>& entries) {
    const std::string tmp = path + ".tmp";
    {
      Fd fd(tmp, O_WRONLY | O_CREAT | O_TRUNC);
      SnapshotHeader h{};
      std::memcpy(h.magic, kSnapshotMagic, sizeof(h.magic));
      h.version = kSnapshotVersion;
      h.seq = seq;
      h.count = entries.size();
      h.key_size = sizeof(K);
      h.value_size = sizeof(V);
      h.header_crc = detail::header_crc(h);
      if (PWSS_FAULT_POINT("snapshot.write")) {
        throw StoreError("snapshot write failed (injected): " + tmp);
      }
      fd.write_all(&h, sizeof(h));

      constexpr std::size_t kEntryBytes = sizeof(K) + sizeof(V);
      std::vector<char> payload;
      payload.reserve(kEntriesPerBlock * kEntryBytes);
      std::size_t i = 0;
      std::size_t block_index = 0;
      while (i < entries.size()) {
        payload.clear();
        const std::size_t end =
            std::min(entries.size(), i + kEntriesPerBlock);
        for (; i < end; ++i) {
          const std::size_t off = payload.size();
          payload.resize(off + kEntryBytes);
          std::memcpy(payload.data() + off, &entries[i].first, sizeof(K));
          std::memcpy(payload.data() + off + sizeof(K), &entries[i].second,
                      sizeof(V));
        }
        const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
        const std::uint32_t crc = crc32(payload.data(), payload.size());
        fd.write_all(&len, sizeof(len));
        fd.write_all(&crc, sizeof(crc));
        // The torn-snapshot crash point: die after the frame of the
        // second block but before its payload — the .tmp file is
        // mid-body, the live snapshot name untouched.
        if (block_index == 1) PWSS_CRASH_POINT("snapshot.write.partial");
        fd.write_all(payload.data(), payload.size());
        ++block_index;
      }
      fd.fsync_all();
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      throw_errno("rename " + tmp + " -> " + path);
    }
    fsync_dir_of(path);
    PWSS_CRASH_POINT("snapshot.after_rename");
  }
};

template <typename K, typename V>
class SnapshotReader {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

 public:
  struct Loaded {
    std::uint64_t seq = 0;
    std::vector<std::pair<K, V>> entries;  // ascending key order
  };

  /// Loads and fully verifies the snapshot at `path`. Throws StoreError
  /// with a precise description on any header/CRC/length mismatch.
  static Loaded load(const std::string& path) {
    Fd fd(path, O_RDONLY);
    SnapshotHeader h{};
    if (fd.read_some(&h, sizeof(h)) != sizeof(h)) {
      throw StoreError("snapshot truncated in header: " + path);
    }
    if (std::memcmp(h.magic, kSnapshotMagic, sizeof(h.magic)) != 0) {
      throw StoreError("snapshot bad magic: " + path);
    }
    if (h.version != kSnapshotVersion) {
      throw StoreError("snapshot unsupported version " +
                       std::to_string(h.version) + ": " + path);
    }
    if (h.header_crc != detail::header_crc(h)) {
      throw StoreError("snapshot header checksum mismatch: " + path);
    }
    if (h.key_size != sizeof(K) || h.value_size != sizeof(V)) {
      throw StoreError("snapshot key/value size mismatch (file " +
                       std::to_string(h.key_size) + "/" +
                       std::to_string(h.value_size) + ", expected " +
                       std::to_string(sizeof(K)) + "/" +
                       std::to_string(sizeof(V)) + "): " + path);
    }

    constexpr std::size_t kEntryBytes = sizeof(K) + sizeof(V);
    Loaded out;
    out.seq = h.seq;
    out.entries.reserve(h.count);
    std::vector<char> payload;
    while (out.entries.size() < h.count) {
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      if (fd.read_some(&len, sizeof(len)) != sizeof(len) ||
          fd.read_some(&crc, sizeof(crc)) != sizeof(crc)) {
        throw StoreError("snapshot truncated at block frame (" +
                         std::to_string(out.entries.size()) + "/" +
                         std::to_string(h.count) + " entries): " + path);
      }
      if (len % kEntryBytes != 0 ||
          len / kEntryBytes > kEntriesPerBlock) {
        throw StoreError("snapshot bad block length " + std::to_string(len) +
                         ": " + path);
      }
      payload.resize(len);
      if (fd.read_some(payload.data(), len) != len) {
        throw StoreError("snapshot truncated in block payload: " + path);
      }
      if (crc32(payload.data(), len) != crc) {
        throw StoreError("snapshot block checksum mismatch at entry " +
                         std::to_string(out.entries.size()) + ": " + path);
      }
      for (std::size_t off = 0; off < len; off += kEntryBytes) {
        K k;
        V v;
        std::memcpy(&k, payload.data() + off, sizeof(K));
        std::memcpy(&v, payload.data() + off + sizeof(K), sizeof(V));
        out.entries.emplace_back(k, v);
      }
    }
    for (std::size_t i = 1; i < out.entries.size(); ++i) {
      if (!(out.entries[i - 1].first < out.entries[i].first)) {
        throw StoreError("snapshot entries out of order at index " +
                         std::to_string(i) + ": " + path);
      }
    }
    return out;
  }
};

}  // namespace pwss::store
