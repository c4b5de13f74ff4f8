#pragma once
// On-disk format primitives shared by the snapshot and WAL writers
// (DESIGN.md "Durability & recovery"): CRC32, length-prefixed framing
// helpers, and RAII POSIX file descriptors with explicit fsync. The
// persistence paths mark their crash sites with PWSS_CRASH_POINT
// (util/sites.hpp; site list in DESIGN.md "Named sites"), where the
// fork-based crash harness kills a child process at a byte-exact moment
// mid-write.
//
// Both file formats are native-endian and restrict K/V to trivially
// copyable types (the only kinds the backends instantiate today); a
// durability file is a recovery artifact for the machine that wrote it,
// not an interchange format. Every payload is guarded by a CRC32 so a
// torn write — the normal result of a crash mid-append — is detected,
// never misparsed.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/sites.hpp"

namespace pwss::store {

// ---- CRC32 (IEEE 802.3 polynomial, table-driven) -----------------------------

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();
}  // namespace detail

/// CRC32 of a byte range; chainable via the `seed` parameter (pass a
/// previous call's return value to continue a running checksum).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---- RAII fd + IO helpers ----------------------------------------------------

/// Thrown by the store layer on any unrecoverable IO or format error.
/// The driver catches it at the persistence boundary and degrades to
/// read-only (never crashes the serving path); recovery lets it
/// propagate (corrupt snapshot = refuse to serve).
struct StoreError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void throw_errno(const std::string& what) {
  throw StoreError(what + ": " + std::strerror(errno));
}

/// RAII POSIX file descriptor. All IO in the store layer goes through
/// plain write()/read()/fsync() — no stdio buffering between us and the
/// kernel, so "the write returned" and "the kernel has the bytes" are
/// the same event and the crash points sit at true durability edges.
class Fd {
 public:
  Fd() = default;
  Fd(const std::string& path, int flags, mode_t mode = 0644) {
    fd_ = ::open(path.c_str(), flags, mode);
    if (fd_ < 0) throw_errno("open " + path);
    path_ = path;
  }
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_), path_(std::move(o.path_)) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      path_ = std::move(o.path_);
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int get() const noexcept { return fd_; }
  const std::string& path() const noexcept { return path_; }

  void reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Full write or StoreError — short writes are retried (signals,
  /// pipes), a hard error throws with the target path.
  void write_all(const void* data, std::size_t len) {
    const auto* p = static_cast<const char*>(data);
    while (len > 0) {
      const ssize_t n = ::write(fd_, p, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write " + path_);
      }
      p += n;
      len -= static_cast<std::size_t>(n);
    }
  }

  /// Reads up to `len` bytes; returns the byte count actually read
  /// (short at EOF). Hard errors throw.
  std::size_t read_some(void* data, std::size_t len) {
    auto* p = static_cast<char*>(data);
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::read(fd_, p + got, len - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("read " + path_);
      }
      if (n == 0) break;  // EOF
      got += static_cast<std::size_t>(n);
    }
    return got;
  }

  void fsync_all() {
    if (::fsync(fd_) != 0) throw_errno("fsync " + path_);
  }

  std::uint64_t size() const {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) throw_errno("fstat " + path_);
    return static_cast<std::uint64_t>(st.st_size);
  }

  void truncate(std::uint64_t len) {
    if (::ftruncate(fd_, static_cast<off_t>(len)) != 0) {
      throw_errno("ftruncate " + path_);
    }
  }

 private:
  int fd_ = -1;
  std::string path_;
};

/// mkdir -p for the durability directory tree (one or two levels deep —
/// sharded drivers use dir/shard-N). EEXIST is success.
inline void ensure_dir(const std::string& path) {
  std::string prefix;
  std::size_t i = 0;
  while (i < path.size()) {
    std::size_t j = path.find('/', i + 1);
    if (j == std::string::npos) j = path.size();
    prefix = path.substr(0, j);
    if (!prefix.empty() && prefix != "/" &&
        ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw_errno("mkdir " + prefix);
    }
    i = j;
  }
}

/// fsyncs the directory holding `path` so a rename into it is durable.
inline void fsync_dir_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  Fd d(dir, O_RDONLY | O_DIRECTORY);
  d.fsync_all();
}

inline bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace pwss::store
