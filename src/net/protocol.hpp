#pragma once
// Wire protocol of the network serving layer (DESIGN.md "Network serving
// layer") — the small length-prefixed, CRC-framed binary protocol spoken
// between net::Server and net::Client over TCP or a Unix-domain socket.
//
// Frame grammar (all integers native-endian, like the store/ formats —
// the handshake magic doubles as the endianness check: a peer with the
// other byte order reads a reversed magic and is refused cleanly):
//
//   frame    := len:u32 crc:u32 payload[len]     crc = CRC32(payload)
//   payload  := hello | welcome | request | response | error | goodbye
//   hello    := 0x01 magic:u32 version:u32
//   welcome  := 0x02 magic:u32 version:u32 flags:u8 window:u32
//               name_len:u16 name[name_len]      flags = kWelcomeFlags
//   request  := 0x03 req_id:u64 op:u8 key:u64 key2:u64 value:u64
//               timeout_ns:u64                   timeout relative, 0 = none
//   response := 0x04 req_id:u64 status:u8 flags:u8 value:u64
//               matched_key:u64 count:u64        flags bit0 = has value,
//                                                bit1 = has matched_key
//   error    := 0x05 msg_len:u16 msg[msg_len]    sender closes after this
//   goodbye  := 0x06                             no more requests follow
//
// The handshake is one round trip: the client's first frame must be a
// hello with matching magic and version; the server answers welcome
// (carrying its per-connection pipeline window and the backend name) or
// error + close. After the handshake the
// client pipelines request frames; responses may arrive OUT OF ORDER and
// are matched by the client-assigned req_id — the completion-driven
// server fulfills whichever ops finish first.
//
// Keys and values are fixed at u64 on the wire — the K/V every bench,
// test, and example in this repo instantiates. Timeouts travel as
// RELATIVE nanoseconds (clocks are not assumed shared); the server
// re-anchors them onto its own core::now_ns() clock at receipt.
//
// Status codes are STABLE WIRE VALUES, decoupled from the in-memory
// ResultStatus enum ordering: execution statuses live in 0x0x, terminal
// error statuses in 0x1x, and a value is never reused or renumbered (the
// both-directions table test in tests/net_protocol_test.cpp pins them).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/ops.hpp"
#include "store/format.hpp"  // crc32

namespace pwss::net {

/// The one key/value shape the wire carries (see header comment).
using Key = std::uint64_t;
using Value = std::uint64_t;
using WireOp = core::Op<Key, Value>;
using WireResult = core::Result<Value, Key>;

inline constexpr std::uint32_t kMagic = 0x4E535750u;  // "PWSN" little-endian
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Frame payload ceiling: anything larger is a protocol error, refused
/// before allocation (a 4GiB length prefix must not become a 4GiB read).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 8;  // len:u32 + crc:u32

enum class MsgType : std::uint8_t {
  kHello = 0x01,
  kWelcome = 0x02,
  kRequest = 0x03,
  kResponse = 0x04,
  kError = 0x05,
  kGoodbye = 0x06,
};

// ---- stable wire codes -------------------------------------------------------

/// ResultStatus on the wire. Values are part of the protocol: stable
/// across releases, never renumbered. 0x0x = the op executed; 0x1x = a
/// terminal error status (the op did NOT execute).
enum class WireStatus : std::uint8_t {
  kNotFound = 0x00,
  kFound = 0x01,
  kInserted = 0x02,
  kUpdated = 0x03,
  kErased = 0x04,
  kOverloaded = 0x10,
  kTimedOut = 0x11,
  kCancelled = 0x12,
  // 0x13 is retired: it was kUnsupported, a backend refusing the ordered
  // kinds. Every backend runs them now; the byte must never be reused.
  kReadOnly = 0x14,
};

constexpr WireStatus to_wire(core::ResultStatus s) noexcept {
  switch (s) {
    case core::ResultStatus::kNotFound:
      return WireStatus::kNotFound;
    case core::ResultStatus::kFound:
      return WireStatus::kFound;
    case core::ResultStatus::kInserted:
      return WireStatus::kInserted;
    case core::ResultStatus::kUpdated:
      return WireStatus::kUpdated;
    case core::ResultStatus::kErased:
      return WireStatus::kErased;
    case core::ResultStatus::kOverloaded:
      return WireStatus::kOverloaded;
    case core::ResultStatus::kTimedOut:
      return WireStatus::kTimedOut;
    case core::ResultStatus::kCancelled:
      return WireStatus::kCancelled;
    case core::ResultStatus::kReadOnly:
      return WireStatus::kReadOnly;
  }
  return WireStatus::kCancelled;  // unreachable for in-range enums
}

/// Wire byte -> ResultStatus; nullopt for bytes this version does not
/// know (a FUTURE status must surface as a client-side protocol error,
/// never be misread as a nearby status).
constexpr std::optional<core::ResultStatus> status_from_wire(
    std::uint8_t b) noexcept {
  switch (static_cast<WireStatus>(b)) {
    case WireStatus::kNotFound:
      return core::ResultStatus::kNotFound;
    case WireStatus::kFound:
      return core::ResultStatus::kFound;
    case WireStatus::kInserted:
      return core::ResultStatus::kInserted;
    case WireStatus::kUpdated:
      return core::ResultStatus::kUpdated;
    case WireStatus::kErased:
      return core::ResultStatus::kErased;
    case WireStatus::kOverloaded:
      return core::ResultStatus::kOverloaded;
    case WireStatus::kTimedOut:
      return core::ResultStatus::kTimedOut;
    case WireStatus::kCancelled:
      return core::ResultStatus::kCancelled;
    case WireStatus::kReadOnly:
      return core::ResultStatus::kReadOnly;
  }
  return std::nullopt;
}

/// OpType on the wire — same stability contract as WireStatus.
enum class WireOpType : std::uint8_t {
  kSearch = 0x01,
  kInsert = 0x02,
  kErase = 0x03,
  kUpsert = 0x04,
  kPredecessor = 0x05,
  kSuccessor = 0x06,
  kRangeCount = 0x07,
};

constexpr WireOpType to_wire(core::OpType t) noexcept {
  switch (t) {
    case core::OpType::kSearch:
      return WireOpType::kSearch;
    case core::OpType::kInsert:
      return WireOpType::kInsert;
    case core::OpType::kErase:
      return WireOpType::kErase;
    case core::OpType::kUpsert:
      return WireOpType::kUpsert;
    case core::OpType::kPredecessor:
      return WireOpType::kPredecessor;
    case core::OpType::kSuccessor:
      return WireOpType::kSuccessor;
    case core::OpType::kRangeCount:
      return WireOpType::kRangeCount;
  }
  return WireOpType::kSearch;  // unreachable for in-range enums
}

constexpr std::optional<core::OpType> op_from_wire(std::uint8_t b) noexcept {
  switch (static_cast<WireOpType>(b)) {
    case WireOpType::kSearch:
      return core::OpType::kSearch;
    case WireOpType::kInsert:
      return core::OpType::kInsert;
    case WireOpType::kErase:
      return core::OpType::kErase;
    case WireOpType::kUpsert:
      return core::OpType::kUpsert;
    case WireOpType::kPredecessor:
      return core::OpType::kPredecessor;
    case WireOpType::kSuccessor:
      return core::OpType::kSuccessor;
    case WireOpType::kRangeCount:
      return core::OpType::kRangeCount;
  }
  return std::nullopt;
}

// ---- POD append/read helpers -------------------------------------------------

namespace detail {

template <typename T>
void put(std::vector<std::uint8_t>& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

/// Bounds-checked sequential reader over one frame payload. Every get<>()
/// returns false past the end instead of reading out of bounds — a short
/// (truncated) payload is a protocol error, not UB.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  explicit Cursor(std::string_view payload)
      : p(reinterpret_cast<const std::uint8_t*>(payload.data())),
        left(payload.size()) {}

  template <typename T>
  bool get(T& out) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left < sizeof(T)) return false;
    std::memcpy(&out, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }

  bool get_bytes(std::string& out, std::size_t n) {
    if (left < n) return false;
    out.assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }

  bool exhausted() const noexcept { return left == 0; }
};

}  // namespace detail

// ---- frame encoding ----------------------------------------------------------

/// Appends one framed payload (header + body) to `out`. `build` appends
/// the payload bytes to the buffer it is given; the header (length + CRC)
/// is back-patched around whatever it wrote.
template <typename BuildFn>
void append_frame(std::vector<std::uint8_t>& out, BuildFn&& build) {
  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderBytes);
  build(out);
  const std::size_t payload_at = header_at + kFrameHeaderBytes;
  const std::uint32_t len = static_cast<std::uint32_t>(out.size() - payload_at);
  const std::uint32_t crc = store::crc32(out.data() + payload_at, len);
  std::memcpy(out.data() + header_at, &len, sizeof(len));
  std::memcpy(out.data() + header_at + sizeof(len), &crc, sizeof(crc));
}

inline void encode_hello(std::vector<std::uint8_t>& out) {
  append_frame(out, [](std::vector<std::uint8_t>& b) {
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(MsgType::kHello));
    detail::put<std::uint32_t>(b, kMagic);
    detail::put<std::uint32_t>(b, kProtocolVersion);
  });
}

/// The welcome's flags byte. Bit 0 once marked a backend that runs the
/// ordered kinds; every backend does now, so the server always sets it
/// (peers that still check it keep sending ordered ops) and readers
/// ignore the byte.
inline constexpr std::uint8_t kWelcomeFlags = 1;

struct Welcome {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t window = 0;  ///< server's per-connection pipeline window
  std::string backend;       ///< registry name the server is exposing
};

inline void encode_welcome(std::vector<std::uint8_t>& out, const Welcome& w) {
  append_frame(out, [&](std::vector<std::uint8_t>& b) {
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(MsgType::kWelcome));
    detail::put<std::uint32_t>(b, kMagic);
    detail::put<std::uint32_t>(b, w.version);
    detail::put<std::uint8_t>(b, kWelcomeFlags);
    detail::put<std::uint32_t>(b, w.window);
    detail::put<std::uint16_t>(b, static_cast<std::uint16_t>(w.backend.size()));
    for (const char c : w.backend) {
      detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(c));
    }
  });
}

/// One request as carried on the wire: the op plus the client-assigned id
/// responses are matched by. The deadline travels relative (`timeout_ns`).
struct Request {
  std::uint64_t req_id = 0;
  core::OpType op = core::OpType::kSearch;
  Key key = 0;
  Key key2 = 0;
  Value value = 0;
  std::uint64_t timeout_ns = 0;  ///< relative; 0 = no deadline
};

inline void encode_request(std::vector<std::uint8_t>& out, const Request& r) {
  append_frame(out, [&](std::vector<std::uint8_t>& b) {
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(MsgType::kRequest));
    detail::put<std::uint64_t>(b, r.req_id);
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(to_wire(r.op)));
    detail::put<std::uint64_t>(b, r.key);
    detail::put<std::uint64_t>(b, r.key2);
    detail::put<std::uint64_t>(b, r.value);
    detail::put<std::uint64_t>(b, r.timeout_ns);
  });
}

inline constexpr std::uint8_t kRespHasValue = 1u << 0;
inline constexpr std::uint8_t kRespHasMatchedKey = 1u << 1;

inline void encode_response(std::vector<std::uint8_t>& out,
                            std::uint64_t req_id, const WireResult& r) {
  append_frame(out, [&](std::vector<std::uint8_t>& b) {
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(MsgType::kResponse));
    detail::put<std::uint64_t>(b, req_id);
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(to_wire(r.status)));
    std::uint8_t flags = 0;
    if (r.value.has_value()) flags |= kRespHasValue;
    if (r.matched_key.has_value()) flags |= kRespHasMatchedKey;
    detail::put<std::uint8_t>(b, flags);
    detail::put<std::uint64_t>(b, r.value.value_or(0));
    detail::put<std::uint64_t>(b, r.matched_key.value_or(0));
    detail::put<std::uint64_t>(b, r.count);
  });
}

inline void encode_error(std::vector<std::uint8_t>& out, std::string_view msg) {
  if (msg.size() > 512) msg = msg.substr(0, 512);
  append_frame(out, [&](std::vector<std::uint8_t>& b) {
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(MsgType::kError));
    detail::put<std::uint16_t>(b, static_cast<std::uint16_t>(msg.size()));
    for (const char c : msg) {
      detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(c));
    }
  });
}

inline void encode_goodbye(std::vector<std::uint8_t>& out) {
  append_frame(out, [](std::vector<std::uint8_t>& b) {
    detail::put<std::uint8_t>(b, static_cast<std::uint8_t>(MsgType::kGoodbye));
  });
}

// ---- frame decoding ----------------------------------------------------------

/// Why a peer was refused — the closed set of protocol errors both ends
/// report (and the frame fuzzer asserts are detected, never UB).
enum class ProtoError : std::uint8_t {
  kNone = 0,
  kOversized,     ///< length prefix beyond kMaxFrameBytes
  kBadCrc,        ///< payload checksum mismatch
  kBadMagic,      ///< hello with a foreign magic
  kBadVersion,    ///< hello with an unsupported version
  kMalformed,     ///< truncated / trailing bytes / unknown message type
  kUnexpected,    ///< well-formed message illegal in this state
};

constexpr std::string_view to_string(ProtoError e) noexcept {
  switch (e) {
    case ProtoError::kNone:
      return "ok";
    case ProtoError::kOversized:
      return "oversized frame";
    case ProtoError::kBadCrc:
      return "frame CRC mismatch";
    case ProtoError::kBadMagic:
      return "bad magic";
    case ProtoError::kBadVersion:
      return "unsupported protocol version";
    case ProtoError::kMalformed:
      return "malformed message";
    case ProtoError::kUnexpected:
      return "unexpected message in this state";
  }
  return "?";
}

/// Incremental frame extractor over a connection's receive buffer: bytes
/// arrive in arbitrary chunks (TCP guarantees nothing about boundaries),
/// next() peels one complete verified payload at a time and reports the
/// first protocol error it proves. The buffer is compacted lazily.
class FrameReader {
 public:
  void feed(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  /// One complete, CRC-verified payload (view into the internal buffer —
  /// valid until the next feed()/next() call), or nullopt when more bytes
  /// are needed or an error was detected (check error()).
  std::optional<std::string_view> next() {
    if (err_ != ProtoError::kNone) return std::nullopt;
    compact();
    if (buf_.size() - pos_ < kFrameHeaderBytes) return std::nullopt;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, buf_.data() + pos_, sizeof(len));
    std::memcpy(&crc, buf_.data() + pos_ + sizeof(len), sizeof(crc));
    if (len > kMaxFrameBytes) {
      err_ = ProtoError::kOversized;
      return std::nullopt;
    }
    if (buf_.size() - pos_ - kFrameHeaderBytes < len) return std::nullopt;
    const char* payload =
        reinterpret_cast<const char*>(buf_.data() + pos_ + kFrameHeaderBytes);
    if (store::crc32(payload, len) != crc) {
      err_ = ProtoError::kBadCrc;
      return std::nullopt;
    }
    pos_ += kFrameHeaderBytes + len;
    return std::string_view(payload, len);
  }

  ProtoError error() const noexcept { return err_; }
  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  void compact() {
    if (pos_ == 0) return;
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  ProtoError err_ = ProtoError::kNone;
};

/// Parses a payload's leading message-type byte; nullopt when empty or
/// unknown (kMalformed either way).
inline std::optional<MsgType> peek_type(std::string_view payload) noexcept {
  if (payload.empty()) return std::nullopt;
  const auto b = static_cast<std::uint8_t>(payload[0]);
  if (b < static_cast<std::uint8_t>(MsgType::kHello) ||
      b > static_cast<std::uint8_t>(MsgType::kGoodbye)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(b);
}

/// Decodes a hello payload (type byte included); distinguishes bad magic
/// and bad version from truncation so the server can answer precisely.
inline ProtoError decode_hello(std::string_view payload) {
  detail::Cursor c(payload);
  std::uint8_t type = 0;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!c.get(type) || !c.get(magic) || !c.get(version) || !c.exhausted()) {
    return ProtoError::kMalformed;
  }
  if (magic != kMagic) return ProtoError::kBadMagic;
  if (version != kProtocolVersion) return ProtoError::kBadVersion;
  return ProtoError::kNone;
}

inline std::optional<Welcome> decode_welcome(std::string_view payload) {
  detail::Cursor c(payload);
  std::uint8_t type = 0;
  std::uint32_t magic = 0;
  Welcome w;
  std::uint8_t flags = 0;
  std::uint16_t name_len = 0;
  if (!c.get(type) || !c.get(magic) || !c.get(w.version) || !c.get(flags) ||
      !c.get(w.window) || !c.get(name_len) ||
      !c.get_bytes(w.backend, name_len) || !c.exhausted() ||
      magic != kMagic) {
    return std::nullopt;
  }
  return w;
}

inline std::optional<Request> decode_request(std::string_view payload) {
  detail::Cursor c(payload);
  std::uint8_t type = 0;
  std::uint8_t op = 0;
  Request r;
  if (!c.get(type) || !c.get(r.req_id) || !c.get(op) || !c.get(r.key) ||
      !c.get(r.key2) || !c.get(r.value) || !c.get(r.timeout_ns) ||
      !c.exhausted()) {
    return std::nullopt;
  }
  const std::optional<core::OpType> t = op_from_wire(op);
  if (!t) return std::nullopt;
  r.op = *t;
  return r;
}

struct Response {
  std::uint64_t req_id = 0;
  WireResult result;
};

inline std::optional<Response> decode_response(std::string_view payload) {
  detail::Cursor c(payload);
  std::uint8_t type = 0;
  std::uint8_t status = 0;
  std::uint8_t flags = 0;
  std::uint64_t value = 0;
  std::uint64_t matched_key = 0;
  Response r;
  if (!c.get(type) || !c.get(r.req_id) || !c.get(status) || !c.get(flags) ||
      !c.get(value) || !c.get(matched_key) || !c.get(r.result.count) ||
      !c.exhausted()) {
    return std::nullopt;
  }
  const std::optional<core::ResultStatus> s = status_from_wire(status);
  if (!s) return std::nullopt;
  r.result.status = *s;
  if ((flags & kRespHasValue) != 0) r.result.value = value;
  if ((flags & kRespHasMatchedKey) != 0) r.result.matched_key = matched_key;
  return r;
}

inline std::optional<std::string> decode_error(std::string_view payload) {
  detail::Cursor c(payload);
  std::uint8_t type = 0;
  std::uint16_t len = 0;
  std::string msg;
  if (!c.get(type) || !c.get(len) || !c.get_bytes(msg, len) ||
      !c.exhausted()) {
    return std::nullopt;
  }
  return msg;
}

/// The server-side request -> Op conversion: re-anchors the relative
/// timeout onto the local monotonic clock. A zero timeout stays "no
/// deadline" per the Op contract.
inline WireOp to_op(const Request& r) {
  WireOp op;
  op.type = r.op;
  op.key = r.key;
  op.key2 = r.key2;
  op.value = r.value;
  if (r.timeout_ns != 0) {
    op.deadline_ns = core::deadline_after(std::chrono::nanoseconds(
        static_cast<std::int64_t>(r.timeout_ns)));
  }
  return op;
}

}  // namespace pwss::net
