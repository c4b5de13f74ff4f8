// Wire-protocol unit tests (src/net/protocol.hpp) + the frame fuzzer of
// the robustness satellite: torn, oversized, bad-magic, bad-CRC, and
// bad-version frames against a LIVE server, asserting each bad peer is
// refused cleanly (an error frame, then close) while other connections
// keep being served — one hostile client never takes the server down.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ops.hpp"
#include "driver/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace {

using namespace pwss;
using net::FrameReader;
using net::MsgType;
using net::ProtoError;
using net::WireOp;
using net::WireResult;
using core::OpType;
using core::ResultStatus;

// ---- stable wire codes: the both-directions table test ----------------------

// The wire values are part of the protocol: renumbering one is a
// protocol break, so each is pinned HERE, independent of enum order.
TEST(WireCodes, StatusTableIsPinnedBothDirections) {
  const struct {
    ResultStatus mem;
    std::uint8_t wire;
  } table[] = {
      {ResultStatus::kNotFound, 0x00},  {ResultStatus::kFound, 0x01},
      {ResultStatus::kInserted, 0x02},  {ResultStatus::kUpdated, 0x03},
      {ResultStatus::kErased, 0x04},    {ResultStatus::kOverloaded, 0x10},
      {ResultStatus::kTimedOut, 0x11},  {ResultStatus::kCancelled, 0x12},
      {ResultStatus::kReadOnly, 0x14},
  };
  for (const auto& row : table) {
    EXPECT_EQ(static_cast<std::uint8_t>(net::to_wire(row.mem)), row.wire);
    const auto back = net::status_from_wire(row.wire);
    ASSERT_TRUE(back.has_value()) << "wire byte " << int(row.wire);
    EXPECT_EQ(*back, row.mem);
  }
  // Unknown bytes must be refused, never misread as a nearby status;
  // 0x13 (the retired kUnsupported) stays unassigned.
  for (const std::uint8_t bad : {0x05, 0x0F, 0x13, 0x15, 0x7F, 0xFF}) {
    EXPECT_FALSE(net::status_from_wire(bad).has_value())
        << "byte " << int(bad);
  }
}

TEST(WireCodes, OpTypeTableIsPinnedBothDirections) {
  const struct {
    OpType mem;
    std::uint8_t wire;
  } table[] = {
      {OpType::kSearch, 0x01},      {OpType::kInsert, 0x02},
      {OpType::kErase, 0x03},       {OpType::kUpsert, 0x04},
      {OpType::kPredecessor, 0x05}, {OpType::kSuccessor, 0x06},
      {OpType::kRangeCount, 0x07},
  };
  for (const auto& row : table) {
    EXPECT_EQ(static_cast<std::uint8_t>(net::to_wire(row.mem)), row.wire);
    const auto back = net::op_from_wire(row.wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, row.mem);
  }
  EXPECT_FALSE(net::op_from_wire(0x00).has_value());
  EXPECT_FALSE(net::op_from_wire(0x08).has_value());
  EXPECT_FALSE(net::op_from_wire(0xFF).has_value());
}

// Every status survives a response encode -> frame -> decode round trip
// exactly (the satellite's "client round-trips them exactly").
TEST(WireCodes, EveryStatusRoundTripsThroughResponseFrames) {
  for (const ResultStatus s :
       {ResultStatus::kNotFound, ResultStatus::kFound, ResultStatus::kInserted,
        ResultStatus::kUpdated, ResultStatus::kErased,
        ResultStatus::kOverloaded, ResultStatus::kTimedOut,
        ResultStatus::kCancelled, ResultStatus::kReadOnly}) {
    WireResult r;
    r.status = s;
    if (s == ResultStatus::kFound) {
      r.value = 42;
      r.matched_key = 7;
      r.count = 3;
    }
    std::vector<std::uint8_t> buf;
    net::encode_response(buf, 99, r);
    FrameReader reader;
    reader.feed(buf.data(), buf.size());
    const auto payload = reader.next();
    ASSERT_TRUE(payload.has_value());
    const auto resp = net::decode_response(*payload);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->req_id, 99u);
    EXPECT_EQ(resp->result.status, r.status);
    EXPECT_EQ(resp->result.value, r.value);
    EXPECT_EQ(resp->result.matched_key, r.matched_key);
    EXPECT_EQ(resp->result.count, r.count);
  }
}

// ---- encode/decode round trips ----------------------------------------------

TEST(Protocol, HandshakeFramesRoundTrip) {
  std::vector<std::uint8_t> buf;
  net::encode_hello(buf);
  net::Welcome w;
  w.window = 64;
  w.backend = "sharded:m1";
  const std::size_t welcome_at = buf.size();
  net::encode_welcome(buf, w);
  // The flags byte (after type, magic, version) keeps bit 0 set for peers
  // that once gated ordered ops on it.
  EXPECT_EQ(buf[welcome_at + net::kFrameHeaderBytes + 9], net::kWelcomeFlags);
  net::encode_goodbye(buf);

  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  auto hello = reader.next();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(net::peek_type(*hello), MsgType::kHello);
  EXPECT_EQ(net::decode_hello(*hello), ProtoError::kNone);

  auto welcome = reader.next();
  ASSERT_TRUE(welcome.has_value());
  const auto got = net::decode_welcome(*welcome);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, net::kProtocolVersion);
  EXPECT_EQ(got->window, 64u);
  EXPECT_EQ(got->backend, "sharded:m1");

  auto goodbye = reader.next();
  ASSERT_TRUE(goodbye.has_value());
  EXPECT_EQ(net::peek_type(*goodbye), MsgType::kGoodbye);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ProtoError::kNone);
}

TEST(Protocol, RequestRoundTripsIncludingRelativeTimeout) {
  net::Request r;
  r.req_id = 0xDEADBEEF12345678ull;
  r.op = OpType::kRangeCount;
  r.key = 10;
  r.key2 = 99;
  r.value = 7;
  r.timeout_ns = 5'000'000;
  std::vector<std::uint8_t> buf;
  net::encode_request(buf, r);
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  const auto got = net::decode_request(*payload);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->req_id, r.req_id);
  EXPECT_EQ(got->op, r.op);
  EXPECT_EQ(got->key, r.key);
  EXPECT_EQ(got->key2, r.key2);
  EXPECT_EQ(got->value, r.value);
  EXPECT_EQ(got->timeout_ns, r.timeout_ns);

  // to_op re-anchors the relative timeout onto the local clock.
  const std::int64_t before = core::now_ns();
  const WireOp op = net::to_op(*got);
  EXPECT_GE(op.deadline_ns, before + 5'000'000);
  net::Request no_timeout = r;
  no_timeout.timeout_ns = 0;
  EXPECT_EQ(net::to_op(no_timeout).deadline_ns, 0);
}

TEST(Protocol, ErrorFrameCarriesMessage) {
  std::vector<std::uint8_t> buf;
  net::encode_error(buf, "bad magic");
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(net::peek_type(*payload), MsgType::kError);
  EXPECT_EQ(net::decode_error(*payload), std::optional<std::string>("bad magic"));
}

// ---- FrameReader: torn delivery, bad frames ---------------------------------

// TCP guarantees nothing about chunk boundaries: byte-at-a-time delivery
// must yield exactly the same frames.
TEST(FrameReaderTest, ByteAtATimeDeliveryYieldsEveryFrame) {
  std::vector<std::uint8_t> buf;
  net::encode_hello(buf);
  net::Welcome w;
  w.backend = "m2";
  net::encode_welcome(buf, w);
  FrameReader reader;
  int frames = 0;
  for (const std::uint8_t b : buf) {
    reader.feed(&b, 1);
    while (reader.next().has_value()) ++frames;
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(reader.error(), ProtoError::kNone);
}

TEST(FrameReaderTest, TruncatedFrameWaitsWithoutError) {
  std::vector<std::uint8_t> buf;
  net::encode_hello(buf);
  FrameReader reader;
  reader.feed(buf.data(), buf.size() - 3);  // torn mid-payload
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ProtoError::kNone);  // needs bytes, not broken
  reader.feed(buf.data() + buf.size() - 3, 3);
  EXPECT_TRUE(reader.next().has_value());
}

// A multi-KiB read ending mid-frame: draining it yields every whole frame
// in order and leaves exactly the partial tail buffered; the remainder
// completes the torn frame.
TEST(FrameReaderTest, ChunkEndingMidFrameDrainsThenCompletes) {
  constexpr std::uint64_t kFrames = 200;
  std::vector<std::uint8_t> buf;
  for (std::uint64_t id = 0; id < kFrames; ++id) {
    net::Request r;
    r.req_id = id;
    r.key = id * 3;
    net::encode_request(buf, r);
  }
  const std::size_t frame_bytes = buf.size() / kFrames;
  const std::size_t cut = buf.size() - frame_bytes / 2;
  ASSERT_GT(cut, 4096u);
  FrameReader reader;
  reader.feed(buf.data(), cut);
  std::uint64_t next_id = 0;
  while (const auto payload = reader.next()) {
    const auto req = net::decode_request(*payload);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->req_id, next_id++);
  }
  EXPECT_EQ(next_id, kFrames - 1);
  EXPECT_EQ(reader.buffered(), cut - (kFrames - 1) * frame_bytes);
  reader.feed(buf.data() + cut, buf.size() - cut);
  const auto last = reader.next();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(net::decode_request(*last)->req_id, kFrames - 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_EQ(reader.error(), ProtoError::kNone);
}

TEST(FrameReaderTest, CorruptPayloadIsBadCrc) {
  std::vector<std::uint8_t> buf;
  net::encode_hello(buf);
  buf.back() ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ProtoError::kBadCrc);
}

// An oversized length prefix must be refused from the HEADER alone —
// before any wait for (or allocation of) a 4GiB body.
TEST(FrameReaderTest, OversizedLengthPrefixRefusedFromHeaderAlone) {
  const std::uint32_t len = net::kMaxFrameBytes + 1;
  const std::uint32_t crc = 0;
  std::vector<std::uint8_t> buf(net::kFrameHeaderBytes);
  std::memcpy(buf.data(), &len, sizeof(len));
  std::memcpy(buf.data() + 4, &crc, sizeof(crc));
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ProtoError::kOversized);
}

TEST(Protocol, HelloRejectsBadMagicAndVersionPrecisely) {
  // Hand-build hellos with a foreign magic / future version.
  std::vector<std::uint8_t> bad_magic;
  net::append_frame(bad_magic, [](std::vector<std::uint8_t>& b) {
    net::detail::put<std::uint8_t>(b, 0x01);
    net::detail::put<std::uint32_t>(b, 0x12345678u);
    net::detail::put<std::uint32_t>(b, net::kProtocolVersion);
  });
  std::vector<std::uint8_t> bad_version;
  net::append_frame(bad_version, [](std::vector<std::uint8_t>& b) {
    net::detail::put<std::uint8_t>(b, 0x01);
    net::detail::put<std::uint32_t>(b, net::kMagic);
    net::detail::put<std::uint32_t>(b, net::kProtocolVersion + 7);
  });
  for (const auto& [bytes, want] :
       {std::pair(bad_magic, ProtoError::kBadMagic),
        std::pair(bad_version, ProtoError::kBadVersion)}) {
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    const auto payload = reader.next();
    ASSERT_TRUE(payload.has_value());  // framing is fine; content is not
    EXPECT_EQ(net::decode_hello(*payload), want);
  }
}

TEST(Protocol, TruncatedPayloadsDecodeToNullopt) {
  std::vector<std::uint8_t> buf;
  net::Request r;
  r.op = OpType::kInsert;
  net::encode_request(buf, r);
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  // Every strict prefix of the payload must decode to nullopt, not UB —
  // the Cursor's bounds checks are the last line of defence.
  for (std::size_t n = 0; n < payload->size(); ++n) {
    EXPECT_FALSE(net::decode_request(payload->substr(0, n)).has_value())
        << "prefix " << n;
  }
  // Trailing junk is malformed too (exhausted() check).
  const std::string extended = std::string(*payload) + "x";
  EXPECT_FALSE(net::decode_request(extended).has_value());
}

// ---- frame fuzzer against a live server -------------------------------------

class NetFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    driver_ = driver::make_driver<std::uint64_t, std::uint64_t>("m1");
    net::ServerConfig cfg;
    cfg.tcp_addr = "127.0.0.1:0";
    server_ = std::make_unique<net::Server>(*driver_, cfg);
    addr_ = "127.0.0.1:" + std::to_string(server_->tcp_port());
  }

  std::unique_ptr<driver::Driver<std::uint64_t, std::uint64_t>> driver_;
  std::unique_ptr<net::Server> server_;
  std::string addr_;
};

// Reads until EOF with a bounded buffer — the server must CLOSE a refused
// connection, so this terminates.
bool drain_until_eof(int fd) {
  char buf[4096];
  for (int rounds = 0; rounds < 64 * 1024; ++rounds) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return true;
    if (n < 0) return errno != EINTR ? true : false;
  }
  return false;
}

TEST_F(NetFuzzTest, BadFramesAreRefusedWhileOtherConnectionsKeepServing) {
  // A healthy pipelined client stays connected through every attack.
  net::Client healthy = net::Client::dial_tcp(addr_);
  ASSERT_TRUE(healthy.insert(1, 100));

  const auto attack = [&](const std::vector<std::uint8_t>& bytes) {
    net::OwnedFd fd = net::connect_tcp(net::TcpAddr::parse(addr_));
    try {
      net::write_all(fd.get(), bytes.data(), bytes.size());
    } catch (const net::NetError&) {
      // Server may already have closed on us mid-send; that IS refusal.
    }
    EXPECT_TRUE(drain_until_eof(fd.get()));
  };

  // Crafted attacks: each named bad-frame class from the satellite.
  {
    std::vector<std::uint8_t> b;  // bad magic hello
    net::append_frame(b, [](std::vector<std::uint8_t>& p) {
      net::detail::put<std::uint8_t>(p, 0x01);
      net::detail::put<std::uint32_t>(p, 0xBAD0BAD0u);
      net::detail::put<std::uint32_t>(p, net::kProtocolVersion);
    });
    attack(b);
  }
  {
    std::vector<std::uint8_t> b;  // bad version hello
    net::append_frame(b, [](std::vector<std::uint8_t>& p) {
      net::detail::put<std::uint8_t>(p, 0x01);
      net::detail::put<std::uint32_t>(p, net::kMagic);
      net::detail::put<std::uint32_t>(p, 999);
    });
    attack(b);
  }
  {
    std::vector<std::uint8_t> b;  // oversized length prefix
    const std::uint32_t len = net::kMaxFrameBytes + 1, crc = 0;
    b.resize(net::kFrameHeaderBytes);
    std::memcpy(b.data(), &len, 4);
    std::memcpy(b.data() + 4, &crc, 4);
    attack(b);
  }
  {
    std::vector<std::uint8_t> b;  // bad CRC
    net::encode_hello(b);
    b.back() ^= 0xFF;
    attack(b);
  }
  {
    std::vector<std::uint8_t> b;  // request before hello (kUnexpected)
    net::encode_request(b, net::Request{});
    attack(b);
  }
  {
    // Torn frame then abrupt close: no refusal needed — the server just
    // sees EOF mid-frame and reaps the connection without counting an
    // error (close the socket ourselves, no drain).
    std::vector<std::uint8_t> b;
    net::encode_hello(b);
    b.resize(b.size() - 3);
    net::OwnedFd fd = net::connect_tcp(net::TcpAddr::parse(addr_));
    net::write_all(fd.get(), b.data(), b.size());
    fd.reset();
  }

  // Random garbage: seeded, so a failure replays. Write-then-close (no
  // drain): garbage that parses as a small length prefix leaves the
  // server legitimately waiting for more bytes — our close is what ends
  // those connections, and the reactor must reap them without fuss.
  util::Xoshiro256 rng(0xF422);
  for (int round = 0; round < 32; ++round) {
    std::vector<std::uint8_t> b(rng.bounded(256) + 1);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
    net::OwnedFd fd = net::connect_tcp(net::TcpAddr::parse(addr_));
    try {
      net::write_all(fd.get(), b.data(), b.size());
    } catch (const net::NetError&) {
    }
    fd.reset();
  }

  // The healthy connection never noticed.
  EXPECT_EQ(healthy.search(1), std::optional<std::uint64_t>(100));
  ASSERT_TRUE(healthy.insert(2, 200));
  EXPECT_EQ(healthy.search(2), std::optional<std::uint64_t>(200));
  healthy.close();

  // The crafted refusals were counted before their sockets closed (the
  // attack() drain ends only after the server refuses), so this is not
  // racing the reactor.
  EXPECT_GE(server_->stats().protocol_errors, 5u);
  server_->stop();  // reaps the abruptly-closed garbage connections too
  EXPECT_EQ(server_->stats().connections_active, 0u);
  EXPECT_EQ(driver_->validate(), "");
}

}  // namespace
