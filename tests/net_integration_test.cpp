// Client <-> server integration suite for the network serving layer: two
// pipelined connections at once (loopback TCP and Unix socket) across
// backends, terminal statuses round-tripped from a live server,
// backpressure (connection window + admission control) shed as
// kOverloaded with zero protocol errors, graceful shutdown draining
// every in-flight ticket, and the durability restart round-trip
// (checkpoint, kill server, reboot, reconnect, verify). The single-client
// oracle workload over the wire, Client::run and every per-op call, is
// the harness's (property_test).
//
// Point ops pipelined from one connection keep per-key submission order
// through every wiring (the reactor submits frames in arrival order), so
// the sequential std::map oracle is exact for them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/ops.hpp"
#include "driver/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "test_util.hpp"
#include "util/sites.hpp"

namespace {

using namespace pwss;
using core::ResultStatus;
using net::WireOp;
using net::WireResult;
using K = std::uint64_t;
using V = std::uint64_t;

using testutil::ScratchDir;

struct WireCase {
  std::string backend;
  bool unix_socket;  ///< false = loopback TCP
};

std::string case_name(const ::testing::TestParamInfo<WireCase>& info) {
  return testutil::gtest_safe(info.param.backend +
                              (info.param.unix_socket ? "_unix" : "_tcp"));
}

class NetWireTest : public ::testing::TestWithParam<WireCase> {
 protected:
  void SetUp() override {
    driver_ = driver::make_driver<K, V>(GetParam().backend);
    net::ServerConfig cfg;
    if (GetParam().unix_socket) {
      cfg.unix_path = scratch_.file("serve.sock");
    } else {
      cfg.tcp_addr = "127.0.0.1:0";
    }
    server_ = std::make_unique<net::Server>(*driver_, cfg);
  }

  net::Client dial() {
    if (GetParam().unix_socket) {
      return net::Client::dial_unix(scratch_.file("serve.sock"));
    }
    return net::Client::dial_tcp("127.0.0.1:" +
                                 std::to_string(server_->tcp_port()));
  }

  ScratchDir scratch_;
  std::unique_ptr<driver::Driver<K, V>> driver_;
  std::unique_ptr<net::Server> server_;
};

// Two concurrent client connections, disjoint key ranges: both oracles
// exact, no crosstalk, stats add up.
TEST_P(NetWireTest, TwoConnectionsServeIndependently) {
  std::atomic<bool> failed{false};
  auto worker = [&](std::uint64_t seed, K base) {
    net::Client client = dial();
    if (client.backend() != GetParam().backend) failed.store(true);
    auto ops = testutil::scripted_ops<K, V>(seed, 1024, 256, false);
    for (auto& op : ops) op.key += base;  // disjoint ranges
    std::map<K, V> shifted;
    std::vector<WireResult> results;
    client.run(ops, results);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const WireResult want = testutil::reference_apply(shifted, ops[i]);
      if (results[i].status != want.status || results[i].value != want.value) {
        failed.store(true);
      }
    }
    client.close();
  };
  std::thread a(worker, 1, 0);
  std::thread b(worker, 2, 1'000'000);
  a.join();
  b.join();
  EXPECT_FALSE(failed.load());
  server_->stop();
  const net::NetStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(driver_->validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Backends, NetWireTest,
    ::testing::Values(WireCase{"m0", false}, WireCase{"m0", true},
                      WireCase{"m1", false}, WireCase{"m1", true},
                      WireCase{"m2", false}, WireCase{"m2", true},
                      WireCase{"locked", false}, WireCase{"locked", true},
                      WireCase{"sharded:m1", false},
                      WireCase{"sharded:m1", true},
                      WireCase{"splay", false}),
    case_name);

// ---- backpressure: the two windows compose, frames are never dropped --------

// Per-connection pipeline window: pushing far past it sheds kOverloaded
// ON THE WIRE (counted by the server), with zero protocol errors and
// every non-shed response correct. Search-only on a pre-populated map so
// sheds cannot perturb the expected values.
TEST(NetBackpressure, ConnectionWindowShedsOnWireWithZeroProtocolErrors) {
  auto driver = driver::make_driver<K, V>("m1");
  for (K k = 0; k < 128; ++k) driver->insert(k, k * 10);
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  cfg.pipeline_window = 2;  // tiny window, easy to overrun
  net::Server server(*driver, cfg);
  net::Client client =
      net::Client::dial_tcp("127.0.0.1:" + std::to_string(server.tcp_port()));
  ASSERT_EQ(client.window(), 2u);

  std::uint64_t shed = 0, executed = 0;
  for (int round = 0; round < 50 && shed == 0; ++round) {
    // Ignore the advertised window on purpose: 256 tickets in flight
    // against a window of 2 must overrun it (the reactor would have to
    // win a completion race 254 times in a row not to).
    std::vector<net::Client::Ticket> tickets(256);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      client.submit(WireOp::search(i % 128), &tickets[i]);
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const WireResult r = tickets[i].wait();
      if (r.status == ResultStatus::kOverloaded) {
        ++shed;
      } else {
        ASSERT_EQ(r.status, ResultStatus::kFound);
        ASSERT_EQ(r.value, std::optional<V>((i % 128) * 10));
        ++executed;
      }
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(executed, 0u);
  client.close();
  server.stop();
  const net::NetStats stats = server.stats();
  EXPECT_EQ(stats.shed_on_wire, shed);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// Driver-level admission control composes underneath: a full admission
// window also surfaces as kOverloaded over the wire (delivered through
// the completion path, not the connection window).
TEST(NetBackpressure, AdmissionControlShedsThroughTheWire) {
  driver::Options opts;
  opts.max_in_flight = 1;
  auto driver = driver::make_driver<K, V>("m1", opts);
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  cfg.pipeline_window = 64;  // wide open: the DRIVER is the bottleneck
  net::Server server(*driver, cfg);
  net::Client client =
      net::Client::dial_tcp("127.0.0.1:" + std::to_string(server.tcp_port()));

  std::uint64_t shed = 0;
  for (int round = 0; round < 50 && shed == 0; ++round) {
    std::vector<net::Client::Ticket> tickets(64);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      client.submit(WireOp::search(i), &tickets[i]);
    }
    for (auto& t : tickets) {
      const WireResult r = t.wait();
      if (r.status == ResultStatus::kOverloaded) ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(driver->stats().shed, 0u);  // the DRIVER's counter moved
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// ---- terminal statuses delivered live ---------------------------------------

// A raw-socket mini-client sends a request whose 1ns relative timeout is
// guaranteed expired by submission time: the server answers kTimedOut on
// the wire (net::Client would have fulfilled it locally — going raw
// proves the SERVER path).
TEST(NetStatuses, ExpiredDeadlineAnswersTimedOutOnTheWire) {
  auto driver = driver::make_driver<K, V>("m1");
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  net::Server server(*driver, cfg);
  net::OwnedFd fd = net::connect_tcp(
      net::TcpAddr::parse("127.0.0.1:" + std::to_string(server.tcp_port())));

  std::vector<std::uint8_t> out;
  net::encode_hello(out);
  net::Request req;
  req.req_id = 7;
  req.op = core::OpType::kSearch;
  req.key = 1;
  req.timeout_ns = 1;  // expired before the frame even hits the wire
  net::encode_request(out, req);
  net::write_all(fd.get(), out.data(), out.size());

  net::FrameReader reader;
  char buf[4096];
  std::optional<net::Response> response;
  while (!response) {
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server closed before answering";
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto payload = reader.next()) {
      if (net::peek_type(*payload) == net::MsgType::kResponse) {
        response = net::decode_response(*payload);
      }
    }
    ASSERT_EQ(reader.error(), net::ProtoError::kNone);
  }
  EXPECT_EQ(response->req_id, 7u);
  EXPECT_EQ(response->result.status, ResultStatus::kTimedOut);
  fd.reset();
  server.stop();
}

// Client-side screen: an op whose absolute deadline already passed never
// touches the wire.
TEST(NetStatuses, AlreadyExpiredDeadlineFulfilledLocally) {
  auto driver = driver::make_driver<K, V>("m0");
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  net::Server server(*driver, cfg);
  net::Client client =
      net::Client::dial_tcp("127.0.0.1:" + std::to_string(server.tcp_port()));
  WireOp op = WireOp::search(1);
  op.deadline_ns = 1;  // long past
  EXPECT_EQ(client.run_blocking(op).status, ResultStatus::kTimedOut);
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().frames_in, 2u);  // hello + goodbye only
}

// ---- graceful shutdown ------------------------------------------------------

// stop() during a pipelined burst: every ticket reaches a terminal
// status (executed or kOverloaded-after-drain-started), nothing hangs,
// nothing leaks (the ASan CI leg asserts the latter).
TEST(NetShutdown, StopDrainsInFlightTickets) {
  auto driver = driver::make_driver<K, V>("m2");
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  net::Server server(*driver, cfg);
  net::Client client =
      net::Client::dial_tcp("127.0.0.1:" + std::to_string(server.tcp_port()));

  std::vector<net::Client::Ticket> tickets(512);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    client.submit(WireOp::insert(i, i), &tickets[i]);
  }
  server.stop();  // drain: in-flight complete, then connections close
  std::uint64_t executed = 0, shed = 0, cancelled = 0;
  for (auto& t : tickets) {
    switch (t.wait().status) {
      case ResultStatus::kInserted:
      case ResultStatus::kUpdated:
        ++executed;
        break;
      case ResultStatus::kOverloaded:
        ++shed;
        break;
      case ResultStatus::kCancelled:
        ++cancelled;
        break;
      default:
        FAIL() << "unexpected status";
    }
  }
  EXPECT_EQ(executed + shed + cancelled, tickets.size());
  client.close();
  EXPECT_EQ(server.stats().connections_active, 0u);
  EXPECT_EQ(driver->validate(), "");
}

// ---- durability restart round-trip ------------------------------------------

// checkpoint, kill the server, reboot it on the same directory, clients
// reconnect, state verified over the wire — the full "serve restarts
// without losing data" story, over the Unix socket for variety.
TEST(NetDurability, RestartRoundTripOverUnixSocket) {
  ScratchDir scratch;
  const std::string sock = scratch.file("serve.sock");
  driver::Options opts;
  opts.durability = store::DurabilityMode::kSync;
  opts.durability_dir = scratch.file("data");

  {
    auto driver = driver::make_driver<K, V>("m1", opts);
    net::ServerConfig cfg;
    cfg.unix_path = sock;
    net::Server server(*driver, cfg);
    net::Client client = net::Client::dial_unix(sock);
    for (K k = 0; k < 500; ++k) {
      ASSERT_TRUE(client.insert(k, k * 3));
    }
    ASSERT_TRUE(client.erase(123).has_value());
    client.close();
    EXPECT_EQ(driver->checkpoint(), "");
    // A post-checkpoint mutation rides the WAL, not the snapshot —
    // recovery must replay both layers.
    net::Client late = net::Client::dial_unix(sock);
    ASSERT_TRUE(late.insert(1000, 42));
    late.close();
    server.stop();  // graceful: all acked mutations are fsynced (kSync)
  }

  // Reboot on the same directory; clients reconnect and verify.
  {
    auto driver = driver::make_driver<K, V>("m1", opts);
    net::ServerConfig cfg;
    cfg.unix_path = sock;
    net::Server server(*driver, cfg);
    net::Client client = net::Client::dial_unix(sock);
    EXPECT_EQ(client.backend(), "m1");
    for (K k = 0; k < 500; ++k) {
      if (k == 123) continue;
      ASSERT_EQ(client.search(k), std::optional<V>(k * 3)) << "key " << k;
    }
    EXPECT_FALSE(client.search(123).has_value());  // the erase persisted
    EXPECT_EQ(client.search(1000), std::optional<V>(42));  // WAL replayed
    // The rebooted server serves writes too.
    ASSERT_TRUE(client.insert(2000, 1));
    EXPECT_EQ(client.search(2000), std::optional<V>(1));
    client.close();
    server.stop();
    const driver::DriverStats stats = driver->stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_GT(stats.recovered_entries + stats.recovered_ops, 0u);
    EXPECT_EQ(driver->validate(), "");
  }
}

// ---- injected faults (compiled in under -DPWSS_SITES=ON) -------------------

// Every send(2) capped to one byte: frames leave the server a byte at a
// time and the reactor re-arms POLLOUT for the residue. A pipelined
// oracle workload must still come back exact — a partial write may slow
// the wire, never tear a frame.
TEST(NetFaults, PartialWritesNeverTearFrames) {
  if (!util::sites::kCompiled) {
    GTEST_SKIP() << "build without -DPWSS_SITES=ON";
  }
  auto driver = driver::make_driver<K, V>("m1");
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  net::Server server(*driver, cfg);
  // Armed before the dial: the welcome frame trickles out too.
  util::sites::arm("net.write.partial", util::sites::Action::kFail,
                   1'000'000);
  net::Client client =
      net::Client::dial_tcp("127.0.0.1:" + std::to_string(server.tcp_port()));
  const auto script =
      testutil::scripted_ops<K, V>(0xFA017, 256, 64, /*with_ordered=*/false);
  std::map<K, V> oracle;
  std::vector<WireResult> got;
  client.run(script, got);
  ASSERT_EQ(got.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const WireResult want = testutil::reference_apply(oracle, script[i]);
    testutil::expect_result_eq(got[i], want, "forced-partial-write", i);
  }
  client.close();
  util::sites::clear();
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(driver->validate(), "");
}

// A forced accept(2) failure drops the just-accepted connection before
// any state exists for it — that dial's handshake sees EOF — and the
// server keeps serving: the very next connection works end to end.
TEST(NetFaults, AcceptFailureKeepsServing) {
  if (!util::sites::kCompiled) {
    GTEST_SKIP() << "build without -DPWSS_SITES=ON";
  }
  auto driver = driver::make_driver<K, V>("m0");
  net::ServerConfig cfg;
  cfg.tcp_addr = "127.0.0.1:0";
  net::Server server(*driver, cfg);
  const std::string addr =
      "127.0.0.1:" + std::to_string(server.tcp_port());

  util::sites::arm("net.accept.fail", util::sites::Action::kFail, 1);
  EXPECT_THROW(net::Client::dial_tcp(addr), net::NetError);
  util::sites::clear();

  net::Client client = net::Client::dial_tcp(addr);
  ASSERT_TRUE(client.insert(1, 2));
  EXPECT_EQ(client.search(1), std::optional<V>(2));
  client.close();
  server.stop();
  const net::NetStats stats = server.stats();
  EXPECT_GE(stats.accept_failures, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(server.stats().connections_active, 0u);
}

}  // namespace
