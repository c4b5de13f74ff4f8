// pwss_serve — the `--serve` CLI mode: exposes any registered backend
// (including sharded:* and --durability modes) over the wire protocol.
//
//   ./pwss_serve --backend=m2 --serve=127.0.0.1:7070
//   ./pwss_serve --backend=sharded:m1 --shards=8 --socket=/tmp/pwss.sock
//   ./pwss_serve --backend=m1 --durability=sync --durability-dir=data
//                --serve=:7070 --socket=/tmp/pwss.sock --stats   (one line)
//
// The process prints one "serving ..." line to stdout (with the ACTUAL
// TCP port — `--serve=127.0.0.1:0` binds a kernel-assigned one, which is
// how scripts and CI get a free port race-free), then serves until
// SIGINT/SIGTERM. Shutdown is graceful: listeners close, in-flight ops
// complete, responses flush, and only then does the process exit —
// with --validate running the deep validators on the final state and
// --stats printing the driver's counter lines, then the wire counters
// (net::Server::stats()) as one more line.

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdint>

#include "driver/cli.hpp"
#include "driver/registry.hpp"
#include "net/server.hpp"

int main(int argc, char** argv) {
  using K = std::uint64_t;
  using V = std::uint64_t;
  const auto cli = pwss::driver::parse<K, V>(argc, argv, {"m2"});
  if (cli.serve_addr.empty() && cli.socket_path.empty()) {
    std::fprintf(stderr,
                 "%s: need --serve=[host]:port and/or --socket=PATH "
                 "(try --help)\n",
                 argv[0]);
    return 2;
  }
  if (cli.backends.size() != 1) {
    std::fprintf(stderr, "%s: serve exposes exactly one backend, got %zu\n",
                 argv[0], cli.backends.size());
    return 2;
  }

  // Block the shutdown signals BEFORE any thread exists so every thread
  // (scheduler workers, the reactor) inherits the mask and the sigwait
  // below is the one place they are delivered.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  auto driver = pwss::driver::make_driver<K, V>(cli.backends.front(),
                                                cli.driver);
  pwss::net::ServerConfig cfg;
  cfg.tcp_addr = cli.serve_addr;
  cfg.unix_path = cli.socket_path;
  cfg.pipeline_window = cli.net_window == 0 ? 1 : cli.net_window;
  pwss::net::Server server(*driver, cfg);

  std::printf("serving %s", driver->name().c_str());
  if (!cli.serve_addr.empty()) {
    const auto addr = pwss::net::TcpAddr::parse(cli.serve_addr);
    std::printf(" tcp=%s:%u", addr.host.c_str(),
                static_cast<unsigned>(server.tcp_port()));
  }
  if (!cli.socket_path.empty()) {
    std::printf(" unix=%s", cli.socket_path.c_str());
  }
  std::printf(" window=%u\n", cli.net_window == 0 ? 1u : cli.net_window);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "pwss_serve: signal %d, draining connections...\n",
               sig);
  server.stop();

  const int rc = pwss::driver::finish(cli, *driver);
  if (cli.print_stats) {
    const pwss::net::NetStats n = server.stats();
    std::fprintf(stderr,
                 "stats[%s]: net accepted=%" PRIu64 " active=%" PRIu64
                 " frames_in=%" PRIu64 " frames_out=%" PRIu64
                 " protocol_errors=%" PRIu64 " shed_on_wire=%" PRIu64
                 " accept_failures=%" PRIu64 "\n",
                 driver->name().c_str(), n.connections_accepted,
                 n.connections_active, n.frames_in, n.frames_out,
                 n.protocol_errors, n.shed_on_wire, n.accept_failures);
  }
  return rc;
}
