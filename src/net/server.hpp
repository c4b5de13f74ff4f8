#pragma once
// net::Server — the TCP + Unix-domain-socket serving layer over a
// driver::Driver (DESIGN.md "Network serving layer", ROADMAP item 1).
//
// One poll(2) reactor thread owns every socket: it accepts connections,
// runs the hello/welcome handshake, parses request frames, and submits
// each op straight onto Driver::submit(op, ticket) — the zero-allocation
// ticket form, with tickets drawn from a per-connection pool sized to the
// pipeline window. Completions fire on whatever thread fulfills the op
// (a scheduler worker, an M2 interface tick, or the reactor itself for
// inline sheds): the completion hook serializes the response frame into
// the connection's outbound buffer and opportunistically writes it to the
// socket RIGHT THERE, from completion context — the reactor only picks up
// the residue when the socket backs up. Out-of-order completion is the
// normal case; clients match responses by req_id.
//
// Backpressure composes in two layers, and a frame is NEVER dropped:
//   * per-connection pipeline window (ServerConfig::pipeline_window):
//     a request arriving with the window full is answered kOverloaded
//     on the wire immediately (shed_on_wire counter);
//   * the driver's AdmissionController (Options::max_in_flight): a shed
//     there completes the ticket with kOverloaded like any other result,
//     which the completion path writes back as a normal response.
//
// Graceful shutdown (stop(), also run by the destructor): listeners
// close first, then every connection drains — in-flight tickets complete
// (the terminal-status invariant guarantees they do), outbound buffers
// flush, new requests shed kOverloaded — and only then do connections
// close and the reactor exit. A connection that dies with ops still in
// flight lingers as a zombie until its last completion lands (tickets
// point into the connection; freeing it early would be use-after-free),
// so shutdown is leak-free by construction — the ASan CI job asserts it.
//
// Fault sites (util/sites.hpp): "net.write.partial" truncates one
// socket write to a single byte (exercising the partial-write resume
// path), "net.accept.fail" drops a just-accepted connection (modelling
// accept(2) failing under fd pressure). Both leave the server serving.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "driver/driver.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "util/sites.hpp"

namespace pwss::net {

struct ServerConfig {
  /// TCP listen address ("[host]:port"; port 0 = kernel-assigned), or ""
  /// for no TCP listener.
  std::string tcp_addr;
  /// Unix-domain socket path, or "" for no Unix listener. At least one
  /// of the two must be given.
  std::string unix_path;
  /// Per-connection pipeline window: max requests admitted onto
  /// Driver::submit() and not yet responded. Requests beyond it are
  /// answered kOverloaded on the wire (never dropped, never queued).
  std::size_t pipeline_window = 64;
};

/// Wire-side counters (pwss_serve --stats prints them as its net line).
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t protocol_errors = 0;  ///< connections refused for cause
  std::uint64_t shed_on_wire = 0;     ///< kOverloaded answered at the window
  std::uint64_t accept_failures = 0;  ///< accept(2) errors (incl. injected)
};

class Server {
 public:
  using Driver = driver::Driver<Key, Value>;
  using Ticket = core::OpTicket<Value, Key>;

  /// Binds the configured listeners and starts the reactor thread.
  /// Throws NetError when neither listener is configured or a bind fails.
  Server(Driver& driver, ServerConfig cfg)
      : driver_(driver), cfg_(std::move(cfg)) {
    if (cfg_.tcp_addr.empty() && cfg_.unix_path.empty()) {
      throw NetError("Server needs a TCP address or a unix socket path");
    }
    if (cfg_.pipeline_window == 0) cfg_.pipeline_window = 1;
    if (!cfg_.tcp_addr.empty()) {
      tcp_listener_ = listen_tcp_fd(TcpAddr::parse(cfg_.tcp_addr));
      tcp_port_ = bound_tcp_port(tcp_listener_);
    }
    if (!cfg_.unix_path.empty()) {
      unix_listener_ = listen_unix_fd(cfg_.unix_path);
    }
    int pipefd[2];
    if (::pipe(pipefd) != 0) throw_net_errno("pipe");
    wake_rd_ = OwnedFd(pipefd[0]);
    wake_wr_ = OwnedFd(pipefd[1]);
    set_nonblocking(wake_rd_.get());
    set_nonblocking(wake_wr_.get());
    reactor_ = std::thread([this] { loop(); });
  }

  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The TCP port actually bound (the kernel's pick under port 0).
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Graceful drain-and-shutdown: stop accepting, complete every
  /// in-flight op, flush every response, close, join. Idempotent.
  void stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) {
      if (reactor_.joinable()) reactor_.join();
      return;
    }
    wake();
    if (reactor_.joinable()) reactor_.join();
    if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
  }

  NetStats stats() const {
    NetStats s;
    s.connections_accepted = accepted_.load(std::memory_order_relaxed);
    s.connections_active = active_.load(std::memory_order_relaxed);
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.frames_out = frames_out_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.shed_on_wire = shed_on_wire_.load(std::memory_order_relaxed);
    s.accept_failures = accept_failures_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Conn;

  /// Completion slot for one in-flight request: the driver's OpTicket
  /// plus the route back (connection + req_id). Pool-owned by the
  /// connection — steady-state serving allocates nothing per op.
  struct NetTicket : Ticket {
    Server* server = nullptr;
    Conn* conn = nullptr;  ///< alive while the conn's in_flight counts us
    std::uint64_t req_id = 0;

    NetTicket() { this->on_complete = &NetTicket::completed; }

    static void completed(Ticket* t);
  };

  struct Conn {
    Conn(Server* s, OwnedFd socket) : server(s), fd(std::move(socket)) {}

    Server* server;
    OwnedFd fd;
    FrameReader reader;
    bool handshaken = false;
    bool draining = false;     ///< goodbye received: close once quiet
    bool close_after_flush = false;  ///< error frame queued: close when sent
    bool zombie = false;       ///< fd closed, completions still outstanding

    /// Requests admitted onto the driver and not yet responded. Bumped on
    /// the reactor thread before submit, dropped by the completion hook.
    std::atomic<std::size_t> in_flight{0};

    /// Guards outbuf / io_open / ticket free list; taken by the reactor
    /// and by completion hooks on driver threads.
    std::mutex wmu;
    std::vector<std::uint8_t> outbuf;
    std::size_t outpos = 0;    ///< bytes of outbuf already written
    bool io_open = true;       ///< false once the fd may no longer be used
    std::vector<std::unique_ptr<NetTicket>> ticket_pool;
    std::vector<NetTicket*> free_tickets;
    /// True when outbuf holds unwritten bytes (mirror of state under wmu
    /// the reactor can poll without taking every lock every tick).
    std::atomic<bool> want_write{false};
  };

  // ---- reactor ---------------------------------------------------------------

  void loop() {
    std::vector<pollfd> pfds;
    std::vector<Conn*> pfd_conn;  // parallel to pfds; nullptr = listener/wake
    bool listeners_open = true;
    for (;;) {
      const bool stopping = stopping_.load(std::memory_order_acquire);
      if (stopping && listeners_open) {
        tcp_listener_.reset();
        unix_listener_.reset();
        listeners_open = false;
      }
      reap_and_maybe_close();
      if (stopping && conns_.empty()) break;

      pfds.clear();
      pfd_conn.clear();
      pfds.push_back({wake_rd_.get(), POLLIN, 0});
      pfd_conn.push_back(nullptr);
      if (tcp_listener_.valid()) {
        pfds.push_back({tcp_listener_.get(), POLLIN, 0});
        pfd_conn.push_back(nullptr);
      }
      if (unix_listener_.valid()) {
        pfds.push_back({unix_listener_.get(), POLLIN, 0});
        pfd_conn.push_back(nullptr);
      }
      for (const auto& up : conns_) {
        Conn* c = up.get();
        if (c->zombie) continue;
        short events = POLLIN;
        if (c->want_write.load(std::memory_order_acquire)) events |= POLLOUT;
        pfds.push_back({c->fd.get(), events, 0});
        pfd_conn.push_back(c);
      }

      // Completions wake us via the pipe, so a long timeout is only a
      // safety net (it also bounds zombie-reap latency).
      const int rc = ::poll(pfds.data(), pfds.size(), 100);
      if (rc < 0 && errno != EINTR) break;  // reactor cannot continue
      if (rc <= 0) continue;

      for (std::size_t i = 0; i < pfds.size(); ++i) {
        const short re = pfds[i].revents;
        if (re == 0) continue;
        if (pfds[i].fd == wake_rd_.get()) {
          drain_wake_pipe();
        } else if (tcp_listener_.valid() &&
                   pfds[i].fd == tcp_listener_.get()) {
          accept_all(tcp_listener_);
        } else if (unix_listener_.valid() &&
                   pfds[i].fd == unix_listener_.get()) {
          accept_all(unix_listener_);
        } else if (Conn* c = pfd_conn[i]) {
          if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
              (re & POLLIN) == 0) {
            close_conn(*c);
            continue;
          }
          if ((re & POLLOUT) != 0) flush_conn(*c);
          if ((re & POLLIN) != 0) read_conn(*c);
        }
      }
    }
    // Reactor exit: every connection has drained (stop() waits on join).
    assert(conns_.empty());
  }

  void wake() {
    const char b = 1;
    // Nonblocking: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_wr_.get(), &b, 1);
  }

  void drain_wake_pipe() {
    char buf[256];
    while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
    }
  }

  void accept_all(OwnedFd& listener) {
    for (;;) {
      const int fd = ::accept(listener.get(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        return;  // transient (EMFILE, ECONNABORTED): keep serving
      }
      if (PWSS_FAULT_POINT("net.accept.fail")) {
        // Injected accept failure: the connection is dropped before any
        // state exists for it; the server keeps serving everyone else.
        ::close(fd);
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      OwnedFd owned(fd);
      set_nonblocking(fd);
      set_nodelay(fd);
      if (stopping_.load(std::memory_order_acquire)) {
        continue;  // raced stop(): owned closes it
      }
      auto conn = std::make_unique<Conn>(this, std::move(owned));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      active_.fetch_add(1, std::memory_order_relaxed);
      conns_.push_back(std::move(conn));
    }
  }

  void read_conn(Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(c.fd.get(), buf, sizeof(buf));
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_conn(c);
        return;
      }
      if (n == 0) {  // peer closed
        close_conn(c);
        return;
      }
      c.reader.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    }
    while (auto payload = c.reader.next()) {
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      if (!handle_frame(c, *payload)) return;  // connection refused/closed
    }
    if (c.reader.error() != ProtoError::kNone) {
      refuse(c, c.reader.error());
    }
  }

  /// One verified frame. Returns false when the connection was closed.
  bool handle_frame(Conn& c, std::string_view payload) {
    const std::optional<MsgType> type = peek_type(payload);
    if (!type) {
      refuse(c, ProtoError::kMalformed);
      return false;
    }
    if (!c.handshaken) {
      if (*type != MsgType::kHello) {
        refuse(c, ProtoError::kUnexpected);
        return false;
      }
      const ProtoError err = decode_hello(payload);
      if (err != ProtoError::kNone) {
        refuse(c, err);
        return false;
      }
      c.handshaken = true;
      Welcome w;
      w.window = static_cast<std::uint32_t>(cfg_.pipeline_window);
      w.backend = driver_.name();
      std::lock_guard<std::mutex> lk(c.wmu);
      encode_welcome(c.outbuf, w);
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      try_flush_locked(c);
      return true;
    }
    switch (*type) {
      case MsgType::kRequest: {
        const std::optional<Request> req = decode_request(payload);
        if (!req) {
          refuse(c, ProtoError::kMalformed);
          return false;
        }
        submit_request(c, *req);
        return true;
      }
      case MsgType::kGoodbye:
        c.draining = true;
        maybe_finish_drain(c);
        return !c.zombie && c.fd.valid();
      default:
        refuse(c, ProtoError::kUnexpected);
        return false;
    }
  }

  void submit_request(Conn& c, const Request& req) {
    const bool shed =
        stopping_.load(std::memory_order_acquire) ||
        c.in_flight.load(std::memory_order_acquire) >= cfg_.pipeline_window;
    if (shed) {
      // Window full (or server draining): answer kOverloaded on the wire
      // NOW. The frame is consumed and answered — never dropped — so the
      // client's pipeline accounting stays exact.
      shed_on_wire_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(c.wmu);
      encode_response(c.outbuf, req.req_id,
                      WireResult::error(core::ResultStatus::kOverloaded));
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      try_flush_locked(c);
      return;
    }
    NetTicket* t;
    {
      std::lock_guard<std::mutex> lk(c.wmu);
      if (c.free_tickets.empty()) {
        c.ticket_pool.push_back(std::make_unique<NetTicket>());
        c.free_tickets.push_back(c.ticket_pool.back().get());
      }
      t = c.free_tickets.back();
      c.free_tickets.pop_back();
    }
    t->reset();  // keeps on_complete armed (reset clears only result state)
    t->server = this;
    t->conn = &c;
    t->req_id = req.req_id;
    c.in_flight.fetch_add(1, std::memory_order_acq_rel);
    // Driver::submit handles admission shed (kOverloaded) and expired
    // deadlines (kTimedOut) by fulfilling the
    // ticket inline on this thread — the completion hook below runs
    // either way, so every admitted frame gets exactly one response.
    driver_.submit(to_op(req), t);
  }

  /// The completion hook — runs on whatever thread fulfilled the op.
  /// Serializes the response and writes it to the socket from completion
  /// context when the connection is uncongested; the reactor flushes the
  /// rest via POLLOUT otherwise.
  static void complete_ticket(NetTicket& t) {
    Server& s = *t.server;
    Conn& c = *t.conn;
    {
      std::lock_guard<std::mutex> lk(c.wmu);
      encode_response(c.outbuf, t.req_id, t.result);
      s.frames_out_.fetch_add(1, std::memory_order_relaxed);
      c.free_tickets.push_back(&t);
      // Window accounting must drop BEFORE the flush can deliver this
      // response: a client pipelining at the full window sends its
      // replacement op the instant it reads the response, and that op
      // must find the slot already free — decrementing after the send
      // sheds a full-window pipeline spuriously. Releasing the slot
      // inside the critical section is safe because the reactor
      // serializes on wmu before destroying a drained connection (see
      // reap_and_maybe_close).
      c.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      s.try_flush_locked(c);
    }
    // Nothing after this line may dereference c: with in_flight dropped
    // and wmu released, the reactor is free to destroy the connection.
    s.wake();
  }

  /// Flushes as much of outbuf as the socket accepts; caller holds wmu.
  /// Partial writes (including injected ones) leave the residue for the
  /// next POLLOUT round.
  void try_flush_locked(Conn& c) {
    if (!c.io_open) {
      c.want_write.store(c.outpos < c.outbuf.size(),
                         std::memory_order_release);
      return;
    }
    while (c.outpos < c.outbuf.size()) {
      std::size_t len = c.outbuf.size() - c.outpos;
      if (PWSS_FAULT_POINT("net.write.partial")) len = 1;
      // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
      // EPIPE (the reactor closes the connection), never as SIGPIPE.
      const ssize_t n = ::send(c.fd.get(), c.outbuf.data() + c.outpos, len,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: socket full — reactor resumes on POLLOUT. Hard errors
        // also land here; the reactor's next read/poll round closes the
        // connection, which must not happen under a completion's lock.
        break;
      }
      c.outpos += static_cast<std::size_t>(n);
    }
    if (c.outpos == c.outbuf.size()) {
      c.outbuf.clear();
      c.outpos = 0;
    }
    c.want_write.store(c.outpos < c.outbuf.size(), std::memory_order_release);
  }

  void flush_conn(Conn& c) {
    {
      std::lock_guard<std::mutex> lk(c.wmu);
      try_flush_locked(c);
    }
    maybe_finish_drain(c);
  }

  /// Protocol error: count it, best-effort send the error frame, close.
  /// Other connections are untouched — one bad peer never takes the
  /// server down.
  void refuse(Conn& c, ProtoError err) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(c.wmu);
      encode_error(c.outbuf, to_string(err));
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      try_flush_locked(c);
    }
    close_conn(c);
  }

  /// A draining (goodbye) connection closes once every in-flight op has
  /// answered and the outbound buffer is flushed.
  void maybe_finish_drain(Conn& c) {
    if (!c.draining || c.zombie || !c.fd.valid()) return;
    bool quiet;
    {
      std::lock_guard<std::mutex> lk(c.wmu);
      quiet = c.in_flight.load(std::memory_order_acquire) == 0 &&
              c.outpos == c.outbuf.size();
    }
    if (quiet) close_conn(c);
  }

  /// Closes a connection's socket. With completions still in flight the
  /// Conn object stays behind as a zombie (tickets hold pointers into
  /// it); reap_and_maybe_close() destroys it once the last completion
  /// lands.
  void close_conn(Conn& c) {
    {
      std::lock_guard<std::mutex> lk(c.wmu);
      if (!c.io_open) return;  // already closed/zombified
      c.io_open = false;
      c.want_write.store(false, std::memory_order_release);
      c.fd.reset();
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
    c.zombie = true;
  }

  /// Reactor-side sweep: destroy zombies whose completions all landed,
  /// finish drains, and under stop() push every live connection into its
  /// drain path.
  void reap_and_maybe_close() {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& c = **it;
      if (!c.zombie && stopping) {
        c.draining = true;
        maybe_finish_drain(c);
      } else if (!c.zombie) {
        maybe_finish_drain(c);
      }
      if (c.zombie && c.in_flight.load(std::memory_order_acquire) == 0) {
        // A completion decrements in_flight INSIDE its wmu critical
        // section (so the client-visible window frees before the
        // response flushes); acquiring wmu here guarantees that last
        // completion has fully left the connection before we free it.
        { std::lock_guard<std::mutex> lk(c.wmu); }
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }

  Driver& driver_;
  ServerConfig cfg_;
  OwnedFd tcp_listener_;
  OwnedFd unix_listener_;
  std::uint16_t tcp_port_ = 0;
  OwnedFd wake_rd_;
  OwnedFd wake_wr_;
  std::atomic<bool> stopping_{false};
  /// Reactor-thread-owned; completions never touch the list (they reach
  /// their Conn through the ticket and signal via in_flight + the pipe).
  std::vector<std::unique_ptr<Conn>> conns_;
  std::thread reactor_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> shed_on_wire_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
};

inline void Server::NetTicket::completed(Ticket* t) {
  Server::complete_ticket(*static_cast<NetTicket*>(t));
}

}  // namespace pwss::net
