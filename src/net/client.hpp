#pragma once
// net::Client — the C++ client library of the network serving layer.
// Mirrors the Driver API over a socket: the same core::MapCalls surface —
// blocking conveniences (search/insert/upsert/erase + the ordered kinds)
// and an async pipelined submit — caller-owned OpTicket, refcounted
// Future, or completion callback (which runs on the reader thread, so it
// should be short) — so code written against a local driver ports to the
// wire by swapping the object.
//
// One socket, two threads: callers serialize request frames under a write
// mutex (the socket is blocking; write_all is the send path), and a
// dedicated reader thread parses response frames and fulfills whichever
// ticket their req_id names — responses arrive OUT OF ORDER by design,
// the server answers ops as the backend completes them. Pipelining is
// therefore free: submit as many ops as the server's advertised window
// allows and wait on the tickets in any order.
//
// Deadlines travel as RELATIVE timeouts (no shared clock): an op's
// absolute deadline_ns is converted at send time, and one already expired
// is fulfilled kTimedOut locally without touching the wire. Ticket
// cancel() has no remote effect — the protocol has no cancel frame; the
// op completes with whatever the server answers.
//
// Connection loss (EOF, read error, protocol error, server error frame)
// fulfills every outstanding ticket with kCancelled: the op's execution
// state on the server is UNKNOWN — it may or may not have applied — which
// is exactly what kCancelled's "no result, terminal" contract conveys.
// last_error() then says why the connection died.

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/ops.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace pwss::net {

class Client : public core::MapCalls<Client, Key, Value> {
 public:
  using Ticket = core::OpTicket<Value, Key>;

  /// Connects over TCP ("host:port") and completes the hello/welcome
  /// handshake; throws NetError when the connection or handshake fails
  /// (the server's error-frame message is included verbatim).
  static Client dial_tcp(const std::string& addr) {
    return Client(net::connect_tcp(TcpAddr::parse(addr)));
  }

  /// Connects over a Unix-domain socket path; same contract as dial_tcp.
  static Client dial_unix(const std::string& path) {
    return Client(net::connect_unix(path));
  }

  ~Client() { close(); }
  Client(Client&&) = delete;  // tickets hold no back-pointer, but the
  Client& operator=(Client&&) = delete;  // reader thread captures `this`

  // ---- handshake results ---------------------------------------------------

  /// Registry name of the backend the server is exposing ("m2", ...).
  const std::string& backend() const noexcept { return welcome_.backend; }
  /// The server's per-connection pipeline window: requests beyond it are
  /// answered kOverloaded on the wire, so this is the useful pipelining
  /// depth.
  std::uint32_t window() const noexcept { return welcome_.window; }

  /// Why the connection died ("" while healthy).
  std::string last_error() const {
    std::lock_guard<std::mutex> lk(pmu_);
    return last_error_;
  }

  // ---- asynchronous submission (mirrors Driver::submit) --------------------

  /// Lowest-level form: caller-owned completion token, zero allocation on
  /// the submission path. The ticket must stay alive until fulfilled; it
  /// always reaches a terminal status (response, local kTimedOut, or
  /// kCancelled on connection loss).
  void submit(const WireOp& op, Ticket* ticket) {
    if (op.deadline_ns != 0 && op.deadline_ns <= core::now_ns()) {
      ticket->fulfill(WireResult::error(core::ResultStatus::kTimedOut));
      return;
    }
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    bool registered = false;
    {
      std::lock_guard<std::mutex> lk(pmu_);
      if (!failed_) {
        pending_.emplace(id, ticket);
        registered = true;
      }
    }
    if (!registered) {
      // Dead connection; fulfill outside pmu_ (completions may re-enter
      // submit()).
      ticket->fulfill(WireResult::error(core::ResultStatus::kCancelled));
      return;
    }
    Request r;
    r.req_id = id;
    r.op = op.type;
    r.key = op.key;
    r.key2 = op.key2;
    r.value = op.value;
    if (op.deadline_ns != 0) {
      r.timeout_ns = static_cast<std::uint64_t>(op.deadline_ns) -
                     static_cast<std::uint64_t>(core::now_ns());
    }
    bool sent = true;
    {
      std::lock_guard<std::mutex> lk(wmu_);
      scratch_.clear();
      encode_request(scratch_, r);
      try {
        write_all(fd_.get(), scratch_.data(), scratch_.size());
      } catch (const NetError&) {
        sent = false;
      }
    }
    if (!sent) {
      // The reader's fail_all() may have raced us to this ticket; the
      // pending-map erase decides who fulfills (exactly one does).
      Ticket* mine = take_pending(id);
      if (mine != nullptr) {
        mine->fulfill(WireResult::error(core::ResultStatus::kCancelled));
      }
    }
  }

  using MapCalls::submit;

  // run_blocking() and the blocking conveniences come from
  // core::MapCalls: submit + wait, without Driver::run_blocking's retry
  // loop (the server's blocking paths already absorbed theirs, and a shed
  // window is an explicit signal callers may want to see).

  /// Pipelined bulk execution: streams `ops` through a sliding window of
  /// min(server window, ops.size()) outstanding tickets and collects
  /// results in submission order. This is the client-side analogue of
  /// Driver::run() — and the load generator's inner loop.
  void run(const std::vector<WireOp>& ops, std::vector<WireResult>& out) {
    out.clear();
    out.resize(ops.size());
    std::size_t w = welcome_.window == 0 ? 1 : welcome_.window;
    if (ops.size() < w) w = ops.size() == 0 ? 1 : ops.size();
    std::vector<Ticket> slots(w);
    std::vector<std::size_t> slot_op(w, kNoOp);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::size_t s = i % w;
      if (slot_op[s] != kNoOp) {
        out[slot_op[s]] = slots[s].wait();
        slots[s].reset();
      }
      slot_op[s] = i;
      submit(ops[i], &slots[s]);
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slot_op[s] != kNoOp) out[slot_op[s]] = slots[s].wait();
    }
  }

  std::vector<WireResult> run(const std::vector<WireOp>& ops) {
    std::vector<WireResult> out;
    run(ops, out);
    return out;
  }

  /// Graceful close: sends goodbye, waits for every outstanding ticket to
  /// reach a terminal status (response or connection-loss kCancelled),
  /// and joins the reader once the server closes its end. Idempotent;
  /// run by the destructor.
  void close() {
    if (closed_.exchange(true, std::memory_order_acq_rel)) {
      if (reader_thread_.joinable()) reader_thread_.join();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(wmu_);
      scratch_.clear();
      encode_goodbye(scratch_);
      try {
        write_all(fd_.get(), scratch_.data(), scratch_.size());
      } catch (const NetError&) {
        // Connection already dead: fail_all() settles the tickets.
      }
    }
    {
      std::unique_lock<std::mutex> lk(pmu_);
      cv_.wait(lk, [&] { return pending_.empty(); });
    }
    // The server answers goodbye by closing once drained; the reader
    // exits on that EOF (or already exited on an earlier error).
    if (reader_thread_.joinable()) reader_thread_.join();
    fd_.reset();
  }

 private:
  static constexpr std::size_t kNoOp = static_cast<std::size_t>(-1);

  explicit Client(OwnedFd fd) : fd_(std::move(fd)) {
    handshake();
    reader_thread_ = std::thread([this] { reader_loop(); });
  }

  /// Synchronous hello/welcome exchange on the caller's thread (the
  /// reader starts only after it succeeds, so no concurrency yet).
  void handshake() {
    std::vector<std::uint8_t> hello;
    encode_hello(hello);
    write_all(fd_.get(), hello.data(), hello.size());
    char buf[4096];
    for (;;) {
      if (auto payload = reader_.next()) {
        const std::optional<MsgType> type = peek_type(*payload);
        if (type == MsgType::kWelcome) {
          const std::optional<Welcome> w = decode_welcome(*payload);
          if (!w) throw NetError("handshake: malformed welcome");
          welcome_ = *w;
          return;
        }
        if (type == MsgType::kError) {
          const std::optional<std::string> msg = decode_error(*payload);
          throw NetError("server refused connection: " +
                         msg.value_or("(malformed error frame)"));
        }
        throw NetError("handshake: unexpected server message");
      }
      if (reader_.error() != ProtoError::kNone) {
        throw NetError(std::string("handshake: ") +
                       std::string(to_string(reader_.error())));
      }
      const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_net_errno("read (handshake)");
      }
      if (n == 0) throw NetError("server closed during handshake");
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  void reader_loop() {
    char buf[64 * 1024];
    std::string why;
    for (;;) {
      const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        why = std::string("read: ") + std::strerror(errno);
        break;
      }
      if (n == 0) {
        why = "server closed the connection";
        break;
      }
      reader_.feed(buf, static_cast<std::size_t>(n));
      bool bad = false;
      while (auto payload = reader_.next()) {
        if (!dispatch(*payload, why)) {
          bad = true;
          break;
        }
      }
      if (bad) break;
      if (reader_.error() != ProtoError::kNone) {
        why = std::string(to_string(reader_.error()));
        break;
      }
    }
    fail_all(why);
  }

  /// One server frame. Returns false (with `why` set) on protocol error.
  bool dispatch(std::string_view payload, std::string& why) {
    const std::optional<MsgType> type = peek_type(payload);
    if (type == MsgType::kResponse) {
      const std::optional<Response> resp = decode_response(payload);
      if (!resp) {
        why = "malformed response frame";
        return false;
      }
      Ticket* t = take_pending(resp->req_id);
      if (t == nullptr) {
        why = "response for unknown req_id";
        return false;
      }
      t->fulfill(WireResult(resp->result));
      return true;
    }
    if (type == MsgType::kError) {
      const std::optional<std::string> msg = decode_error(payload);
      why = "server error: " + msg.value_or("(malformed error frame)");
      return false;
    }
    why = "unexpected server message";
    return false;
  }

  /// Removes and returns the ticket registered under `id` (nullptr when
  /// fail_all or a racing path already took it). Notifies close()'s
  /// drain wait. Fulfill OUTSIDE pmu_: completions may re-enter submit().
  Ticket* take_pending(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(pmu_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return nullptr;
    Ticket* t = it->second;
    pending_.erase(it);
    if (pending_.empty()) cv_.notify_all();
    return t;
  }

  /// Connection death: every outstanding ticket completes kCancelled
  /// (execution state on the server unknown) and later submits are
  /// refused the same way.
  void fail_all(const std::string& why) {
    std::unordered_map<std::uint64_t, Ticket*> orphans;
    {
      std::lock_guard<std::mutex> lk(pmu_);
      failed_ = true;
      if (last_error_.empty()) last_error_ = why;
      orphans.swap(pending_);
      cv_.notify_all();
    }
    for (const auto& [id, t] : orphans) {
      t->fulfill(WireResult::error(core::ResultStatus::kCancelled));
    }
  }

  OwnedFd fd_;
  Welcome welcome_;
  FrameReader reader_;  ///< reader-thread-owned after the handshake
  std::thread reader_thread_;

  std::mutex wmu_;  ///< serializes frame encode + write on the socket
  std::vector<std::uint8_t> scratch_;  ///< send buffer, reused (under wmu_)

  mutable std::mutex pmu_;  ///< guards pending_/failed_/last_error_
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Ticket*> pending_;
  bool failed_ = false;
  std::string last_error_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace pwss::net
