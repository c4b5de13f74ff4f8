// pwss_benchmark — the layer-ladder benchmark (benchmark/README.md).
//
//   pwss_benchmark --workload=NAME --seed=S [--seconds=T] [--dir=DIR]
//                  [--trace=FILE]
//
// Untraced, it reports the end-to-end metrics of backends m1 and m2 (the
// paper's two versions): each gets a fresh driver (workers=2) loaded with
// 2^20 keys, served by net::Server on a Unix socket and driven by two
// net::Client connections in a closed loop. A phase with one op in flight
// per connection (round-trip latency) is followed by one at the server's
// window of 64 (throughput). ws_bulk instead feeds Driver::run in
// 4,096-op batches.
//
// Traced (--trace=FILE), it runs the same op streams at each layer
// boundary (a "rung": wire, Driver::submit, backend execute_batch, ...)
// and writes the spans to FILE; run.py subtracts rungs into per-layer
// cost. Every result of every rung is checked against a per-connection
// std::map oracle, and deep validate() runs after each backend.
//
// Output: one "metric NAME VALUE UNIT", "rung NAME OPS MUTATIONS" or
// "count NAME N" record per line. Exit 0 = every result matched, 1 = a
// wrong result or a failed validation, 2 = bad arguments.

#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baseline/batched.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "driver/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sort/pesort.hpp"
#include "store/durability.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace {

namespace core = pwss::core;
namespace drv = pwss::driver;
namespace net = pwss::net;
namespace util = pwss::util;

using K = std::uint64_t;
using V = std::uint64_t;
using Op = core::Op<K, V>;
using Res = core::Result<V, K>;
using Ticket = core::OpTicket<V, K>;
using Driver = drv::Driver<K, V>;
using M1 = core::M1Map<K, V>;
using M2 = core::M2Map<K, V>;
using core::OpType;
using core::ResultStatus;

constexpr std::uint64_t kKeys = std::uint64_t{1} << 20;
constexpr unsigned kConns = 2;      // client connections = submitting threads
constexpr unsigned kWorkers = 2;    // scheduler workers per driver
constexpr std::size_t kWindow = 64;  // net::ServerConfig's default window
constexpr std::size_t kCoreBatch = kConns * kWindow;  // most the server holds
constexpr std::size_t kBulkBatch = 4096;
constexpr std::size_t kPrepopBatch = std::size_t{1} << 16;
/// Ops per connection script; longer runs cycle through it.
constexpr std::size_t kScriptOps = std::size_t{1} << 19;
/// Working-set size summed over both connections.
constexpr std::size_t kWorkingSet = 1024;
constexpr std::size_t kSpanEvery = 64;  // one op span per 64 ops
constexpr std::size_t kSpanBatch = 4096;  // ops per streaming batch span
/// Set-ups of both drivers per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Times each rung runs in a traced run (see Bench::traced).
constexpr int kSubRungs = 4;
constexpr double kWarmSeconds = 0.15;
constexpr const char* kBackends[] = {"m1", "m2"};

// ---- workloads ----------------------------------------------------------------

enum class Keys { kWorkingSet, kUniform, kZipf };

struct Workload {
  const char* name;
  Keys keys;
  unsigned search_pct;
  unsigned upsert_pct;  ///< the rest erase
  bool wire;            ///< served over the socket; else Driver::run batches
  bool durable;         ///< durability=sync in a fresh directory
};

// Why each exists: README.md "Workloads".
constexpr Workload kWorkloads[] = {
    {"ws_wire", Keys::kWorkingSet, 100, 0, true, false},
    {"uniform_wire", Keys::kUniform, 100, 0, true, false},
    {"zipf_write_wire", Keys::kZipf, 50, 25, true, true},
    {"ws_bulk", Keys::kWorkingSet, 80, 10, false, false},
};

V prepop_value(K key) { return key * 0x9E3779B97F4A7C15ULL + 1; }

/// Connection `conn` owns the keys with key % kConns == conn, so its
/// oracle sees every op on those keys in the order they were submitted.
std::vector<Op> make_script(const Workload& w, std::uint64_t seed,
                            unsigned conn) {
  const std::uint64_t half = kKeys / kConns;
  std::vector<std::uint64_t> ranks;
  switch (w.keys) {
    case Keys::kWorkingSet:
      ranks = util::working_set_keys(half, kWorkingSet / kConns, 0.01,
                                     kScriptOps, seed);
      break;
    case Keys::kUniform:
      ranks = util::uniform_keys(half, kScriptOps, seed);
      break;
    case Keys::kZipf:
      ranks = util::zipf_keys(half, 0.99, kScriptOps, seed);
      break;
  }
  util::Xoshiro256 rng(seed ^ 0xC0FFEEULL);
  std::vector<Op> ops;
  ops.reserve(kScriptOps);
  for (const std::uint64_t r : ranks) {
    const K key = r * kConns + conn;
    const std::uint64_t roll = rng.bounded(100);
    if (roll < w.search_pct) {
      ops.push_back(Op::search(key));
    } else if (roll < w.search_pct + w.upsert_pct) {
      ops.push_back(Op::upsert(key, rng()));
    } else {
      ops.push_back(Op::erase(key));
    }
  }
  return ops;
}

std::uint64_t script_hash(const std::vector<std::vector<Op>>& scripts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& s : scripts) {
    for (const Op& op : s) {
      mix(static_cast<std::uint64_t>(op.type));
      mix(op.key);
      mix(op.value);
    }
  }
  return h;
}

// ---- correctness ----------------------------------------------------------------

class Oracle {
 public:
  explicit Oracle(unsigned conn) {
    for (K k = conn; k < kKeys; k += kConns) {
      map_.emplace_hint(map_.end(), k, prepop_value(k));
    }
  }

  std::size_t size() const { return map_.size(); }

  /// Applies `op` and reports whether `r` is what a sequential map
  /// holding the oracle's contents would have answered.
  bool apply(const Op& op, const Res& r) {
    const auto it = map_.find(op.key);
    const bool present = it != map_.end();
    switch (op.type) {
      case OpType::kSearch:
        return present ? r.status == ResultStatus::kFound && r.value == it->second
                       : r.status == ResultStatus::kNotFound;
      case OpType::kUpsert: {
        const bool ok = r.status == (present ? ResultStatus::kUpdated
                                             : ResultStatus::kInserted);
        if (present) {
          it->second = op.value;
        } else {
          map_.emplace_hint(it, op.key, op.value);
        }
        return ok;
      }
      case OpType::kErase: {
        const bool ok =
            present ? r.status == ResultStatus::kErased && r.value == it->second
                    : r.status == ResultStatus::kNotFound;
        if (present) map_.erase(it);
        return ok;
      }
      default:
        return false;
    }
  }

 private:
  std::map<K, V> map_;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< error status: the op did not execute
  std::uint64_t wrong = 0;   ///< executed with a result the oracle refutes

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    return *this;
  }
};

/// One load thread's position in its connection's cycled script.
struct Lane {
  const std::vector<Op>* script = nullptr;
  Oracle* oracle = nullptr;
  std::uint64_t next = 0;
  Tally tally;

  const Op& op_at(std::uint64_t i) const {
    return (*script)[i % script->size()];
  }
  /// Checks the result of op `i`; results must arrive in script order.
  void settle(std::uint64_t i, const Res& r) {
    ++tally.attempted;
    if (r.is_error()) {
      ++tally.failed;
    } else if (!oracle->apply(op_at(i), r)) {
      ++tally.wrong;
    }
  }
};

/// Fresh oracles and lanes for one driver instance.
struct Streams {
  explicit Streams(const std::vector<std::vector<Op>>& scripts) {
    for (unsigned c = 0; c < kConns; ++c) {
      oracles.push_back(std::make_unique<Oracle>(c));
      lanes[c].script = &scripts[c];
      lanes[c].oracle = oracles.back().get();
    }
  }
  std::size_t expected_size() const {
    std::size_t n = 0;
    for (const auto& o : oracles) n += o->size();
    return n;
  }
  Tally tally() const {
    Tally t;
    for (const Lane& l : lanes) t += l.tally;
    return t;
  }
  std::uint64_t attempted() const { return tally().attempted; }
  std::uint64_t mutations_since(const std::array<std::uint64_t, kConns>& from)
      const {
    std::uint64_t m = 0;
    for (unsigned c = 0; c < kConns; ++c) {
      for (std::uint64_t i = from[c]; i < lanes[c].next; ++i) {
        if (core::is_mutation(lanes[c].op_at(i).type)) ++m;
      }
    }
    return m;
  }
  std::array<std::uint64_t, kConns> cursors() const {
    std::array<std::uint64_t, kConns> a{};
    for (unsigned c = 0; c < kConns; ++c) a[c] = lanes[c].next;
    return a;
  }

  std::vector<std::unique_ptr<Oracle>> oracles;
  std::array<Lane, kConns> lanes;
};

// ---- measurement helpers --------------------------------------------------------

std::uint64_t now_ns() { return core::now_ns(); }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double quantile_us(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]) / 1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void metric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.12g %s\n", name.c_str(), value, unit);
}

// ---- placement ------------------------------------------------------------------
//
// The server side (scheduler workers, reactor) and the load side (client
// readers, submitting threads) each get half of the CPUs the process may
// use, as if clients and server ran on separate machines. Left to the
// kernel, the seven threads share four CPUs in whatever layout they start
// with, and one layout can hold for a whole phase: m1's ws_wire
// throughput read 141k ops/s in one phase and 260k in the next. A thread
// inherits the mask of the thread that starts it, so the main thread
// switches its own mask before it starts each side's threads.

class Placement {
 public:
  Placement() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0) return;
    const int n = CPU_COUNT(&all);
    if (n < 4) return;  // too few to split: the kernel places every thread
    CPU_ZERO(&server_);
    CPU_ZERO(&load_);
    int seen = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && seen < n; ++cpu) {
      if (CPU_ISSET(cpu, &all)) CPU_SET(cpu, seen++ < n / 2 ? &server_ : &load_);
    }
    split_ = true;
  }

  bool split() const { return split_; }
  void server_side() const { apply(server_); }
  void load_side() const { apply(load_); }

 private:
  void apply(const cpu_set_t& set) const {
    if (split_) sched_setaffinity(0, sizeof set, &set);
  }

  bool split_ = false;
  cpu_set_t server_{};
  cpu_set_t load_{};
};

// ---- spans ----------------------------------------------------------------------
//
// Spans are taken here, around the public calls into each layer (there is
// no tracing inside the library), held in memory while the run measures,
// and written out once as JSON Lines:
//
//   {"trace_id":1,"span_id":7,"parent_id":3,"name":"m1.net.pipe.op",
//    "start_ns":...,"end_ns":...}
//
// parent_id 0 marks a root span. run.py turns the file into per-layer
// self time (a span's duration minus the part its children cover).

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  /// A fresh identifier, usable as a trace id or a span id.
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Records a finished span; callable from any thread.
  void record(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  /// Writes every span as one JSON object per line. Names come from the
  /// rung names below, so they never need escaping.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
                   ",\"parent_id\":%" PRIu64
                   ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}\n",
                   s.trace_id, s.span_id, s.parent_id, s.name.c_str(),
                   s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- rungs ----------------------------------------------------------------------

/// Trace context of one rung: a root span, streaming-batch or call spans
/// under it, and op spans under those. Inert when tracer is null.
struct Rung {
  Tracer* tracer = nullptr;
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t root_id = 0;

  Rung(Tracer* t, std::string n) : tracer(t), name(std::move(n)) {
    if (tracer != nullptr) {
      trace_id = tracer->next_id();
      root_id = tracer->next_id();
    }
  }
  void span(std::uint64_t id, std::uint64_t parent, const char* suffix,
            std::uint64_t t0, std::uint64_t t1) const {
    tracer->record(Span{trace_id, id, parent, name + suffix, t0, t1});
  }
};

struct PhaseOut {
  std::uint64_t ops = 0;
  /// Streaming phases: first submit to last result. Batch phases: the
  /// time spent inside the measured calls.
  double seconds = 0;
  std::vector<std::uint64_t> latencies;  ///< ns, when sampled
};

using SubmitFn = std::function<void(const Op&, Ticket*)>;

/// Closed loop on one lane: keeps `window` ops in flight until `stop_ns`,
/// checking each result in submission order while the rest are in flight.
void stream_lane(Lane& lane, std::size_t window, std::uint64_t stop_ns,
                 const SubmitFn& submit, std::vector<std::uint64_t>* latencies,
                 const Rung* rung) {
  constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  std::vector<Ticket> slots(window);
  std::vector<std::uint64_t> slot_op(window, kIdle);
  std::vector<std::uint64_t> slot_local(window, 0);
  std::vector<std::uint64_t> slot_t0(window, 0);
  const bool traced = rung != nullptr && rung->tracer != nullptr;
  // At most two streaming batches are open at once (window < kSpanBatch).
  std::uint64_t batch_id[2] = {0, 0};
  std::uint64_t batch_t0[2] = {0, 0};
  std::uint64_t last_done = 0;

  auto settle = [&](std::size_t s) {
    const Res r = slots[s].wait();
    const std::uint64_t t1 = now_ns();
    lane.settle(slot_op[s], r);
    if (latencies != nullptr) latencies->push_back(t1 - slot_t0[s]);
    if (traced) {
      const std::uint64_t l = slot_local[s];
      const std::uint64_t b = (l / kSpanBatch) & 1;
      if (l % kSpanEvery == 0) {
        rung->span(rung->tracer->next_id(), batch_id[b], ".op", slot_t0[s],
                   t1);
      }
      if ((l + 1) % kSpanBatch == 0) {
        rung->span(batch_id[b], rung->root_id, ".batch", batch_t0[b], t1);
      }
    }
    last_done = t1;
    slots[s].reset();
    slot_op[s] = kIdle;
  };

  std::uint64_t local = 0;
  for (;; ++local) {
    const std::size_t s = local % window;
    if (slot_op[s] != kIdle) settle(s);
    if (now_ns() >= stop_ns) break;
    slot_op[s] = lane.next++;
    slot_local[s] = local;
    slot_t0[s] = now_ns();
    if (traced && local % kSpanBatch == 0) {
      const std::uint64_t b = (local / kSpanBatch) & 1;
      batch_id[b] = rung->tracer->next_id();
      batch_t0[b] = slot_t0[s];
    }
    submit(lane.op_at(slot_op[s]), &slots[s]);
  }
  for (std::size_t k = 1; k <= window; ++k) {
    const std::size_t s = (local + k) % window;
    if (slot_op[s] != kIdle) settle(s);
  }
  if (traced && local % kSpanBatch != 0) {
    const std::uint64_t b = ((local - 1) / kSpanBatch) & 1;
    rung->span(batch_id[b], rung->root_id, ".batch", batch_t0[b], last_done);
  }
}

/// One phase: every lane on its own thread for `seconds`. With
/// keep_latency each op's round trip is sampled.
PhaseOut stream_phase(Streams& st, std::size_t window, double seconds,
                      const std::function<SubmitFn(unsigned)>& submit_for,
                      bool keep_latency, const Rung* rung) {
  const std::uint64_t before = st.attempted();
  const std::uint64_t t0 = now_ns();
  const auto stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::array<std::vector<std::uint64_t>, kConns> lat;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      stream_lane(st.lanes[c], window, stop, submit_for(c),
                  keep_latency ? &lat[c] : nullptr, rung);
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t t1 = now_ns();
  PhaseOut out;
  out.ops = st.attempted() - before;
  out.seconds = static_cast<double>(t1 - t0) / 1e9;
  for (const auto& v : lat) {
    out.latencies.insert(out.latencies.end(), v.begin(), v.end());
  }
  if (rung != nullptr && rung->tracer != nullptr) {
    rung->span(rung->root_id, 0, "", t0, t1);
  }
  return out;
}

using BatchFn = std::function<void(const std::vector<Op>&, std::vector<Res>&)>;

/// One caller thread issuing `batch`-op calls built by interleaving the
/// lanes; results are checked between calls, outside the timed region.
/// Each call's duration is a latency sample.
PhaseOut batch_phase(Streams& st, std::size_t batch, double seconds,
                     const BatchFn& exec, const Rung* rung) {
  std::vector<Op> ops;
  ops.reserve(batch);
  std::vector<std::uint64_t> idx(batch);
  std::vector<Res> results;
  const bool traced = rung != nullptr && rung->tracer != nullptr;
  const std::uint64_t t0 = now_ns();
  PhaseOut out;
  const auto stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t busy_ns = 0;
  std::uint64_t t1 = t0;
  do {
    ops.clear();
    for (std::size_t j = 0; j < batch; ++j) {
      Lane& lane = st.lanes[j % kConns];
      idx[j] = lane.next++;
      ops.push_back(lane.op_at(idx[j]));
    }
    const std::uint64_t b0 = now_ns();
    exec(ops, results);
    t1 = now_ns();
    busy_ns += t1 - b0;
    out.latencies.push_back(t1 - b0);
    if (traced) {
      rung->span(rung->tracer->next_id(), rung->root_id, ".batch", b0, t1);
    }
    for (std::size_t j = 0; j < batch; ++j) {
      st.lanes[j % kConns].settle(idx[j], results[j]);
    }
    out.ops += batch;
  } while (t1 < stop);
  out.seconds = static_cast<double>(busy_ns) / 1e9;
  if (traced) rung->span(rung->root_id, 0, "", t0, now_ns());
  return out;
}

// ---- the harness ----------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;
  std::string dir = ".";
  std::string trace;
};

/// A connection whose Client is built in place (Client is not movable).
struct Conn {
  explicit Conn(const std::string& path)
      : client(net::Client::dial_unix(path)) {}
  net::Client client;
};

/// A driver served on a Unix socket to kConns connected clients; closes
/// the clients and drains the server when it goes out of scope.
class Served {
 public:
  Served(Driver& d, const std::string& socket_path, const Placement& place) {
    net::ServerConfig cfg;
    cfg.unix_path = socket_path;
    place.server_side();
    server_.emplace(d, cfg);
    place.load_side();
    for (unsigned c = 0; c < kConns; ++c) {
      conns_.push_back(std::make_unique<Conn>(socket_path));
    }
  }
  ~Served() {
    for (auto& c : conns_) c->client.close();
    server_->stop();
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  net::NetStats stats() const { return server_->stats(); }

  /// Lane c submits over connection c.
  std::function<SubmitFn(unsigned)> submit() {
    return [this](unsigned c) -> SubmitFn {
      net::Client* cl = &conns_[c]->client;
      return [cl](const Op& op, Ticket* t) { cl->submit(op, t); };
    };
  }

 private:
  std::optional<net::Server> server_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

class Bench {
 public:
  explicit Bench(const Args& a) : args_(a), w_(*a.workload) {
    util::SplitMix64 sm(a.seed);
    for (unsigned c = 0; c < kConns; ++c) {
      scripts_.push_back(make_script(w_, sm.next(), c));
    }
    if (!a.trace.empty()) tracer_ = std::make_unique<Tracer>();
  }

  int run() {
    std::printf("count script_hash %" PRIu64 "\n", script_hash(scripts_));
    std::printf("count cpus_split %d\n", place_.split() ? 1 : 0);
    if (tracer_) {
      traced();
    } else {
      untraced();
    }
    std::printf("count attempted %" PRIu64 "\n", tally_.attempted);
    std::printf("count failed %" PRIu64 "\n", tally_.failed);
    std::printf("count wrong_results %" PRIu64 "\n", tally_.wrong);
    std::printf("count validate_failures %" PRIu64 "\n", invalid_);
    if (tracer_ && !tracer_->write(args_.trace)) {
      std::fprintf(stderr, "pwss_benchmark: cannot write %s\n",
                   args_.trace.c_str());
      return 1;
    }
    return tally_.wrong == 0 && invalid_ == 0 ? 0 : 1;
  }

 private:
  drv::Options options(const std::string& backend, bool durable) const {
    drv::Options o;
    o.workers = kWorkers;
    if (durable) {
      o.durability = pwss::store::DurabilityMode::kSync;
      o.durability_dir = data_dir(backend);
    }
    return o;
  }
  std::string data_dir(const std::string& backend) const {
    return args_.dir + "/data-" + backend;
  }
  std::string socket_path() const { return args_.dir + "/pwss.sock"; }

  /// Builds one driver on the server side's CPUs and loads kKeys keys
  /// through Driver::run (one WAL group commit per batch when durable).
  /// Every insert must answer kInserted; the load is set-up, not a
  /// measured phase, so it stays out of the attempted/failed tally.
  std::unique_ptr<Driver> setup(const std::string& backend, bool durable) {
    std::filesystem::remove_all(data_dir(backend));
    place_.server_side();
    auto d = drv::make_driver<K, V>(backend, options(backend, durable));
    place_.load_side();
    std::vector<Op> batch;
    batch.reserve(kPrepopBatch);
    std::vector<Res> out;
    std::uint64_t bad = 0;
    for (K k = 0; k < kKeys; k += kPrepopBatch) {
      batch.clear();
      for (K j = k; j < k + kPrepopBatch; ++j) {
        batch.push_back(Op::insert(j, prepop_value(j)));
      }
      d->run(batch, out);
      for (const Res& r : out) bad += r.status != ResultStatus::kInserted;
    }
    if (bad != 0) {
      std::fprintf(stderr, "pwss_benchmark: %s load: %" PRIu64
                   " inserts did not answer kInserted\n",
                   backend.c_str(), bad);
      ++invalid_;
    }
    return d;
  }

  void finish_driver(Driver& d, Streams& st, const std::string& label) {
    const std::string err = d.validate();
    if (!err.empty()) {
      std::fprintf(stderr, "pwss_benchmark: %s validate: %s\n", label.c_str(),
                   err.c_str());
      ++invalid_;
    }
    if (d.size() != st.expected_size()) {
      std::fprintf(stderr, "pwss_benchmark: %s holds %zu keys, oracle %zu\n",
                   label.c_str(), d.size(), st.expected_size());
      ++invalid_;
    }
    tally_ += st.tally();
  }

  static std::function<SubmitFn(unsigned)> driver_submit(Driver& d) {
    return [&d](unsigned) -> SubmitFn {
      return [&d](const Op& op, Ticket* t) { d.submit(op, t); };
    };
  }
  static BatchFn driver_run(Driver& d) {
    return [&d](const std::vector<Op>& ops, std::vector<Res>& out) {
      d.run(ops, out);
    };
  }
  template <typename B>
  static BatchFn backend_exec(B& b) {
    return [&b](const std::vector<Op>& ops, std::vector<Res>& out) {
      core::execute_batch_into<K, V>(b, std::span<const Op>(ops), out);
    };
  }

  // ---- untraced: end-to-end metrics ---------------------------------------

  /// Sets up both drivers, one after the other, kSetups times; setup_s is
  /// the median of these rounds. Only the last round's drivers are
  /// measured. Only one driver exists at a time: an idle scheduler's
  /// workers still wake every millisecond and would disturb the measured
  /// one.
  void untraced() {
    std::vector<double> setup_s;
    std::vector<double> bytes_per_key;
    for (int round = 0; round < kSetups; ++round) {
      double round_s = 0;
      for (const char* b : kBackends) {
        malloc_trim(0);
        const std::uint64_t rss0 = rss_bytes();
        const std::uint64_t t0 = now_ns();
        std::unique_ptr<Driver> d = setup(b, w_.durable);
        round_s += static_cast<double>(now_ns() - t0) / 1e9;
        if (round == 0) {
          bytes_per_key.push_back(
              (static_cast<double>(rss_bytes()) - static_cast<double>(rss0)) /
              static_cast<double>(kKeys));
        }
        if (round + 1 == kSetups) {
          Streams st(scripts_);
          measure(b, *d, st);
          finish_driver(*d, st, b);
        }
        d.reset();
        std::filesystem::remove_all(data_dir(b));
      }
      setup_s.push_back(round_s);
    }
    for (std::size_t i = 0; i < std::size(kBackends); ++i) {
      metric(std::string(kBackends[i]) + ".bytes_per_key", bytes_per_key[i],
             "B");
    }
    metric("setup_s", median(setup_s), "s");
    const double fail_ratio = static_cast<double>(tally_.failed) /
                              static_cast<double>(tally_.attempted);
    metric("fail_ratio", fail_ratio, "ratio");
    metric("ok_ratio", 1.0 - fail_ratio, "ratio");
  }

  /// Wire workloads: a blocking phase (round-trip samples), then a
  /// pipelined one (throughput). ws_bulk: one phase of Driver::run calls,
  /// whose durations are the latency samples.
  void measure(const std::string& b, Driver& d, Streams& st) {
    const double phase_s =
        args_.seconds / static_cast<double>(std::size(kBackends)) /
        (w_.wire ? 2.0 : 1.0);
    PhaseOut lat;
    PhaseOut thr;
    if (w_.wire) {
      Served served(d, socket_path(), place_);
      const auto submit = served.submit();
      stream_phase(st, kWindow, kWarmSeconds, submit, false, nullptr);
      lat = stream_phase(st, 1, phase_s, submit, true, nullptr);
      thr = stream_phase(st, kWindow, phase_s, submit, false, nullptr);
    } else {
      batch_phase(st, kBulkBatch, kWarmSeconds, driver_run(d), nullptr);
      thr = batch_phase(st, kBulkBatch, phase_s, driver_run(d), nullptr);
      lat = thr;
    }
    metric(b + ".ops_per_s", static_cast<double>(thr.ops) / thr.seconds,
           "1/s");
    metric(b + ".rtt_p50_us", quantile_us(lat.latencies, 0.50), "us");
    metric(b + ".rtt_p99_us", quantile_us(lat.latencies, 0.99), "us");
    metric(b + ".rtt_p999_us", quantile_us(lat.latencies, 0.999), "us");
    metric(b + ".rtt_samples", static_cast<double>(lat.latencies.size()),
           "count");
  }

  // ---- traced: the ladder -------------------------------------------------

  static void rung_line(const std::string& name, std::uint64_t ops,
                        std::uint64_t mutations) {
    std::printf("rung %s %" PRIu64 " %" PRIu64 "\n", name.c_str(), ops,
                mutations);
  }

  /// Runs a rung and prints its op and mutation counts.
  template <typename Fn>
  PhaseOut rung(Streams& st, const std::string& name, Fn&& body) {
    const auto from = st.cursors();
    Rung r(tracer_.get(), name);
    PhaseOut p = body(r);
    rung_line(name, p.ops, st.mutations_since(from));
    return p;
  }

  /// The ladder: every rung kSubRungs times, interleaved with the other
  /// rungs so each sees the same mix of thread placements and machine
  /// states; run.py takes each rung's median over its sub-rungs.
  void traced() {
    const int kinds = w_.wire ? (w_.durable ? 6 : 5) : 2;
    const double sub_s = 0.85 * args_.seconds /
                         (std::size(kBackends) * kinds * kSubRungs);
    const double shared_s = 0.15 * args_.seconds / 3;
    for (const char* name : kBackends) {
      const std::string b = name;
      std::unique_ptr<Driver> d = setup(b, w_.durable);
      auto st = std::make_unique<Streams>(scripts_);
      if (w_.wire) {
        ladder_wire(b, *d, *st, sub_s);
      } else {
        ladder_bulk(b, *d, *st, sub_s);
      }
      if (w_.durable) {
        // The store rung: the same stream on a driver without a WAL.
        finish_driver(*d, *st, b);
        d.reset();
        std::filesystem::remove_all(data_dir(b));
        d = setup(b, false);
        st = std::make_unique<Streams>(scripts_);
        stream_phase(*st, kWindow, kWarmSeconds, driver_submit(*d), false,
                     nullptr);
        for (int k = 0; k < kSubRungs; ++k) {
          rung(*st, b + ".nodur.pipe", [&](const Rung& r) {
            return stream_phase(*st, kWindow, sub_s, driver_submit(*d), false,
                                &r);
          });
        }
      }
      core_rung(b, *d, *st, sub_s);
      finish_driver(*d, *st, b);
      d.reset();
      std::filesystem::remove_all(data_dir(b));
    }
    sort_rung(shared_s);
    avl_rung(shared_s);
    store_rung(shared_s);
  }

  /// Lifetime counters of one driver, process CPU time and the WAL size.
  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t retries = 0;
    std::uint64_t tasks = 0;
    std::uint64_t wal_appends = 0;
    std::uint64_t wal_fsyncs = 0;
    std::uint64_t wal_bytes = 0;
    double cpu_s = 0;

    /// Adds what moved between snapshots `from` and `to`.
    void add_delta(const Counters& from, const Counters& to) {
      admitted += to.admitted - from.admitted;
      shed += to.shed - from.shed;
      retries += to.retries - from.retries;
      tasks += to.tasks - from.tasks;
      wal_appends += to.wal_appends - from.wal_appends;
      wal_fsyncs += to.wal_fsyncs - from.wal_fsyncs;
      wal_bytes += to.wal_bytes - from.wal_bytes;
      cpu_s += to.cpu_s - from.cpu_s;
    }
  };

  Counters counters(Driver& d) const {
    const drv::DriverStats s = d.stats();
    Counters c;
    c.admitted = s.admitted;
    c.shed = s.shed;
    c.retries = s.retries;
    c.tasks = d.scheduler() != nullptr ? d.scheduler()->tasks_executed() : 0;
    c.wal_appends = s.wal_appends;
    c.wal_fsyncs = s.wal_fsyncs;
    if (s.durable) {
      std::error_code ec;
      c.wal_bytes = std::filesystem::file_size(
          pwss::store::wal_path(data_dir(d.name())), ec);
    }
    c.cpu_s = cpu_seconds();
    return c;
  }

  /// Driver, scheduler, process and store counts per op of the top rung.
  void per_op_counters(const std::string& b, const Counters& c,
                       std::uint64_t ops) {
    const double n = static_cast<double>(ops);
    const auto ratio = [](std::uint64_t x, std::uint64_t y) {
      return y == 0 ? 0.0 : static_cast<double>(x) / static_cast<double>(y);
    };
    metric(b + ".driver.admitted_per_op", static_cast<double>(c.admitted) / n,
           "count");
    metric(b + ".driver.shed_per_op", static_cast<double>(c.shed) / n,
           "count");
    metric(b + ".driver.retries_per_op", static_cast<double>(c.retries) / n,
           "count");
    metric(b + ".sched.tasks_per_op", static_cast<double>(c.tasks) / n,
           "count");
    metric(b + ".proc.cpu_us_per_op", c.cpu_s * 1e6 / n, "us");
    metric(b + ".store.mutations_per_fsync", ratio(c.wal_appends, c.wal_fsyncs),
           "count");
    metric(b + ".store.wal_bytes_per_mutation",
           ratio(c.wal_bytes, c.wal_appends), "B");
  }

  /// The top rung's throughput and latency, one sample per sub-rung; each
  /// metric is the median over the sub-rungs.
  struct TopRung {
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p99s;

    void add(const PhaseOut& thr, const PhaseOut& lat) {
      rates.push_back(static_cast<double>(thr.ops) / thr.seconds);
      p50s.push_back(quantile_us(lat.latencies, 0.50));
      p99s.push_back(quantile_us(lat.latencies, 0.99));
    }
    void print(const std::string& b) const {
      metric(b + ".ops_per_s", median(rates), "1/s");
      metric(b + ".rtt_p50_us", median(p50s), "us");
      metric(b + ".rtt_p99_us", median(p99s), "us");
    }
  };

  void ladder_wire(const std::string& b, Driver& d, Streams& st,
                   double sub_s) {
    Served served(d, socket_path(), place_);
    const auto submit = served.submit();
    stream_phase(st, kWindow, kWarmSeconds, submit, false, nullptr);
    const net::NetStats net0 = served.stats();
    Counters moved;
    std::uint64_t pipe_ops = 0;
    std::uint64_t wire_ops = 0;
    TopRung top;
    for (int k = 0; k < kSubRungs; ++k) {
      const Counters before = counters(d);
      const PhaseOut pipe = rung(st, b + ".net.pipe", [&](const Rung& r) {
        return stream_phase(st, kWindow, sub_s, submit, false, &r);
      });
      moved.add_delta(before, counters(d));
      pipe_ops += pipe.ops;
      const PhaseOut block = rung(st, b + ".net.block", [&](const Rung& r) {
        return stream_phase(st, 1, sub_s, submit, true, &r);
      });
      top.add(pipe, block);
      wire_ops += pipe.ops + block.ops;
      rung(st, b + ".driver.pipe", [&](const Rung& r) {
        return stream_phase(st, kWindow, sub_s, driver_submit(d), false, &r);
      });
      rung(st, b + ".driver.block", [&](const Rung& r) {
        return stream_phase(st, 1, sub_s, driver_submit(d), false, &r);
      });
    }
    const net::NetStats net1 = served.stats();
    per_op_counters(b, moved, pipe_ops);
    top.print(b);
    const double n = static_cast<double>(wire_ops);
    metric(b + ".net.frames_per_op",
           static_cast<double>((net1.frames_in - net0.frames_in) +
                               (net1.frames_out - net0.frames_out)) /
               n,
           "count");
    metric(b + ".net.shed_ratio",
           static_cast<double>(net1.shed_on_wire - net0.shed_on_wire) / n,
           "ratio");
  }

  void ladder_bulk(const std::string& b, Driver& d, Streams& st,
                   double sub_s) {
    batch_phase(st, kBulkBatch, kWarmSeconds, driver_run(d), nullptr);
    Counters moved;
    std::uint64_t ops = 0;
    TopRung top;
    for (int k = 0; k < kSubRungs; ++k) {
      const Counters before = counters(d);
      const PhaseOut run = rung(st, b + ".driver.run", [&](const Rung& r) {
        return batch_phase(st, kBulkBatch, sub_s, driver_run(d), &r);
      });
      moved.add_delta(before, counters(d));
      ops += run.ops;
      top.add(run, run);
    }
    per_op_counters(b, moved, ops);
    top.print(b);
    metric(b + ".net.frames_per_op", 0, "count");  // no socket
    metric(b + ".net.shed_ratio", 0, "ratio");
  }

  /// The backend's own execute_batch on the driver's instance, called
  /// directly (no front end, no admission, no WAL).
  void core_rung(const std::string& b, Driver& d, Streams& st, double sub_s) {
    const std::size_t batch = w_.wire ? kCoreBatch : kBulkBatch;
    const std::string name = b + ".core";
    if (auto* m1 = dynamic_cast<drv::AsyncDriver<K, V, M1>*>(&d)) {
      M1& map = m1->backend();
      map.reset_probe_depth_counts();
      for (int k = 0; k < kSubRungs; ++k) {
        rung(st, name, [&](const Rung& r) {
          return batch_phase(st, batch, sub_s, backend_exec(map), &r);
        });
      }
      const core::ProbeDepthCounts& pc = map.probe_depth_counts();
      const double total = static_cast<double>(pc.total());
      const char* depth[] = {"s0", "s1", "s2", "deep"};
      for (int k = 0; k < 4; ++k) {
        metric(std::string("core.m1.hit_share_") + depth[k],
               total == 0 ? 0.0 : static_cast<double>(pc.hits[k]) / total,
               "ratio");
      }
      metric("core.m1.miss_share",
             total == 0 ? 0.0 : static_cast<double>(pc.misses) / total,
             "ratio");
      metric("core.m1.segments", static_cast<double>(map.segment_count()),
             "count");
    } else if (auto* m2 = dynamic_cast<drv::NativeAsyncDriver<K, V, M2>*>(&d)) {
      M2& map = m2->backend();
      for (int k = 0; k < kSubRungs; ++k) {
        rung(st, name, [&](const Rung& r) {
          return batch_phase(st, batch, sub_s, backend_exec(map), &r);
        });
      }
    }
  }

  /// The plain AVL baseline on the same batches: the reference the
  /// M1-vs-AVL gap is measured against.
  void avl_rung(double seconds) {
    pwss::baseline::BatchedAvl<K, V> avl;
    std::vector<Op> load;
    std::vector<Res> out;
    load.reserve(kKeys);
    for (K k = 0; k < kKeys; ++k) load.push_back(Op::insert(k, prepop_value(k)));
    core::execute_batch_into<K, V>(avl, std::span<const Op>(load), out);
    Streams st(scripts_);
    rung(st, "ref.avl.core", [&](const Rung& r) {
      return batch_phase(st, w_.wire ? kCoreBatch : kBulkBatch, seconds,
                         backend_exec(avl), &r);
    });
    tally_ += st.tally();
    if (avl.size() != st.expected_size()) ++invalid_;
  }

  /// Op `i` of the connections' scripts taken in turn, as batch rungs do.
  const Op& interleaved(std::uint64_t i) const {
    return scripts_[i % kConns][(i / kConns) % kScriptOps];
  }

  /// sort::pesort alone on the same batches' keys (stable by position).
  void sort_rung(double seconds) {
    struct Tagged {
      K key;
      std::size_t pos;
    };
    place_.server_side();
    pwss::sched::Scheduler sched(kWorkers);
    place_.load_side();
    const std::size_t batch = w_.wire ? kCoreBatch : kBulkBatch;
    auto key_of = [](const Tagged& t) { return t.key; };
    pwss::sort::PESortScratch<Tagged, K> scratch;
    std::vector<Tagged> v;
    Rung r(tracer_.get(), "sort");
    const std::uint64_t t0 = now_ns();
    const auto stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t t1 = t0;
    std::uint64_t ops = 0;
    do {
      v.clear();
      for (std::size_t j = 0; j < batch; ++j) {
        v.push_back({interleaved(ops + j).key, j});
      }
      const std::uint64_t b0 = now_ns();
      pwss::sort::pesort(v, key_of, &sched, {}, &scratch);
      t1 = now_ns();
      r.span(tracer_->next_id(), r.root_id, ".batch", b0, t1);
      for (std::size_t j = 1; j < v.size(); ++j) {
        if (v[j - 1].key > v[j].key ||
            (v[j - 1].key == v[j].key && v[j - 1].pos > v[j].pos)) {
          ++tally_.wrong;
          break;
        }
      }
      ops += batch;
    } while (t1 < stop);
    r.span(r.root_id, 0, "", t0, now_ns());
    rung_line("sort", ops, 0);
  }

  /// Durability::log and commit called directly on the workload's
  /// mutations, in a fresh directory: the WAL's own cost without a map.
  void store_rung(double seconds) {
    if (!w_.durable) {
      metric("store.log_us_per_op", 0, "us");
      metric("store.commit_us_p50", 0, "us");
      return;
    }
    const std::string dir = args_.dir + "/data-store";
    std::filesystem::remove_all(dir);
    std::vector<std::uint64_t> commit_ns;
    std::uint64_t log_ns = 0;
    std::uint64_t n = 0;
    {
      pwss::store::Durability<K, V> dur(dir, pwss::store::DurabilityMode::kSync);
      dur.recover();
      dur.arm();
      const std::uint64_t stop =
          now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
      for (std::uint64_t i = 0; now_ns() < stop; ++i) {
        const Op& op = interleaved(i);
        if (!core::is_mutation(op.type)) continue;
        const std::uint64_t t0 = now_ns();
        const std::uint64_t seq = dur.log(op.type, op.key, op.value);
        const std::uint64_t t1 = now_ns();
        dur.commit(seq);
        const std::uint64_t t2 = now_ns();
        log_ns += t1 - t0;
        commit_ns.push_back(t2 - t1);
        ++n;
      }
    }
    std::filesystem::remove_all(dir);
    metric("store.log_us_per_op",
           n == 0 ? 0.0 : static_cast<double>(log_ns) / 1e3 / static_cast<double>(n),
           "us");
    metric("store.commit_us_p50", quantile_us(std::move(commit_ns), 0.5), "us");
  }

  Args args_;
  const Workload& w_;
  std::vector<std::vector<Op>> scripts_;
  std::unique_ptr<Tracer> tracer_;
  Placement place_;
  Tally tally_;
  std::uint64_t invalid_ = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const auto eq = s.find('=');
    if (s.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = s.substr(2, eq - 2);
    const std::string val = s.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      for (const Workload& w : kWorkloads) {
        if (val == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) return false;
    } else if (key == "seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
      a.seed_set = true;
    } else if (key == "seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "dir") {
      if (val.empty()) return false;
      a.dir = val;
    } else if (key == "trace") {
      if (val.empty()) return false;
      a.trace = val;
    } else {
      return false;
    }
  }
  return a.workload != nullptr && a.seed_set;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=S [--seconds=T] [--dir=DIR] "
                 "[--trace=FILE]\n  workloads:",
                 argv[0]);
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  Bench bench(args);
  const int rc = bench.run();
  std::fflush(stdout);
  return rc;
}
