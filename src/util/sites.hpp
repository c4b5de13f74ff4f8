#pragma once
// Named sites (DESIGN.md "Named sites"): one registry behind every hook
// the tree places inside a delicate window.
//
//   hook                     kind   a hit asks...
//   ------------------------ ------ -----------------------------------------
//   PWSS_SCHED_POINT("x")    sched  "should this thread yield or park here?"
//                                   (the seeded interleaving explorer)
//   PWSS_FAULT_POINT("x")    fault  "should this call fail now?" — an
//                                   expression, `if (PWSS_FAULT_POINT(..))`
//   PWSS_CRASH_POINT("x")    crash  "should the process die now?" — the
//                                   armed hit calls _exit(kCrashExitCode):
//                                   no destructors, no flushes, a power cut
//
// Sched and fault sites compile in only under -DPWSS_SITES=ON; otherwise
// they expand to `((void)0)` / `false` — zero code, zero data. Crash
// sites are compiled into every build (cold persistence paths only, one
// relaxed fetch_add and two loads when nothing is armed) so the crash
// matrix runs against the production binary.
//
// Every site is a function-local static that links itself into one
// push-only list on its first hit, so a site that never runs costs
// nothing and never appears in a snapshot. A hit acts in one of two ways:
//
//  * armed rules — arm(name, action, n) or, at process start,
//    PWSS_SITES=name:action[:n][,name:action[:n]...]:
//      yield:n / park:n   perturb the next n hits (any site kind)
//      fail:n             fail the next n hits (fault sites)
//      crash:n            die on the nth hit, process-wide (crash sites)
//    n defaults to 1. Rules are the deterministic hammer for one path.
//  * seeded injection — enable(seed, kinds[, period, only]) makes every
//    site of those kinds (or only the named ones) draw
//    h = mix64(seed ^ hash(name) ^ thread_salt ^ seq): a sched site parks
//    on 1 in 32 draws and yields on 1 in 8, a fault site fails on 1 in
//    `period`. Crash sites never draw. The decision is a pure function of
//    the seed, so a failing seed replays.
//
// PWSS_FAULT_LIST=1 registers an exit dump of every site that ran, one
// line per name (a template or several TUs instantiate one static per
// copy of the same logical site), grouped by kind.

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace pwss::util::sites {

/// True in builds where sched and fault sites compile to live hooks.
/// Tests GTEST_SKIP injection scenarios without them instead of silently
/// passing without injecting anything. Crash sites are always live.
#if defined(PWSS_SITES)
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

/// Exit status of a process killed at an armed crash site.
inline constexpr int kCrashExitCode = 42;

enum Kind : unsigned { kSched = 1, kFault = 2, kCrash = 4 };
enum class Action : std::uint8_t { kNone, kYield, kPark, kFail, kCrash };

struct Site {
  const char* name;
  Kind kind;
  std::atomic<std::uint64_t> hits{0};   ///< times control passed the site
  std::atomic<std::uint64_t> fires{0};  ///< yields/parks, failures, crash
  Site* next = nullptr;                 ///< registry link (push-only list)
};

// ---- registry state ----------------------------------------------------------
// Plain atomics, constant-initialized: no locks and no init guard on the
// hit path. Rule slots fill front to back and are never freed (clear()
// only zeroes their counts), so a reader never sees a name rewritten.

inline constexpr std::size_t kMaxRules = 32;
inline constexpr std::size_t kMaxName = 48;

struct Rule {
  std::atomic<Action> action{Action::kNone};  ///< published after name
  char name[kMaxName] = {};
  std::atomic<std::int64_t> left{0};  ///< hits left to act on / before dying
};

/// Longest seeded park: longer than a scheduling slice on every
/// mainstream kernel config, so the parked thread's counterpart runs.
inline constexpr std::uint32_t kMaxParkUs = 2000;

struct Registry {
  std::atomic<Site*> head{nullptr};
  std::atomic<std::uint64_t> seed{0};  ///< 0 = seeded injection off
  std::atomic<unsigned> kinds{0};      ///< Kind bits the seed perturbs
  std::atomic<std::uint32_t> period{16};  ///< fault: hits per seeded fire
  std::atomic<std::size_t> only_count{0};  ///< 0 = every site draws
  std::atomic<const char*> only[kMaxRules] = {};
  std::atomic<std::size_t> rule_count{0};
  Rule rules[kMaxRules];
};

/// Defined (constant-initialized) in sites.cpp, whose static
/// initializer also reads PWSS_SITES and PWSS_FAULT_LIST: every hit
/// references the registry, so any binary that can hit a site links it.
extern Registry registry;

// ---- armed rules -------------------------------------------------------------

/// Arms `action` at every site named `name` for the next `n` hits
/// (crash: the nth hit dies), replacing any earlier rule for that name.
/// A test-thread call; returns false when the name is too long or the
/// table is full.
inline bool arm(std::string_view name, Action action, std::int64_t n = 1) {
  if (name.empty() || name.size() >= kMaxName || action == Action::kNone) {
    return false;
  }
  Registry& r = registry;
  const std::size_t count = r.rule_count.load(std::memory_order_acquire);
  std::size_t i = 0;
  while (i < count && name != r.rules[i].name) ++i;
  if (i == count) {
    if (count == kMaxRules) return false;
    std::memcpy(r.rules[i].name, name.data(), name.size());
    r.rule_count.store(count + 1, std::memory_order_release);
  }
  r.rules[i].left.store(n < 1 ? 1 : n, std::memory_order_release);
  r.rules[i].action.store(action, std::memory_order_release);
  return true;
}

/// Zeroes every armed rule (the names stay claimed; see Registry).
inline void clear() {
  Registry& r = registry;
  const std::size_t count = r.rule_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    r.rules[i].left.store(0, std::memory_order_release);
  }
}

/// Parses the PWSS_SITES grammar (name:action[:n], comma separated) and
/// arms each rule. Malformed entries are reported on stderr and skipped;
/// returns the number armed.
inline int arm_spec(std::string_view spec) {
  int armed = 0;
  while (!spec.empty()) {
    const std::string_view entry = spec.substr(0, spec.find(','));
    spec.remove_prefix(std::min(spec.size(), entry.size() + 1));
    const std::size_t c1 = entry.find(':');
    const std::string_view name = entry.substr(0, c1);
    const std::string_view rest =
        c1 == std::string_view::npos ? "" : entry.substr(c1 + 1);
    const std::string_view verb = rest.substr(0, rest.find(':'));
    std::int64_t n = 1;
    if (verb.size() < rest.size()) {
      n = std::strtoll(std::string(rest.substr(verb.size() + 1)).c_str(),
                       nullptr, 10);
    }
    Action a = Action::kNone;
    if (verb == "yield") a = Action::kYield;
    if (verb == "park") a = Action::kPark;
    if (verb == "fail") a = Action::kFail;
    if (verb == "crash") a = Action::kCrash;
    if (arm(name, a, n)) {
      ++armed;
    } else {
      std::fprintf(stderr, "pwss: PWSS_SITES: ignoring \"%.*s\"\n",
                   static_cast<int>(entry.size()), entry.data());
    }
  }
  return armed;
}

/// Consumes one hit of the rule armed for `name`; returns its action when
/// this hit is one the rule acts on (crash: only the nth), else kNone.
inline Action take_rule(const char* name) {
  Registry& r = registry;
  const std::size_t count = r.rule_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    Rule& rule = r.rules[i];
    const Action a = rule.action.load(std::memory_order_acquire);
    if (a == Action::kNone || std::strcmp(rule.name, name) != 0) continue;
    std::int64_t left = rule.left.load(std::memory_order_acquire);
    while (left > 0 && !rule.left.compare_exchange_weak(
                           left, left - 1, std::memory_order_acq_rel,
                           std::memory_order_acquire)) {
    }
    if (left <= 0 || (a == Action::kCrash && left != 1)) return Action::kNone;
    return a;
  }
  return Action::kNone;
}

// ---- seeded injection --------------------------------------------------------

/// Enables seeded injection at every site whose kind is in `kinds` (a
/// Kind bitmask), restricted to the sites named in `only` when that is
/// not empty (string literals; the fault sweep uses it to keep sites that
/// are not clean by construction, node_pool.chunk_alloc mid-tree-op,
/// out). `period` is a fault site's mean hits between fires. Armed rules
/// are unaffected.
inline void enable(std::uint64_t seed, unsigned kinds,
                   std::uint32_t period = 16,
                   std::initializer_list<const char*> only = {}) {
  std::size_t n = 0;
  for (const char* name : only) {
    if (n == kMaxRules) break;
    registry.only[n++].store(name, std::memory_order_relaxed);
  }
  registry.only_count.store(n, std::memory_order_relaxed);
  registry.kinds.store(kinds, std::memory_order_relaxed);
  registry.period.store(period < 2 ? 2 : period, std::memory_order_relaxed);
  registry.seed.store(seed == 0 ? 1 : seed, std::memory_order_release);
}

inline void disable() { registry.seed.store(0, std::memory_order_release); }

/// The seeded decision for one hit; kNone when the site does not draw.
/// `park_us` receives a seed-dependent park length.
inline Action draw(const Site& s, std::uint32_t& park_us) {
  const std::uint64_t seed = registry.seed.load(std::memory_order_acquire);
  if (seed == 0 || s.kind == kCrash ||
      (registry.kinds.load(std::memory_order_relaxed) & s.kind) == 0) {
    return Action::kNone;
  }
  const std::size_t n = registry.only_count.load(std::memory_order_relaxed);
  std::size_t i = 0;
  while (i < n && std::strcmp(registry.only[i].load(std::memory_order_relaxed),
                              s.name) != 0) {
    ++i;
  }
  if (i == n && n != 0) return Action::kNone;
  thread_local const std::uint64_t thread_salt =
      mix64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  thread_local std::uint64_t sequence = 0;
  const std::uint64_t h =
      mix64(seed ^ std::hash<std::string_view>{}(s.name) ^ thread_salt ^
            ++sequence);
  if (s.kind == kFault) {
    const std::uint32_t period = registry.period.load(std::memory_order_relaxed);
    return h % period == 0 ? Action::kFail : Action::kNone;
  }
  if ((h & 31) == 0) {
    park_us = 50 + static_cast<std::uint32_t>((h >> 8) % (kMaxParkUs - 50));
    return Action::kPark;
  }
  return (h & 7) == 0 ? Action::kYield : Action::kNone;
}

// ---- the hit path ------------------------------------------------------------

/// Counts the hit (linking the site into the list on its first), asks
/// the armed rules first and the seed second, performs a yield/park
/// itself, and returns the action for the caller (a fault site fails on
/// kFail, a crash site dies on kCrash).
inline Action hit(Site& s) {
  if (s.hits.fetch_add(1, std::memory_order_relaxed) == 0) {
    Site* head = registry.head.load(std::memory_order_relaxed);
    do {
      s.next = head;
    } while (!registry.head.compare_exchange_weak(
        head, &s, std::memory_order_release, std::memory_order_relaxed));
  }
  std::uint32_t park_us = kMaxParkUs;
  Action a = registry.rule_count.load(std::memory_order_relaxed) == 0
                 ? Action::kNone
                 : take_rule(s.name);
  if (a == Action::kNone) a = draw(s, park_us);
  if (a == Action::kNone) return a;
  s.fires.fetch_add(1, std::memory_order_relaxed);
  if (a == Action::kYield) std::this_thread::yield();
  if (a == Action::kPark) {
    std::this_thread::sleep_for(std::chrono::microseconds(park_us));
  }
  return a;
}

/// The armed crash: no destructors, no buffer flushes.
[[noreturn]] inline void die() { ::_exit(kCrashExitCode); }

// ---- counters and the dump ---------------------------------------------------

/// One logical site: every registered static carrying the name, summed.
struct Snapshot {
  std::string_view name;
  Kind kind;
  std::uint64_t hits;
  std::uint64_t fires;
};

/// Every site executed so far, one entry per name, ordered by kind then
/// name.
inline std::vector<Snapshot> snapshot() {
  std::vector<Snapshot> out;
  for (Site* s = registry.head.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    const std::uint64_t hits = s->hits.load(std::memory_order_relaxed);
    const std::uint64_t fires = s->fires.load(std::memory_order_relaxed);
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Snapshot& o) { return o.name == s->name; });
    if (it == out.end()) {
      out.push_back({s->name, s->kind, hits, fires});
    } else {
      it->hits += hits;
      it->fires += fires;
    }
  }
  std::sort(out.begin(), out.end(), [](const Snapshot& a, const Snapshot& b) {
    return a.kind != b.kind ? a.kind < b.kind : a.name < b.name;
  });
  return out;
}

/// The named site's summed counters (zero if it never ran).
inline Snapshot find(std::string_view name) {
  for (const Snapshot& s : snapshot()) {
    if (s.name == name) return s;
  }
  return {name, kSched, 0, 0};
}
inline std::uint64_t hits(std::string_view name) { return find(name).hits; }
inline std::uint64_t fires(std::string_view name) { return find(name).fires; }

/// Writes every executed site to `out`, one line per name, grouped by
/// kind. The PWSS_FAULT_LIST exit dump; callable directly from tests.
inline void dump_sites(std::FILE* out) {
  std::fprintf(out,
               "pwss: fault/schedule-point site dump "
               "(sched/fault compiled: %s, crash: always)\n",
               kCompiled ? "yes" : "no");
  const auto all = snapshot();
  const std::pair<Kind, const char*> sections[] = {
      {kSched, "schedule points"}, {kFault, "fault points"},
      {kCrash, "crash points"}};
  for (const auto& [kind, title] : sections) {
    std::fprintf(out, "  %s:\n", title);
    bool any = false;
    for (const Snapshot& s : all) {
      if (s.kind != kind) continue;
      any = true;
      std::fprintf(out, "    %-36.*s hits=%llu fires=%llu\n",
                   static_cast<int>(s.name.size()), s.name.data(),
                   static_cast<unsigned long long>(s.hits),
                   static_cast<unsigned long long>(s.fires));
    }
    if (!any) std::fprintf(out, "    (no site executed)\n");
  }
  std::fflush(out);
}

// ---- PreemptionFuzzer --------------------------------------------------------
// The unnamed sibling of a sched site: a per-thread CPU timer whose
// SIGPROF handler parks the interrupted thread mid-instruction-stream.
// It needs no hooks, so it also perturbs windows nobody thought to name.

extern "C" inline void preemption_fuzzer_park(int) {
  const int saved_errno = errno;
  timespec park{0, 5'000'000};  // 5 ms: longer than a scheduling slice
  nanosleep(&park, nullptr);
  errno = saved_errno;
}

/// Arms a CPU-time timer on the calling thread that delivers SIGPROF (to
/// this thread only) roughly every interval_ns of ITS cpu time.
/// Destroying the object disarms the timer.
class PreemptionFuzzer {
 public:
  explicit PreemptionFuzzer(long interval_ns) {
    struct sigaction sa{};
    sa.sa_handler = preemption_fuzzer_park;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, nullptr);

    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
    sev.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
    armed_ = timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer_) == 0;
    if (armed_) {
      itimerspec its{};
      its.it_interval.tv_nsec = interval_ns;
      its.it_value.tv_nsec = interval_ns;
      timer_settime(timer_, 0, &its, nullptr);
    }
  }
  ~PreemptionFuzzer() {
    if (armed_) timer_delete(timer_);
  }
  PreemptionFuzzer(const PreemptionFuzzer&) = delete;
  PreemptionFuzzer& operator=(const PreemptionFuzzer&) = delete;

 private:
  timer_t timer_{};
  bool armed_ = false;
};

}  // namespace pwss::util::sites

// ---- the hooks ---------------------------------------------------------------
// `name` must be a string literal. Each expansion holds its own
// constant-initialized static Site inside an immediately-invoked lambda,
// so the fault and crash forms read as expressions at the call site.

#define PWSS_SITE_HIT_(name, kind)                                    \
  ([]() -> ::pwss::util::sites::Action {                              \
    static ::pwss::util::sites::Site pwss_site_{name, kind};          \
    return ::pwss::util::sites::hit(pwss_site_);                      \
  }())

#if defined(PWSS_SITES)
#define PWSS_SCHED_POINT(name) \
  ((void)PWSS_SITE_HIT_(name, ::pwss::util::sites::kSched))
#define PWSS_FAULT_POINT(name)                                \
  (PWSS_SITE_HIT_(name, ::pwss::util::sites::kFault) ==       \
   ::pwss::util::sites::Action::kFail)
#else
#define PWSS_SCHED_POINT(name) ((void)0)
#define PWSS_FAULT_POINT(name) (false)
#endif

/// True on the armed dying hit of crash site `name` — for sites that
/// must do something (write a torn tail) before calling sites::die().
#define PWSS_CRASH_DUE(name)                               \
  (PWSS_SITE_HIT_(name, ::pwss::util::sites::kCrash) ==    \
   ::pwss::util::sites::Action::kCrash)
#define PWSS_CRASH_POINT(name)                                  \
  do {                                                          \
    if (PWSS_CRASH_DUE(name)) ::pwss::util::sites::die();       \
  } while (0)
