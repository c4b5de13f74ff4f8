#pragma once
// Fork-based crash harness (DESIGN.md "Durability & recovery"): the
// proof layer behind the durability subsystem's acked⇒durable contract.
//
// One scenario = one fork. The CHILD builds a driver with sync
// durability over a scratch directory, arms one crash point
// (sites::arm(site, kCrash, nth)), and runs a seeded sequential workload,
// appending ONE byte to an ack file after each op completes — so the
// ack file's size is exactly the count of acked ops when the armed site
// calls _exit(42) mid-persistence. The PARENT waits, re-opens the same
// directory through the ordinary registry path (recover → replay →
// validate → arm), and asserts the recovered contents are EXACTLY some
// prefix of the deterministic op script no shorter than the acked
// count:
//
//   * every acked op is present (no acked-op loss under sync), and
//   * the state matches a prefix boundary (no half-applied op — an
//     unacked op is either fully in or fully out).
//
// The workload is strictly sequential (run_blocking), so at most a
// handful of ops past the acked count can have logged before the
// crash; the parent scans prefixes [acked, acked + kMaxInFlight].
//
// fork() is safe here because each scenario forks from the gtest main
// thread before the child constructs its driver (worker threads only
// ever exist inside one side of the fork).

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/registry.hpp"
#include "store/format.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/sites.hpp"

namespace pwss::testutil {

struct CrashScenario {
  std::string backend;      // registry name (m0, m1, m2, sharded:m1, ...)
  std::string site;         // crash-point site to arm in the child
  std::uint64_t nth = 1;    // 1-based hit index that dies
  std::uint64_t seed = 1;   // workload script seed
  std::size_t total_ops = 160;
  std::size_t checkpoint_at = 80;  // ops before the child checkpoints
  std::uint64_t universe = 64;     // key universe (small: erases collide)
};

/// The deterministic mutation-heavy script both sides derive from the
/// seed. Mutations only — reads exercise nothing the recovery assertions
/// can observe, and an all-mutation script hits every WAL site hard.
inline std::vector<core::Op<std::uint64_t, std::uint64_t>> crash_script(
    const CrashScenario& sc) {
  using Op = core::Op<std::uint64_t, std::uint64_t>;
  util::Xoshiro256 rng(sc.seed);
  std::vector<Op> ops;
  ops.reserve(sc.total_ops);
  for (std::size_t i = 0; i < sc.total_ops; ++i) {
    const std::uint64_t key = rng.bounded(sc.universe);
    const std::uint64_t value = sc.seed * 1'000'000 + i;
    switch (rng.bounded(4)) {
      case 0:
        ops.push_back(Op::erase(key));
        break;
      case 1:
        ops.push_back(Op::upsert(key, value));
        break;
      default:
        ops.push_back(Op::insert(key, value));
    }
  }
  return ops;
}

/// Child body: never returns. Exit codes: 42 = armed crash point fired
/// (the interesting case), 0 = workload completed without hitting it,
/// anything else = child bug.
[[noreturn]] inline void run_crash_child(const CrashScenario& sc,
                                         const std::string& dir,
                                         const std::string& ack_path) {
  util::sites::arm(sc.site, util::sites::Action::kCrash,
                   static_cast<std::int64_t>(sc.nth));
  driver::Options opts;
  opts.durability = store::DurabilityMode::kSync;
  opts.durability_dir = dir;
  store::Fd ack(ack_path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND);
  try {
    auto driver =
        driver::make_driver<std::uint64_t, std::uint64_t>(sc.backend, opts);
    const auto ops = crash_script(sc);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto r = driver->run_blocking(ops[i]);
      if (r.is_error()) ::_exit(3);  // unbounded window: nothing may shed
      const char byte = 1;
      ack.write_all(&byte, 1);  // op i acked: persisted per sync contract
      if (i + 1 == sc.checkpoint_at) {
        if (!driver->checkpoint().empty()) ::_exit(4);
      }
    }
  } catch (...) {
    ::_exit(5);
  }
  ::_exit(0);
}

/// Parent body: recover the directory and assert the contract. Returns
/// the child's exit code so sweeps can count fired vs. completed runs.
inline int recover_and_check(const CrashScenario& sc, const std::string& dir,
                             const std::string& ack_path) {
  const std::string label =
      sc.backend + "/" + sc.site + ":" + std::to_string(sc.nth) + " seed " +
      std::to_string(sc.seed);

  pid_t pid = ::fork();
  if (pid == 0) run_crash_child(sc, dir, ack_path);
  EXPECT_GT(pid, 0) << "fork failed for " << label;
  if (pid <= 0) return -1;
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << label << ": child did not exit cleanly";
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  EXPECT_TRUE(code == 0 || code == util::sites::kCrashExitCode)
      << label << ": child exit code " << code;

  std::uint64_t acked = 0;
  {
    store::Fd ack(ack_path, O_RDONLY);
    acked = ack.size();
  }
  const auto ops = crash_script(sc);
  EXPECT_LE(acked, ops.size()) << label;
  if (code == 0) {
    EXPECT_EQ(acked, ops.size()) << label;
  }

  // Recover through the ordinary boot path (validates internally and
  // throws rather than serving a state it cannot certify).
  driver::Options opts;
  opts.durability = store::DurabilityMode::kSync;
  opts.durability_dir = dir;
  std::map<std::uint64_t, std::uint64_t> recovered;
  {
    auto driver =
        driver::make_driver<std::uint64_t, std::uint64_t>(sc.backend, opts);
    EXPECT_EQ(driver->validate(), "") << label;
    for (const auto& [k, v] : driver->export_sorted()) recovered[k] = v;
  }

  // The recovered state must be EXACTLY the script prefix of length M
  // for some M in [acked, acked + kMaxInFlight]: shorter loses an acked
  // op, longer (or no match at all) means a partially-applied or
  // invented op.
  constexpr std::uint64_t kMaxInFlight = 8;
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (std::uint64_t i = 0; i < acked && i < ops.size(); ++i) {
    reference_apply(oracle, ops[i]);
  }
  bool matched = oracle == recovered;
  std::uint64_t matched_at = acked;
  for (std::uint64_t m = acked; !matched && m < ops.size() &&
                                m < acked + kMaxInFlight;
       ++m) {
    reference_apply(oracle, ops[m]);
    matched = oracle == recovered;
    matched_at = m + 1;
  }
  EXPECT_TRUE(matched) << label << ": recovered state (size "
                       << recovered.size()
                       << ") matches no script prefix in [" << acked << ", "
                       << acked + kMaxInFlight << "); acked ops lost or an "
                       << "unacked op half-applied";
  if (matched && matched_at > acked) {
    // Informational: a logged-but-unacked suffix was replayed — legal
    // under the one-sided contract (acked ⇒ durable).
  }
  return code;
}

}  // namespace pwss::testutil
