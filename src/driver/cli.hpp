#pragma once
// Shared command-line front end for bench/ and examples/: every binary
// accepts the same backend-selection flags, resolved through the one
// BackendRegistry.
//
//   --backend=NAME[,NAME...]   backends to run (default: binary-specific)
//   --backend=all              every registered backend
//   --workers=N                scheduler worker count (0 = hardware)
//   --shards=N                 shard count for sharded:* backends (0 = 4)
//   --max-in-flight=N          admission window: max admitted-but-not-
//                              completed ops (0 = unbounded; per shard on
//                              sharded:* backends; a full window sheds
//                              with kOverloaded)
//   --mix=S,I,E[,P,Su,R]       op mix fractions (search,insert,erase and
//                              optionally predecessor,successor,range-count;
//                              must sum to 1)
//   --range-span=N             width of range-count queries (default 1024)
//   --durability=off|async|sync  write-ahead logging mode (default off;
//                              sync = acked mutations are fsynced)
//   --durability-dir=PATH      snapshot + WAL directory (default pwss-data;
//                              sharded backends use PATH/shard-N)
//   --serve=ADDR               serve the backend over TCP ([host]:port;
//                              port 0 = kernel-assigned) instead of running
//                              a workload — tools/pwss_serve.cpp honours it
//   --socket=PATH              serve over a Unix-domain socket (may be
//                              combined with --serve for both listeners)
//   --net-window=N             per-connection pipeline window when serving
//                              (requests beyond it are answered kOverloaded
//                              on the wire; default 64)
//   --stats                    print the driver's counter snapshot at exit
//                              (admission/retry + durability + net)
//   --validate                 run the deep validators after the workload;
//                              a report makes the binary exit nonzero
//   --list-backends            print the registry and exit
//   --help                     usage
//
// `--backend=sharded:NAME` wraps any registered backend in the sharded
// driver (validated against the registry like every other name).
//
// parse() validates every requested name against the registry and exits
// with the known-backend list on a miss, so a typo cannot silently fall
// back to bespoke wiring.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "driver/registry.hpp"
#include "store/durability.hpp"
#include "util/workload.hpp"

namespace pwss::driver {

struct CliOptions {
  std::vector<std::string> backends;  // validated registry names
  Options driver;                     // workers / p / durability knobs
  util::OpMix mix;                    // op mix (default: all searches)
  bool mix_given = false;             // --mix was present
  bool print_stats = false;           // --stats was present
  bool validate = false;              // --validate was present
  std::string serve_addr;             // --serve TCP listen address ("" = off)
  std::string socket_path;            // --socket Unix listen path ("" = off)
  unsigned net_window = 64;           // --net-window pipeline depth per conn
};

namespace detail {

inline std::vector<std::string> split_csv(std::string_view s) {
  std::vector<std::string> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    out.emplace_back(s.substr(0, comma));
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return out;
}

/// Strict fraction parse for --mix: [0,1]-range doubles only.
inline double parse_fraction(const char* argv0, std::string_view text) {
  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(std::string(text), &used);
    if (used != text.size()) throw std::invalid_argument("trailing junk");
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s: --mix expects fractions, got '%.*s'\n", argv0,
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  // Negated form so NaN (which compares false everywhere) is rejected
  // rather than slipping through every later sum check.
  if (!(value >= 0.0 && value <= 1.0)) {
    std::fprintf(stderr, "%s: --mix fractions must be in [0, 1]\n", argv0);
    std::exit(2);
  }
  return value;
}

/// Parses "--mix=S,I,E[,P,Su,R]" into an OpMix (sum validated by the
/// workload layer when applied; shape validated here).
inline util::OpMix parse_mix(const char* argv0, std::string_view text) {
  const std::vector<std::string> parts = split_csv(text);
  if (parts.size() != 3 && parts.size() != 6) {
    std::fprintf(stderr,
                 "%s: --mix expects 3 or 6 comma-separated fractions "
                 "(search,insert,erase[,pred,succ,range])\n",
                 argv0);
    std::exit(2);
  }
  util::OpMix mix;
  mix.search = parse_fraction(argv0, parts[0]);
  mix.insert = parse_fraction(argv0, parts[1]);
  mix.erase = parse_fraction(argv0, parts[2]);
  if (parts.size() == 6) {
    mix.pred = parse_fraction(argv0, parts[3]);
    mix.succ = parse_fraction(argv0, parts[4]);
    mix.range = parse_fraction(argv0, parts[5]);
  }
  const double total = mix.search + mix.insert + mix.erase + mix.pred +
                       mix.succ + mix.range;
  if (!(total >= 1.0 - 1e-9 && total <= 1.0 + 1e-9)) {  // NaN-safe
    std::fprintf(stderr, "%s: --mix fractions must sum to 1 (got %f)\n",
                 argv0, total);
    std::exit(2);
  }
  return mix;
}

/// Strict unsigned parse: digits only, fits in unsigned. Anything else
/// (including "-1", "abc", "") is a usage error, not a silent fallback.
inline unsigned parse_unsigned(const char* argv0, std::string_view flag,
                               std::string_view text) {
  unsigned long value = 0;
  bool ok = !text.empty() && text.size() <= 10;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    value = value * 10 + static_cast<unsigned long>(c - '0');
  }
  if (!ok || value > 0xffffffffUL) {
    std::fprintf(stderr, "%s: %.*s expects a non-negative integer, got '%.*s'\n",
                 argv0, static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return static_cast<unsigned>(value);
}

}  // namespace detail

/// Parses backend flags for a <K,V>-keyed binary. `defaults` is the
/// backend set the binary runs when --backend is absent (the experiment's
/// comparison panel). Exits on --help/--list-backends/invalid input.
template <typename K, typename V>
CliOptions parse(int argc, char** argv,
                 std::vector<std::string> defaults) {
  const auto& registry = BackendRegistry<K, V>::instance();
  CliOptions cli;
  cli.backends = std::move(defaults);

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--backend=NAME[,NAME...]|all] [--workers=N]\n"
          "          [--shards=N] [--max-in-flight=N]\n"
          "          [--mix=S,I,E[,P,Su,R]] [--range-span=N]\n"
          "          [--durability=off|async|sync] [--durability-dir=PATH]\n"
          "          [--serve=[host]:port] [--socket=PATH] [--net-window=N]\n"
          "          [--stats] [--validate] [--list-backends]\n"
          "       (NAME may be sharded:NAME, e.g. --backend=sharded:m1)\n",
          argv[0]);
      std::exit(0);
    } else if (arg == "--list-backends") {
      for (const auto& e : registry.entries()) {
        std::printf("%-8s %s\n", e.name.c_str(), e.description.c_str());
      }
      std::printf(
          "sharded:<name>  any of the above, --shards instances behind one "
          "shared scheduler\n");
      std::exit(0);
    } else if (arg.starts_with("--mix=")) {
      const std::uint64_t span = cli.mix.range_span;  // --range-span order-proof
      cli.mix =
          detail::parse_mix(argv[0], arg.substr(std::string_view("--mix=").size()));
      cli.mix.range_span = span;
      cli.mix_given = true;
    } else if (arg.starts_with("--range-span=")) {
      cli.mix.range_span = detail::parse_unsigned(
          argv[0], "--range-span",
          arg.substr(std::string_view("--range-span=").size()));
    } else if (arg.starts_with("--backend=")) {
      const std::string_view val = arg.substr(std::string_view("--backend=").size());
      cli.backends =
          val == "all" ? registry.names() : detail::split_csv(val);
    } else if (arg.starts_with("--workers=")) {
      cli.driver.workers = detail::parse_unsigned(
          argv[0], "--workers",
          arg.substr(std::string_view("--workers=").size()));
    } else if (arg.starts_with("--shards=")) {
      cli.driver.shards = detail::parse_unsigned(
          argv[0], "--shards",
          arg.substr(std::string_view("--shards=").size()));
    } else if (arg.starts_with("--max-in-flight=")) {
      cli.driver.max_in_flight = detail::parse_unsigned(
          argv[0], "--max-in-flight",
          arg.substr(std::string_view("--max-in-flight=").size()));
    } else if (arg.starts_with("--durability=")) {
      const std::string_view val =
          arg.substr(std::string_view("--durability=").size());
      if (const auto mode = store::parse_durability(val)) {
        cli.driver.durability = *mode;
      } else {
        std::fprintf(stderr,
                     "%s: --durability expects off|async|sync, got '%.*s'\n",
                     argv[0], static_cast<int>(val.size()), val.data());
        std::exit(2);
      }
    } else if (arg.starts_with("--durability-dir=")) {
      cli.driver.durability_dir =
          arg.substr(std::string_view("--durability-dir=").size());
    } else if (arg.starts_with("--serve=")) {
      cli.serve_addr = arg.substr(std::string_view("--serve=").size());
    } else if (arg.starts_with("--socket=")) {
      cli.socket_path = arg.substr(std::string_view("--socket=").size());
    } else if (arg.starts_with("--net-window=")) {
      cli.net_window = detail::parse_unsigned(
          argv[0], "--net-window",
          arg.substr(std::string_view("--net-window=").size()));
    } else if (arg == "--stats") {
      cli.print_stats = true;
    } else if (arg == "--validate") {
      cli.validate = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                   argv[0], argv[i]);
      std::exit(2);
    }
  }

  if (cli.driver.workers > 4096 || cli.driver.shards > 4096) {
    std::fprintf(stderr, "%s: --workers/--shards must be at most 4096\n",
                 argv[0]);
    std::exit(2);
  }
  if (cli.backends.empty()) {
    std::fprintf(stderr, "%s: --backend needs at least one name; known:",
                 argv[0]);
    for (const auto& e : registry.entries()) {
      std::fprintf(stderr, " %s", e.name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  for (const auto& name : cli.backends) {
    if (!registry.contains(name)) {
      std::fprintf(stderr, "%s: unknown backend '%s'; known:", argv[0],
                   name.c_str());
      for (const auto& e : registry.entries()) {
        std::fprintf(stderr, " %s", e.name.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
  return cli;
}

/// Prints the driver's counter snapshot (--stats) to stderr so it never
/// mixes with result output on stdout: one line per kStatsFields line,
/// the durability line only when a WAL is armed.
template <typename K, typename V>
void print_stats(const Driver<K, V>& driver) {
  const DriverStats s = driver.stats();
  const bool shown[] = {true, s.durable};
  const char* const prefix[] = {"", s.read_only ? "durable read_only=1 "
                                                : "durable read_only=0 "};
  for (const auto line : {StatsField::kAdmission, StatsField::kDurability}) {
    if (!shown[line]) continue;
    std::string out = "stats[" + driver.name() + "]: " + prefix[line];
    for (const StatsField& f : kStatsFields) {
      if (f.line != line) continue;
      out += std::string(f.name) + "=" + std::to_string(s.*f.counter) + " ";
    }
    out.pop_back();
    std::fprintf(stderr, "%s\n", out.c_str());
  }
}

/// Post-workload epilogue for --stats/--validate: prints the counter
/// snapshot when asked, runs the deep validators when asked. Returns 0,
/// or 1 when --validate produced a report — callers fold it into their
/// exit status so CI catches a corrupted structure even if every
/// result looked plausible.
template <typename K, typename V>
int finish(const CliOptions& cli, Driver<K, V>& driver) {
  int rc = 0;
  if (cli.validate) {
    driver.quiesce();
    const std::string report = driver.validate();
    if (!report.empty()) {
      std::fprintf(stderr, "validate[%s]: %s\n", driver.name().c_str(),
                   report.c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "validate[%s]: ok\n", driver.name().c_str());
    }
  }
  if (cli.print_stats) print_stats(driver);
  return rc;
}

}  // namespace pwss::driver
