#pragma once
// BackendRegistry — the single string -> factory table behind every
// `--backend=<name>` flag in bench/ and examples/, and behind the
// registry-parameterized test suites. New backends (sharded variants, new
// baselines, future structures) land as one `add()` call instead of a
// fan-out edit across every binary.
//
// The registry is a per-<K,V> singleton pre-populated with the library's
// seven backends:
//
//   name     structure                          wiring
//   -------  ---------------------------------  -----------------
//   m0       Section 5 sequential working-set   AsyncMap front end
//   m1       Section 6 batch-parallel           AsyncMap front end
//   m2       Section 7 pipelined                native async
//   iacono   Iacono's working-set structure     AsyncMap front end
//   splay    top-down splay tree                AsyncMap front end
//   avl      join-based AVL (non-adjusting)     AsyncMap front end
//   locked   mutex around the AVL               direct point ops
//
// Any registered name also resolves with a `sharded:` prefix
// (`sharded:m1`, `sharded:locked`, ...): Options::shards instances of the
// named backend behind one shared scheduler (driver/sharded.hpp).

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/batched.hpp"
#include "core/m0_map.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "driver/driver.hpp"
#include "driver/sharded.hpp"

namespace pwss::driver {

template <typename K, typename V>
class BackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Driver<K, V>>(const Options&)>;

  struct Entry {
    std::string name;
    std::string description;
    Factory make;
  };

  /// The process-wide registry for this <K,V>, pre-populated with the
  /// seven library backends.
  static BackendRegistry& instance() {
    static BackendRegistry reg = make_default();
    return reg;
  }

  /// Registers a backend; returns false (and changes nothing) if the name
  /// is taken.
  bool add(std::string name, std::string description, Factory make) {
    if (find(name)) return false;
    entries_.push_back(
        {std::move(name), std::move(description), std::move(make)});
    return true;
  }

  /// True for registered names and for `sharded:<registered name>`
  /// (sharding does not nest).
  bool contains(std::string_view name) const {
    if (name.starts_with(kShardedPrefix)) {
      return find(name.substr(kShardedPrefix.size())) != nullptr;
    }
    return find(name) != nullptr;
  }

  /// Creates a driver, or throws std::invalid_argument naming the known
  /// backends. Use contains() to probe without throwing. A `sharded:`
  /// prefix wraps Options::shards instances of the named backend behind
  /// one shared scheduler. With Options::durability != kOff the driver
  /// recovers its directory (validated) and arms its WAL before it is
  /// returned — store::StoreError propagates when the store is corrupt.
  std::unique_ptr<Driver<K, V>> create(std::string_view name,
                                       const Options& opts = {}) const {
    if (name.starts_with(kShardedPrefix)) {
      if (const Entry* e = find(name.substr(kShardedPrefix.size()))) {
        auto driver = std::make_unique<ShardedDriver<K, V>>(std::string(name),
                                                            opts, e->make);
        driver->open_durability(opts);
        return driver;
      }
    } else if (const Entry* e = find(name)) {
      auto driver = e->make(opts);
      driver->open_durability(opts);
      return driver;
    }
    std::string msg = "unknown backend '" + std::string(name) + "'; known:";
    for (const auto& e : entries_) msg += " " + e.name;
    msg += " (each also as sharded:<name>)";
    throw std::invalid_argument(msg);
  }

  const std::vector<Entry>& entries() const { return entries_; }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.name);
    return out;
  }

 private:
  const Entry* find(std::string_view name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  static BackendRegistry make_default() {
    BackendRegistry reg;
    reg.add("m0", "M0 sequential working-set map (Section 5)",
            [](const Options& o) {
              return std::make_unique<AsyncDriver<K, V, core::M0Map<K, V>>>(
                  "m0", o);
            });
    reg.add("m1", "M1 batch-parallel working-set map (Section 6)",
            [](const Options& o) {
              return std::make_unique<AsyncDriver<K, V, core::M1Map<K, V>>>(
                  "m1", o);
            });
    reg.add("m2", "M2 pipelined working-set map (Section 7)",
            [](const Options& o) {
              return std::make_unique<
                  NativeAsyncDriver<K, V, core::M2Map<K, V>>>("m2", o);
            });
    reg.add("iacono", "Iacono's working-set structure (sequential baseline)",
            [](const Options& o) {
              return std::make_unique<
                  AsyncDriver<K, V, baseline::BatchedIacono<K, V>>>("iacono",
                                                                    o);
            });
    reg.add("splay", "top-down splay tree (sequential baseline)",
            [](const Options& o) {
              return std::make_unique<
                  AsyncDriver<K, V, baseline::BatchedSplay<K, V>>>("splay", o);
            });
    reg.add("avl", "join-based AVL map (non-adjusting baseline)",
            [](const Options& o) {
              return std::make_unique<
                  AsyncDriver<K, V, baseline::BatchedAvl<K, V>>>("avl", o);
            });
    reg.add("locked", "mutex-guarded AVL map (coarse-locked baseline)",
            [](const Options& o) {
              return std::make_unique<
                  DirectDriver<K, V, baseline::BatchedLocked<K, V>>>("locked",
                                                                     o);
            });
    return reg;
  }

  std::vector<Entry> entries_;
};

/// Shorthand: make a driver for <K,V> from the default registry.
template <typename K, typename V>
std::unique_ptr<Driver<K, V>> make_driver(std::string_view name,
                                          const Options& opts = {}) {
  return BackendRegistry<K, V>::instance().create(name, opts);
}

}  // namespace pwss::driver
