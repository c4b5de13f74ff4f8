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
//   name     structure                          Wiring
//   -------  ---------------------------------  ------------------------
//   m0       Section 5 sequential working-set   kAsyncMap (AsyncMap)
//   m1       Section 6 batch-parallel           kAsyncMap
//   m2       Section 7 pipelined                kNative (its own submit)
//   iacono   Iacono's working-set structure     kAsyncMap
//   splay    top-down splay tree                kAsyncMap
//   avl      join-based AVL (non-adjusting)     kAsyncMap
//   locked   mutex around the AVL               kCaller (calling thread)
//
// The Wiring on each make_default() line is the only place a backend's
// front end is chosen (driver/driver.hpp's BackendDriver).
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

  /// One registration line: `name` wires backend B behind front end W.
  template <typename B, Wiring W>
  void add_wired(const char* name, const char* description) {
    add(name, description, [name](const Options& o) {
      return std::make_unique<BackendDriver<K, V, B, W>>(name, o);
    });
  }

  static BackendRegistry make_default() {
    BackendRegistry reg;
    reg.add_wired<core::M0Map<K, V>, Wiring::kAsyncMap>(
        "m0", "M0 sequential working-set map (Section 5)");
    reg.add_wired<core::M1Map<K, V>, Wiring::kAsyncMap>(
        "m1", "M1 batch-parallel working-set map (Section 6)");
    reg.add_wired<core::M2Map<K, V>, Wiring::kNative>(
        "m2", "M2 pipelined working-set map (Section 7)");
    reg.add_wired<baseline::BatchedIacono<K, V>, Wiring::kAsyncMap>(
        "iacono", "Iacono's working-set structure (sequential baseline)");
    reg.add_wired<baseline::BatchedSplay<K, V>, Wiring::kAsyncMap>(
        "splay", "top-down splay tree (sequential baseline)");
    reg.add_wired<baseline::BatchedAvl<K, V>, Wiring::kAsyncMap>(
        "avl", "join-based AVL map (non-adjusting baseline)");
    // The locked baseline serializes internally; an async front end would
    // hide exactly the contention E5/E8 measure.
    reg.add_wired<baseline::BatchedLocked<K, V>, Wiring::kCaller>(
        "locked", "mutex-guarded AVL map (coarse-locked baseline)");
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
