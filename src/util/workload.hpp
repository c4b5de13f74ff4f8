#pragma once
// Workload generators for the experiment suite (DESIGN.md E1..E8).
//
// All generators are deterministic given a seed, so every benchmark and
// property test is reproducible run-to-run.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace pwss::util {

/// Operation kind used by workloads, tests and benches. The maps' own op
/// type (core/ops.hpp) mirrors this; keeping a plain POD here lets the
/// generators stay independent of the data-structure headers.
enum class OpKind : std::uint8_t {
  kSearch,
  kInsert,
  kErase,
  kPredecessor,  // ordered: greatest key < key
  kSuccessor,    // ordered: least key > key
  kRangeCount,   // ordered: |[key, key2]|
};

struct KeyOp {
  OpKind kind;
  std::uint64_t key;
  std::uint64_t value;   // payload for inserts
  std::uint64_t key2 = 0;  // kRangeCount: inclusive high bound
};

/// Fraction-based operation mix; the six fractions must sum to 1
/// (validated). The ordered fractions (pred/succ/range) drive the
/// protocol-v2 query kinds; range-count queries span [key,
/// key + range_span].
struct OpMix {
  double search = 1.0;
  double insert = 0.0;
  double erase = 0.0;
  double pred = 0.0;
  double succ = 0.0;
  double range = 0.0;
  std::uint64_t range_span = 1024;
};

/// count keys drawn uniformly from [0, universe).
std::vector<std::uint64_t> uniform_keys(std::uint64_t universe,
                                        std::size_t count,
                                        std::uint64_t seed);

/// count keys drawn Zipf(theta) over [0, universe), then affinely hashed so
/// hot keys are scattered across the key space (avoids accidental
/// comparison-order locality).
std::vector<std::uint64_t> zipf_keys(std::uint64_t universe, double theta,
                                     std::size_t count, std::uint64_t seed);

/// Sliding working-set workload: with probability (1-miss_rate) draws from
/// the `window` most recently used keys; otherwise from the whole universe
/// (which also rotates the window). Models temporal locality with a
/// controllable working-set size — the knob Theorem 7 / E1 sweeps.
std::vector<std::uint64_t> working_set_keys(std::uint64_t universe,
                                            std::size_t window,
                                            double miss_rate,
                                            std::size_t count,
                                            std::uint64_t seed);

/// A single batch of `size` ops where ceil(dup_fraction*size) ops all hit
/// one key and the rest are distinct — the adversarial batch shape from
/// Section 3 ("b searches for the same item in the last tree").
std::vector<KeyOp> duplicate_heavy_batch(std::uint64_t universe,
                                         std::size_t size,
                                         double dup_fraction,
                                         std::uint64_t seed);

/// Expand a key sequence into ops with the given mix.
std::vector<KeyOp> apply_mix(const std::vector<std::uint64_t>& keys,
                             const OpMix& mix, std::uint64_t seed);

/// Empirical entropy (bits per access) of a key sequence:
/// H = sum_i q_i log2(1/q_i) over item frequencies q_i.
double empirical_entropy_bits(const std::vector<std::uint64_t>& keys);

/// The paper's working-set bound W_L (Definition 2) for a sequence of
/// *search* accesses performed on an initially-empty map: each access costs
/// log2(r)+1 where r is its access rank (distinct items touched since the
/// previous access to the same key; first access of a key ranks as the
/// current number of distinct items + 1, matching Definition 1's
/// insertion/miss rule). Used by E1/E4 to compare measured work to W_L.
double working_set_bound(const std::vector<std::uint64_t>& keys);

}  // namespace pwss::util
