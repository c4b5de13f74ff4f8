#pragma once
// Small, fast, deterministic PRNG utilities used by workload generators,
// randomized tests and the random-pivot variant of PESort.
//
// We avoid <random>'s engines in hot paths: SplitMix64 for seeding and
// xoshiro256** for bulk generation (both public-domain algorithms).

#include <cstdint>
#include <limits>

namespace pwss::util {

inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's step-and-finalize: the standard 64-bit avalanche mix.
/// Also the stateless hash behind named-site draws and backoff jitter.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// SplitMix64: used to expand a single 64-bit seed into a stream of
/// well-distributed values (also the recommended seeder for xoshiro).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t z = state_;
    state_ += kGoldenGamma;
    return mix64(z);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator. Satisfies the C++
/// UniformRandomBitGenerator concept so it can drive std distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    const std::uint64_t x = (*this)();
    // 128-bit multiply-shift keeps the distribution uniform enough for
    // benchmarking purposes (bias < 2^-64).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace pwss::util
