// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every stochastic component of the simulator draws from its own Pcg32
// stream, derived from (scenario seed, node id, purpose tag). Two runs with
// the same scenario seed therefore produce bit-identical trajectories
// regardless of how many nodes or components exist, and adding a new
// consumer of randomness never perturbs existing streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace dtn::util {

/// SplitMix64: used only to expand / mix seed material for Pcg32 streams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG-XSH-RR 64/32 generator (O'Neill, 2014). Small, fast, and each
/// (state, stream) pair yields an independent sequence.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  constexpr Pcg32() noexcept : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}

  constexpr Pcg32(std::uint64_t seed, std::uint64_t stream) noexcept
      : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += seed;
    next_u32();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next_u32(); }

  constexpr std::uint32_t next_u32() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  constexpr std::uint64_t next_u64() noexcept {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform double in [0, 1) with full 53-bit mantissa resolution.
  constexpr double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Fills out[0..n) with consecutive next_double() draws in one call —
  /// the batched form the SoA movement kernel uses to pull a whole
  /// waypoint-event block (pause, target, speed, ...) from a node's stream
  /// at once. Identical stream consumption to n sequential calls.
  constexpr void fill_doubles(double* out, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = next_double();
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Purpose tags used when deriving component streams. Keeping these in one
/// enum documents every consumer of randomness in the system.
enum class StreamPurpose : std::uint64_t {
  kMovement = 1,
  kTraffic = 2,
  kMapGen = 3,
  kTest = 6,
};

/// Derives an independent Pcg32 stream from (seed, entity id, purpose).
Pcg32 derive_stream(std::uint64_t scenario_seed, std::uint64_t entity_id,
                    StreamPurpose purpose) noexcept;

}  // namespace dtn::util
