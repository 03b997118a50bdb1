#include "util/rng.hpp"

namespace dtn::util {

double Pcg32::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

std::int64_t Pcg32::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return lo + static_cast<std::int64_t>(next_u64());
  // Unbiased rejection sampling (Lemire-style threshold on 64-bit draws).
  const std::uint64_t threshold = (0 - range) % range;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % range);
  }
}

bool Pcg32::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Pcg32 derive_stream(std::uint64_t scenario_seed, std::uint64_t entity_id,
                    StreamPurpose purpose) noexcept {
  SplitMix64 mixer(scenario_seed ^ (entity_id * 0x9e3779b97f4a7c15ULL) ^
                   (static_cast<std::uint64_t>(purpose) << 48));
  const std::uint64_t state = mixer.next();
  const std::uint64_t stream = mixer.next();
  return Pcg32(state, stream);
}

}  // namespace dtn::util
