// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through Rng so that every experiment
// is reproducible from a single seed. The core generator is xoshiro256**,
// seeded via splitmix64 (public-domain algorithms by Blackman & Vigna).

#ifndef ADR_UTIL_RNG_H_
#define ADR_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace adr {

/// \brief Deterministic random number generator (xoshiro256**).
///
/// Not thread-safe; use one instance per thread.
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// \brief Next raw 64-bit value.
  uint64_t NextU64();

  /// \brief Uniform integer in [0, bound) using Lemire's method. `bound` > 0.
  uint64_t NextBounded(uint64_t bound);

  /// \brief Uniform double in [0, 1).
  double NextDouble();

  /// \brief Uniform float in [lo, hi).
  float NextUniform(float lo, float hi);

  /// \brief Standard normal variate (Box-Muller, cached pair).
  float NextGaussian();

  /// \brief Normal variate with the given mean and standard deviation.
  float NextGaussian(float mean, float stddev);

  /// \brief Fisher-Yates shuffle of `indices`.
  void Shuffle(std::vector<int>* indices);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  float cached_gaussian_ = 0.0f;
};

}  // namespace adr

#endif  // ADR_UTIL_RNG_H_
