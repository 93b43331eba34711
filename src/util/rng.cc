#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace adr {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  ADR_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(NextU64()) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(NextU64()) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

float Rng::NextUniform(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

float Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = static_cast<float>(r * std::sin(theta));
  has_cached_gaussian_ = true;
  return static_cast<float>(r * std::cos(theta));
}

float Rng::NextGaussian(float mean, float stddev) {
  return mean + stddev * NextGaussian();
}

void Rng::Shuffle(std::vector<int>* indices) {
  for (size_t i = indices->size(); i > 1; --i) {
    const size_t j = NextBounded(i);
    std::swap((*indices)[i - 1], (*indices)[j]);
  }
}

}  // namespace adr
