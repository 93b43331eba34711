// Property tests for sign-random-projection LSH: the per-bit collision
// probability of two vectors at angle theta is 1 - theta/pi (Goemans &
// Williamson / Charikar), which is the theoretical foundation the paper's
// clustering rests on.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/lsh.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tests/kernel_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

// Counts matching bits between two signatures over the first H bits.
int MatchingBits(const LshSignature& a, const LshSignature& b, int h) {
  int matches = 0;
  for (int i = 0; i < h; ++i) {
    const bool bit_a = (a.words[i >> 6] >> (i & 63)) & 1;
    const bool bit_b = (b.words[i >> 6] >> (i & 63)) & 1;
    if (bit_a == bit_b) ++matches;
  }
  return matches;
}

class LshAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(LshAngleSweep, BitCollisionMatchesTheory) {
  const double theta = GetParam();
  // Build many independent hash families; for each, hash a fixed pair of
  // vectors at angle theta and count per-bit agreements.
  const int64_t dim = 16;
  const int h = 64;
  const int families = 40;

  // Construct u along e0 and v at angle theta in the (e0, e1) plane.
  Tensor u(Shape({dim}));
  Tensor v(Shape({dim}));
  u.at(0) = 1.0f;
  v.at(0) = static_cast<float>(std::cos(theta));
  v.at(1) = static_cast<float>(std::sin(theta));

  int64_t agreements = 0;
  for (int f = 0; f < families; ++f) {
    LshFamily family;
    ASSERT_TRUE(
        LshFamily::Create(dim, h, 1000 + static_cast<uint64_t>(f), &family)
            .ok());
    agreements += MatchingBits(family.Hash(u.data()), family.Hash(v.data()),
                               h);
  }
  const double observed =
      static_cast<double>(agreements) / (families * h);
  const double expected = 1.0 - theta / M_PI;
  // ~2560 Bernoulli trials: 3-sigma is about 0.03.
  EXPECT_NEAR(observed, expected, 0.04)
      << "theta = " << theta;
}

INSTANTIATE_TEST_SUITE_P(Angles, LshAngleSweep,
                         ::testing::Values(0.0, M_PI / 8, M_PI / 4,
                                           M_PI / 2, 3 * M_PI / 4, M_PI));

class LshHashCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(LshHashCountSweep, ClusterCountGrowsWithH) {
  // On i.i.d. Gaussian rows, the expected number of clusters rises
  // monotonically with H (more hyperplanes split finer). Property checked
  // across H with a shared dataset.
  const int h = GetParam();
  Rng rng(42);
  Tensor data = Tensor::RandomGaussian(Shape({256, 12}), &rng);

  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(12, h, 7, &family).ok());
  std::vector<LshSignature> sigs;
  family.HashRows(data.data(), 256, 12, &sigs);
  const Clustering clustering = ClusterBySignature(sigs, nullptr);
  // Coarse bounds: at least 2^0 clusters and at most min(2^h, 256).
  EXPECT_GE(clustering.num_clusters(), 1);
  EXPECT_LE(clustering.num_clusters(),
            std::min<int64_t>(int64_t{1} << std::min(h, 62), 256));
  // Record into a static to assert monotonicity across the sweep order.
  static int last_h = -1;
  static int64_t last_count = 0;
  if (last_h >= 0 && h > last_h) {
    EXPECT_GE(clustering.num_clusters(), last_count);
  }
  last_h = h;
  last_count = clustering.num_clusters();
}

INSTANTIATE_TEST_SUITE_P(HashCounts, LshHashCountSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(LshPropertyTest, SignatureStableAcrossBatchSplits) {
  // Hashing rows one-by-one, in one batch, or via strided access must give
  // identical signatures — the invariant cluster reuse depends on.
  Rng rng(9);
  Tensor data = Tensor::RandomGaussian(Shape({32, 10}), &rng);
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(10, 24, 5, &family).ok());

  std::vector<LshSignature> batched;
  family.HashRows(data.data(), 32, 10, &batched);
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(batched[static_cast<size_t>(i)],
              family.Hash(data.data() + i * 10));
  }

  std::vector<LshSignature> first_half, second_half;
  family.HashRows(data.data(), 16, 10, &first_half);
  family.HashRows(data.data() + 16 * 10, 16, 10, &second_half);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(first_half[static_cast<size_t>(i)],
              batched[static_cast<size_t>(i)]);
    EXPECT_EQ(second_half[static_cast<size_t>(i)],
              batched[static_cast<size_t>(16 + i)]);
  }
}

TEST(LshPropertyTest, SignaturesIndependentOfThreadCount) {
  // Enough strided rows that HashRows splits them over the thread pool
  // (also the TSan coverage of that ParallelFor): every backend must give
  // the same signatures at 1 and 4 threads, equal to per-row hashing.
  const int64_t dim = 37, stride = 45, rows = 1001;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, 128, 31, &family).ok());
  ASSERT_GT(rows, GrainForCost(dim * family.padded_hashes()))
      << "batch must span several ParallelFor chunks";
  Rng rng(12);
  Tensor data = Tensor::RandomGaussian(Shape({rows, stride}), &rng);
  const int saved_threads = ThreadPool::GlobalThreads();
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<std::vector<LshSignature>> runs;
    for (const int threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      runs.emplace_back();
      family.HashRows(data.data(), rows, stride, &runs.back());
    }
    for (int64_t i = 0; i < rows; ++i) {
      const LshSignature& sig = runs[0][static_cast<size_t>(i)];
      EXPECT_EQ(runs[1][static_cast<size_t>(i)], sig)
          << backend->name << " row " << i;
      EXPECT_EQ(family.Hash(data.data() + i * stride), sig)
          << backend->name << " row " << i;
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

// Fuzz-style invariance properties of the sign hash, checked on every
// SIMD backend: the signature depends only on projection signs, so it is
// invariant under positive scaling of the row, and negating the row flips
// every bit. Exercised over many random rows, dimensions with remainder
// lanes, and scale factors spanning five orders of magnitude.
TEST(LshPropertyTest, SignatureInvariantUnderPositiveScaling) {
  const int h = 48;
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const int64_t dim : {int64_t{7}, int64_t{17}, int64_t{33}}) {
      LshFamily family;
      ASSERT_TRUE(
          LshFamily::Create(dim, h, 100 + static_cast<uint64_t>(dim), &family)
              .ok());
      for (int trial = 0; trial < 50; ++trial) {
        const std::vector<float> row = testutil::RandomVector(
            dim, 9000 + static_cast<uint64_t>(trial) * 3 +
                     static_cast<uint64_t>(dim));
        const LshSignature sig = family.Hash(row.data());
        for (const float scale : {1e-3f, 0.25f, 3.0f, 17.5f, 100.0f}) {
          std::vector<float> scaled = row;
          for (float& v : scaled) v *= scale;
          EXPECT_EQ(family.Hash(scaled.data()), sig)
              << backend->name << " dim=" << dim << " trial=" << trial
              << " scale=" << scale;
        }
      }
    }
  }
}

TEST(LshPropertyTest, NegationFlipsEveryBit) {
  const int64_t dim = 23;
  const int h = 48;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, h, 13, &family).ok());
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (int trial = 0; trial < 50; ++trial) {
      const std::vector<float> row =
          testutil::RandomVector(dim, 9500 + static_cast<uint64_t>(trial));
      std::vector<float> negated = row;
      for (float& v : negated) v = -v;
      const LshSignature sig = family.Hash(row.data());
      const LshSignature neg = family.Hash(negated.data());
      // IEEE negation is exact, so every projection flips sign exactly
      // (the > 0 threshold makes exact zeros flip too, but Gaussian data
      // never lands on exactly zero).
      EXPECT_EQ(MatchingBits(sig, neg, h), 0)
          << backend->name << " trial=" << trial;
    }
  }
}

TEST(LshPropertyTest, SignaturesIdenticalAcrossBackends) {
  const int64_t dim = 37;
  const int h = 96;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, h, 21, &family).ok());
  Rng rng(77);
  Tensor data = Tensor::RandomGaussian(Shape({64, dim}), &rng);

  std::vector<LshSignature> scalar_sigs;
  {
    simd::ScopedKernelsOverride scalar_override(simd::Scalar());
    family.HashRows(data.data(), 64, dim, &scalar_sigs);
  }
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<LshSignature> sigs;
    family.HashRows(data.data(), 64, dim, &sigs);
    for (int64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(sigs[static_cast<size_t>(i)],
                scalar_sigs[static_cast<size_t>(i)])
          << backend->name << " row " << i
          << ": backend changed a signature (cluster IDs would diverge)";
    }
  }
}

TEST(LshPropertyTest, PerturbationCollisionDecaysWithMagnitude) {
  // The larger the perturbation, the lower the full-signature collision
  // rate — the graded-similarity behaviour adaptive deep reuse exploits.
  Rng rng(11);
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(24, 12, 3, &family).ok());
  const int trials = 300;
  int collisions_small = 0, collisions_large = 0;
  for (int t = 0; t < trials; ++t) {
    Tensor base = Tensor::RandomGaussian(Shape({24}), &rng);
    Tensor small = base;
    Tensor large = base;
    for (int64_t i = 0; i < 24; ++i) {
      small.at(i) += 0.02f * rng.NextGaussian();
      large.at(i) += 0.5f * rng.NextGaussian();
    }
    const LshSignature sig = family.Hash(base.data());
    if (sig == family.Hash(small.data())) ++collisions_small;
    if (sig == family.Hash(large.data())) ++collisions_large;
  }
  EXPECT_GT(collisions_small, collisions_large);
  EXPECT_GT(collisions_small, trials * 3 / 5);
}

}  // namespace
}  // namespace adr
