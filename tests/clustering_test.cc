// Tests for the clustering substrate: LSH, signature grouping and
// centroids.

#include <gtest/gtest.h>

#include "clustering/clustering.h"
#include "clustering/lsh.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(LshSignatureTest, SetBitAndEquality) {
  LshSignature a, b;
  EXPECT_EQ(a, b);
  a.SetBit(0);
  EXPECT_FALSE(a == b);
  b.SetBit(0);
  EXPECT_EQ(a, b);
  a.SetBit(127);  // second word
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.words[1], uint64_t{1} << 63);
}

TEST(LshSignatureTest, HashDistinguishesSignatures) {
  LshSignatureHash hasher;
  LshSignature a, b;
  a.SetBit(3);
  b.SetBit(4);
  EXPECT_NE(hasher(a), hasher(b));
}

TEST(LshFamilyTest, CreateValidation) {
  LshFamily family;
  EXPECT_FALSE(LshFamily::Create(0, 4, 1, &family).ok());
  EXPECT_FALSE(LshFamily::Create(8, 0, 1, &family).ok());
  EXPECT_FALSE(LshFamily::Create(8, kMaxLshHashes + 1, 1, &family).ok());
  EXPECT_TRUE(LshFamily::Create(8, kMaxLshHashes, 1, &family).ok());
  EXPECT_EQ(family.dim(), 8);
  EXPECT_EQ(family.num_hashes(), kMaxLshHashes);
}

TEST(LshFamilyTest, IdenticalVectorsGetSameSignature) {
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(16, 20, 7, &family).ok());
  Rng rng(1);
  Tensor v = Tensor::RandomGaussian(Shape({16}), &rng);
  EXPECT_EQ(family.Hash(v.data()), family.Hash(v.data()));
}

TEST(LshFamilyTest, PositiveScalingIsSignatureInvariant) {
  // Sign-random-projection depends only on direction, which is why the
  // angular metric needs no explicit normalization before hashing.
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(16, 24, 3, &family).ok());
  Rng rng(2);
  Tensor v = Tensor::RandomGaussian(Shape({16}), &rng);
  Tensor scaled = v;
  ScaleInPlace(37.5f, &scaled);
  EXPECT_EQ(family.Hash(v.data()), family.Hash(scaled.data()));
}

TEST(LshFamilyTest, OppositeVectorsGetComplementarySignatures) {
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(16, 32, 5, &family).ok());
  Rng rng(3);
  Tensor v = Tensor::RandomGaussian(Shape({16}), &rng);
  Tensor neg = v;
  ScaleInPlace(-1.0f, &neg);
  const LshSignature a = family.Hash(v.data());
  const LshSignature b = family.Hash(neg.data());
  EXPECT_FALSE(a == b);
}

TEST(LshFamilyTest, NearbyVectorsCollideMoreThanFarOnes) {
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(32, 16, 11, &family).ok());
  Rng rng(4);
  int near_collisions = 0, far_collisions = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    Tensor base = Tensor::RandomGaussian(Shape({32}), &rng);
    Tensor near = base;
    for (int64_t i = 0; i < 32; ++i) near.at(i) += rng.NextGaussian() * 0.01f;
    Tensor far = Tensor::RandomGaussian(Shape({32}), &rng);
    if (family.Hash(base.data()) == family.Hash(near.data())) {
      ++near_collisions;
    }
    if (family.Hash(base.data()) == family.Hash(far.data())) {
      ++far_collisions;
    }
  }
  EXPECT_GT(near_collisions, trials / 2);
  EXPECT_LT(far_collisions, trials / 10);
}

TEST(LshFamilyTest, DeterministicAcrossInstances) {
  LshFamily a, b;
  ASSERT_TRUE(LshFamily::Create(8, 12, 99, &a).ok());
  ASSERT_TRUE(LshFamily::Create(8, 12, 99, &b).ok());
  Rng rng(5);
  Tensor v = Tensor::RandomGaussian(Shape({8}), &rng);
  EXPECT_EQ(a.Hash(v.data()), b.Hash(v.data()));
}

TEST(LshFamilyTest, HashRowsRespectsStride) {
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(4, 8, 1, &family).ok());
  Rng rng(6);
  // 3 rows embedded in a matrix with stride 10, offset 0.
  Tensor data = Tensor::RandomGaussian(Shape({3, 10}), &rng);
  std::vector<LshSignature> strided;
  family.HashRows(data.data(), 3, 10, &strided);
  ASSERT_EQ(strided.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(strided[static_cast<size_t>(i)],
              family.Hash(data.data() + i * 10));
  }
}

TEST(ClusterBySignatureTest, GroupsEqualSignatures) {
  LshSignature s1, s2;
  s2.SetBit(5);
  std::vector<LshSignature> sigs = {s1, s2, s1, s1, s2};
  std::vector<LshSignature> cluster_sigs;
  const Clustering c = ClusterBySignature(sigs, &cluster_sigs);
  EXPECT_EQ(c.num_rows(), 5);
  EXPECT_EQ(c.num_clusters(), 2);
  EXPECT_EQ(c.assignment[0], c.assignment[2]);
  EXPECT_EQ(c.assignment[0], c.assignment[3]);
  EXPECT_EQ(c.assignment[1], c.assignment[4]);
  EXPECT_NE(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.cluster_sizes[static_cast<size_t>(c.assignment[0])], 3);
  EXPECT_EQ(c.cluster_sizes[static_cast<size_t>(c.assignment[1])], 2);
  EXPECT_EQ(cluster_sigs.size(), 2u);
  EXPECT_EQ(cluster_sigs[static_cast<size_t>(c.assignment[0])], s1);
}

TEST(ClusteringTest, RemainingRatio) {
  Clustering c;
  c.assignment = {0, 0, 1, 1};
  c.cluster_sizes = {2, 2};
  EXPECT_DOUBLE_EQ(c.remaining_ratio(), 0.5);
}

TEST(ComputeCentroidsTest, MeansOfMembers) {
  // Rows: [1,1], [3,3] in cluster 0; [10,0] alone in cluster 1.
  Tensor data(Shape({3, 2}), {1, 1, 3, 3, 10, 0});
  Clustering c;
  c.assignment = {0, 0, 1};
  c.cluster_sizes = {2, 1};
  Tensor centroids = ComputeCentroids(data.data(), 3, 2, 2, c);
  EXPECT_EQ(centroids.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(centroids.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(centroids.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(centroids.at(1, 0), 10.0f);
}

TEST(ComputeCentroidsTest, RespectsRowStride) {
  // Two rows of width 2 embedded at stride 4.
  Tensor data(Shape({2, 4}), {1, 2, 99, 99, 3, 4, 99, 99});
  Clustering c;
  c.assignment = {0, 0};
  c.cluster_sizes = {2};
  Tensor centroids = ComputeCentroids(data.data(), 2, 2, 4, c);
  EXPECT_FLOAT_EQ(centroids.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(centroids.at(0, 1), 3.0f);
}

}  // namespace
}  // namespace adr
