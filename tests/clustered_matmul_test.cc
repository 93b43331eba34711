// Tests for ClusteredMatmulForward, KMeansMatmulForward and the
// Algorithm-1 cluster reuse cache.

#include <gtest/gtest.h>

#include <cstring>

#include "core/clustered_matmul.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "tests/cache_harness.h"

namespace adr {
namespace {

Tensor DenseReference(const Tensor& x, const Tensor& w, const Tensor* bias) {
  const int64_t n = x.shape()[0], k = x.shape()[1], m = w.shape()[1];
  Tensor y(Shape({n, m}));
  Gemm(x.data(), w.data(), y.data(), n, k, m);
  if (bias != nullptr) AddRowBias(*bias, &y);
  return y;
}

TEST(ClusteredMatmulTest, ExactWhenRowsIdentical) {
  // All rows identical: one cluster per block; the reconstruction must be
  // exactly the dense product.
  auto families = BlockLshFamilies::Create(8, 4, 12, 1);
  ASSERT_TRUE(families.ok());
  Rng rng(1);
  Tensor row = Tensor::RandomGaussian(Shape({8}), &rng);
  Tensor x(Shape({16, 8}));
  for (int64_t i = 0; i < 16; ++i) {
    for (int64_t j = 0; j < 8; ++j) x.at(i, j) = row.at(j);
  }
  Tensor w = Tensor::RandomGaussian(Shape({8, 5}), &rng);
  Tensor bias = Tensor::RandomGaussian(Shape({5}), &rng);

  const ForwardReuseResult result = ClusteredMatmulForward(
      *families, x.data(), 16, w, &bias, 16, nullptr);
  const Tensor expected = DenseReference(x, w, &bias);
  EXPECT_TRUE(AllClose(result.y_rows, expected, 1e-4f, 1e-5f));
  EXPECT_EQ(result.stats.clusters_total, 2);  // one per block
  EXPECT_DOUBLE_EQ(result.stats.avg_remaining_ratio, 1.0 / 16.0);
}

TEST(ClusteredMatmulTest, ExactWhenAllSingletons) {
  // With many hyperplanes random rows land in singleton clusters; then the
  // centroid of each cluster is the row itself and the result is exact.
  auto families = BlockLshFamilies::Create(6, 0, 64, 2);
  ASSERT_TRUE(families.ok());
  Rng rng(2);
  Tensor x = Tensor::RandomGaussian(Shape({12, 6}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({6, 4}), &rng);

  const ForwardReuseResult result = ClusteredMatmulForward(
      *families, x.data(), 12, w, nullptr, 12, nullptr);
  if (result.stats.clusters_total == 12) {  // no accidental collisions
    const Tensor expected = DenseReference(x, w, nullptr);
    EXPECT_TRUE(AllClose(result.y_rows, expected, 1e-4f, 1e-5f));
  }
}

TEST(ClusteredMatmulTest, ApproximatesWithNoisyDuplicates) {
  // Rows = few distinct prototypes + small noise. Reuse output must be
  // close to dense output.
  auto families = BlockLshFamilies::Create(16, 8, 14, 3);
  ASSERT_TRUE(families.ok());
  Rng rng(3);
  Tensor protos = Tensor::RandomGaussian(Shape({4, 16}), &rng);
  const int64_t n = 64;
  Tensor x(Shape({n, 16}));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = i % 4;
    for (int64_t j = 0; j < 16; ++j) {
      x.at(i, j) = protos.at(p, j) + rng.NextGaussian() * 0.001f;
    }
  }
  Tensor w = Tensor::RandomGaussian(Shape({16, 8}), &rng);
  const ForwardReuseResult result = ClusteredMatmulForward(
      *families, x.data(), n, w, nullptr, n, nullptr);
  const Tensor expected = DenseReference(x, w, nullptr);
  EXPECT_LT(MaxAbsDiff(result.y_rows, expected), 0.05f);
  // Should find roughly 4 clusters per block, far fewer than 64 rows.
  EXPECT_LT(result.stats.avg_remaining_ratio, 0.25);
}

TEST(ClusteredMatmulTest, StatsAccounting) {
  auto families = BlockLshFamilies::Create(8, 4, 6, 4);
  ASSERT_TRUE(families.ok());
  Rng rng(4);
  Tensor x = Tensor::RandomGaussian(Shape({32, 8}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({8, 10}), &rng);
  const ForwardReuseResult result = ClusteredMatmulForward(
      *families, x.data(), 32, w, nullptr, 32, nullptr);
  EXPECT_DOUBLE_EQ(result.stats.macs_baseline, 32.0 * 8 * 10);
  EXPECT_DOUBLE_EQ(result.stats.macs_hash, 32.0 * 8 * 6);  // N*K*H
  EXPECT_DOUBLE_EQ(result.stats.macs_scatter, 2.0 * 32 * 10);  // blocks*N*M
  // GEMM MACs = sum_blocks |C_b| * L * M.
  double expected_gemm = 0.0;
  for (const auto& block : result.clustering.blocks) {
    expected_gemm += static_cast<double>(block.clustering.num_clusters()) *
                     block.length * 10;
  }
  EXPECT_DOUBLE_EQ(result.stats.macs_gemm, expected_gemm);
  EXPECT_EQ(result.stats.batch_reuse_rate, 0.0);  // no cache
}

TEST(ClusterReuseCacheTest, FindMissThenHit) {
  ClusterReuseCache cache;
  LshSignature sig;
  sig.SetBit(3);
  EXPECT_FALSE(testutil::FindEntry(cache, 0, sig));
  const float rep[] = {1.0f, 2.0f};
  const float out[] = {3.0f};
  testutil::InsertEntry(&cache, 0, sig, rep, 2, out, 1);
  float got_out[1] = {0.0f};
  float got_rep[2] = {0.0f, 0.0f};
  ASSERT_TRUE(testutil::FindEntry(cache, 0, sig, got_out, got_rep));
  EXPECT_EQ(got_out[0], 3.0f);
  EXPECT_EQ(got_rep[0], 1.0f);
  EXPECT_EQ(got_rep[1], 2.0f);
}

TEST(ClusterReuseCacheTest, BlocksAreIndependent) {
  ClusterReuseCache cache;
  LshSignature sig;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  testutil::InsertEntry(&cache, 0, sig, rep, 1, out, 1);
  EXPECT_TRUE(testutil::FindEntry(cache, 0, sig));
  EXPECT_FALSE(testutil::FindEntry(cache, 1, sig));
  EXPECT_EQ(cache.TotalEntries(), 1);
}

TEST(ClusterReuseCacheTest, ClearResetsEverything) {
  ClusterReuseCache cache;
  LshSignature sig;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  testutil::InsertEntry(&cache, 0, sig, rep, 1, out, 1);
  cache.Clear();
  EXPECT_EQ(cache.TotalEntries(), 0);
  EXPECT_EQ(cache.ResidentBytes(), 0);
  EXPECT_EQ(cache.GetStats().slots, 0);
  EXPECT_FALSE(testutil::FindEntry(cache, 0, sig));
}

TEST(ClusteredMatmulTest, SecondIdenticalBatchFullyReused) {
  // Algorithm 1: feeding the same batch twice, the second pass must hit
  // the cache for every cluster and reproduce the same output.
  auto families = BlockLshFamilies::Create(10, 5, 10, 5);
  ASSERT_TRUE(families.ok());
  Rng rng(5);
  Tensor x = Tensor::RandomGaussian(Shape({24, 10}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({10, 6}), &rng);
  ClusterReuseCache cache;

  const ForwardReuseResult first = ClusteredMatmulForward(
      *families, x.data(), 24, w, nullptr, 24, &cache);
  EXPECT_EQ(first.stats.clusters_reused, 0);
  const ForwardReuseResult second = ClusteredMatmulForward(
      *families, x.data(), 24, w, nullptr, 24, &cache);
  EXPECT_EQ(second.stats.clusters_reused, second.stats.clusters_total);
  EXPECT_DOUBLE_EQ(second.stats.batch_reuse_rate, 1.0);
  EXPECT_TRUE(AllClose(second.y_rows, first.y_rows));
  EXPECT_DOUBLE_EQ(second.stats.macs_gemm, 0.0);  // everything reused
}

TEST(ClusteredMatmulTest, CacheServesStaleOutputsAfterWeightChange) {
  // The CR approximation: cached outputs are NOT invalidated when W
  // changes. This is exactly Algorithm 1's behaviour.
  auto families = BlockLshFamilies::Create(4, 0, 12, 6);
  ASSERT_TRUE(families.ok());
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape({8, 4}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({4, 3}), &rng);
  ClusterReuseCache cache;
  const ForwardReuseResult first = ClusteredMatmulForward(
      *families, x.data(), 8, w, nullptr, 8, &cache);
  ScaleInPlace(2.0f, &w);  // change the weights
  const ForwardReuseResult second = ClusteredMatmulForward(
      *families, x.data(), 8, w, nullptr, 8, &cache);
  // Outputs are the stale cached ones, not the doubled ones.
  EXPECT_TRUE(AllClose(second.y_rows, first.y_rows));
}

TEST(ClusteredMatmulTest, PartialReuseAcrossOverlappingBatches) {
  auto families = BlockLshFamilies::Create(4, 0, 16, 7);
  ASSERT_TRUE(families.ok());
  Rng rng(7);
  Tensor batch1 = Tensor::RandomGaussian(Shape({8, 4}), &rng);
  // batch2 = first 4 rows of batch1 + 4 new rows.
  Tensor batch2 = Tensor::RandomGaussian(Shape({8, 4}), &rng);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) batch2.at(i, j) = batch1.at(i, j);
  }
  Tensor w = Tensor::RandomGaussian(Shape({4, 3}), &rng);
  ClusterReuseCache cache;
  ClusteredMatmulForward(*families, batch1.data(), 8, w, nullptr, 8, &cache);
  const ForwardReuseResult second = ClusteredMatmulForward(
      *families, batch2.data(), 8, w, nullptr, 8, &cache);
  EXPECT_GT(second.stats.clusters_reused, 0);
  EXPECT_LT(second.stats.clusters_reused, second.stats.clusters_total);
}

TEST(ClusteredMatmulTest, SingleInputScopeMatchesGroupedClustering) {
  auto families = BlockLshFamilies::Create(6, 3, 8, 8);
  ASSERT_TRUE(families.ok());
  Rng rng(8);
  Tensor x = Tensor::RandomGaussian(Shape({12, 6}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({6, 4}), &rng);
  // rows_per_group = 4 simulates 3 images of 4 rows each.
  const ForwardReuseResult result = ClusteredMatmulForward(
      *families, x.data(), 12, w, nullptr, 4, nullptr);
  EXPECT_EQ(result.y_rows.shape(), Shape({12, 4}));
  // Single-input clustering can only have more (or equal) clusters than
  // single-batch.
  const ForwardReuseResult batch_scope = ClusteredMatmulForward(
      *families, x.data(), 12, w, nullptr, 12, nullptr);
  EXPECT_GE(result.stats.clusters_total, batch_scope.stats.clusters_total);
}

TEST(ClusteredMatmulTest, KMeansForwardIsCentroidGemmScatterPlusBias) {
  // Three groups of noisy prototype rows, a ragged last block (K = 10 at
  // L = 4) and a bias. y must be, bit for bit, the per-block centroid
  // GEMM of the returned clustering scattered to the member rows, plus
  // the bias.
  const int64_t n = 36, k = 10, m = 6, rows_per_group = 12;
  Rng rng(9);
  const Tensor protos = Tensor::RandomGaussian(Shape({4, k}), &rng);
  Tensor x(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      x.at(i, j) = protos.at(i % 4, j) + 0.1f * rng.NextGaussian();
    }
  }
  const Tensor w = Tensor::RandomGaussian(Shape({k, m}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({m}), &rng);
  const ForwardReuseResult result =
      KMeansMatmulForward(x.data(), n, k, /*sub_vector_length=*/4, w, &bias,
                          rows_per_group, /*clusters_per_group=*/3,
                          /*iterations=*/10, /*seed=*/5);
  ASSERT_EQ(result.clustering.blocks.size(), 3u);
  ASSERT_EQ(result.y_rows.shape(), Shape({n, m}));

  Tensor expected(Shape({n, m}));
  double expected_gemm = 0.0;
  for (const SubMatrixClustering& block : result.clustering.blocks) {
    const int64_t num_clusters = block.clustering.num_clusters();
    ASSERT_LE(num_clusters, 3 * (n / rows_per_group));
    ASSERT_EQ(static_cast<int64_t>(block.centroids.size()),
              num_clusters * block.length);
    Tensor yc(Shape({num_clusters, m}));
    Gemm(block.centroids.data(), w.data() + block.col_offset * m, yc.data(),
         num_clusters, block.length, m);
    for (int64_t i = 0; i < n; ++i) {
      const int32_t c = block.clustering.assignment[static_cast<size_t>(i)];
      ASSERT_GE(c, 0);
      ASSERT_LT(c, num_clusters);
      for (int64_t j = 0; j < m; ++j) expected.at(i, j) += yc.at(c, j);
    }
    expected_gemm += static_cast<double>(num_clusters) * block.length * m;
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) expected.at(i, j) += bias.at(j);
  }
  EXPECT_EQ(std::memcmp(result.y_rows.data(), expected.data(),
                        sizeof(float) * static_cast<size_t>(n * m)),
            0);

  EXPECT_DOUBLE_EQ(result.stats.macs_hash, 0.0);
  EXPECT_DOUBLE_EQ(result.stats.macs_gemm, expected_gemm);
  EXPECT_DOUBLE_EQ(result.stats.macs_scatter, 3.0 * n * m);
  EXPECT_DOUBLE_EQ(result.stats.macs_baseline, static_cast<double>(n) * k * m);
  EXPECT_EQ(result.stats.clusters_total, result.clustering.TotalClusters());
  EXPECT_EQ(result.stats.clusters_reused, 0);
}

}  // namespace
}  // namespace adr
