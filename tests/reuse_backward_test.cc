// Tests for ReuseBackward (paper Section IV): exactness in the singleton
// limit, the averaging semantics of Eq. 13, MAC accounting, and bitwise
// agreement of the fused fold and the grouped row sums with their
// references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/reuse_backward.h"
#include "core/reuse_backward_reference.h"
#include "core/subvector_clustering_reference.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/kernel_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

struct DenseBackward {
  Tensor grad_weight;
  Tensor grad_x;
};

DenseBackward ExactBackward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  const int64_t n = x.shape()[0], k = x.shape()[1], m = w.shape()[1];
  DenseBackward result;
  result.grad_weight = Tensor(Shape({k, m}));
  GemmTransA(x.data(), dy.data(), result.grad_weight.data(), k, n, m);
  result.grad_x = Tensor(Shape({n, k}));
  GemmTransB(dy.data(), w.data(), result.grad_x.data(), n, m, k);
  return result;
}

TEST(ReuseBackwardTest, ExactInSingletonLimit) {
  // Enough hyperplanes that every random row is its own cluster; the
  // reuse backward must then equal the exact backward.
  auto families = BlockLshFamilies::Create(6, 0, 80, 1);
  ASSERT_TRUE(families.ok());
  Rng rng(1);
  Tensor x = Tensor::RandomGaussian(Shape({10, 6}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({6, 4}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({10, 4}), &rng);

  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 10, 10);
  if (clustering.TotalClusters() != 10) {
    GTEST_SKIP() << "accidental LSH collision; singleton limit not reached";
  }
  const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);
  const DenseBackward exact = ExactBackward(x, w, dy);
  EXPECT_TRUE(AllClose(reuse.grad_weight, exact.grad_weight, 1e-4f, 1e-5f));
  EXPECT_TRUE(AllClose(reuse.grad_x, exact.grad_x, 1e-4f, 1e-5f));
}

TEST(ReuseBackwardTest, BiasGradientAlwaysExact)
{
  auto families = BlockLshFamilies::Create(6, 3, 2, 2);  // coarse clustering
  ASSERT_TRUE(families.ok());
  Rng rng(2);
  Tensor x = Tensor::RandomGaussian(Shape({20, 6}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({6, 5}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({20, 5}), &rng);
  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 20, 20);
  const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);
  EXPECT_TRUE(AllClose(reuse.grad_bias, ColumnSums(dy)));
}

TEST(ReuseBackwardTest, WeightGradUsesClusterSums) {
  // Two identical rows in one cluster: dW must be x_c^T (dy_0 + dy_1),
  // which equals the exact gradient because x rows are identical.
  auto families = BlockLshFamilies::Create(4, 0, 16, 3);
  ASSERT_TRUE(families.ok());
  Rng rng(3);
  Tensor row = Tensor::RandomGaussian(Shape({4}), &rng);
  Tensor x(Shape({2, 4}));
  for (int64_t j = 0; j < 4; ++j) {
    x.at(0, j) = row.at(j);
    x.at(1, j) = row.at(j);
  }
  Tensor w = Tensor::RandomGaussian(Shape({4, 3}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({2, 3}), &rng);

  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 2, 2);
  ASSERT_EQ(clustering.TotalClusters(), 1);
  const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);
  const DenseBackward exact = ExactBackward(x, w, dy);
  EXPECT_TRUE(AllClose(reuse.grad_weight, exact.grad_weight, 1e-4f, 1e-5f));
}

TEST(ReuseBackwardTest, InputDeltaIsClusterAverageScattered) {
  // Eq. 13: every member of a cluster receives the *average* member
  // gradient, i.e. mean_i(dy_i) * W^T.
  auto families = BlockLshFamilies::Create(4, 0, 16, 4);
  ASSERT_TRUE(families.ok());
  Rng rng(4);
  Tensor row = Tensor::RandomGaussian(Shape({4}), &rng);
  Tensor x(Shape({3, 4}));
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) x.at(i, j) = row.at(j);
  }
  Tensor w = Tensor::RandomGaussian(Shape({4, 2}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({3, 2}), &rng);

  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 3, 3);
  ASSERT_EQ(clustering.TotalClusters(), 1);
  const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);

  // Expected: dy_avg * W^T for every row.
  Tensor dy_avg(Shape({1, 2}));
  for (int64_t j = 0; j < 2; ++j) {
    dy_avg.at(0, j) = (dy.at(0, j) + dy.at(1, j) + dy.at(2, j)) / 3.0f;
  }
  Tensor expected_row(Shape({1, 4}));
  GemmTransB(dy_avg.data(), w.data(), expected_row.data(), 1, 2, 4);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(reuse.grad_x.at(i, j), expected_row.at(0, j), 1e-5f);
    }
  }
}

TEST(ReuseBackwardTest, SubVectorBlocksFillDisjointColumnRanges) {
  auto families = BlockLshFamilies::Create(8, 4, 60, 5);
  ASSERT_TRUE(families.ok());
  Rng rng(5);
  Tensor x = Tensor::RandomGaussian(Shape({6, 8}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({8, 3}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({6, 3}), &rng);
  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 6, 6);
  // Singleton limit per block (60 hashes): exact again, and the two column
  // blocks of dW/dx must combine to the dense result.
  if (clustering.blocks[0].clustering.num_clusters() == 6 &&
      clustering.blocks[1].clustering.num_clusters() == 6) {
    const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);
    const DenseBackward exact = ExactBackward(x, w, dy);
    EXPECT_TRUE(AllClose(reuse.grad_weight, exact.grad_weight, 1e-4f, 1e-5f));
    EXPECT_TRUE(AllClose(reuse.grad_x, exact.grad_x, 1e-4f, 1e-5f));
  }
}

TEST(ReuseBackwardTest, MacAccounting) {
  auto families = BlockLshFamilies::Create(8, 4, 8, 6);
  ASSERT_TRUE(families.ok());
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape({16, 8}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({8, 5}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({16, 5}), &rng);
  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 16, 16);
  const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);
  EXPECT_DOUBLE_EQ(reuse.stats.macs_baseline, 2.0 * 16 * 8 * 5);
  EXPECT_GT(reuse.stats.macs, 0.0);
  EXPECT_LE(reuse.stats.macs, reuse.stats.macs_baseline);
}

TEST(ReuseBackwardTest, CoarseClusteringStillDescends) {
  // Even with very coarse clustering (H=1) the approximate gradient should
  // be positively correlated with the exact gradient — the property that
  // lets early-stage training tolerate aggressive reuse.
  auto families = BlockLshFamilies::Create(8, 0, 1, 7);
  ASSERT_TRUE(families.ok());
  Rng rng(7);
  // Correlated rows so clusters are meaningful.
  Tensor proto = Tensor::RandomGaussian(Shape({8}), &rng);
  Tensor x(Shape({32, 8}));
  for (int64_t i = 0; i < 32; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      x.at(i, j) = proto.at(j) + 0.1f * rng.NextGaussian();
    }
  }
  Tensor w = Tensor::RandomGaussian(Shape({8, 4}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({32, 4}), &rng);
  const ReuseClustering clustering =
      ReferenceClusterSubVectors(*families, x.data(), 32, 32);
  const BackwardReuseResult reuse = ReuseBackward(clustering, w, dy);
  const DenseBackward exact = ExactBackward(x, w, dy);
  double dot = 0.0;
  for (int64_t i = 0; i < exact.grad_weight.num_elements(); ++i) {
    dot += static_cast<double>(reuse.grad_weight.at(i)) *
           exact.grad_weight.at(i);
  }
  EXPECT_GT(dot, 0.0);
}

constexpr int kThreadCounts[] = {1, 2, 8};

using testutil::ThreadCountGuard;

void ExpectBitwiseEqual(const float* actual, const float* expected,
                        int64_t count, const char* what) {
  for (int64_t i = 0; i < count; ++i) {
    ASSERT_EQ(actual[i], expected[i]) << what << " element " << i;
  }
}

TEST(ReuseBackwardFoldTest, FusedFoldEqualsCol2ImOfMaterializedGradX) {
  // Stride 2, K = 4*3*3 = 36 split at L = 7 (the last block is 1 wide),
  // per-image and whole-batch scope.
  ThreadCountGuard guard;
  ConvGeometry geo;
  geo.batch = 3;
  geo.in_channels = 4;
  geo.in_height = 11;
  geo.in_width = 11;
  geo.kernel_h = 3;
  geo.kernel_w = 3;
  geo.stride = 2;
  geo.pad = 1;
  ASSERT_TRUE(geo.Validate().ok());
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = 6;
  ASSERT_NE(k % 7, 0);

  Rng rng(41);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor w = Tensor::RandomGaussian(Shape({k, m}), &rng);
  const Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);
  Tensor cols(Shape({n, k}));
  Im2Col(geo, input, &cols);
  auto families = BlockLshFamilies::Create(k, 7, 4, 9);
  ASSERT_TRUE(families.ok());
  const int64_t input_size = input.num_elements();

  for (const int64_t rows_per_group : {geo.rows_per_image(), n}) {
    const ReuseClustering clustering = ReferenceClusterSubVectors(
        *families, cols.data(), n, rows_per_group);
    ASSERT_LT(clustering.TotalClusters(), n * families->num_blocks());
    for (const simd::Kernels* backend : testutil::Backends()) {
      simd::ScopedKernelsOverride override_backend(*backend);
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE(std::string(backend->name) + " threads=" +
                     std::to_string(threads) + " rows_per_group=" +
                     std::to_string(rows_per_group));
        ThreadPool::SetGlobalThreads(threads);
        const BackwardReuseResult materialized =
            ReuseBackward(clustering, w, dy);
        std::vector<float> expected(static_cast<size_t>(input_size));
        Col2Im(geo, materialized.grad_x.data(), expected.data());

        WorkspaceArena arena;
        std::vector<float> grad_w(static_cast<size_t>(k * m));
        std::vector<float> grad_b(static_cast<size_t>(m));
        std::vector<float> grad_input(static_cast<size_t>(input_size), 5.0f);
        BackwardReuseStats stats;
        ReuseBackwardFoldInto(clustering, w, dy.data(), geo, &arena,
                              grad_w.data(), grad_b.data(),
                              grad_input.data(), &stats);
        ExpectBitwiseEqual(grad_input.data(), expected.data(), input_size,
                           "grad_input");
        ExpectBitwiseEqual(grad_w.data(), materialized.grad_weight.data(),
                           k * m, "grad_weight");
        ExpectBitwiseEqual(grad_b.data(), materialized.grad_bias.data(), m,
                           "grad_bias");
        EXPECT_DOUBLE_EQ(stats.macs, materialized.stats.macs);
        EXPECT_DOUBLE_EQ(stats.macs_baseline,
                         materialized.stats.macs_baseline);
      }
    }
  }
}

// Row sums of `dy` (n x m) under each of `blocks`, the grouped sweep vs
// the chunk-partial reference, on every backend and thread count.
void ExpectRowSumsMatchReference(const std::vector<float>& dy,
                                 const std::vector<Clustering>& blocks,
                                 int64_t m) {
  const int64_t n = blocks.front().num_rows();
  const int64_t chunks = std::min<int64_t>(kReduceChunks, n);
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  std::vector<const Clustering*> block_ptrs;
  for (const Clustering& block : blocks) block_ptrs.push_back(&block);
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<std::vector<float>> expected;
    for (const Clustering& block : blocks) {
      std::vector<float> partials(
          static_cast<size_t>(chunks * block.num_clusters() * m));
      expected.emplace_back(static_cast<size_t>(block.num_clusters() * m));
      ReferenceClusterRowSums(dy.data(), block, n, m, partials.data(),
                              expected.back().data());
    }
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(backend->name) + " threads=" +
                   std::to_string(threads));
      ThreadPool::SetGlobalThreads(threads);
      std::vector<std::vector<float>> sums;
      std::vector<float*> sum_ptrs;
      for (const std::vector<float>& want : expected) {
        sums.emplace_back(want.size(), 3.0f);
        sum_ptrs.push_back(sums.back().data());
      }
      ScratchAllocator scratch(nullptr);
      ClusterRowSums(dy.data(), m, block_ptrs.data(), num_blocks, &scratch,
                     sum_ptrs.data());
      for (int64_t b = 0; b < num_blocks; ++b) {
        const std::vector<float>& got = sums[static_cast<size_t>(b)];
        const std::vector<float>& want = expected[static_cast<size_t>(b)];
        for (size_t i = 0; i < want.size(); ++i) {
          // Compare bit patterns: +0 and -0 must not be confused.
          uint32_t got_bits = 0, want_bits = 0;
          std::memcpy(&got_bits, &got[i], sizeof(got_bits));
          std::memcpy(&want_bits, &want[i], sizeof(want_bits));
          ASSERT_EQ(got_bits, want_bits)
              << "block " << b << " element " << i << " (" << got[i]
              << " vs " << want[i] << ")";
        }
      }
    }
  }
}

Clustering FromAssignment(const std::vector<int32_t>& assignment,
                          int64_t num_clusters) {
  Clustering clustering;
  clustering.assignment = assignment;
  clustering.cluster_sizes.assign(static_cast<size_t>(num_clusters), 0);
  for (const int32_t cl : assignment) {
    ++clustering.cluster_sizes[static_cast<size_t>(cl)];
  }
  return clustering;
}

TEST(ClusterRowSumsTest, MatchesChunkPartialReference) {
  ThreadCountGuard guard;
  // n = 203 is not a multiple of kReduceChunks. Cluster 0 lives only in
  // the first chunk's rows, cluster 1 only in the last one's; the rest
  // are spread at random.
  const int64_t n = 203;
  const int64_t m = 13;
  const int64_t num_clusters = 9;
  Rng rng(51);
  std::vector<int32_t> assignment(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (i < n / 8) {
      assignment[static_cast<size_t>(i)] = i % 3 == 0 ? 0 : 2;
    } else if (i >= 7 * n / 8) {
      assignment[static_cast<size_t>(i)] = i % 2 == 0 ? 1 : 3;
    } else {
      assignment[static_cast<size_t>(i)] =
          2 + static_cast<int32_t>(rng.NextBounded(num_clusters - 2));
    }
  }
  const Clustering clustering = FromAssignment(assignment, num_clusters);

  // dy with -0.0 entries: whole rows of -0, and scattered -0 elements,
  // so partial and cluster sums meet -0 + -0 and -0 + +0.
  std::vector<float> dy = testutil::RandomVector(n * m, 52);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      if (i % 5 == 0 || (i * 7 + j) % 4 == 0) {
        dy[static_cast<size_t>(i * m + j)] = -0.0f;
      }
    }
  }
  ExpectRowSumsMatchReference(dy, {clustering}, m);
}

TEST(ClusterRowSumsTest, AllNegativeZeroClusterStaysPositiveZero) {
  // A cluster whose every dy entry is -0 sums to +0 in the reference;
  // the grouped sweep must not leak a -0.
  ThreadCountGuard guard;
  const int64_t n = 24;
  const int64_t m = 5;
  std::vector<int32_t> assignment(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    assignment[static_cast<size_t>(i)] = i % 3 == 0 ? 0 : 1;
  }
  std::vector<float> dy = testutil::RandomVector(n * m, 53);
  for (int64_t i = 0; i < n; i += 3) {
    for (int64_t j = 0; j < m; ++j) dy[static_cast<size_t>(i * m + j)] = -0.0f;
  }
  ExpectRowSumsMatchReference(dy, {FromAssignment(assignment, 2)}, m);
}

TEST(ClusterRowSumsTest, FewerRowsThanChunks) {
  ThreadCountGuard guard;
  for (const int64_t n : {1, 2, 5, 7}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<int32_t> assignment(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      assignment[static_cast<size_t>(i)] = static_cast<int32_t>(i % 2);
    }
    const int64_t num_clusters = n == 1 ? 1 : 2;
    std::vector<float> dy = testutil::RandomVector(n * 4, 54 + n);
    dy[0] = -0.0f;
    ExpectRowSumsMatchReference(
        dy, {FromAssignment(assignment, num_clusters)}, 4);
  }
}

TEST(ClusterRowSumsTest, ManyClustersSpanSeveralParallelChunks) {
  // Wide rows (many whole registers per row) and near-singleton
  // clusters, most of which have rows in only one or two ranges.
  ThreadCountGuard guard;
  const int64_t n = 1000;
  const int64_t m = 1024;
  const int64_t num_clusters = 600;
  Rng rng(55);
  std::vector<int32_t> assignment(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    assignment[static_cast<size_t>(i)] =
        i < num_clusters ? static_cast<int32_t>(i)
                         : static_cast<int32_t>(rng.NextBounded(num_clusters));
  }
  ExpectRowSumsMatchReference(testutil::RandomVector(n * m, 56),
                              {FromAssignment(assignment, num_clusters)}, m);
}

// `num_blocks` clusterings of n rows with 1 + b % 7 clusters each: block
// 2's cluster 0 holds exactly the first range's rows, and the other
// clusters' rows are spread at random over the ranges.
std::vector<Clustering> RandomBlocks(int64_t n, int64_t num_blocks,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> blocks;
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t num_clusters = std::min<int64_t>(n, 1 + b % 7);
    std::vector<int32_t> assignment(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      assignment[static_cast<size_t>(i)] =
          i < num_clusters ? static_cast<int32_t>(i)
                           : static_cast<int32_t>(rng.NextBounded(
                                 static_cast<uint64_t>(num_clusters)));
    }
    if (b == 2 && num_clusters > 1) {
      for (int64_t i = 0; i < n; ++i) {
        const bool first_range = i < n / std::min<int64_t>(kReduceChunks, n);
        int32_t& cl = assignment[static_cast<size_t>(i)];
        if (first_range != (cl == 0)) cl = first_range ? 0 : 1;
      }
    }
    blocks.push_back(FromAssignment(assignment, num_clusters));
  }
  return blocks;
}

TEST(ClusterRowSumsTest, GroupsOfBlocksMatchReference) {
  // One block, one full group of 8, a group of 8 and one of 1, and ten
  // groups; N below kReduceChunks, not divisible by it, and divisible;
  // rows of one partial register and of whole registers plus a tail.
  ThreadCountGuard guard;
  for (const int64_t num_blocks : {1, 8, 9, 80}) {
    for (const int64_t n : {5, 203, 256}) {
      for (const int64_t m : {13, 32}) {
        SCOPED_TRACE("blocks=" + std::to_string(num_blocks) +
                     " n=" + std::to_string(n) + " m=" + std::to_string(m));
        std::vector<float> dy = testutil::RandomVector(
            n * m, static_cast<uint64_t>(60 + n + m + num_blocks));
        for (int64_t i = 0; i < n * m; i += 7) {
          dy[static_cast<size_t>(i)] = -0.0f;
        }
        ExpectRowSumsMatchReference(
            dy, RandomBlocks(n, num_blocks, static_cast<uint64_t>(n + m)), m);
      }
    }
  }
}

}  // namespace
}  // namespace adr
