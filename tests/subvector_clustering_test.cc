// Tests for ReuseConfig, BlockLshFamilies and the streaming clusterer:
// its clustering behaviour, and bitwise agreement with the materialized
// reference (core/subvector_clustering_reference.h).
//
// This binary replaces the global operator new with a counting one, so
// a test can assert that steady-state clustering cycles allocate nothing
// and that a steady eval-mode ReuseConv2d forward stays near that.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "core/reuse_config.h"
#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "core/subvector_clustering_reference.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tests/clustering_harness.h"
#include "util/rng.h"

namespace {

// Heap allocations through operator new, on any thread.
std::atomic<int64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
// Out of line, so GCC does not see a new-expression's pointer reach free()
// and warn about a mismatched deallocation.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}

namespace adr {
namespace {

TEST(ReuseConfigTest, EffectiveLength) {
  ReuseConfig config;
  config.sub_vector_length = 0;
  EXPECT_EQ(config.EffectiveLength(100), 100);
  config.sub_vector_length = 25;
  EXPECT_EQ(config.EffectiveLength(100), 25);
  config.sub_vector_length = 200;
  EXPECT_EQ(config.EffectiveLength(100), 100);
}

TEST(ReuseConfigTest, Validation) {
  ReuseConfig config;
  EXPECT_TRUE(config.Validate(100).ok());
  config.sub_vector_length = -1;
  EXPECT_FALSE(config.Validate(100).ok());
  config.sub_vector_length = 101;
  EXPECT_FALSE(config.Validate(100).ok());
  config.sub_vector_length = 10;
  config.num_hashes = 0;
  EXPECT_FALSE(config.Validate(100).ok());
  config.num_hashes = kMaxLshHashes + 1;
  EXPECT_FALSE(config.Validate(100).ok());
  config.num_hashes = 8;
  EXPECT_TRUE(config.Validate(100).ok());
  EXPECT_FALSE(config.Validate(0).ok());
}

TEST(ReuseConfigTest, ClusterReuseImpliedByScope) {
  ReuseConfig config;
  EXPECT_FALSE(config.ClusterReuseEnabled());
  config.scope = ClusterScope::kAcrossBatch;
  EXPECT_TRUE(config.ClusterReuseEnabled());
  config.scope = ClusterScope::kSingleBatch;
  config.cluster_reuse = true;
  EXPECT_TRUE(config.ClusterReuseEnabled());
}

TEST(ReuseConfigTest, ToStringMentionsEverything) {
  ReuseConfig config;
  config.sub_vector_length = 8;
  config.num_hashes = 10;
  const std::string s = config.ToString();
  EXPECT_NE(s.find("L=8"), std::string::npos);
  EXPECT_NE(s.find("H=10"), std::string::npos);
  EXPECT_NE(s.find("CR=0"), std::string::npos);
  EXPECT_NE(s.find("single-batch"), std::string::npos);
}

TEST(BlockLshFamiliesTest, EvenSplit) {
  auto families = BlockLshFamilies::Create(12, 4, 8, 1);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->num_blocks(), 3);
  for (int64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(families->block_offset(b), b * 4);
    EXPECT_EQ(families->block_length(b), 4);
    EXPECT_EQ(families->family(b).dim(), 4);
  }
}

TEST(BlockLshFamiliesTest, RaggedTailBlock) {
  auto families = BlockLshFamilies::Create(10, 4, 8, 1);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->num_blocks(), 3);
  EXPECT_EQ(families->block_length(2), 2);
}

TEST(BlockLshFamiliesTest, WholeRowWhenLZero) {
  auto families = BlockLshFamilies::Create(10, 0, 8, 1);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->num_blocks(), 1);
  EXPECT_EQ(families->block_length(0), 10);
}

TEST(BlockLshFamiliesTest, BlocksUseDistinctHyperplanes) {
  auto families = BlockLshFamilies::Create(8, 4, 16, 1);
  ASSERT_TRUE(families.ok());
  // Hash the same 4-vector through both blocks; with independent
  // hyperplanes, the signatures should differ with high probability.
  Rng rng(1);
  Tensor v = Tensor::RandomGaussian(Shape({4}), &rng);
  EXPECT_FALSE(families->family(0).Hash(v.data()) ==
               families->family(1).Hash(v.data()));
}

using testutil::ExpectSameClustering;
using testutil::StreamClustering;

// The production clusterer over a materialized matrix, in 7-row chunks so
// most inputs below span several chunks.
ReuseClustering Cluster(const BlockLshFamilies& families, const float* x,
                        int64_t num_rows, int64_t rows_per_group) {
  StreamingSubVectorClusterer clusterer;
  return StreamClustering(families, x, num_rows, rows_per_group,
                          /*tile_rows=*/7, &clusterer);
}

TEST(ClusterSubVectorsTest, DuplicateRowsShareClusters) {
  auto families = BlockLshFamilies::Create(6, 3, 12, 2);
  ASSERT_TRUE(families.ok());
  Rng rng(2);
  Tensor base = Tensor::RandomGaussian(Shape({1, 6}), &rng);
  Tensor x(Shape({4, 6}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 6; ++j) x.at(i, j) = base.at(0, j);
  }
  const ReuseClustering result = Cluster(*families, x.data(), 4, 4);
  ASSERT_EQ(result.blocks.size(), 2u);
  for (const auto& block : result.blocks) {
    EXPECT_EQ(block.clustering.num_clusters(), 1);
    EXPECT_EQ(block.clustering.cluster_sizes[0], 4);
    // Centroid of identical rows equals the row.
    for (int64_t j = 0; j < block.length; ++j) {
      EXPECT_NEAR(block.centroids[static_cast<size_t>(j)],
                  base.at(0, block.col_offset + j), 1e-5f);
    }
  }
  EXPECT_DOUBLE_EQ(result.AverageRemainingRatio(), 0.25);
  EXPECT_EQ(result.TotalClusters(), 2);
}

TEST(ClusterSubVectorsTest, RandomRowsMostlySeparate) {
  auto families = BlockLshFamilies::Create(16, 16, 32, 3);
  ASSERT_TRUE(families.ok());
  Rng rng(3);
  Tensor x = Tensor::RandomGaussian(Shape({64, 16}), &rng);
  const ReuseClustering result = Cluster(*families, x.data(), 64, 64);
  // 32 hyperplanes over random gaussian rows: collisions are rare.
  EXPECT_GT(result.blocks[0].clustering.num_clusters(), 55);
}

TEST(ClusterSubVectorsTest, FewerHashesCoarserClustering) {
  Rng rng(4);
  Tensor x = Tensor::RandomGaussian(Shape({128, 8}), &rng);
  auto fine = BlockLshFamilies::Create(8, 8, 24, 5);
  auto coarse = BlockLshFamilies::Create(8, 8, 2, 5);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  const auto fine_result = Cluster(*fine, x.data(), 128, 128);
  const auto coarse_result = Cluster(*coarse, x.data(), 128, 128);
  EXPECT_LT(coarse_result.TotalClusters(), fine_result.TotalClusters());
  // With H=2 there can be at most 4 signatures.
  EXPECT_LE(coarse_result.blocks[0].clustering.num_clusters(), 4);
}

TEST(ClusterSubVectorsTest, GroupsNeverShareClusters) {
  // Single-input scope: identical rows in different groups must land in
  // different clusters.
  auto families = BlockLshFamilies::Create(4, 4, 8, 6);
  ASSERT_TRUE(families.ok());
  Rng rng(5);
  Tensor row = Tensor::RandomGaussian(Shape({4}), &rng);
  Tensor x(Shape({4, 4}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) x.at(i, j) = row.at(j);
  }
  const ReuseClustering grouped =
      Cluster(*families, x.data(), 4, /*rows_per_group=*/2);
  const auto& c = grouped.blocks[0].clustering;
  EXPECT_EQ(c.num_clusters(), 2);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[2], c.assignment[3]);
  EXPECT_NE(c.assignment[0], c.assignment[2]);
}

TEST(ClusterSubVectorsTest, SignaturesAlignWithClusters) {
  auto families = BlockLshFamilies::Create(8, 8, 16, 7);
  ASSERT_TRUE(families.ok());
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape({32, 8}), &rng);
  const ReuseClustering result = Cluster(*families, x.data(), 32, 32);
  const auto& block = result.blocks[0];
  ASSERT_EQ(static_cast<int64_t>(block.signatures.size()),
            block.clustering.num_clusters());
  // Re-hashing any row must reproduce its cluster's stored signature.
  for (int64_t i = 0; i < 32; ++i) {
    const LshSignature sig = families->family(0).Hash(x.data() + i * 8);
    const int32_t cluster = block.clustering.assignment[static_cast<size_t>(i)];
    EXPECT_EQ(sig, block.signatures[static_cast<size_t>(cluster)]);
  }
}

TEST(ClusterSubVectorsTest, RemainingRatioBounds) {
  auto families = BlockLshFamilies::Create(8, 4, 10, 8);
  ASSERT_TRUE(families.ok());
  Rng rng(7);
  Tensor x = Tensor::RandomGaussian(Shape({100, 8}), &rng);
  const ReuseClustering result = Cluster(*families, x.data(), 100, 100);
  const double rc = result.AverageRemainingRatio();
  EXPECT_GT(rc, 0.0);
  EXPECT_LE(rc, 1.0);
}

// Rows in runs of 1-5 drawn from six prototype directions at positive
// scales (one signature each), all-zero rows and fresh Gaussian rows:
// repeated signatures, runs of equal ids and enough distinct signatures
// that hashed tables probe past collisions.
Tensor RedundantRows(int64_t num_rows, int64_t k, uint64_t seed) {
  Rng rng(seed);
  const Tensor protos = Tensor::RandomGaussian(Shape({6, k}), &rng);
  Tensor x(Shape({num_rows, k}));
  int64_t i = 0;
  while (i < num_rows) {
    const int64_t kind = static_cast<int64_t>(rng.NextBounded(8));
    const int64_t run = 1 + static_cast<int64_t>(rng.NextBounded(5));
    for (int64_t r = 0; r < run && i < num_rows; ++r, ++i) {
      const float scale = rng.NextUniform(0.5f, 2.0f);
      for (int64_t j = 0; j < k; ++j) {
        x.at(i, j) = kind < 6   ? scale * protos.at(kind, j)
                     : kind == 6 ? 0.0f
                                 : rng.NextGaussian();
      }
    }
  }
  return x;
}

struct KeyRuleCase {
  int num_hashes;
  int64_t rows_per_group;
  bool identity_keys;
};

TEST(StreamingClustererTest, MatchesOracleOnBothSidesOfIdentityKeyRule) {
  // Begin sizes a table at the smallest power of two >= 2 *
  // min(rows_per_group, 2^H) (at least 16) and switches to 2^H
  // signature-indexed slots when 2^H fits in it: at H = 8 every group of
  // 65 or more rows, at H = 11 every group of 513 or more. 2^(H-1) and
  // 2^(H-1) - 1 are both identity-keyed; 2^(H-2) is the largest hashed
  // group. H = 64 and 65 fill one and two signature words.
  const KeyRuleCase cases[] = {
      {8, 128, true},  {8, 127, true},  {8, 65, true},   {8, 64, false},
      {8, 7, false},   {11, 1024, true}, {11, 1023, true}, {11, 512, false},
      {3, 40, true},   {64, 100, false}, {65, 100, false}};
  const int64_t k = 30;
  StreamingSubVectorClusterer reused;  // one clusterer across all cases
  for (const KeyRuleCase& c : cases) {
    SCOPED_TRACE("H=" + std::to_string(c.num_hashes) +
                 " rows_per_group=" + std::to_string(c.rows_per_group));
    const int64_t num_rows = 4 * c.rows_per_group;
    const Tensor x = RedundantRows(num_rows, k, 40 + c.num_hashes);
    auto families = BlockLshFamilies::Create(k, 10, c.num_hashes, 13);
    ASSERT_TRUE(families.ok());
    const ReuseClustering oracle = ReferenceClusterSubVectors(
        *families, x.data(), num_rows, c.rows_per_group);
    // 37-row chunks: group boundaries land mid-chunk.
    const ReuseClustering& got = StreamClustering(
        *families, x.data(), num_rows, c.rows_per_group, 37, &reused);
    EXPECT_EQ(reused.identity_keys(), c.identity_keys);
    ExpectSameClustering(got, oracle);
  }
}

TEST(StreamingClustererTest, SingleInputGroupsSplitMidTileAtConv1Shape) {
  // CifarNet conv1 under kSingleInput: K = 75 is 8 blocks, the last 5
  // wide, and each 32x32 image is a 1024-row group. The forward's
  // 256-row chunks align with the groups; 655-row chunks put the group
  // resets inside chunks.
  const ConvGeometry geo = testutil::SameConvGeometry(4, 3, 32, 5);
  const int64_t k = geo.unfolded_cols();
  const int64_t tile_rows = 655;
  ASSERT_EQ(geo.rows_per_image(), 1024);
  const Tensor cols = testutil::SmoothUnfolded(geo, 31);
  auto families = BlockLshFamilies::Create(k, 10, 11, 21);
  ASSERT_TRUE(families.ok());
  const int64_t n = geo.unfolded_rows();
  const ReuseClustering oracle = ReferenceClusterSubVectors(
      *families, cols.data(), n, geo.rows_per_image());
  StreamingSubVectorClusterer clusterer;
  const ReuseClustering& got =
      StreamClustering(*families, cols.data(), n, geo.rows_per_image(),
                       tile_rows, &clusterer);
  EXPECT_TRUE(clusterer.identity_keys());
  ExpectSameClustering(got, oracle);
}

TEST(StreamingClustererTest, BlocksInDescendingOrderMatchOracle) {
  // Blocks are independent: feeding them last to first, in 7-row chunks
  // against 36-row image groups (resets land mid-chunk), and with a
  // short last block (K = 36 at L = 10), still reproduces the reference
  // under both table kinds.
  const ConvGeometry geo = testutil::SameConvGeometry(3, 4, 6, 3);
  const int64_t k = geo.unfolded_cols();
  const int64_t n = geo.unfolded_rows();
  const int64_t group = geo.rows_per_image();
  ASSERT_NE(group % 7, 0);
  const Tensor cols = testutil::SmoothUnfolded(geo, 37);
  StreamingSubVectorClusterer clusterer;
  for (const auto& [num_hashes, identity] :
       {std::pair<int, bool>{5, true}, std::pair<int, bool>{11, false}}) {
    SCOPED_TRACE("H=" + std::to_string(num_hashes));
    auto families = BlockLshFamilies::Create(k, 10, num_hashes, 24);
    ASSERT_TRUE(families.ok());
    ASSERT_EQ(families->block_length(families->num_blocks() - 1), 6);
    const ReuseClustering oracle =
        ReferenceClusterSubVectors(*families, cols.data(), n, group);
    const ReuseClustering& got =
        StreamClustering(*families, cols.data(), n, group, /*tile_rows=*/7,
                         &clusterer, /*descending_blocks=*/true);
    EXPECT_EQ(clusterer.identity_keys(), identity);
    ExpectSameClustering(got, oracle);
  }
}

TEST(StreamingClustererTest, ChunkRowsFillTheL1BudgetInRowTiles) {
  using Clusterer = StreamingSubVectorClusterer;
  // About 16 KiB per chunk: 256 rows at the benchmark's L = 10, 8 at
  // L = 400, the 4-row hash tile from L = 513 on. Taller chunks at wide L
  // spill L1 between the hash and the centroid sums and run slower.
  EXPECT_EQ(Clusterer::ChunkRows(Clusterer::ChunkStride(10)), 256);
  EXPECT_EQ(Clusterer::ChunkRows(Clusterer::ChunkStride(400)), 8);
  EXPECT_EQ(Clusterer::ChunkRows(Clusterer::ChunkStride(513)), 4);
  for (int64_t length = 1; length <= 8192; length = length * 3 / 2 + 1) {
    const int64_t stride = Clusterer::ChunkStride(length);
    const int64_t rows = Clusterer::ChunkRows(stride);
    EXPECT_GE(rows, 4) << "L=" << length;
    EXPECT_EQ(rows % 4, 0) << "L=" << length;
    EXPECT_TRUE(rows == 4 || rows * stride * 4 <= 16 * 1024) << "L=" << length;
  }
}

TEST(StreamingClustererTest, WideBlocksInForwardChunksMatchOracle) {
  // L = 400 and a 200-wide last block, fed in the forward's chunk height
  // (the last chunk partial), reproduce the reference clustering.
  const int64_t k = 1000, n = 150;
  const Tensor x = RedundantRows(n, k, 45);
  auto families = BlockLshFamilies::Create(k, 400, 9, 26);
  ASSERT_TRUE(families.ok());
  ASSERT_EQ(families->num_blocks(), 3);
  const int64_t chunk_rows = StreamingSubVectorClusterer::ChunkRows(
      StreamingSubVectorClusterer::ChunkStride(400));
  ASSERT_NE(n % chunk_rows, 0);
  const ReuseClustering oracle =
      ReferenceClusterSubVectors(*families, x.data(), n, n);
  StreamingSubVectorClusterer clusterer;
  ExpectSameClustering(
      StreamClustering(*families, x.data(), n, n, chunk_rows, &clusterer),
      oracle);
}

TEST(StreamingClustererTest, SteadyCyclesMakeNoHeapAllocations) {
  // CifarNet conv2's shape: 16 images of 32x16x16, 5x5 kernel, so
  // N = 4096, K = 800 and the forward's 256-row chunks over 80 blocks at
  // L = 10, H = 11.
  const ConvGeometry geo = testutil::SameConvGeometry(16, 32, 16, 5);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const Tensor cols = testutil::SmoothUnfolded(geo, 33);
  auto families = BlockLshFamilies::Create(k, 10, 11, 22);
  ASSERT_TRUE(families.ok());
  StreamingSubVectorClusterer clusterer;
  const auto cycle = [&] {
    StreamClustering(*families, cols.data(), n, n,
                     StreamingSubVectorClusterer::ChunkRows(
                         StreamingSubVectorClusterer::ChunkStride(10)),
                     &clusterer);
  };
  // Two warm-up cycles bring every buffer to its steady capacity.
  cycle();
  cycle();
  const int64_t before = g_heap_allocations.load();
  for (int i = 0; i < 3; ++i) cycle();
  EXPECT_EQ(g_heap_allocations.load() - before, 0);
}

// CifarNet conv2 (batch 16, 32x16x16, 5x5 kernel, pad 2, M = 32) through
// the fused reuse path at L = 10, H = 11: 80 blocks.
constexpr int64_t kConv2Blocks = 800 / 10;

ReuseConv2d Conv2Layer(Rng* rng) {
  Conv2dConfig config;
  config.in_channels = 32;
  config.out_channels = 32;
  config.kernel = 5;
  config.stride = 1;
  config.pad = 2;
  config.in_height = 16;
  config.in_width = 16;
  ReuseConfig reuse;
  reuse.sub_vector_length = 10;
  reuse.num_hashes = 11;
  return ReuseConv2d("alloc_conv2", config, reuse, rng);
}

TEST(StreamingClustererTest, SteadyEvalForwardsAllocateLessThanOnePerBlock) {
  // A whole eval-mode forward of conv2. It still allocates its output
  // tensor and a few metric names, but a clustering that rebuilt its
  // per-block results would cost at least one allocation per block.
  Rng rng(35);
  ReuseConv2d layer = Conv2Layer(&rng);
  const Tensor input = Tensor::RandomGaussian(Shape({16, 32, 16, 16}), &rng);
  for (int i = 0; i < 2; ++i) layer.Forward(input, /*training=*/false);
  for (int i = 0; i < 3; ++i) {
    const int64_t before = g_heap_allocations.load();
    const Tensor out = layer.Forward(input, /*training=*/false);
    EXPECT_LT(g_heap_allocations.load() - before, kConv2Blocks)
        << "forward " << i;
  }
}

TEST(StreamingClustererTest, SteadyTrainingStepsAllocateLessThanOnePerBlock) {
  // A training Forward plus the reuse Backward, which reads the
  // clustering the clusterer kept in place: beyond the output and input
  // gradient tensors and metric names, nothing may allocate per block.
  Rng rng(36);
  ReuseConv2d layer = Conv2Layer(&rng);
  const Tensor input = Tensor::RandomGaussian(Shape({16, 32, 16, 16}), &rng);
  const Tensor grad_out =
      Tensor::RandomGaussian(Shape({16, 32, 16, 16}), &rng);
  for (int i = 0; i < 2; ++i) {
    layer.Forward(input, /*training=*/true);
    layer.Backward(grad_out);
  }
  for (int i = 0; i < 3; ++i) {
    const int64_t before = g_heap_allocations.load();
    const Tensor out = layer.Forward(input, /*training=*/true);
    const Tensor grad_in = layer.Backward(grad_out);
    EXPECT_LT(g_heap_allocations.load() - before, kConv2Blocks)
        << "step " << i;
  }
}

}  // namespace
}  // namespace adr
