// Differential tests for the fused tiled forward: FusedClusteredForward
// must be bit-identical to ClusteredMatmulForward on the materialized
// Im2Col matrix — same signatures, same clusterings, same outputs — at
// every compiled SIMD backend and thread count, with and without the
// cluster-reuse cache, and across tile/group boundary misalignment. Both
// run the streaming clusterer, so both clusterings are also checked
// against the independent materialized reference
// (core/subvector_clustering_reference.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/clustered_matmul.h"
#include "core/reuse_conv2d.h"
#include "core/subvector_clustering_reference.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/workspace_arena.h"
#include "tests/clustering_harness.h"
#include "tests/kernel_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::Backends;
using testutil::ExpectSameClustering;

constexpr int kThreadCounts[] = {1, 2, 8};

using testutil::ThreadCountGuard;

// Geometry chosen so the fused path walks each block in several chunks
// whose boundaries do NOT align with the per-image group boundaries:
// K = 32*5*5 = 800, and at L = 100 or 160 a chunk holds 36 or 24 rows,
// while each 7x7 image contributes 49 rows.
ConvGeometry MultiTileGeometry(int64_t batch) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = 32;
  geo.in_height = 7;
  geo.in_width = 7;
  geo.kernel_h = 5;
  geo.kernel_w = 5;
  geo.stride = 1;
  geo.pad = 2;
  return geo;
}

// Small single-chunk geometry (K = 27, all rows fit in one chunk).
ConvGeometry SingleTileGeometry(int64_t batch) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = 3;
  geo.in_height = 8;
  geo.in_width = 8;
  geo.kernel_h = 3;
  geo.kernel_w = 3;
  geo.stride = 1;
  geo.pad = 1;
  return geo;
}

// Rows per block chunk of the forward at sub-vector length `length`.
int64_t ChunkRowsAt(int64_t length) {
  return StreamingSubVectorClusterer::ChunkRows(
      StreamingSubVectorClusterer::ChunkStride(length));
}

// Runs both paths on one input and checks bitwise equality of signatures,
// clusterings, and outputs, and that both clusterings equal the reference
// clustering of the Im2Col matrix. Caches (when provided) must be
// separate instances in identical states. `reused`, when not null,
// receives the number of clusters the caches served.
void ExpectFusedMatchesMaterialized(const BlockLshFamilies& families,
                                    const ConvGeometry& geo,
                                    const Tensor& input, const Tensor& weight,
                                    const Tensor& bias,
                                    int64_t rows_per_group,
                                    ClusterReuseCache* fused_cache,
                                    ClusterReuseCache* materialized_cache,
                                    int64_t* reused = nullptr) {
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = weight.shape()[1];

  Tensor cols(Shape({n, k}));
  Im2Col(geo, input, &cols);

  // The expected clustering: the reference clustering with each cache
  // hit's centroid row replaced by the cached representative, the
  // decisions taken by probing both caches before either forward (an
  // unbudgeted FindBatch changes nothing). Both caches must decide alike.
  ReuseClustering expected =
      ReferenceClusterSubVectors(families, cols.data(), n, rows_per_group);
  int64_t expected_hits = 0;
  if (fused_cache != nullptr) {
    for (size_t b = 0; b < expected.blocks.size(); ++b) {
      SubMatrixClustering& eb = expected.blocks[b];
      const int64_t count = static_cast<int64_t>(eb.signatures.size());
      std::vector<int32_t> entries(eb.signatures.size());
      std::vector<int32_t> materialized_entries(eb.signatures.size());
      const int64_t block_hits = fused_cache->FindBatch(
          static_cast<int64_t>(b), eb.signatures.data(), count,
          entries.data());
      ASSERT_EQ(materialized_cache->FindBatch(static_cast<int64_t>(b),
                                              eb.signatures.data(), count,
                                              materialized_entries.data()),
                block_hits)
          << "block " << b;
      for (size_t c = 0; c < entries.size(); ++c) {
        ASSERT_EQ(entries[c] >= 0, materialized_entries[c] >= 0)
            << "block " << b << " cluster " << c;
      }
      if (block_hits == 0) continue;
      std::vector<float> outputs(static_cast<size_t>(count * m));
      fused_cache->GatherHits(static_cast<int64_t>(b), entries.data(), count,
                              outputs.data(), m, eb.centroids.data(),
                              eb.length);
      expected_hits += block_hits;
    }
  }

  const ForwardReuseResult reference =
      ClusteredMatmulForward(families, cols.data(), n, weight, &bias,
                             rows_per_group, materialized_cache);

  WorkspaceArena arena;
  StreamingSubVectorClusterer clusterer;
  std::vector<float> y(static_cast<size_t>(n * m));
  ForwardReuseStats fs;
  FusedClusteredForward(families, geo, input.data(), weight, &bias,
                        rows_per_group, fused_cache, &arena, &clusterer,
                        y.data(), &fs);
  const ReuseClustering& clustering = clusterer.clustering();

  const float* ry = reference.y_rows.data();
  for (int64_t i = 0; i < n * m; ++i) {
    ASSERT_EQ(y[static_cast<size_t>(i)], ry[i]) << "output element " << i;
  }
  ExpectSameClustering(clustering, reference.clustering);
  ExpectSameClustering(clustering, expected);
  ExpectSameClustering(reference.clustering, expected);
  EXPECT_EQ(fs.clusters_total, reference.stats.clusters_total);
  EXPECT_EQ(fs.clusters_reused, expected_hits);
  EXPECT_EQ(fs.clusters_reused, reference.stats.clusters_reused);
  EXPECT_DOUBLE_EQ(fs.batch_reuse_rate, reference.stats.batch_reuse_rate);
  if (reused != nullptr) *reused = fs.clusters_reused;
}

TEST(FusedForwardTest, MatchesMaterializedAcrossBackendsAndThreads) {
  ThreadCountGuard guard;
  const ConvGeometry geo = MultiTileGeometry(4);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  ASSERT_GT(n, ChunkRowsAt(100)) << "geometry must span several chunks";

  Rng rng(11);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 16}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({16}), &rng);
  auto families = BlockLshFamilies::Create(k, 100, 10, 5);
  ASSERT_TRUE(families.ok());

  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(backend->name) + " threads=" +
                   std::to_string(threads));
      ThreadPool::SetGlobalThreads(threads);
      ExpectFusedMatchesMaterialized(*families, geo, input, weight, bias,
                                     /*rows_per_group=*/n, nullptr, nullptr);
    }
  }
}

TEST(FusedForwardTest, MatchesMaterializedAtCifarNetReuseShape) {
  // The benchmarked CifarNet conv2 setting: K = 800 split into 80 blocks
  // of L = 10 with H = 11, so 80 blocks share the worker chunks and each
  // is walked in 256-row chunks. Batch and per-image scope.
  ThreadCountGuard guard;
  const ConvGeometry geo = MultiTileGeometry(3);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  ASSERT_EQ(k, 800);

  Rng rng(14);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 16}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({16}), &rng);
  auto families = BlockLshFamilies::Create(k, 10, 11, 8);
  ASSERT_TRUE(families.ok());
  ASSERT_EQ(families->num_blocks(), 80);

  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      for (const int64_t rows_per_group : {n, geo.rows_per_image()}) {
        SCOPED_TRACE(std::string(backend->name) + " threads=" +
                     std::to_string(threads) +
                     " rows_per_group=" + std::to_string(rows_per_group));
        ExpectFusedMatchesMaterialized(*families, geo, input, weight, bias,
                                       rows_per_group, nullptr, nullptr);
      }
    }
  }
}

TEST(FusedForwardTest, MatchesMaterializedWithSignatureCappedTables) {
  // 2^H < rows_per_group caps the clusterer's table at 2 * 2^H slots
  // instead of 2 * rows_per_group: H = 3 against 49-row images (per-image
  // scope, 4 group resets, several landing mid-chunk) and H = 4 against the
  // whole 196-row batch.
  ThreadCountGuard guard;
  const ConvGeometry geo = MultiTileGeometry(4);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  Rng rng(16);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 8}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({8}), &rng);
  for (const auto& [num_hashes, rows_per_group] :
       {std::pair<int, int64_t>{3, geo.rows_per_image()},
        std::pair<int, int64_t>{4, n}}) {
    ASSERT_LT(int64_t{1} << num_hashes, rows_per_group);
    auto families = BlockLshFamilies::Create(k, 50, num_hashes, 10);
    ASSERT_TRUE(families.ok());
    for (const simd::Kernels* backend : Backends()) {
      simd::ScopedKernelsOverride override_backend(*backend);
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE(std::string(backend->name) + " threads=" +
                     std::to_string(threads) + " H=" +
                     std::to_string(num_hashes));
        ThreadPool::SetGlobalThreads(threads);
        ExpectFusedMatchesMaterialized(*families, geo, input, weight, bias,
                                       rows_per_group, nullptr, nullptr);
      }
    }
  }
}

TEST(FusedForwardTest, CappedTablesStayBitIdenticalAcrossCycles) {
  // One clusterer reused across Begin/Finish cycles whose group sizes and
  // table capacities change (16 slots at H = 3, 128 or 256 at H = 7), and
  // stay the same between some consecutive cycles, so both the resize and
  // the leftover-slot reset at Begin run: every cycle must reproduce the
  // reference clustering.
  const ConvGeometry geo = MultiTileGeometry(4);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  Rng rng(17);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  Tensor cols(Shape({n, k}));
  Im2Col(geo, input, &cols);
  auto coarse = BlockLshFamilies::Create(k, 40, 3, 11);
  auto fine = BlockLshFamilies::Create(k, 40, 7, 12);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  const int64_t image = geo.rows_per_image();
  StreamingSubVectorClusterer reused;
  for (const auto& [families, rows_per_group] :
       {std::pair<const BlockLshFamilies*, int64_t>{&*coarse, image},
        {&*coarse, n},
        {&*fine, image},
        {&*fine, n},
        {&*coarse, n},
        {&*fine, image}}) {
    SCOPED_TRACE("H=" + std::to_string(families->family(0).num_hashes()) +
                 " rows_per_group=" + std::to_string(rows_per_group));
    const ReuseClustering reference = ReferenceClusterSubVectors(
        *families, cols.data(), n, rows_per_group);
    ExpectSameClustering(
        testutil::StreamClustering(*families, cols.data(), n, rows_per_group,
                                   /*tile_rows=*/37, &reused),
        reference);
  }
}

TEST(FusedForwardTest, MatchesMaterializedWithMisalignedGroupBoundaries) {
  // Per-image scope: 49-row groups vs 24-row chunks (L = 160), so the
  // signature table resets of the streaming clusterer land mid-chunk.
  // N = 196 and 245 leave partial last chunks of 4 and 5 rows.
  for (const int64_t batch : {4, 5}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const ConvGeometry geo = MultiTileGeometry(batch);
    const int64_t k = geo.unfolded_cols();
    ASSERT_NE(geo.rows_per_image() % ChunkRowsAt(160), 0);
    ASSERT_NE(geo.unfolded_rows() % ChunkRowsAt(160), 0);

    Rng rng(12);
    const Tensor input = Tensor::RandomGaussian(
        Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
        &rng);
    const Tensor weight = Tensor::RandomGaussian(Shape({k, 8}), &rng);
    const Tensor bias = Tensor::RandomGaussian(Shape({8}), &rng);
    auto families = BlockLshFamilies::Create(k, 160, 8, 6);
    ASSERT_TRUE(families.ok());

    ExpectFusedMatchesMaterialized(*families, geo, input, weight, bias,
                                   geo.rows_per_image(), nullptr, nullptr);
  }
}

TEST(FusedForwardTest, MatchesMaterializedSingleTile) {
  // One chunk per block: N = 128 rows, 9 floats padded to stride 16.
  const ConvGeometry geo = SingleTileGeometry(2);
  const int64_t k = geo.unfolded_cols();
  Rng rng(13);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 6}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({6}), &rng);
  auto families = BlockLshFamilies::Create(k, 9, 12, 7);
  ASSERT_TRUE(families.ok());

  ExpectFusedMatchesMaterialized(*families, geo, input, weight, bias,
                                 geo.unfolded_rows(), nullptr, nullptr);
}

TEST(FusedForwardTest, MatchesMaterializedWithClusterReuseCache) {
  // Two consecutive batches against separate-but-identical caches: the
  // second batch exercises the hit/memcpy path and the reuse stats.
  const ConvGeometry geo = MultiTileGeometry(3);
  const int64_t k = geo.unfolded_cols();
  Rng rng(14);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 8}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({8}), &rng);
  auto families = BlockLshFamilies::Create(k, 200, 6, 8);
  ASSERT_TRUE(families.ok());

  ClusterReuseCache fused_cache;
  ClusterReuseCache materialized_cache;
  const Tensor batch1 = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  // Second batch = first batch plus small noise, so many signatures repeat.
  Tensor batch2 = batch1;
  for (int64_t i = 0; i < batch2.num_elements(); ++i) {
    batch2.data()[i] += rng.NextGaussian() * 1e-4f;
  }

  ExpectFusedMatchesMaterialized(*families, geo, batch1, weight, bias,
                                 geo.unfolded_rows(), &fused_cache,
                                 &materialized_cache);
  int64_t reused = 0;
  ExpectFusedMatchesMaterialized(*families, geo, batch2, weight, bias,
                                 geo.unfolded_rows(), &fused_cache,
                                 &materialized_cache, &reused);
  EXPECT_GT(reused, 0);
  EXPECT_EQ(fused_cache.TotalEntries(), materialized_cache.TotalEntries());
  EXPECT_EQ(fused_cache.ResidentBytes(), materialized_cache.ResidentBytes());
}

TEST(FusedForwardTest, ReusedBuffersStayBitIdenticalAcrossSteps) {
  // Same FusedClusteredForward driven through one persistent clusterer
  // and arena for several steps (each Begin reusing the last clustering's
  // buffers, as in the layer) must keep producing the same bits as a
  // fresh run.
  const ConvGeometry geo = MultiTileGeometry(2);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = 8;
  Rng rng(15);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, m}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({m}), &rng);
  auto families = BlockLshFamilies::Create(k, 100, 10, 9);
  ASSERT_TRUE(families.ok());

  WorkspaceArena arena;
  StreamingSubVectorClusterer clusterer;
  std::vector<float> first;
  for (int step = 0; step < 3; ++step) {
    arena.Reset();
    float* y = arena.AllocFloats(n * m);
    ForwardReuseStats fs;
    FusedClusteredForward(*families, geo, input.data(), weight, &bias, n,
                          nullptr, &arena, &clusterer, y, &fs);
    if (step == 0) {
      first.assign(y, y + n * m);
    } else {
      for (int64_t i = 0; i < n * m; ++i) {
        ASSERT_EQ(y[i], first[static_cast<size_t>(i)])
            << "step " << step << " element " << i;
      }
    }
  }
}

TEST(FusedForwardTest, ReuseConv2dFusedMatchesMaterializedLayer) {
  // Layer-level differential: exact_backward only adds the Im2Col copy
  // the exact backward reads, so its training Forward must match the
  // default layer's. Identically seeded weights must give bitwise-equal
  // outputs.
  Conv2dConfig config;
  config.in_channels = 32;
  config.out_channels = 12;
  config.kernel = 5;
  config.stride = 1;
  config.pad = 2;
  config.in_height = 7;
  config.in_width = 7;
  ReuseConfig reuse;
  reuse.sub_vector_length = 100;
  reuse.num_hashes = 8;

  Rng rng_a(21);
  Rng rng_b(21);
  ReuseConv2d fused_layer("fused", config, reuse, &rng_a);
  ReuseConv2d exact_layer("exact", config, reuse, &rng_b);
  exact_layer.set_exact_backward(true);

  Rng data_rng(22);
  const Tensor input = Tensor::RandomGaussian(Shape({4, 32, 7, 7}),
                                              &data_rng);
  const Tensor out_fused = fused_layer.Forward(input, /*training=*/true);
  const Tensor out_exact = exact_layer.Forward(input, /*training=*/true);
  ASSERT_EQ(out_fused.shape(), out_exact.shape());
  for (int64_t i = 0; i < out_fused.num_elements(); ++i) {
    ASSERT_EQ(out_fused.data()[i], out_exact.data()[i]) << "element " << i;
  }
}

TEST(FusedForwardTest, ReuseConv2dEvalMatchesTrainingOutput) {
  // Eval mode takes the fused path and caches nothing; without a
  // cluster-reuse cache the forward is pure, so eval and training
  // outputs are bitwise equal and repeated eval calls are stable.
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 6;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = 9;
  reuse.num_hashes = 10;

  Rng rng(23);
  ReuseConv2d layer("evaltrain", config, reuse, &rng);
  Rng data_rng(24);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 3, 8, 8}),
                                              &data_rng);

  const Tensor train_out = layer.Forward(input, /*training=*/true);
  const Tensor eval_out = layer.Forward(input, /*training=*/false);
  const Tensor eval_again = layer.Forward(input, /*training=*/false);
  for (int64_t i = 0; i < train_out.num_elements(); ++i) {
    ASSERT_EQ(eval_out.data()[i], train_out.data()[i]) << "element " << i;
    ASSERT_EQ(eval_again.data()[i], train_out.data()[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace adr
