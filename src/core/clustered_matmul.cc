#include "core/clustered_matmul.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "clustering/kmeans.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/metrics_registry.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

namespace {

// y[i] += yc[assignment[i]] for every row: the member scatter that fans
// the per-cluster GEMM results back out. Each row owns y[i], so row
// chunks are race-free and thread-count independent.
void ScatterClusterOutputs(const float* yc, const Clustering& clustering,
                           int64_t num_rows, int64_t m, float* y) {
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(num_rows, GrainForCost(m), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      kernels.add(yc + clustering.assignment[static_cast<size_t>(i)] * m,
                  y + i * m, m);
    }
  });
}

// The shared back half of every reuse forward: given a finished clustering,
// consult the cross-batch cache, run one GEMM over the missed centroids
// per block (gathered compactly when some clusters hit), scatter the
// cluster outputs to the member rows, and add the bias. Every forward
// (LSH through StreamClusteredForward, and k-means with no cache and
// num_hashes = 0) ends here, so outputs agree bit-for-bit whenever
// clusterings do. `y` (num_rows x m) is overwritten; transient buffers
// bump from `scratch`.
void FinishForwardFromClustering(ReuseClustering* clustering,
                                 const Tensor& weight, const Tensor* bias,
                                 ClusterReuseCache* cache, int num_hashes,
                                 ScratchAllocator* scratch, float* y,
                                 ForwardReuseStats* stats) {
  const int64_t num_rows = clustering->num_rows;
  const int64_t k = clustering->num_cols;
  const int64_t m = weight.shape()[1];
  std::fill_n(y, static_cast<size_t>(num_rows * m), 0.0f);

  int64_t batch_clusters = 0;
  int64_t batch_reused = 0;

  ADR_TRACE_SPAN("centroid_gemm_scatter");
  for (size_t bi = 0; bi < clustering->blocks.size(); ++bi) {
    SubMatrixClustering& block = clustering->blocks[bi];
    const int64_t num_clusters = block.clustering.num_clusters();
    const int64_t length = block.length;
    const float* w_block = weight.data() + block.col_offset * m;
    batch_clusters += num_clusters;

    // 1. Decide, per cluster, whether its output comes from the cache:
    // one batched parallel lookup over the block's signatures, then one
    // parallel gather of the hit payloads (cached output rows into yc,
    // cached representatives over the fresh centroids — the backward pass
    // must see the representative the cached output was computed from).
    // Every yc row is written below (hit gather or GEMM), so the
    // uninitialized scratch buffer is safe.
    float* yc = scratch->Floats(num_clusters * m);
    int32_t* miss_clusters = scratch->Int32(num_clusters);
    int64_t num_miss = 0;
    if (cache != nullptr) {
      int32_t* hit_entries = scratch->Int32(num_clusters);
      int64_t num_hits = 0;
      {
        ADR_TRACE_SPAN("cache_find_batch");
        num_hits = cache->FindBatch(static_cast<int64_t>(bi),
                                    block.signatures.data(), num_clusters,
                                    hit_entries);
      }
      if (num_hits > 0) {
        cache->GatherHits(static_cast<int64_t>(bi), hit_entries,
                          num_clusters, yc, m, block.centroids.data(),
                          length);
      }
      for (int64_t c = 0; c < num_clusters; ++c) {
        if (hit_entries[c] >= 0) {
          block.reused_from_cache[static_cast<size_t>(c)] = true;
        } else {
          miss_clusters[num_miss++] = static_cast<int32_t>(c);
        }
      }
      batch_reused += num_hits;
    } else {
      for (int64_t c = 0; c < num_clusters; ++c) {
        miss_clusters[num_miss++] = static_cast<int32_t>(c);
      }
    }

    // 2. One GEMM over the centroids that missed: y_c = x_c * W_I.
    if (num_miss > 0) {
      const bool all_miss = num_miss == num_clusters;
      if (all_miss) {
        Gemm(block.centroids.data(), w_block, yc, num_clusters, length, m);
      } else {
        // Centroid gather: pack the missed centroids contiguously for one
        // GEMM, then scatter its rows back. Both sides write disjoint
        // rows per index, so row chunks parallelize deterministically.
        float* compact = scratch->Floats(num_miss * length);
        float* compact_y = scratch->Floats(num_miss * m);
        ParallelFor(num_miss, GrainForCost(length),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        std::memcpy(
                            compact + i * length,
                            block.centroids.data() +
                                miss_clusters[i] * length,
                            sizeof(float) * static_cast<size_t>(length));
                      }
                    });
        Gemm(compact, w_block, compact_y, num_miss, length, m);
        ParallelFor(num_miss, GrainForCost(m),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        std::memcpy(yc + miss_clusters[i] * m,
                                    compact_y + i * m,
                                    sizeof(float) * static_cast<size_t>(m));
                      }
                    });
      }
      stats->macs_gemm += static_cast<double>(num_miss) * length * m;
      if (cache != nullptr) {
        cache->InsertBatch(static_cast<int64_t>(bi), block.signatures.data(),
                           miss_clusters, num_miss, block.centroids.data(),
                           length, yc, m);
      }
    }

    // 3. Reconstruct: y[i] += y_c[cluster(i)].
    ScatterClusterOutputs(yc, block.clustering, num_rows, m, y);
    stats->macs_scatter += static_cast<double>(num_rows) * m;
  }

  if (bias != nullptr) {
    AddRowBias(bias->data(), y, num_rows, m);
  }

  // Hash MACs: N * L_I * H per block = N * K * H in total.
  double hash_macs = 0.0;
  for (const auto& block : clustering->blocks) {
    hash_macs += static_cast<double>(num_rows) * block.length * num_hashes;
  }
  stats->macs_hash = hash_macs;
  stats->macs_baseline = static_cast<double>(num_rows) * k * m;
  stats->clusters_total = batch_clusters;
  stats->clusters_reused = batch_reused;
  stats->avg_remaining_ratio = clustering->AverageRemainingRatio();
  stats->batch_reuse_rate =
      batch_clusters == 0 ? 0.0
                          : static_cast<double>(batch_reused) /
                                static_cast<double>(batch_clusters);
}

void PublishCoreForwardMetrics(const ForwardReuseStats& stats) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("core/clustered_forwards")->Increment();
  metrics.counter("core/clusters_total")->Increment(stats.clusters_total);
  metrics.counter("core/clusters_reused")
      ->Increment(stats.clusters_reused);
  metrics.histogram("core/hash_seconds")->Record(stats.hash_seconds);
  metrics.histogram("core/gemm_seconds")->Record(stats.gemm_seconds);
}

// The one LSH forward: clusters block by block, then runs the shared back
// half and returns the clusterer's clustering. One ParallelFor over
// blocks covers the whole front half. A worker walks all num_rows rows of
// each of its blocks in ChunkRows-high chunks, which
// `unfold(block, row, rows, chunk, stride)` fills with the block's
// columns of rows [row, row + rows) at the padded stride. Its callers
// differ only in where those columns come from.
template <typename ChunkSource>
ReuseClustering& StreamClusteredForward(
    const BlockLshFamilies& families, int64_t num_rows, const Tensor& weight,
    const Tensor* bias, int64_t rows_per_group, ClusterReuseCache* cache,
    ScratchAllocator* scratch, StreamingSubVectorClusterer* clusterer,
    ChunkSource unfold, float* y, ForwardReuseStats* stats) {
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  ADR_CHECK_EQ(weight.shape()[0], families.k());
  Timer timer;

  // 1. Hash and cluster block by block (hashing + grouping + centroids).
  ReuseClustering* clustering;
  {
    ADR_TRACE_SPAN("fused_tile_cluster");
    clusterer->Begin(&families, num_rows, rows_per_group);
    const int64_t num_blocks = families.num_blocks();
    const int64_t stride = clusterer->chunk_stride();
    const int64_t chunk_rows = StreamingSubVectorClusterer::ChunkRows(stride);
    // Cost per row and block: the unfold, the projection's FMAs and the
    // centroid adds. At most kMaxBlockChunks chunks, so the chunk
    // buffers (one per ParallelFor chunk) stay few; the result does not
    // depend on how blocks are split.
    constexpr int64_t kMaxBlockChunks = 16;
    const int64_t grain = std::max(
        GrainForCost(num_rows * (families.block_length(0) *
                                     (families.family(0).padded_hashes() + 1) +
                                 stride)),
        (num_blocks + kMaxBlockChunks - 1) / kMaxBlockChunks);
    const int64_t chunk_floats = chunk_rows * stride;
    float* chunks =
        scratch->Floats((num_blocks + grain - 1) / grain * chunk_floats);
    ParallelFor(num_blocks, grain, [&](int64_t begin, int64_t end) {
      ADR_TRACE_SPAN("cluster_blocks");
      // Unfolds write only a block's L lanes of each row, so the padding
      // lanes keep these zeros for the whole walk.
      float* chunk = chunks + begin / grain * chunk_floats;
      std::fill_n(chunk, chunk_floats, 0.0f);
      for (int64_t b = begin; b < end; ++b) {
        for (int64_t row = 0; row < num_rows; row += chunk_rows) {
          const int64_t rows = std::min(chunk_rows, num_rows - row);
          unfold(b, row, rows, chunk, stride);
          clusterer->ConsumeBlock(b, chunk, stride, row, rows);
        }
      }
    });
    clustering = &clusterer->Finish();
  }
  stats->hash_seconds = timer.ElapsedSeconds();

  // 2. Gather-GEMM over the centroids only, then scatter.
  timer.Reset();
  FinishForwardFromClustering(clustering, weight, bias, cache,
                              families.family(0).num_hashes(), scratch, y,
                              stats);
  stats->gemm_seconds = timer.ElapsedSeconds();
  PublishCoreForwardMetrics(*stats);
  return *clustering;
}

}  // namespace

ForwardReuseResult ClusteredMatmulForward(const BlockLshFamilies& families,
                                          const float* x, int64_t num_rows,
                                          const Tensor& weight,
                                          const Tensor* bias,
                                          int64_t rows_per_group,
                                          ClusterReuseCache* cache) {
  ADR_TRACE_SPAN("ClusteredMatmulForward");
  const int64_t k = families.k();
  ForwardReuseResult result;
  result.y_rows = Tensor(Shape({num_rows, weight.shape()[1]}));
  ScratchAllocator scratch(/*arena=*/nullptr);
  StreamingSubVectorClusterer clusterer;
  // Chunks are copied from x; the clustering moves out of the local
  // clusterer.
  const auto copy_columns = [&](int64_t block, int64_t row, int64_t rows,
                                float* chunk, int64_t stride) {
    const float* src = x + row * k + families.block_offset(block);
    const size_t bytes =
        sizeof(float) * static_cast<size_t>(families.block_length(block));
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(chunk + r * stride, src + r * k, bytes);
    }
  };
  result.clustering = std::move(StreamClusteredForward(
      families, num_rows, weight, bias, rows_per_group, cache, &scratch,
      &clusterer, copy_columns, result.y_rows.data(), &result.stats));
  return result;
}

void FusedClusteredForward(const BlockLshFamilies& families,
                           const ConvGeometry& geo, const float* input_nchw,
                           const Tensor& weight, const Tensor* bias,
                           int64_t rows_per_group, ClusterReuseCache* cache,
                           WorkspaceArena* arena,
                           StreamingSubVectorClusterer* clusterer, float* y,
                           ForwardReuseStats* stats) {
  ADR_CHECK_EQ(geo.unfolded_cols(), families.k());
  ADR_CHECK(clusterer != nullptr);

  ADR_TRACE_SPAN("FusedClusteredForward");
  ScratchAllocator scratch(arena);
  // Each chunk is unfolded straight from NCHW, only the block's columns;
  // the unfolded matrix never exists.
  const auto unfold_columns = [&](int64_t block, int64_t row, int64_t rows,
                                  float* chunk, int64_t stride) {
    const int64_t col = families.block_offset(block);
    Im2ColColumns(geo, input_nchw, row, row + rows, col,
                  col + families.block_length(block), chunk, stride);
  };
  StreamClusteredForward(families, geo.unfolded_rows(), weight, bias,
                         rows_per_group, cache, &scratch, clusterer,
                         unfold_columns, y, stats);
  MetricsRegistry::Global().counter("core/fused_forwards")->Increment();
}

ForwardReuseResult KMeansMatmulForward(
    const float* x, int64_t num_rows, int64_t k, int64_t sub_vector_length,
    const Tensor& weight, const Tensor* bias, int64_t rows_per_group,
    int64_t clusters_per_group, int iterations, uint64_t seed) {
  ForwardReuseResult result;
  result.y_rows = Tensor(Shape({num_rows, weight.shape()[1]}));
  KMeansMatmulForward(x, num_rows, k, sub_vector_length, weight, bias,
                      rows_per_group, clusters_per_group, iterations, seed,
                      result.y_rows.data(), &result.clustering,
                      &result.stats);
  return result;
}

void KMeansMatmulForward(const float* x, int64_t num_rows, int64_t k,
                         int64_t sub_vector_length, const Tensor& weight,
                         const Tensor* bias, int64_t rows_per_group,
                         int64_t clusters_per_group, int iterations,
                         uint64_t seed, float* y, ReuseClustering* clustering,
                         ForwardReuseStats* stats) {
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  ADR_CHECK_EQ(weight.shape()[0], k);
  ADR_CHECK_GT(num_rows, 0);
  ADR_CHECK_EQ(num_rows % rows_per_group, 0);
  const int64_t length =
      sub_vector_length <= 0 || sub_vector_length > k ? k : sub_vector_length;

  ADR_TRACE_SPAN("KMeansMatmulForward");
  Timer timer;
  *stats = ForwardReuseStats();
  clustering->blocks.clear();
  clustering->num_rows = num_rows;
  clustering->num_cols = k;
  for (int64_t offset = 0; offset < k; offset += length) {
    SubMatrixClustering block;
    block.col_offset = offset;
    block.length = std::min(length, k - offset);

    Clustering& merged = block.clustering;
    merged.assignment.resize(static_cast<size_t>(num_rows));
    for (int64_t group_start = 0; group_start < num_rows;
         group_start += rows_per_group) {
      KMeansOptions options;
      options.num_clusters = std::min(clusters_per_group, rows_per_group);
      options.max_iterations = iterations;
      options.seed = seed + static_cast<uint64_t>(offset * 1315423911 +
                                                  group_start);
      const Result<KMeansResult> kmeans =
          KMeans(x + group_start * k + offset, rows_per_group, block.length,
                 k, options);
      ADR_CHECK(kmeans.ok()) << kmeans.status().ToString();
      const int32_t id_offset =
          static_cast<int32_t>(merged.cluster_sizes.size());
      for (int64_t i = 0; i < rows_per_group; ++i) {
        merged.assignment[static_cast<size_t>(group_start + i)] =
            id_offset + kmeans->clustering.assignment[static_cast<size_t>(i)];
      }
      merged.cluster_sizes.insert(merged.cluster_sizes.end(),
                                  kmeans->clustering.cluster_sizes.begin(),
                                  kmeans->clustering.cluster_sizes.end());
    }
    // Recompute centroids over the merged assignment from the raw data
    // (k-means already converged, but this keeps one code path).
    const Tensor centroids =
        ComputeCentroids(x + offset, num_rows, block.length, k, merged);
    block.centroids.assign(centroids.data(),
                           centroids.data() + centroids.num_elements());
    block.reused_from_cache.assign(
        static_cast<size_t>(merged.num_clusters()), false);
    clustering->blocks.push_back(std::move(block));
  }
  stats->hash_seconds = timer.ElapsedSeconds();

  timer.Reset();
  ScratchAllocator scratch(/*arena=*/nullptr);
  FinishForwardFromClustering(clustering, weight, bias, /*cache=*/nullptr,
                              /*num_hashes=*/0, &scratch, y, stats);
  stats->gemm_seconds = timer.ElapsedSeconds();
}

}  // namespace adr
