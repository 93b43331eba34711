// Forward-pass computation reuse: y = x * W computed on cluster centroids
// only (paper Section III), optionally consulting the cross-batch cluster
// reuse cache (Algorithm 1).

#ifndef ADR_CORE_CLUSTERED_MATMUL_H_
#define ADR_CORE_CLUSTERED_MATMUL_H_

#include <cstdint>
#include <vector>

#include "core/cluster_cache.h"
#include "core/subvector_clustering.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"

namespace adr {

/// \brief Instrumentation of one reuse forward pass.
struct ForwardReuseStats {
  int64_t clusters_total = 0;
  int64_t clusters_reused = 0;  ///< served from the CR cache
  double avg_remaining_ratio = 0.0;
  double hash_seconds = 0.0;  ///< hashing + grouping + centroids
  double gemm_seconds = 0.0;  ///< centroid GEMM + scatter + bias
  /// Multiply-accumulates actually executed, split per phase.
  double macs_hash = 0.0;
  double macs_gemm = 0.0;
  double macs_scatter = 0.0;  ///< adds from reconstructing y (counted as MACs)
  /// MACs a dense x*W GEMM would have executed.
  double macs_baseline = 0.0;
  /// Per-batch cluster reuse rate R (0 when no cache is used).
  double batch_reuse_rate = 0.0;
};

/// \brief Result of the reuse forward pass.
struct ForwardReuseResult {
  Tensor y_rows;               ///< [N, M]
  ReuseClustering clustering;  ///< retained for the backward pass
  ForwardReuseStats stats;
};

/// \brief Computes y = x * W (+ bias) through centroid reuse.
///
/// `x` is N x K row-major; `weight` is [K, M]; `bias` is [M] or nullptr;
/// `rows_per_group` sets the clustering scope (see
/// StreamingSubVectorClusterer::Begin); `cache` enables Algorithm 1 when
/// non-null. Runs FusedClusteredForward's pipeline on a local clusterer,
/// with each block chunk copied from `x` instead of unfolded from NCHW,
/// so the two agree bit for bit on the same unfolded rows.
ForwardReuseResult ClusteredMatmulForward(const BlockLshFamilies& families,
                                          const float* x, int64_t num_rows,
                                          const Tensor& weight,
                                          const Tensor* bias,
                                          int64_t rows_per_group,
                                          ClusterReuseCache* cache);

/// \brief The fused, block-major forward: one ParallelFor over the column
/// blocks, each block walking all rows in L1-sized chunks of its own
/// columns, unfolded straight from the NCHW `input` (Im2ColColumns) and
/// clustered by the streaming `clusterer`; only the |C| centroid rows
/// ever meet the GEMM. The N x K unfolded matrix is never materialized:
/// the forward's footprint is O(chunks + |C|*K), not O(N*K).
///
/// Signatures, clusterings, and `y` are bit-identical to
/// ClusteredMatmulForward on the materialized Im2Col output: both run
/// one streaming pipeline and differ only in where a chunk comes from.
/// `y` is num_rows x M, overwritten. The clustering stays in the
/// caller-owned `clusterer` (clusterer->clustering(), valid until its next
/// Begin), whose buffers persist across steps; scratch comes from `arena`
/// (heap fallback when null).
void FusedClusteredForward(const BlockLshFamilies& families,
                           const ConvGeometry& geo, const float* input_nchw,
                           const Tensor& weight, const Tensor* bias,
                           int64_t rows_per_group, ClusterReuseCache* cache,
                           WorkspaceArena* arena,
                           StreamingSubVectorClusterer* clusterer, float* y,
                           ForwardReuseStats* stats);

/// \brief Same computation with k-means clustering instead of LSH — the
/// high-quality/slow method of the paper's similarity-verification study
/// (Fig. 7). `clusters_per_group` is clamped to each group's row count.
/// No cross-batch cache (k-means has no stable cluster IDs).
ForwardReuseResult KMeansMatmulForward(
    const float* x, int64_t num_rows, int64_t k, int64_t sub_vector_length,
    const Tensor& weight, const Tensor* bias, int64_t rows_per_group,
    int64_t clusters_per_group, int iterations, uint64_t seed);

/// \brief KMeansMatmulForward into caller-owned storage: `y` (num_rows x
/// M) is overwritten, `clustering` and `stats` are replaced. The layer's
/// form, which writes y straight into its arena.
void KMeansMatmulForward(const float* x, int64_t num_rows, int64_t k,
                         int64_t sub_vector_length, const Tensor& weight,
                         const Tensor* bias, int64_t rows_per_group,
                         int64_t clusters_per_group, int iterations,
                         uint64_t seed, float* y, ReuseClustering* clustering,
                         ForwardReuseStats* stats);

}  // namespace adr

#endif  // ADR_CORE_CLUSTERED_MATMUL_H_
