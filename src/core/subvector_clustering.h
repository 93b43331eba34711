// Sub-vector clustering: splits the unfolded input matrix x (N x K)
// column-wise into sub-matrices of width L and LSH-clusters the rows of
// each independently (paper Fig. 3). The result is the shared artifact of
// forward and backward reuse.

#ifndef ADR_CORE_SUBVECTOR_CLUSTERING_H_
#define ADR_CORE_SUBVECTOR_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "clustering/clustering.h"
#include "clustering/lsh.h"
#include "core/reuse_config.h"
#include "tensor/simd.h"
#include "util/result.h"

namespace adr {

/// \brief Clustering of one column block x^(I) of the unfolded matrix.
struct SubMatrixClustering {
  int64_t col_offset = 0;  ///< first column of this block in x
  int64_t length = 0;      ///< L_I (last block may be shorter)
  Clustering clustering;
  /// LSH signature per cluster (the cross-batch cluster ID).
  std::vector<LshSignature> signatures;
  /// Centroid matrix x_c^(I), |C_I| x L_I row-major. For clusters reused
  /// from the cross-batch cache this row holds the cached representative.
  std::vector<float> centroids;
  /// reused_from_cache[c] is true when cluster c's output came from the
  /// cluster-reuse cache (Algorithm 1) rather than a fresh GEMM.
  std::vector<bool> reused_from_cache;
};

/// \brief Clustering of all column blocks of one unfolded matrix.
struct ReuseClustering {
  std::vector<SubMatrixClustering> blocks;
  int64_t num_rows = 0;  ///< N
  int64_t num_cols = 0;  ///< K

  /// Average remaining ratio r_c across blocks (paper Section III-B).
  double AverageRemainingRatio() const;
  /// Total clusters across blocks.
  int64_t TotalClusters() const;
};

/// \brief Immutable family of LSH hyperplanes for every column block of a
/// layer, regenerated only when (K, L, H, seed) changes.
class BlockLshFamilies {
 public:
  BlockLshFamilies() = default;

  /// \brief Builds one LshFamily per block for width-K rows split at
  /// length L. Each block gets an independent family (seed offset by the
  /// block index).
  static Result<BlockLshFamilies> Create(int64_t k, int64_t sub_vector_length,
                                         int num_hashes, uint64_t seed);

  int64_t num_blocks() const { return static_cast<int64_t>(families_.size()); }
  const LshFamily& family(int64_t block) const {
    return families_[static_cast<size_t>(block)];
  }
  int64_t block_offset(int64_t block) const {
    return offsets_[static_cast<size_t>(block)];
  }
  int64_t block_length(int64_t block) const {
    return lengths_[static_cast<size_t>(block)];
  }
  int64_t k() const { return k_; }

 private:
  int64_t k_ = 0;
  std::vector<LshFamily> families_;
  std::vector<int64_t> offsets_;
  std::vector<int64_t> lengths_;
};

/// \brief The library's LSH sub-vector clusterer: clusters the rows of
/// the unfolded matrix per column block, fed as consecutive row tiles.
///
/// The forward feeds L2-sized tiles (Im2ColRows output, or rows read in
/// place from a materialized matrix), so the N x K matrix need never
/// exist. The result is bit-identical to the one-pass materialized
/// reference in core/subvector_clustering_reference.h, whatever the tile
/// height:
///   - signatures go through the same sign-projection kernel, whose
///     per-row bits are independent of how rows are tiled;
///   - cluster ids are assigned in the same first-seen order with the
///     same reset at every rows_per_group boundary (tiles need not align
///     with group boundaries);
///   - centroid sums accumulate in the same ascending row order with the
///     same single-rounding elementwise adds (kernels.scatter_add_rows),
///     and are scaled once in ascending cluster order at Finish, exactly
///     ComputeCentroids' operation order.
///
/// Per block, the signature table holds only cluster ids and is sized
/// for the distinct signatures a group can hold, min(rows_per_group,
/// 2^H), at load factor <= 1/2. When 2^H slots fit in that capacity the
/// table instead has exactly 2^H slots indexed by the signature itself
/// (identity keys): no hashing and no collisions, so every probe ends
/// at its first slot.
///
/// Blocks are independent, so each tile's hashing and cluster pass run
/// as a ParallelFor over blocks; the result does not depend on the
/// thread count.
///
/// The clusterer builds its result in place and owns it: the clustering
/// Finish returns stays valid until the next Begin, which reuses its
/// buffers, so steady-state training and inference at fixed shapes
/// perform zero heap allocations here.
class StreamingSubVectorClusterer {
 public:
  /// \brief Starts a clustering of `num_rows` width-k rows. `families`
  /// must outlive the cycle.
  ///
  /// `rows_per_group` controls the clustering scope: rows are clustered
  /// in consecutive groups of that size with cluster IDs never shared
  /// across groups (pass num_rows for single-batch scope, N_img for
  /// single-input scope). Centroids are computed from the raw
  /// (unnormalized) sub-vectors; signatures are sign-invariant to scaling
  /// so no explicit normalization is needed for the angular metric.
  void Begin(const BlockLshFamilies* families, int64_t num_rows,
             int64_t rows_per_group);

  /// \brief Consumes rows [row_begin, row_begin + tile_rows); tiles must
  /// arrive in order and cover [0, num_rows) exactly. `tile` is
  /// tile_rows x k row-major.
  void ConsumeTile(const float* tile, int64_t row_begin, int64_t tile_rows);

  /// \brief Finalizes centroids and returns the clustering, valid until
  /// the next Begin.
  ReuseClustering& Finish();

  /// \brief The last finished clustering, valid until the next Begin.
  const ReuseClustering& clustering() const { return result_; }

  /// \brief True when the current cycle's tables are indexed by the
  /// signature itself (set by Begin).
  bool identity_keys() const { return identity_keys_; }

 private:
  struct BlockState {
    // Open-addressing signature table, persistent across tiles within a
    // group. A slot holds only a global (running) cluster id, -1 when
    // empty; a probe compares against sigs[id].
    std::vector<int32_t> slot_id;
    // Slots filled in the current group: the next group reset (or the
    // next Begin) empties exactly these.
    std::vector<int32_t> used_slots;
    // Per-tile signature buffer.
    std::vector<LshSignature> tile_sigs;
  };

  // Empties the slots the current group filled in `bs`.
  static void ResetGroup(BlockState* bs);

  // Assigns ids to one block's tile rows, then accumulates the rows into
  // their centroid sums in result_.blocks[block].
  void ClusterBlockTile(const simd::Kernels& kernels, int64_t block,
                        const float* tile, int64_t row_begin,
                        int64_t tile_rows);

  const BlockLshFamilies* families_ = nullptr;
  int64_t num_rows_ = 0;
  int64_t rows_per_group_ = 0;
  int64_t next_row_ = 0;
  size_t table_mask_ = 0;
  bool identity_keys_ = false;
  std::vector<BlockState> blocks_;
  // Built in place: cluster sizes, signatures, assignments and centroid
  // sums accumulate here, and their capacity carries into the next cycle.
  ReuseClustering result_;
};

}  // namespace adr

#endif  // ADR_CORE_SUBVECTOR_CLUSTERING_H_
