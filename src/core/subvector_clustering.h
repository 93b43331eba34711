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
/// the unfolded matrix per column block, each block fed on its own as
/// consecutive chunks of its columns.
///
/// The forward walks block by block (StreamClusteredForward): a block's
/// chunk holds only its L columns of ChunkRows() consecutive rows, at a
/// row stride padded to ChunkStride(), so the chunk, the block's
/// signature table and its centroid sums stay in L1 while every row of
/// the block passes through. The N x K matrix need never exist. The
/// result is bit-identical to the one-pass materialized reference in
/// core/subvector_clustering_reference.h, whatever the chunk heights and
/// whatever order or thread the blocks run in:
///   - signatures go through the same sign-projection kernel, whose
///     per-row bits depend only on the row's L floats;
///   - cluster ids are assigned in the same first-seen order with the
///     same reset at every rows_per_group boundary (chunks need not align
///     with group boundaries);
///   - centroid sums accumulate in the same ascending row order with the
///     same single-rounding elementwise adds (kernels.scatter_add_rows),
///     and are scaled once in ascending cluster order when the block's
///     last row arrives, exactly ComputeCentroids' operation order;
///   - a block reads and writes only its own table, sums and result, so
///     blocks are independent of each other.
///
/// Centroid sums are kept at the padded stride while rows accumulate, so
/// the run-accumulation kernel moves whole registers with no masked
/// tail; lanes past L collect whatever the chunk's padding holds and are
/// dropped when the block completes and its sums are compacted to
/// |C| x L.
///
/// Per block, the signature table holds only cluster ids and is sized
/// for the distinct signatures a group can hold, min(rows_per_group,
/// 2^H), at load factor <= 1/2. When 2^H slots fit in that capacity the
/// table instead has exactly 2^H slots indexed by the signature itself
/// (identity keys): no hashing, no collisions and no compare, so a probe
/// is one load.
///
/// The clusterer builds its result in place and owns it: the clustering
/// Finish returns stays valid until the next Begin, which reuses its
/// buffers, so steady-state training and inference at fixed shapes
/// perform zero heap allocations here.
class StreamingSubVectorClusterer {
 public:
  /// \brief Row stride of a block chunk for blocks of at most `length`
  /// columns: `length` rounded up to a multiple of simd::kMaxWidth (16
  /// floats at L = 10).
  static int64_t ChunkStride(int64_t length);

  /// \brief Rows of a block chunk at row stride `stride`: a multiple of 4
  /// (the hash kernel's row tile) filling about 16 KiB, a third of a
  /// 48 KiB L1d, so the chunk, the signature table and the hot centroid
  /// sums share L1. 256 rows at stride 16.
  static int64_t ChunkRows(int64_t stride);

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

  /// \brief Consumes rows [row_begin, row_begin + num_rows) of block
  /// `block`. Row r's block columns start at chunk + r * row_stride;
  /// row_stride is at least chunk_stride(), and every row has
  /// chunk_stride() readable floats, the lanes past the block's length
  /// being ignored. Each block's chunks must arrive in row order and
  /// cover [0, Begin's num_rows) exactly; the last one finalizes the
  /// block's centroids. Different blocks may be fed concurrently from
  /// different threads, in any order.
  void ConsumeBlock(int64_t block, const float* chunk, int64_t row_stride,
                    int64_t row_begin, int64_t num_rows);

  /// \brief Returns the clustering once every block has all its rows,
  /// valid until the next Begin.
  ReuseClustering& Finish();

  /// \brief The last finished clustering, valid until the next Begin.
  const ReuseClustering& clustering() const { return result_; }

  /// \brief ChunkStride of the current cycle's widest block (set by
  /// Begin).
  int64_t chunk_stride() const { return stride_; }

  /// \brief True when the current cycle's tables are indexed by the
  /// signature itself (set by Begin).
  bool identity_keys() const { return identity_keys_; }

 private:
  struct BlockState {
    // Open-addressing signature table, persistent across chunks within a
    // group. A slot holds only a global (running) cluster id, -1 when
    // empty; a probe compares against sigs[id] unless keys are identity.
    std::vector<int32_t> slot_id;
    // Slots filled in the current group: the next group reset (or the
    // next Begin) empties exactly these.
    std::vector<int32_t> used_slots;
    // Per-chunk signature buffer.
    std::vector<LshSignature> chunk_sigs;
    // First row of the block's next chunk.
    int64_t next_row = 0;
  };

  // Empties the slots the current group filled in `bs`.
  static void ResetGroup(BlockState* bs);

  // Assigns ids to one block's chunk rows from their signatures.
  template <bool kIdentityKeys>
  void AssignIds(BlockState* bs, SubMatrixClustering* out, int64_t row_begin,
                 int64_t num_rows);

  // Compacts a completed block's padded sums to |C| x L centroids.
  void FinishBlock(const simd::Kernels& kernels, SubMatrixClustering* out);

  const BlockLshFamilies* families_ = nullptr;
  int64_t num_rows_ = 0;
  int64_t rows_per_group_ = 0;
  int64_t stride_ = 0;
  size_t table_mask_ = 0;
  bool identity_keys_ = false;
  std::vector<BlockState> blocks_;
  // Built in place: cluster sizes, signatures, assignments and centroid
  // sums accumulate here, and their capacity carries into the next cycle.
  ReuseClustering result_;
};

}  // namespace adr

#endif  // ADR_CORE_SUBVECTOR_CLUSTERING_H_
