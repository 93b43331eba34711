// Backward-pass reuse (paper Section IV): the forward clustering is reused
// to compute both the weight gradient (Eqs. 7-12) and the input delta
// (Eqs. 13-20) without re-clustering.

#ifndef ADR_CORE_REUSE_BACKWARD_H_
#define ADR_CORE_REUSE_BACKWARD_H_

#include <cstdint>

#include "core/subvector_clustering.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"

namespace adr {

/// \brief Instrumentation of one reuse backward pass.
struct BackwardReuseStats {
  double seconds = 0.0;
  double macs = 0.0;           ///< MACs actually executed
  double macs_baseline = 0.0;  ///< 2 * N * K * M of the exact backward
};

/// \brief Result of the reuse backward pass.
struct BackwardReuseResult {
  Tensor grad_weight;  ///< [K, M]
  Tensor grad_bias;    ///< [M]
  Tensor grad_x;       ///< [N, K] gradient w.r.t. the unfolded input
  BackwardReuseStats stats;
};

/// \brief Computes the paper's approximate backward pass.
///
/// Per column block I:
///   dy_{c,s}  [|C_I| x M]: row-sums of dy grouped by cluster (Eq. 8);
///   dW_I      = x_{c,I}^T * dy_{c,I,s}                        (Eq. 10);
///   dy_{c,sa} = dy_{c,s} with each row divided by its cluster size;
///   dx_{c,I}  = dy_{c,I,sa} * W_I^T                           (Eq. 18),
/// and every row of dx gathers its clusters' centroid deltas (Eq. 13).
/// grad_bias is exact (column sums of dy), matching the baseline layer.
/// grad_x is the N x K form that tests and benches read; the conv layer
/// folds the same rows into its input gradient (ReuseBackwardFoldInto).
BackwardReuseResult ReuseBackward(const ReuseClustering& clustering,
                                  const Tensor& weight, const Tensor& dy);

/// \brief The reuse backward of a convolution with the input delta folded
/// straight into the NCHW input gradient: the conv layer's form. Each
/// unfolded row of dx is gathered from the blocks' centroid deltas into a
/// K-float buffer and added into `grad_input` ([Nb, Ic, Ih, Iw] of `geo`,
/// fully overwritten) by Col2ImRows, so the N x K dx is never allocated.
/// grad_input is bitwise equal to Col2Im of ReuseBackward's grad_x;
/// grad_weight and grad_bias are the same as there. A null `grad_input`
/// skips the input delta (the centroid deltas dx_c and the fold).
void ReuseBackwardFoldInto(const ReuseClustering& clustering,
                           const Tensor& weight, const float* dy,
                           const ConvGeometry& geo, WorkspaceArena* arena,
                           float* grad_weight, float* grad_bias,
                           float* grad_input, BackwardReuseStats* stats);

/// \brief Fixed number of row ranges of ClusterRowSums' reduction.
inline constexpr int64_t kReduceChunks = 8;

/// \brief dy_{c,s} (Eq. 8) of `num_blocks` clusterings of the same N
/// rows: sums[b] (|C_b| x m, overwritten) receives, per cluster of
/// blocks[b], the sum of the rows of `dy` (N x m) assigned to it.
///
/// The rows are split into min(kReduceChunks, N) fixed ranges
/// [c*N/chunks, (c+1)*N/chunks). Each cluster sums its rows of one range
/// from +0 in ascending row order, and adds the range sums to its sum
/// (seeded +0) in ascending range order. The order depends only on N, so
/// the sums are bitwise identical at any thread count. Blocks run in
/// parallel, up to 8 at a time in one row-major sweep of dy that adds
/// each row into the range sums of every block of the group, then folds
/// the range sums into the cluster sums at each range end. Range sums
/// are bumped from `scratch`, one |C| x m buffer per block of a group.
void ClusterRowSums(const float* dy, int64_t m,
                    const Clustering* const* blocks, int64_t num_blocks,
                    ScratchAllocator* scratch, float* const* sums);

}  // namespace adr

#endif  // ADR_CORE_REUSE_BACKWARD_H_
