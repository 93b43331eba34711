#include "core/reuse_backward.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

namespace {

// Scratch of one ClusterRowSums call, sized for up to `max_clusters`
// clusters so one allocation serves every block of a layer.
struct RowSumsScratch {
  int64_t* offsets;  // max_clusters + 1: CSR row pointers
  int64_t* cursor;   // max_clusters: fill positions
  int32_t* members;  // N: rows grouped by cluster, ascending

  RowSumsScratch(ScratchAllocator* scratch, int64_t n, int64_t max_clusters)
      : offsets(scratch->Array<int64_t>(max_clusters + 1)),
        cursor(scratch->Array<int64_t>(max_clusters)),
        members(scratch->Int32(n)) {}
};

void ClusterRowSumsWith(const float* dy, const Clustering& clustering,
                        int64_t m, const RowSumsScratch& ws, float* sums) {
  const simd::Kernels& kernels = simd::Active();
  const int64_t n = clustering.num_rows();
  const int64_t num_clusters = clustering.num_clusters();
  ADR_CHECK_LE(n, std::numeric_limits<int32_t>::max());
  const int64_t ranges = std::min<int64_t>(kReduceChunks, n);

  // Stable CSR: members of cluster cl are rows members[offsets[cl] ..
  // offsets[cl + 1]) in ascending order.
  ws.offsets[0] = 0;
  for (int64_t cl = 0; cl < num_clusters; ++cl) {
    ws.offsets[cl + 1] =
        ws.offsets[cl] + clustering.cluster_sizes[static_cast<size_t>(cl)];
    ws.cursor[cl] = ws.offsets[cl];
  }
  ADR_CHECK_EQ(ws.offsets[num_clusters], n);
  for (int64_t i = 0; i < n; ++i) {
    const int32_t cl = clustering.assignment[static_cast<size_t>(i)];
    ws.members[ws.cursor[cl]++] = static_cast<int32_t>(i);
  }

  // Each cluster's members split at the range bounds into segments, one
  // per range holding rows of the cluster. A range without such rows
  // would add +0 to the sum; the sum starts at +0 and so is never -0,
  // and x + (+0) == x for every such x, so empty ranges are left out.
  const auto sum_clusters = [&](int64_t begin, int64_t end) {
    std::array<int64_t, kReduceChunks + 1> seg;
    for (int64_t cl = begin; cl < end; ++cl) {
      const int32_t* rows = ws.members + ws.offsets[cl];
      const int64_t count = ws.offsets[cl + 1] - ws.offsets[cl];
      int64_t num_segs = 0;
      int64_t range = -1;
      int64_t range_end = 0;
      for (int64_t p = 0; p < count; ++p) {
        if (rows[p] < range_end) continue;
        do {
          ++range;
          range_end = (range + 1) * n / ranges;
        } while (rows[p] >= range_end);
        seg[static_cast<size_t>(num_segs++)] = p;
      }
      seg[static_cast<size_t>(num_segs)] = count;
      kernels.segment_row_sums(dy, m, rows, seg.data(), num_segs,
                               sums + cl * m, m);
    }
  };
  const int64_t rows_per_cluster = n / std::max<int64_t>(1, num_clusters);
  ParallelFor(num_clusters,
              GrainForCost(std::max<int64_t>(1, rows_per_cluster) * m),
              sum_clusters);
}

// One column block's centroid delta dx_{c,I} (|C_I| x L_I) and what the
// row gather needs to expand it.
struct BlockDelta {
  const float* dx_c;
  const int32_t* assignment;
  int64_t length;
  int64_t col_offset;
};

// Writes unfolded row `row` of dx (K floats) to `out`: block I's columns
// are row assignment_I[row] of dx_{c,I} (Eq. 13). The blocks tile [0, K),
// so the row is fully overwritten.
void GatherRow(const BlockDelta* deltas, int64_t num_blocks, int64_t row,
               float* out) {
  for (int64_t b = 0; b < num_blocks; ++b) {
    const BlockDelta& d = deltas[b];
    const float* from = d.dx_c + d.assignment[row] * d.length;
    float* to = out + d.col_offset;
    // Fixed 4-float copies compile to single vector moves; a plain loop
    // would become one memcpy call per (row, block).
    int64_t j = 0;
    for (; j + 4 <= d.length; j += 4) std::memcpy(to + j, from + j, 16);
    for (; j < d.length; ++j) to[j] = from[j];
  }
}

// Everything of the reuse backward except expanding dx: grad_bias,
// grad_weight and, when `input_delta` is set, each block's centroid
// delta, returned as one BlockDelta per block (bumped from `scratch`,
// like the deltas themselves; null without `input_delta`).
const BlockDelta* CentroidDeltas(const ReuseClustering& clustering,
                                 const Tensor& weight, const float* dy,
                                 bool input_delta, ScratchAllocator* scratch,
                                 float* grad_weight, float* grad_bias,
                                 BackwardReuseStats* stats) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  ADR_CHECK_EQ(weight.shape()[0], k);
  const int64_t m = weight.shape()[1];
  const simd::Kernels& kernels = simd::Active();

  ColumnSumsInto(dy, n, m, grad_bias);

  // The row sums are consumed within their block, so one buffer sized
  // for the largest block serves all of them.
  int64_t max_clusters = 0;
  for (const SubMatrixClustering& block : clustering.blocks) {
    max_clusters = std::max(max_clusters, block.clustering.num_clusters());
  }
  float* sums = scratch->Floats(max_clusters * m);
  const RowSumsScratch row_sums(scratch, n, max_clusters);
  const int64_t num_blocks = static_cast<int64_t>(clustering.blocks.size());
  BlockDelta* deltas =
      input_delta ? scratch->Array<BlockDelta>(num_blocks) : nullptr;

  for (int64_t b = 0; b < num_blocks; ++b) {
    const SubMatrixClustering& block =
        clustering.blocks[static_cast<size_t>(b)];
    const int64_t num_clusters = block.clustering.num_clusters();
    const int64_t length = block.length;
    const float* w_block = weight.data() + block.col_offset * m;

    // dy_{c,s}: sum the dy rows of each cluster (Eq. 8).
    {
      ADR_TRACE_SPAN("cluster_row_sums");
      ClusterRowSumsWith(dy, block.clustering, m, row_sums, sums);
    }
    stats->macs += static_cast<double>(n - num_clusters) * m;

    // dW_I = x_c^T * dy_{c,s} (Eq. 10), written into rows
    // [col_offset, col_offset + L) of dW. The blocks tile [0, K), so dW
    // is fully overwritten.
    GemmTransA(block.centroids.data(), sums,
               grad_weight + block.col_offset * m, length, num_clusters, m);
    stats->macs += static_cast<double>(num_clusters) * length * m;
    if (!input_delta) continue;

    // dy_{c,sa}: average instead of sum (divide each row by N_l).
    ParallelFor(num_clusters, GrainForCost(m),
                [&](int64_t begin, int64_t end) {
                  for (int64_t c = begin; c < end; ++c) {
                    kernels.scale(
                        1.0f / static_cast<float>(
                                   block.clustering.cluster_sizes
                                       [static_cast<size_t>(c)]),
                        sums + c * m, m);
                  }
                });

    // dx_c = dy_{c,sa} * W_I^T (Eq. 18).
    float* dx_c = scratch->Floats(num_clusters * length);
    GemmTransB(sums, w_block, dx_c, num_clusters, m, length);
    stats->macs += static_cast<double>(num_clusters) * length * m;

    deltas[b] = BlockDelta{dx_c, block.clustering.assignment.data(), length,
                           block.col_offset};
  }
  stats->macs_baseline =
      (input_delta ? 2.0 : 1.0) * static_cast<double>(n) * k * m;
  return deltas;
}

}  // namespace

void ClusterRowSums(const float* dy, const Clustering& clustering, int64_t m,
                    ScratchAllocator* scratch, float* sums) {
  const RowSumsScratch ws(scratch, clustering.num_rows(),
                          clustering.num_clusters());
  ClusterRowSumsWith(dy, clustering, m, ws, sums);
}

void ReuseBackwardFoldInto(const ReuseClustering& clustering,
                           const Tensor& weight, const float* dy,
                           const ConvGeometry& geo, WorkspaceArena* arena,
                           float* grad_weight, float* grad_bias,
                           float* grad_input, BackwardReuseStats* stats) {
  ADR_CHECK_EQ(geo.unfolded_rows(), clustering.num_rows);
  ADR_CHECK_EQ(geo.unfolded_cols(), clustering.num_cols);
  Timer timer;
  ScratchAllocator scratch(arena);
  const BlockDelta* deltas =
      CentroidDeltas(clustering, weight, dy, grad_input != nullptr, &scratch,
                     grad_weight, grad_bias, stats);
  const int64_t num_blocks = static_cast<int64_t>(clustering.blocks.size());
  if (grad_input != nullptr) {
    ADR_TRACE_SPAN("fold_col2im");
    float* row_bufs = scratch.Floats(geo.batch * geo.unfolded_cols());
    Col2ImRows(geo, grad_input, row_bufs,
               [deltas, num_blocks](int64_t row, float* buf) {
                 GatherRow(deltas, num_blocks, row, buf);
                 return static_cast<const float*>(buf);
               });
  }
  stats->seconds = timer.ElapsedSeconds();
}

BackwardReuseResult ReuseBackward(const ReuseClustering& clustering,
                                  const Tensor& weight, const Tensor& dy) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  const int64_t m = weight.shape()[1];
  ADR_CHECK(dy.shape() == Shape({n, m}));

  Timer timer;
  BackwardReuseResult result;
  result.grad_weight = Tensor(Shape({k, m}));
  result.grad_bias = Tensor(Shape({m}));
  result.grad_x = Tensor(Shape({n, k}));
  ScratchAllocator scratch(/*arena=*/nullptr);
  const BlockDelta* deltas =
      CentroidDeltas(clustering, weight, dy.data(), /*input_delta=*/true,
                     &scratch, result.grad_weight.data(),
                     result.grad_bias.data(), &result.stats);
  const int64_t num_blocks = static_cast<int64_t>(clustering.blocks.size());
  float* grad_x = result.grad_x.data();
  ParallelFor(n, GrainForCost(k), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      GatherRow(deltas, num_blocks, i, grad_x + i * k);
    }
  });
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace adr
