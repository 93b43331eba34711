#include "core/reuse_backward.h"

#include <algorithm>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

namespace {

// Blocks per row-sum sweep: one dy row feeds this many blocks' sums
// while it is in L1.
constexpr int64_t kGroupBlocks = simd::kGatherTables;

// Rows of dy per step of the sweep: 8 KiB at m = 32, so the rows stay in
// L1 while every block of the group adds them.
constexpr int64_t kSweepRows = 64;

// The row sums of `count` <= kGroupBlocks blocks in one row-major sweep:
// sums[u] (|C_u| x m) for blocks[u]. Range r's rows are added in ascending
// order into a range sum per cluster, which starts at +0 and at the range
// end is added to the cluster's sum (range 0 sums straight into it: a sum
// from +0 is never -0, so +0 + S_0 is S_0). A cluster with no rows in a
// range adds that range's +0, which changes no sum, since no sum is ever
// -0. partials[u] is scratch of the size of sums[u].
void GroupRowSums(const simd::Kernels& kernels, const float* dy, int64_t n,
                  int64_t m, const Clustering* const* blocks, int64_t count,
                  float* const* sums, float* const* partials) {
  const int64_t ranges = std::min<int64_t>(kReduceChunks, n);
  for (int64_t u = 0; u < count; ++u) {
    const int64_t floats = blocks[u]->num_clusters() * m;
    std::fill_n(sums[u], floats, 0.0f);
    std::fill_n(partials[u], floats, 0.0f);
  }
  for (int64_t r = 0; r < ranges; ++r) {
    const int64_t range_end = (r + 1) * n / ranges;
    for (int64_t row = r * n / ranges; row < range_end; row += kSweepRows) {
      const int64_t rows = std::min(kSweepRows, range_end - row);
      for (int64_t u = 0; u < count; ++u) {
        kernels.scatter_add_rows(dy + row * m, m, rows,
                                 blocks[u]->assignment.data() + row,
                                 r == 0 ? sums[u] : partials[u], m);
      }
    }
    if (r == 0) continue;
    for (int64_t u = 0; u < count; ++u) {
      const int64_t floats = blocks[u]->num_clusters() * m;
      kernels.add(partials[u], sums[u], floats);
      std::fill_n(partials[u], floats, 0.0f);
    }
  }
}

// How a per-block pass splits the blocks: one ParallelFor chunk of `grain`
// consecutive blocks per thread, each walked in groups of `group` blocks
// with its own group buffers. The split decides only where blocks run;
// every block's results are the same in any split.
struct BlockGroups {
  int64_t num_blocks;
  int64_t grain;
  int64_t group;
  int64_t chunks;

  explicit BlockGroups(int64_t blocks)
      : num_blocks(blocks),
        grain(std::max<int64_t>(
            1, (blocks + ThreadPool::GlobalThreads() - 1) /
                   ThreadPool::GlobalThreads())),
        group(std::min(grain, kGroupBlocks)),
        chunks((blocks + grain - 1) / grain) {}

  // `slots` buffers of `floats` floats for each chunk, each its own arena
  // allocation: one buffer of all of them would be the arena's largest
  // request, and a large overflow slab, freed when the arena
  // consolidates, raises glibc's mmap threshold and moves later tensor
  // allocations onto the heap (perfbench train_reuse peak RSS read up to
  // 19 MB higher that way).
  float** Buffers(ScratchAllocator* scratch, int64_t slots,
                  int64_t floats) const {
    float** buffers = scratch->Array<float*>(chunks * slots);
    for (int64_t i = 0; i < chunks * slots; ++i) {
      buffers[i] = scratch->Floats(floats);
    }
    return buffers;
  }

  // Runs body(first, count, chunk) for every group of blocks
  // [first, first + count), where chunk numbers the ParallelFor chunk.
  template <typename Body>
  void ForEach(Body body) const {
    ParallelFor(num_blocks, grain, [&](int64_t begin, int64_t end) {
      for (int64_t first = begin; first < end; first += group) {
        body(first, std::min(group, end - first), begin / grain);
      }
    });
  }
};

// One column block's centroid delta dx_{c,I} (|C_I| x L_I) and what the
// row gather needs to expand it.
struct BlockDelta {
  float* dx_c;
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
// like the deltas themselves; null without `input_delta`). Blocks run in
// parallel, group by group: one sweep of dy sums a group's rows, then
// each of its blocks runs its two GEMMs.
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

  const int64_t num_blocks = static_cast<int64_t>(clustering.blocks.size());
  int64_t max_clusters = 0;
  for (const SubMatrixClustering& block : clustering.blocks) {
    max_clusters = std::max(max_clusters, block.clustering.num_clusters());
  }
  BlockDelta* deltas =
      input_delta ? scratch->Array<BlockDelta>(num_blocks) : nullptr;
  for (int64_t b = 0; input_delta && b < num_blocks; ++b) {
    const SubMatrixClustering& block =
        clustering.blocks[static_cast<size_t>(b)];
    deltas[b] = BlockDelta{
        scratch->Floats(block.clustering.num_clusters() * block.length),
        block.clustering.assignment.data(), block.length, block.col_offset};
  }
  // Per chunk, a group's row sums and range sums; the row sums are
  // consumed within their group.
  const BlockGroups groups(num_blocks);
  float** buffers = groups.Buffers(scratch, 2 * groups.group,
                                   max_clusters * m);

  groups.ForEach([&](int64_t first, int64_t count, int64_t chunk) {
    float* const* sums = buffers + chunk * 2 * groups.group;
    const Clustering* group_blocks[kGroupBlocks];
    for (int64_t u = 0; u < count; ++u) {
      group_blocks[u] =
          &clustering.blocks[static_cast<size_t>(first + u)].clustering;
    }
    // dy_{c,s}: sum the dy rows of each cluster (Eq. 8).
    {
      ADR_TRACE_SPAN("cluster_row_sums");
      GroupRowSums(kernels, dy, n, m, group_blocks, count, sums,
                   sums + groups.group);
    }
    for (int64_t u = 0; u < count; ++u) {
      const SubMatrixClustering& block =
          clustering.blocks[static_cast<size_t>(first + u)];
      const int64_t num_clusters = block.clustering.num_clusters();
      const int64_t length = block.length;
      float* block_sums = sums[u];

      // dW_I = x_c^T * dy_{c,s} (Eq. 10), written into rows
      // [col_offset, col_offset + L) of dW. The blocks tile [0, K), so dW
      // is fully overwritten.
      GemmTransA(block.centroids.data(), block_sums,
                 grad_weight + block.col_offset * m, length, num_clusters, m);
      if (!input_delta) continue;

      // dy_{c,sa}: average instead of sum (divide each row by N_l).
      for (int64_t c = 0; c < num_clusters; ++c) {
        kernels.scale(1.0f / static_cast<float>(
                                 block.clustering
                                     .cluster_sizes[static_cast<size_t>(c)]),
                      block_sums + c * m, m);
      }

      // dx_c = dy_{c,sa} * W_I^T (Eq. 18).
      GemmTransB(block_sums, weight.data() + block.col_offset * m,
                 deltas[first + u].dx_c, num_clusters, m, length);
    }
  });

  for (const SubMatrixClustering& block : clustering.blocks) {
    const int64_t num_clusters = block.clustering.num_clusters();
    const double gemm_macs =
        static_cast<double>(num_clusters) * block.length * m;
    stats->macs += static_cast<double>(n - num_clusters) * m;
    stats->macs += gemm_macs;
    if (input_delta) stats->macs += gemm_macs;
  }
  stats->macs_baseline =
      (input_delta ? 2.0 : 1.0) * static_cast<double>(n) * k * m;
  return deltas;
}

}  // namespace

void ClusterRowSums(const float* dy, int64_t m,
                    const Clustering* const* blocks, int64_t num_blocks,
                    ScratchAllocator* scratch, float* const* sums) {
  if (num_blocks == 0) return;
  const simd::Kernels& kernels = simd::Active();
  const int64_t n = blocks[0]->num_rows();
  int64_t stride = 0;
  for (int64_t b = 0; b < num_blocks; ++b) {
    ADR_CHECK_EQ(blocks[b]->num_rows(), n);
    stride = std::max(stride, blocks[b]->num_clusters() * m);
  }
  const BlockGroups groups(num_blocks);
  float** partials = groups.Buffers(scratch, groups.group, stride);
  groups.ForEach([&](int64_t first, int64_t count, int64_t chunk) {
    GroupRowSums(kernels, dy, n, m, blocks + first, count, sums + first,
                 partials + chunk * groups.group);
  });
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
