// The original materialized sub-vector clustering, preserved as the
// behavioral reference for StreamingSubVectorClusterer in
// core/subvector_clustering.h: the streaming clusterer must reproduce it
// bit for bit (signatures, ids, sizes, centroids) at every SIMD backend,
// thread count and tile height. tests/subvector_clustering_test.cc,
// parallel_determinism_test.cc, fused_forward_test.cc,
// reuse_backward_test.cc and cluster_cache_test.cc compare against it.
//
// Not used on any production path: it hashes each group in one pass,
// clusters through ClusterBySignature's map and recomputes the centroids
// in a second pass over the matrix. Header-only so only test and bench
// targets pay for it.

#ifndef ADR_CORE_SUBVECTOR_CLUSTERING_REFERENCE_H_
#define ADR_CORE_SUBVECTOR_CLUSTERING_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "clustering/clustering.h"
#include "clustering/lsh.h"
#include "core/subvector_clustering.h"
#include "util/check.h"

namespace adr {

/// \brief Clusters the rows of `x` (num_rows x families.k(), row-major)
/// per block, with the clustering scope of
/// StreamingSubVectorClusterer::Begin.
inline ReuseClustering ReferenceClusterSubVectors(
    const BlockLshFamilies& families, const float* x, int64_t num_rows,
    int64_t rows_per_group) {
  ADR_CHECK_GT(num_rows, 0);
  ADR_CHECK_GT(rows_per_group, 0);
  ADR_CHECK_EQ(num_rows % rows_per_group, 0)
      << "rows_per_group must divide num_rows";
  const int64_t k = families.k();

  ReuseClustering result;
  result.num_rows = num_rows;
  result.num_cols = k;
  result.blocks.resize(static_cast<size_t>(families.num_blocks()));

  std::vector<LshSignature> sigs;
  for (int64_t b = 0; b < families.num_blocks(); ++b) {
    SubMatrixClustering& block = result.blocks[static_cast<size_t>(b)];
    block.col_offset = families.block_offset(b);
    block.length = families.block_length(b);
    const LshFamily& family = families.family(b);

    Clustering& merged = block.clustering;
    merged.assignment.resize(static_cast<size_t>(num_rows));
    for (int64_t group_start = 0; group_start < num_rows;
         group_start += rows_per_group) {
      sigs.resize(static_cast<size_t>(rows_per_group));
      family.HashRowsInto(x + group_start * k + block.col_offset,
                          rows_per_group, k, sigs.data());
      std::vector<LshSignature> group_cluster_sigs;
      const Clustering group =
          ClusterBySignature(sigs, &group_cluster_sigs);
      const int32_t id_offset =
          static_cast<int32_t>(merged.cluster_sizes.size());
      for (int64_t i = 0; i < rows_per_group; ++i) {
        merged.assignment[static_cast<size_t>(group_start + i)] =
            id_offset + group.assignment[static_cast<size_t>(i)];
      }
      merged.cluster_sizes.insert(merged.cluster_sizes.end(),
                                  group.cluster_sizes.begin(),
                                  group.cluster_sizes.end());
      block.signatures.insert(block.signatures.end(),
                              group_cluster_sigs.begin(),
                              group_cluster_sigs.end());
    }

    const Tensor centroids = ComputeCentroids(x + block.col_offset, num_rows,
                                              block.length, k, merged);
    block.centroids.assign(centroids.data(),
                           centroids.data() + centroids.num_elements());
    block.reused_from_cache.assign(
        static_cast<size_t>(merged.num_clusters()), false);
  }
  return result;
}

}  // namespace adr

#endif  // ADR_CORE_SUBVECTOR_CLUSTERING_REFERENCE_H_
