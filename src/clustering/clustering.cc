#include "clustering/clustering.h"

#include "tensor/simd.h"
#include "util/check.h"

namespace adr {

Tensor ComputeCentroids(const float* data, int64_t num_rows, int64_t row_dim,
                        int64_t row_stride, const Clustering& clustering) {
  ADR_CHECK_EQ(num_rows, clustering.num_rows());
  const simd::Kernels& kernels = simd::Active();
  const int64_t num_clusters = clustering.num_clusters();
  Tensor centroids(Shape({num_clusters, row_dim}));
  float* c = centroids.data();
  for (int64_t i = 0; i < num_rows; ++i) {
    const int32_t cl = clustering.assignment[i];
    ADR_DCHECK(cl >= 0 && cl < num_clusters);
    kernels.add(data + i * row_stride, c + cl * row_dim, row_dim);
  }
  for (int64_t cl = 0; cl < num_clusters; ++cl) {
    const int64_t size = clustering.cluster_sizes[cl];
    ADR_CHECK_GT(size, 0) << "empty cluster " << cl;
    kernels.scale(1.0f / static_cast<float>(size), c + cl * row_dim,
                  row_dim);
  }
  return centroids;
}

}  // namespace adr
