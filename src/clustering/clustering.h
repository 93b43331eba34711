// Common types for neuron-vector clustering.

#ifndef ADR_CLUSTERING_CLUSTERING_H_
#define ADR_CLUSTERING_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace adr {

/// \brief A partition of N row vectors into |C| clusters.
struct Clustering {
  /// assignment[i] is the cluster index (0 .. num_clusters-1) of row i.
  std::vector<int32_t> assignment;
  /// Number of member rows per cluster.
  std::vector<int64_t> cluster_sizes;

  int64_t num_rows() const { return static_cast<int64_t>(assignment.size()); }
  int64_t num_clusters() const {
    return static_cast<int64_t>(cluster_sizes.size());
  }
  /// The paper's remaining ratio r_c = |C| / N.
  double remaining_ratio() const {
    return num_rows() == 0 ? 0.0
                           : static_cast<double>(num_clusters()) /
                                 static_cast<double>(num_rows());
  }
};

/// \brief Mean of the member rows of each cluster.
///
/// `data` is N x L row-major (raw pointer form so callers can pass
/// sub-matrix columns without copying); result is |C| x L.
Tensor ComputeCentroids(const float* data, int64_t num_rows, int64_t row_dim,
                        int64_t row_stride, const Clustering& clustering);

}  // namespace adr

#endif  // ADR_CLUSTERING_CLUSTERING_H_
