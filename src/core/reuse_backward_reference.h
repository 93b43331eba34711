// The original chunk-partial cluster row sums, preserved as the
// behavioral reference for ClusterRowSums in core/reuse_backward.h:
// tests/reuse_backward_test.cc requires the two to agree bit for bit
// (including dy with -0.0 entries, clusters confined to one chunk, and
// N below or not divisible by kReduceChunks).
//
// Not used on any production path: it zero-fills, fills and re-reads a
// chunks x |C| x m partial buffer per call, which is exactly the memory
// traffic the CSR formulation removes. Header-only so only test and
// bench targets pay for it.

#ifndef ADR_CORE_REUSE_BACKWARD_REFERENCE_H_
#define ADR_CORE_REUSE_BACKWARD_REFERENCE_H_

#include <algorithm>
#include <cstdint>

#include "clustering/clustering.h"
#include "core/reuse_backward.h"
#include "tensor/simd.h"
#include "util/parallel.h"

namespace adr {

/// \brief sums[cl] = sum of the dy rows (n x m) assigned to cluster cl.
/// `partials` holds min(kReduceChunks, n) * |C| * m floats; both it and
/// `sums` (|C| x m) may be uninitialized and are zero-filled here. Rows
/// are summed per chunk [c*n/chunks, (c+1)*n/chunks) into the chunk's
/// partials, which are then added to the sums in ascending chunk order.
inline void ReferenceClusterRowSums(const float* dy,
                                    const Clustering& clustering, int64_t n,
                                    int64_t m, float* partials, float* sums) {
  const simd::Kernels& kernels = simd::Active();
  const int64_t num_clusters = clustering.num_clusters();
  const int64_t chunks = std::min<int64_t>(kReduceChunks, n);
  std::fill_n(partials, static_cast<size_t>(chunks * num_clusters * m),
              0.0f);
  std::fill_n(sums, static_cast<size_t>(num_clusters * m), 0.0f);
  ThreadPool::Global()->Run(chunks, [&](int64_t c) {
    const int64_t begin = c * n / chunks;
    const int64_t end = (c + 1) * n / chunks;
    float* part = partials + c * num_clusters * m;
    for (int64_t i = begin; i < end; ++i) {
      kernels.add(dy + i * m,
                  part + clustering.assignment[static_cast<size_t>(i)] * m,
                  m);
    }
  });
  // Combine in ascending chunk order; cluster rows are disjoint, so the
  // combine itself parallelizes over clusters.
  ParallelFor(num_clusters, GrainForCost(chunks * m),
              [&](int64_t cl_begin, int64_t cl_end) {
                for (int64_t cl = cl_begin; cl < cl_end; ++cl) {
                  float* dst = sums + cl * m;
                  for (int64_t c = 0; c < chunks; ++c) {
                    kernels.add(partials + (c * num_clusters + cl) * m, dst,
                                m);
                  }
                }
              });
}

}  // namespace adr

#endif  // ADR_CORE_REUSE_BACKWARD_REFERENCE_H_
