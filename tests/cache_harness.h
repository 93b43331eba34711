// Single-entry access to ClusterReuseCache for tests, written over its
// batch API: InsertEntry is InsertBatch of one cluster, FindEntry a
// FindBatch of one signature followed, on a hit, by GatherHits.

#ifndef ADR_TESTS_CACHE_HARNESS_H_
#define ADR_TESTS_CACHE_HARNESS_H_

#include <cstdint>

#include "core/cluster_cache.h"

namespace adr::testutil {

/// Inserts (or overwrites) one entry of `block`; returns the evictions.
inline int64_t InsertEntry(ClusterReuseCache* cache, int64_t block,
                           const LshSignature& signature,
                           const float* representative, int64_t length,
                           const float* output, int64_t m) {
  const int32_t cluster_id = 0;
  return cache->InsertBatch(block, &signature, &cluster_id, 1,
                            representative, length, output, m);
}

/// Looks up one signature of `block`. On a hit with `output` non-null,
/// copies the cached output row there and, with `representative`
/// non-null, the representative.
inline bool FindEntry(const ClusterReuseCache& cache, int64_t block,
                      const LshSignature& signature, float* output = nullptr,
                      float* representative = nullptr) {
  int32_t entry = -1;
  cache.FindBatch(block, &signature, 1, &entry);
  if (entry >= 0 && output != nullptr) {
    cache.GatherHits(block, &entry, 1, output, 0, representative, 0);
  }
  return entry >= 0;
}

}  // namespace adr::testutil

#endif  // ADR_TESTS_CACHE_HARNESS_H_
