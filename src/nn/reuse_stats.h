// ReuseLayerStats: telemetry every reuse-capable layer exposes through the
// Layer interface, so callers can read savings without knowing the
// concrete layer type (Network::CollectReuseStats).

#ifndef ADR_NN_REUSE_STATS_H_
#define ADR_NN_REUSE_STATS_H_

#include <cstdint>

namespace adr {

/// \brief Cumulative telemetry of a reuse layer, reset with
/// Layer::ResetReuseStats().
struct ReuseLayerStats {
  int64_t forward_calls = 0;
  double avg_remaining_ratio = 0.0;  ///< running mean of per-batch r_c
  double macs_executed = 0.0;  ///< forward + backward MACs actually done
  double macs_baseline = 0.0;  ///< 3 * N * K * M per call
  double last_batch_reuse_rate = 0.0;  ///< R of the most recent batch

  // Cross-batch cluster-reuse cache (all zero while CR is disabled).
  int64_t cache_lookups = 0;    ///< cluster lookups since the last reset
  int64_t cache_hits = 0;       ///< lookups served from the cache
  int64_t cache_evictions = 0;  ///< budget evictions since the last reset
  int64_t cache_entries = 0;    ///< currently resident entries
  int64_t cache_resident_bytes = 0;  ///< exact resident payload bytes

  /// Fraction of baseline MACs avoided so far.
  double MacsSavedFraction() const {
    return macs_baseline == 0.0 ? 0.0 : 1.0 - macs_executed / macs_baseline;
  }

  /// Cross-batch reuse rate R = cache_hits / cache_lookups so far.
  double CacheHitRate() const {
    return cache_lookups == 0 ? 0.0
                              : static_cast<double>(cache_hits) /
                                    static_cast<double>(cache_lookups);
  }
};

}  // namespace adr

#endif  // ADR_NN_REUSE_STATS_H_
