// ReuseConv2d: drop-in replacement for Conv2d that runs adaptive deep
// reuse — LSH-clustered forward (Section III) and clustering-reusing
// backward (Section IV). The ReuseConfig can be changed between batches,
// which is how the adaptive strategies of Section V drive the layer.

#ifndef ADR_CORE_REUSE_CONV2D_H_
#define ADR_CORE_REUSE_CONV2D_H_

#include <memory>
#include <string>
#include <vector>

#include "core/clustered_matmul.h"
#include "core/reuse_config.h"
#include "core/subvector_clustering.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/reuse_stats.h"  // ReuseLayerStats lives with the Layer API
#include "tensor/im2col.h"
#include "tensor/workspace_arena.h"
#include "util/rng.h"
#include "util/status.h"

namespace adr {

/// \brief Convolution layer accelerated by adaptive deep reuse.
class ReuseConv2d : public Layer {
 public:
  /// \brief Fresh layer with He-initialized weights (same init as Conv2d
  /// given the same `rng` state).
  ReuseConv2d(std::string name, const Conv2dConfig& config,
              const ReuseConfig& reuse, Rng* rng);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParameters(const Tensor& grad_output) override;
  std::vector<Tensor*> Parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  double ForwardMacs(int64_t batch) const override;

  /// \brief Applies a new clustering configuration; regenerates the LSH
  /// families and clears the cluster-reuse cache if (L, H, seed) changed.
  /// Returns InvalidArgument for out-of-range parameters.
  Status SetReuseConfig(const ReuseConfig& reuse);
  const ReuseConfig& reuse_config() const { return reuse_; }

  /// \brief When true, the backward pass is exact (uses the cached
  /// unfolded input instead of the forward clustering) — an ablation knob;
  /// the paper's method keeps this false.
  void set_exact_backward(bool exact) { exact_backward_ = exact; }
  bool exact_backward() const { return exact_backward_; }

  const Conv2dConfig& config() const { return config_; }
  int64_t unfolded_cols() const {
    return config_.in_channels * config_.kernel * config_.kernel;
  }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& weight() const { return weight_; }

  /// \brief Copies weights from a baseline Conv2d with identical geometry.
  void CopyWeightsFrom(const Conv2d& baseline);

  const ReuseLayerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ReuseLayerStats{}; }

  // Layer reuse-telemetry hooks (Network::CollectReuseStats).
  const ReuseLayerStats* GetReuseStats() const override { return &stats_; }
  void ResetReuseStats() override { ResetStats(); }

  /// \brief Cluster-reuse cache (present whenever CR is enabled).
  const ClusterReuseCache* cache() const { return cache_.get(); }
  void ClearCache();

  /// \brief Budgets for the cluster-reuse cache (0 = unbounded): at most
  /// `max_entries` resident clusters and `max_bytes` resident payload
  /// bytes, enforced by second-chance eviction. Sticky across
  /// SetReuseConfig rebuilds of the cache.
  void SetCacheBudgets(int64_t max_entries, int64_t max_bytes);

  /// \brief The layer's step-scoped scratch arena. After the first
  /// training step at fixed (batch, config), reserved_bytes() and
  /// alloc_slabs() stay constant — the zero-allocation steady state the
  /// workspace_bytes / allocations_per_step metrics expose.
  const WorkspaceArena& workspace() const { return arena_; }

 private:
  std::string name_;
  std::string metric_prefix_;  ///< "reuse/<name>/", see PublishMetrics
  Conv2dConfig config_;
  ReuseConfig reuse_;
  Tensor weight_;       ///< [K, M]
  Tensor bias_;         ///< [M]
  Tensor grad_weight_;
  Tensor grad_bias_;

  BlockLshFamilies families_;
  std::unique_ptr<ClusterReuseCache> cache_;
  bool exact_backward_ = false;

  /// Step-scoped scratch; Reset() at the top of every Forward.
  WorkspaceArena arena_;
  /// Persistent streaming clusterer of the fused path; its tables and the
  /// clustering it builds in place survive across steps.
  StreamingSubVectorClusterer clusterer_;
  /// alloc_slabs() value already published, for per-step deltas.
  int64_t published_alloc_slabs_ = 0;

  /// Cache budgets, reapplied whenever RebuildFamilies recreates cache_.
  int64_t cache_max_entries_ = 0;
  int64_t cache_max_bytes_ = 0;
  /// Cache counters already published, for per-step deltas.
  ClusterReuseCache::Stats published_cache_;

  // State cached between Forward and Backward (training mode only).
  /// The clustering the reuse backward reads: &clusterer_.clustering()
  /// for LSH, &kmeans_clustering_ for k-means; null after an eval Forward.
  const ReuseClustering* backward_clustering_ = nullptr;
  /// The k-means ablation's last training clustering.
  ReuseClustering kmeans_clustering_;
  /// Arena-owned [N, K] unfolded input, valid until the next Reset();
  /// non-null only when the exact backward needs it.
  float* cached_cols_data_ = nullptr;
  /// Arena-owned [N, M] output rows of the last reuse Forward. They are
  /// dead once transposed to NCHW, so the reuse backward reads dy there
  /// instead of growing the arena by another N x M.
  float* rows_data_ = nullptr;
  int64_t cached_batch_ = 0;

  ReuseLayerStats stats_;

  void RebuildFamilies();

  /// Backward and BackwardParameters: fills the parameter gradients and,
  /// when `grad_input` is not null, the input gradient.
  void RunBackward(const Tensor& grad_output, Tensor* grad_input);

  /// Unfolds `input` into an arena-owned [N, K] matrix (span "im2col",
  /// histogram im2col_seconds) and returns it.
  float* Im2ColIntoArena(const ConvGeometry& geo, const Tensor& input);

  /// Publishes the layer's per-batch telemetry (r_c, reuse rate R,
  /// cluster count, phase wall-times, predicted-vs-measured Eq. 5/6
  /// forward cost) into MetricsRegistry::Global() under metric_prefix_.
  void PublishForwardMetrics(const ForwardReuseStats& stats);

  /// Publishes workspace_bytes (arena capacity gauge) and
  /// allocations_per_step (counter of hot-path slab allocations since the
  /// last publish — zero every step once the arena plan is warm).
  void PublishWorkspaceMetrics();

  /// Publishes the cluster-reuse cache's occupancy, resident bytes,
  /// hit/miss/eviction counter deltas, and probe-length histogram under
  /// metric_prefix_ + "cache_". No-op while CR is disabled.
  void PublishCacheMetrics();
};

}  // namespace adr

#endif  // ADR_CORE_REUSE_CONV2D_H_
