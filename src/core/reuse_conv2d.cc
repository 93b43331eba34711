#include "core/reuse_conv2d.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/complexity_model.h"
#include "core/reuse_backward.h"
#include "util/check.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

ReuseConv2d::ReuseConv2d(std::string name, const Conv2dConfig& config,
                         const ReuseConfig& reuse, Rng* rng)
    : name_(std::move(name)),
      metric_prefix_("reuse/" + name_ + "/"),
      config_(config),
      reuse_(reuse) {
  const int64_t k = unfolded_cols();
  const int64_t m = config_.out_channels;
  ADR_CHECK_GT(k, 0);
  ADR_CHECK_GT(m, 0);
  ADR_CHECK(reuse_.Validate(k).ok()) << reuse_.Validate(k).ToString();
  const float stddev = std::sqrt(2.0f / static_cast<float>(k));
  weight_ = Tensor::RandomGaussian(Shape({k, m}), rng, 0.0f, stddev);
  bias_ = Tensor(Shape({m}));
  grad_weight_ = Tensor(Shape({k, m}));
  grad_bias_ = Tensor(Shape({m}));
  RebuildFamilies();
}

void ReuseConv2d::RebuildFamilies() {
  const int64_t k = unfolded_cols();
  families_ = *BlockLshFamilies::Create(k, reuse_.EffectiveLength(k),
                                        reuse_.num_hashes, reuse_.seed);
  if (reuse_.ClusterReuseEnabled()) {
    cache_ = std::make_unique<ClusterReuseCache>();
    cache_->set_max_entries(cache_max_entries_);
    cache_->set_max_bytes(cache_max_bytes_);
  } else {
    cache_.reset();
  }
  // A fresh cache starts all counters at zero, so delta publishing must
  // restart from zero too.
  published_cache_ = ClusterReuseCache::Stats{};
}

void ReuseConv2d::SetCacheBudgets(int64_t max_entries, int64_t max_bytes) {
  cache_max_entries_ = max_entries;
  cache_max_bytes_ = max_bytes;
  if (cache_ != nullptr) {
    cache_->set_max_entries(max_entries);
    cache_->set_max_bytes(max_bytes);
  }
}

Status ReuseConv2d::SetReuseConfig(const ReuseConfig& reuse) {
  const int64_t k = unfolded_cols();
  ADR_RETURN_NOT_OK(reuse.Validate(k));
  const bool families_changed =
      reuse.EffectiveLength(k) != reuse_.EffectiveLength(k) ||
      reuse.num_hashes != reuse_.num_hashes || reuse.seed != reuse_.seed;
  const bool cr_changed =
      reuse.ClusterReuseEnabled() != reuse_.ClusterReuseEnabled();
  reuse_ = reuse;
  if (families_changed || cr_changed) {
    RebuildFamilies();
  }
  return Status::OK();
}

Tensor ReuseConv2d::Forward(const Tensor& input, bool training) {
  ADR_TRACE_SPAN("ReuseConv2d::Forward");
  const int64_t batch = input.shape()[0];
  const ConvGeometry geo = config_.Geometry(batch);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = config_.out_channels;

  // One arena epoch spans Forward and the matching Backward; everything
  // handed out since the previous Reset() is invalidated here.
  arena_.Reset();
  cached_cols_data_ = nullptr;
  rows_data_ = nullptr;
  backward_clustering_ = nullptr;
  // Eval mode caches nothing: Backward requires a training Forward.
  cached_batch_ = training ? batch : 0;

  if (!reuse_.enabled) {
    // Dense path: Conv2d's exact convolution. The unfolded input is kept
    // for the exact backward only while training.
    if (training) cached_cols_data_ = arena_.AllocFloats(n * k);
    Tensor out =
        ExactConvForward(geo, input, weight_, bias_, cached_cols_data_,
                         arena_.AllocFloats(n * m), &arena_);
    ++stats_.forward_calls;
    stats_.macs_executed += static_cast<double>(n) * k * m;
    stats_.macs_baseline += static_cast<double>(n) * k * m;
    MetricsRegistry& metrics = MetricsRegistry::Global();
    metrics.counter(metric_prefix_ + "forward_calls")->Increment();
    metrics.gauge(metric_prefix_ + "enabled")->Set(0.0);
    PublishWorkspaceMetrics();
    return out;
  }

  const int64_t rows_per_group = reuse_.scope == ClusterScope::kSingleInput
                                     ? geo.rows_per_image()
                                     : n;
  ForwardReuseStats fs;
  float* y = arena_.AllocFloats(n * m);
  rows_data_ = y;

  if (reuse_.method == ClusteringMethod::kKMeans) {
    // K-means needs iterative passes over the rows, so it materializes
    // the N x K matrix (arena-owned).
    float* cols = Im2ColIntoArena(geo, input);
    KMeansMatmulForward(cols, n, k, reuse_.EffectiveLength(k), weight_,
                        &bias_, rows_per_group, reuse_.kmeans_clusters,
                        reuse_.kmeans_iterations, reuse_.seed, y,
                        &kmeans_clustering_, &fs);
    if (training) {
      backward_clustering_ = &kmeans_clustering_;
      if (exact_backward_) cached_cols_data_ = cols;
    }
  } else {
    // Fused tiled path: im2col rows stream straight from the NCHW input
    // into the hash pipeline; the N x K matrix never exists. The
    // clustering stays in clusterer_ until the next Forward. The
    // exact-backward ablation alone keeps an unfolded copy for Backward.
    FusedClusteredForward(families_, geo, input.data(), weight_, &bias_,
                          rows_per_group, cache_.get(), &arena_,
                          &clusterer_, y, &fs);
    if (training) {
      backward_clustering_ = &clusterer_.clustering();
      if (exact_backward_) cached_cols_data_ = Im2ColIntoArena(geo, input);
    }
  }

  // Telemetry (running mean of r_c; cumulative times and MACs).
  const double prev_count = static_cast<double>(stats_.forward_calls);
  stats_.avg_remaining_ratio =
      (stats_.avg_remaining_ratio * prev_count + fs.avg_remaining_ratio) /
      (prev_count + 1.0);
  ++stats_.forward_calls;
  stats_.hash_seconds += fs.hash_seconds;
  stats_.gemm_seconds += fs.gemm_seconds;
  stats_.macs_executed += fs.macs_hash + fs.macs_gemm + fs.macs_scatter;
  stats_.macs_baseline += fs.macs_baseline;
  stats_.last_batch_reuse_rate = fs.batch_reuse_rate;
  PublishForwardMetrics(fs);
  PublishCacheMetrics();
  PublishWorkspaceMetrics();

  Tensor out = Tensor::Uninitialized(
      Shape({batch, m, geo.out_height(), geo.out_width()}));
  RowsToNchw(y, batch, m, geo.out_height(), geo.out_width(), out.data());
  return out;
}

float* ReuseConv2d::Im2ColIntoArena(const ConvGeometry& geo,
                                    const Tensor& input) {
  ADR_TRACE_SPAN("im2col");
  Timer timer;
  float* cols = arena_.AllocFloats(geo.unfolded_rows() * geo.unfolded_cols());
  Im2Col(geo, input.data(), cols);
  MetricsRegistry::Global()
      .histogram(metric_prefix_ + "im2col_seconds")
      ->Record(timer.ElapsedSeconds());
  return cols;
}

void ReuseConv2d::PublishForwardMetrics(const ForwardReuseStats& fs) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter(metric_prefix_ + "forward_calls")->Increment();
  metrics.gauge(metric_prefix_ + "enabled")->Set(1.0);
  metrics.gauge(metric_prefix_ + "r_c")->Set(fs.avg_remaining_ratio);
  metrics.gauge(metric_prefix_ + "reuse_rate")->Set(fs.batch_reuse_rate);
  metrics.gauge(metric_prefix_ + "clusters")
      ->Set(static_cast<double>(fs.clusters_total));
  metrics.counter(metric_prefix_ + "clusters_reused")
      ->Increment(fs.clusters_reused);
  metrics.histogram(metric_prefix_ + "hash_seconds")
      ->Record(fs.hash_seconds);
  metrics.histogram(metric_prefix_ + "gemm_seconds")
      ->Record(fs.gemm_seconds);

  // Predicted (Eq. 5, or Eq. 6 under cluster reuse) vs measured relative
  // forward cost, both against the dense N*K*M baseline of this batch.
  ComplexityParams params;
  params.k = unfolded_cols();
  params.m = config_.out_channels;
  params.l = reuse_.EffectiveLength(params.k);
  params.h = reuse_.num_hashes;
  params.rc = fs.avg_remaining_ratio;
  params.reuse_rate = fs.batch_reuse_rate;
  const double predicted = reuse_.ClusterReuseEnabled()
                               ? ForwardRelativeCostClusterReuse(params)
                               : ForwardRelativeCost(params);
  const double measured =
      fs.macs_baseline == 0.0
          ? 0.0
          : (fs.macs_hash + fs.macs_gemm + fs.macs_scatter) /
                fs.macs_baseline;
  metrics.gauge(metric_prefix_ + "forward_cost_predicted")->Set(predicted);
  metrics.gauge(metric_prefix_ + "forward_cost_measured")->Set(measured);
}

void ReuseConv2d::PublishWorkspaceMetrics() {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.gauge(metric_prefix_ + "workspace_bytes")
      ->Set(static_cast<double>(arena_.reserved_bytes()));
  // Hot-path slab allocations since the last publish; 0 at every publish
  // once the arena plan is warm — the counter's total therefore converges
  // after the first step at fixed shapes.
  metrics.counter(metric_prefix_ + "allocations_per_step")
      ->Increment(arena_.alloc_slabs() - published_alloc_slabs_);
  published_alloc_slabs_ = arena_.alloc_slabs();
}

void ReuseConv2d::PublishCacheMetrics() {
  if (cache_ == nullptr) return;
  const ClusterReuseCache::Stats stats = cache_->GetStats();
  MetricsRegistry& metrics = MetricsRegistry::Global();

  metrics.gauge(metric_prefix_ + "cache_entries")
      ->Set(static_cast<double>(stats.entries));
  metrics.gauge(metric_prefix_ + "cache_resident_bytes")
      ->Set(static_cast<double>(stats.resident_bytes));
  metrics.gauge(metric_prefix_ + "cache_occupancy")
      ->Set(stats.slots == 0 ? 0.0
                             : static_cast<double>(stats.entries) /
                                   static_cast<double>(stats.slots));

  // The cache's counters are cumulative; the registry counters advance by
  // the delta since the last publish (same pattern as alloc_slabs).
  metrics.counter(metric_prefix_ + "cache_hits")
      ->Increment(stats.hits - published_cache_.hits);
  metrics.counter(metric_prefix_ + "cache_misses")
      ->Increment((stats.lookups - stats.hits) -
                  (published_cache_.lookups - published_cache_.hits));
  metrics.counter(metric_prefix_ + "cache_evictions")
      ->Increment(stats.evictions - published_cache_.evictions);
  Histogram* probes = metrics.histogram(metric_prefix_ + "cache_probe_length");
  for (int b = 0; b < ClusterReuseCache::kProbeBuckets; ++b) {
    probes->RecordN(static_cast<double>(b + 1),
                    stats.probe_counts[static_cast<size_t>(b)] -
                        published_cache_.probe_counts[static_cast<size_t>(b)]);
  }
  published_cache_ = stats;

  stats_.cache_lookups = stats.lookups;
  stats_.cache_hits = stats.hits;
  stats_.cache_evictions = stats.evictions;
  stats_.cache_entries = stats.entries;
  stats_.cache_resident_bytes = stats.resident_bytes;
}

Tensor ReuseConv2d::Backward(const Tensor& grad_output) {
  Tensor grad_input;
  RunBackward(grad_output, &grad_input);
  return grad_input;
}

void ReuseConv2d::BackwardParameters(const Tensor& grad_output) {
  RunBackward(grad_output, /*grad_input=*/nullptr);
}

void ReuseConv2d::RunBackward(const Tensor& grad_output, Tensor* grad_input) {
  ADR_TRACE_SPAN("ReuseConv2d::Backward");
  ADR_CHECK_GT(cached_batch_, 0)
      << "Backward requires a preceding training-mode Forward";
  const ConvGeometry geo = config_.Geometry(cached_batch_);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = config_.out_channels;

  if (exact_backward_ || !reuse_.enabled) {
    // Ablation path: Conv2d's exact gradients from the cached unfolded
    // input.
    ADR_CHECK(cached_cols_data_ != nullptr)
        << "exact_backward requires the unfolded input cached in Forward";
    Timer timer;
    ExactConvBackward(geo, cached_cols_data_, weight_, grad_output, &arena_,
                      &grad_weight_, &grad_bias_, grad_input);
    const double seconds = timer.ElapsedSeconds();
    const double macs = (grad_input != nullptr ? 2.0 : 1.0) *
                        static_cast<double>(n) * k * m;
    stats_.backward_seconds += seconds;
    stats_.macs_executed += macs;
    stats_.macs_baseline += macs;
    MetricsRegistry::Global()
        .histogram(metric_prefix_ + "backward_seconds")
        ->Record(seconds);
    PublishWorkspaceMetrics();
    return;
  }

  // The centroid deltas fold straight into grad_input; the N x K input
  // delta never exists.
  ADR_CHECK(backward_clustering_ != nullptr)
      << "the reuse backward requires the clustering of a training Forward";
  ADR_CHECK(grad_output.shape() == Shape({cached_batch_, m,
                                          geo.out_height(),
                                          geo.out_width()}));
  float* dy = rows_data_;
  NchwToRows(grad_output, dy);
  if (grad_input != nullptr) {
    *grad_input = Tensor(Shape({cached_batch_, config_.in_channels,
                                config_.in_height, config_.in_width}));
  }
  BackwardReuseStats bstats;
  ReuseBackwardFoldInto(*backward_clustering_, weight_, dy, geo, &arena_,
                        grad_weight_.data(), grad_bias_.data(),
                        grad_input != nullptr ? grad_input->data() : nullptr,
                        &bstats);
  stats_.backward_seconds += bstats.seconds;
  stats_.macs_executed += bstats.macs;
  stats_.macs_baseline += bstats.macs_baseline;
  MetricsRegistry::Global()
      .histogram(metric_prefix_ + "backward_seconds")
      ->Record(bstats.seconds);
  PublishWorkspaceMetrics();
}

double ReuseConv2d::ForwardMacs(int64_t batch) const {
  const ConvGeometry geo = config_.Geometry(batch);
  return static_cast<double>(geo.unfolded_rows()) * geo.unfolded_cols() *
         config_.out_channels;
}

void ReuseConv2d::CopyWeightsFrom(const Conv2d& baseline) {
  ADR_CHECK(weight_.SameShape(baseline.weight()))
      << "weight shape mismatch copying into " << name_;
  weight_ = baseline.weight();
  bias_ = baseline.bias();
}

void ReuseConv2d::ClearCache() {
  if (cache_ != nullptr) cache_->Clear();
}

}  // namespace adr
