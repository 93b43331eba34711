// Cross-batch cluster reuse (Algorithm 1) in action: the same layer run
// over a stream of batches with CR on. Watch the per-batch reuse rate R
// climb as the signature cache warms and computation drains away.
//
// Usage: ./build/examples/cross_batch_reuse [--metrics-out m.json]
//                                           [--trace-out t.json]
//                                           [--cache-max-entries N]
//                                           [--cache-max-bytes B]
//
// The cache budgets bound the signature cache (0 = unbounded, the
// paper's Algorithm 1); entries beyond the budget are reclaimed by
// second-chance eviction, visible in the evictions column.

#include <cstdio>
#include <string>

#include "core/reuse_conv2d.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "util/flags.h"
#include "util/metrics_registry.h"
#include "util/rng.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace adr;

  std::string metrics_out;
  std::string trace_out;
  int64_t cache_max_entries = 0;
  int64_t cache_max_bytes = 0;
  FlagSet flags;
  flags.AddString("metrics-out", &metrics_out,
                  "write a MetricsRegistry JSON dump to this path");
  flags.AddString("trace-out", &trace_out,
                  "write a Chrome/Perfetto trace JSON to this path");
  flags.AddInt64("cache-max-entries", &cache_max_entries,
                 "cluster-reuse cache entry budget (0 = unbounded)");
  flags.AddInt64("cache-max-bytes", &cache_max_bytes,
                 "cluster-reuse cache byte budget (0 = unbounded)");
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    Tracer::Global().SetCurrentThreadName("main");
    Tracer::Global().SetEnabled(true);
  }

  SyntheticImageConfig data_config =
      SyntheticImageConfig::CifarLike(512, 77);
  data_config.num_classes = 4;
  data_config.height = data_config.width = 16;
  auto dataset = SyntheticImageDataset::Create(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // A single conv layer with cluster reuse: signature cache keyed by the
  // LSH bit-vector, shared across all batches (paper Algorithm 1).
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 16;
  conv.kernel = 5;
  conv.stride = 1;
  conv.pad = 2;
  conv.in_height = 16;
  conv.in_width = 16;
  auto reuse = ReuseConfigBuilder()
                   .SubVectorLength(15)
                   .NumHashes(12)
                   .Scope(ClusterScope::kAcrossBatch)  // implies CR = 1
                   .Build();
  if (!reuse.ok()) {
    std::fprintf(stderr, "%s\n", reuse.status().ToString().c_str());
    return 1;
  }
  Rng rng(1);
  ReuseConv2d layer("conv1", conv, *reuse, &rng);
  layer.SetCacheBudgets(cache_max_entries, cache_max_bytes);

  DataLoader loader(&*dataset, 8, /*shuffle=*/true, 9);
  Batch batch;
  std::printf("%-7s %-12s %-14s %-12s %-14s %-14s\n", "batch", "R (batch)",
              "cache entries", "evictions", "resident KiB",
              "MACs saved so far");
  for (int b = 1; b <= 24; ++b) {
    loader.Next(&batch);
    layer.Forward(batch.images, /*training=*/false);
    std::printf("%-7d %-12.3f %-14lld %-12lld %-14.1f %.1f%%\n", b,
                layer.stats().last_batch_reuse_rate,
                static_cast<long long>(layer.cache()->TotalEntries()),
                static_cast<long long>(layer.stats().cache_evictions),
                static_cast<double>(layer.cache()->ResidentBytes()) / 1024.0,
                layer.stats().MacsSavedFraction() * 100.0);
  }
  std::printf(
      "\nCumulative cluster reuse rate: %.3f (paper reports R -> ~0.98 "
      "after ~20 batches on CifarNet)\n",
      layer.stats().CacheHitRate());

  if (!metrics_out.empty()) {
    if (const Status status =
            MetricsRegistry::Global().WriteJsonFile(metrics_out);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    Tracer::Global().SetEnabled(false);
    if (const Status status = Tracer::Global().WriteJsonFile(trace_out);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
