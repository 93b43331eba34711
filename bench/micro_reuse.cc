// google-benchmark microbenchmarks of the reuse kernels themselves:
// forward clustering+GEMM, backward reuse vs exact backward, and the
// cluster reuse cache.
//
// Every benchmark takes the worker thread count as its first argument
// (the "threads" column); compare threads=1 vs threads=4 rows to read
// the parallel runtime's scaling.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "bench_json_main.h"
#include "core/cluster_cache_reference.h"
#include "core/clustered_matmul.h"
#include "core/reuse_backward.h"
#include "core/reuse_conv2d.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int64_t kThreadCounts[] = {1, 2, 4};

// Reads the leading "threads" argument and points the global pool at it.
void SetupThreads(const benchmark::State& state) {
  ThreadPool::SetGlobalThreads(static_cast<int>(state.range(0)));
}

void ThreadsOnlyArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads"});
  for (const int64_t threads : kThreadCounts) bench->Args({threads});
}

void ThreadsLHArgs(benchmark::internal::Benchmark* bench,
                   std::initializer_list<std::array<int64_t, 2>> lh) {
  bench->ArgNames({"threads", "L", "H"});
  for (const auto& shape : lh) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1]});
    }
  }
}

// Redundant unfolded matrix: prototypes + small noise.
struct Workload {
  Tensor x;
  Tensor w;
  Tensor dy;
  static constexpr int64_t kN = 4096;
  static constexpr int64_t kK = 400;
  static constexpr int64_t kM = 64;

  Workload() {
    Rng rng(17);
    Tensor protos = Tensor::RandomGaussian(Shape({32, kK}), &rng);
    x = Tensor(Shape({kN, kK}));
    for (int64_t i = 0; i < kN; ++i) {
      const int64_t p = static_cast<int64_t>(rng.NextBounded(32));
      for (int64_t j = 0; j < kK; ++j) {
        x.at(i, j) = protos.at(p, j) + 0.05f * rng.NextGaussian();
      }
    }
    w = Tensor::RandomGaussian(Shape({kK, kM}), &rng);
    dy = Tensor::RandomGaussian(Shape({kN, kM}), &rng);
  }
};

Workload& SharedWorkload() {
  static Workload* workload = new Workload();
  return *workload;
}

void BM_ExactBackward(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  Tensor dw(Shape({Workload::kK, Workload::kM}));
  Tensor dx(Shape({Workload::kN, Workload::kK}));
  for (auto _ : state) {
    GemmTransA(wl.x.data(), wl.dy.data(), dw.data(), Workload::kK,
               Workload::kN, Workload::kM);
    GemmTransB(wl.dy.data(), wl.w.data(), dx.data(), Workload::kN,
               Workload::kM, Workload::kK);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * Workload::kN *
                          Workload::kK * Workload::kM);
}
BENCHMARK(BM_ExactBackward)->Apply(ThreadsOnlyArgs);

void BM_ReuseBackward(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  auto families = BlockLshFamilies::Create(Workload::kK, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  const ReuseClustering clustering =
      ClusteredMatmulForward(*families, wl.x.data(), Workload::kN, wl.w,
                             nullptr, Workload::kN, nullptr)
          .clustering;
  for (auto _ : state) {
    BackwardReuseResult result = ReuseBackward(clustering, wl.w, wl.dy);
    benchmark::DoNotOptimize(result.grad_weight.data());
  }
  // Items = the dense work replaced, so throughput shows effective gain.
  state.SetItemsProcessed(state.iterations() * 2 * Workload::kN *
                          Workload::kK * Workload::kM);
}
BENCHMARK(BM_ReuseBackward)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadsLHArgs(b, {{100, 8}, {25, 12}});
});

void BM_ClusterOnly(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  auto families = BlockLshFamilies::Create(Workload::kK, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  // One persistent clusterer, as in the layer, fed block by block in the
  // forward's chunks: one ParallelFor over blocks, each copying its
  // columns of x into its own padded chunk. Each Begin reuses the last
  // clustering's buffers.
  StreamingSubVectorClusterer clusterer;
  const int64_t stride = StreamingSubVectorClusterer::ChunkStride(l);
  const int64_t chunk_rows = StreamingSubVectorClusterer::ChunkRows(stride);
  const int64_t num_blocks = families->num_blocks();
  std::vector<float> chunks(
      static_cast<size_t>(num_blocks * chunk_rows * stride), 0.0f);
  for (auto _ : state) {
    clusterer.Begin(&*families, Workload::kN, Workload::kN);
    ParallelFor(num_blocks, 1, [&](int64_t begin, int64_t end) {
      for (int64_t b = begin; b < end; ++b) {
        float* chunk = chunks.data() + b * chunk_rows * stride;
        const float* src = wl.x.data() + families->block_offset(b);
        const size_t bytes =
            sizeof(float) * static_cast<size_t>(families->block_length(b));
        for (int64_t row = 0; row < Workload::kN; row += chunk_rows) {
          const int64_t rows = std::min(chunk_rows, Workload::kN - row);
          for (int64_t r = 0; r < rows; ++r) {
            std::memcpy(chunk + r * stride, src + (row + r) * Workload::kK,
                        bytes);
          }
          clusterer.ConsumeBlock(b, chunk, stride, row, rows);
        }
      }
    });
    benchmark::DoNotOptimize(clusterer.Finish().blocks.data());
  }
  state.SetItemsProcessed(state.iterations() * Workload::kN * Workload::kK *
                          h);
}
BENCHMARK(BM_ClusterOnly)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadsLHArgs(b, {{400, 8}, {25, 12}});
});

void BM_ClusterReuseCacheWarm(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  auto families = BlockLshFamilies::Create(Workload::kK, 100, 10, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  ClusterReuseCache cache;
  // Warm the cache once; steady state then reuses everything.
  ClusteredMatmulForward(*families, wl.x.data(), Workload::kN, wl.w,
                         nullptr, Workload::kN, &cache);
  for (auto _ : state) {
    ForwardReuseResult result = ClusteredMatmulForward(
        *families, wl.x.data(), Workload::kN, wl.w, nullptr, Workload::kN,
        &cache);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.SetItemsProcessed(state.iterations() * Workload::kN * Workload::kK *
                          Workload::kM);
}
BENCHMARK(BM_ClusterReuseCacheWarm)->Apply(ThreadsOnlyArgs);

// The same steady-state forward with CR off: the cost of clustering +
// full centroid GEMM every batch. The gap to BM_ClusterReuseCacheWarm is
// what the warm cache saves.
void BM_ClusteredForwardCROff(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  auto families = BlockLshFamilies::Create(Workload::kK, 100, 10, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    ForwardReuseResult result = ClusteredMatmulForward(
        *families, wl.x.data(), Workload::kN, wl.w, nullptr, Workload::kN,
        nullptr);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.SetItemsProcessed(state.iterations() * Workload::kN * Workload::kK *
                          Workload::kM);
}
BENCHMARK(BM_ClusteredForwardCROff)->Apply(ThreadsOnlyArgs);

// --- cluster-cache microbenches ------------------------------------------
// One block, kCacheResident resident entries (well past 10k so open
// addressing is measured at realistic occupancy), kCacheQueries all-hit
// lookups per iteration; items/sec = lookups/sec.

constexpr int64_t kCacheResident = 16384;
constexpr int64_t kCacheQueries = 4096;
constexpr int64_t kCacheRepLen = 25;
constexpr int64_t kCacheOutLen = 64;

LshSignature CacheBenchSignature(int64_t i) {
  LshSignature sig;
  sig.words[0] = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL + 1;
  sig.words[1] = static_cast<uint64_t>(i);
  return sig;
}

std::vector<LshSignature>& CacheBenchQueries() {
  static auto* queries = [] {
    auto* q = new std::vector<LshSignature>(
        static_cast<size_t>(kCacheQueries));
    Rng rng(23);
    for (auto& sig : *q) {
      sig = CacheBenchSignature(
          static_cast<int64_t>(rng.NextBounded(kCacheResident)));
    }
    return q;
  }();
  return *queries;
}

// Batched lookup against the slab-backed cache. Compare against
// BM_ReferenceCacheLookup below — the acceptance bar for the open
// addressing + batched API is >= 3x lower time per lookup at >= 10k
// resident entries.
void BM_ClusterCacheLookup(benchmark::State& state) {
  SetupThreads(state);
  ClusterReuseCache cache;
  std::vector<float> rep(kCacheRepLen, 1.0f);
  std::vector<float> out(kCacheOutLen, 2.0f);
  for (int64_t i = 0; i < kCacheResident; ++i) {
    cache.Insert(0, CacheBenchSignature(i), rep.data(), kCacheRepLen,
                 out.data(), kCacheOutLen);
  }
  const std::vector<LshSignature>& queries = CacheBenchQueries();
  std::vector<int32_t> entries(static_cast<size_t>(kCacheQueries));
  for (auto _ : state) {
    const int64_t hits = cache.FindBatch(0, queries.data(), kCacheQueries,
                                         entries.data());
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kCacheQueries);
}
BENCHMARK(BM_ClusterCacheLookup)->Apply(ThreadsOnlyArgs);

// The original map-based cache on the identical workload: one
// unordered_map probe (hash + node chase) per sequential Find call.
void BM_ReferenceCacheLookup(benchmark::State& state) {
  SetupThreads(state);
  ReferenceClusterCache cache;
  for (int64_t i = 0; i < kCacheResident; ++i) {
    ReferenceClusterCache::Entry entry;
    entry.representative.assign(static_cast<size_t>(kCacheRepLen), 1.0f);
    entry.output.assign(static_cast<size_t>(kCacheOutLen), 2.0f);
    cache.Insert(0, CacheBenchSignature(i), std::move(entry));
  }
  const std::vector<LshSignature>& queries = CacheBenchQueries();
  for (auto _ : state) {
    int64_t hits = 0;
    for (const LshSignature& sig : queries) {
      if (cache.Find(0, sig) != nullptr) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kCacheQueries);
}
BENCHMARK(BM_ReferenceCacheLookup)->Apply(ThreadsOnlyArgs);

// Steady-state insert under an entry budget: every insert of a fresh
// signature recycles a second-chance-evicted slot (zero allocations —
// the free list and tables reached capacity during the warm-up).
void BM_ClusterCacheInsert(benchmark::State& state) {
  SetupThreads(state);
  ClusterReuseCache cache;
  cache.set_max_entries(kCacheResident);
  std::vector<float> rep(kCacheRepLen, 1.0f);
  std::vector<float> out(kCacheOutLen, 2.0f);
  int64_t next = 0;
  for (; next < kCacheResident + 1024; ++next) {
    cache.Insert(0, CacheBenchSignature(next), rep.data(), kCacheRepLen,
                 out.data(), kCacheOutLen);
  }
  for (auto _ : state) {
    cache.Insert(0, CacheBenchSignature(next++), rep.data(), kCacheRepLen,
                 out.data(), kCacheOutLen);
  }
  state.counters["alloc_events"] =
      static_cast<double>(cache.alloc_events());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterCacheInsert)->Apply(ThreadsOnlyArgs);

// Conv-shaped workload for the fused-vs-materialized comparison: a
// spatially periodic image (period 4) whose interior im2col rows repeat,
// scaled per image (signatures are scale-invariant, so clusters recur).
// K = 16*5*5 = 400 matches the flat Workload, N = 8*16*16 = 2048.
struct ConvWorkload {
  ConvGeometry geo;
  Tensor input;
  Tensor w;
  static constexpr int64_t kM = 64;

  ConvWorkload() {
    geo.batch = 8;
    geo.in_channels = 16;
    geo.in_height = 16;
    geo.in_width = 16;
    geo.kernel_h = 5;
    geo.kernel_w = 5;
    geo.stride = 1;
    geo.pad = 2;
    Rng rng(19);
    Tensor pattern = Tensor::RandomGaussian(
        Shape({geo.in_channels, 4, 4}), &rng);
    input = Tensor(Shape({geo.batch, geo.in_channels, geo.in_height,
                          geo.in_width}));
    float* dst = input.data();
    const float* pat = pattern.data();
    for (int64_t n = 0; n < geo.batch; ++n) {
      const float scale = 0.5f + 0.25f * static_cast<float>(n);
      for (int64_t c = 0; c < geo.in_channels; ++c) {
        for (int64_t y = 0; y < geo.in_height; ++y) {
          for (int64_t x = 0; x < geo.in_width; ++x) {
            *dst++ = scale * pat[(c * 4 + y % 4) * 4 + x % 4];
          }
        }
      }
    }
    w = Tensor::RandomGaussian(Shape({geo.unfolded_cols(), kM}), &rng);
  }
};

ConvWorkload& SharedConvWorkload() {
  static ConvWorkload* workload = new ConvWorkload();
  return *workload;
}

// Materialized pipeline: im2col the whole batch into the arena, then
// cluster + gather GEMM over it — the pre-fusion data flow, on the same
// streaming core. peak_workspace_bytes counts the N x K matrix.
void BM_MaterializedClusteredForward(benchmark::State& state) {
  SetupThreads(state);
  ConvWorkload& wl = SharedConvWorkload();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  const int64_t n = wl.geo.unfolded_rows();
  const int64_t k = wl.geo.unfolded_cols();
  auto families = BlockLshFamilies::Create(k, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  WorkspaceArena arena;
  for (auto _ : state) {
    arena.Reset();
    float* cols = arena.AllocFloats(n * k);
    Im2Col(wl.geo, wl.input.data(), cols);
    ForwardReuseResult result =
        ClusteredMatmulForward(*families, cols, n, wl.w, nullptr, n, nullptr);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.counters["peak_workspace_bytes"] =
      static_cast<double>(arena.reserved_bytes());
  state.SetItemsProcessed(state.iterations() * n * k * ConvWorkload::kM);
}
BENCHMARK(BM_MaterializedClusteredForward)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadsLHArgs(b, {{100, 8}, {25, 12}});
    });

// Fused tiled pipeline on the identical workload: im2col rows stream
// straight into hashing, the N x K matrix never exists. Same bits out
// (see fused_forward_test), far smaller peak_workspace_bytes.
void BM_FusedClusteredForward(benchmark::State& state) {
  SetupThreads(state);
  ConvWorkload& wl = SharedConvWorkload();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  const int64_t n = wl.geo.unfolded_rows();
  const int64_t k = wl.geo.unfolded_cols();
  auto families = BlockLshFamilies::Create(k, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  WorkspaceArena arena;
  StreamingSubVectorClusterer clusterer;
  for (auto _ : state) {
    arena.Reset();
    float* y = arena.AllocFloats(n * ConvWorkload::kM);
    ForwardReuseStats stats;
    FusedClusteredForward(*families, wl.geo, wl.input.data(), wl.w,
                          nullptr, n, nullptr, &arena, &clusterer, y,
                          &stats);
    benchmark::DoNotOptimize(y);
  }
  state.counters["peak_workspace_bytes"] =
      static_cast<double>(arena.reserved_bytes());
  state.SetItemsProcessed(state.iterations() * n * k * ConvWorkload::kM);
}
BENCHMARK(BM_FusedClusteredForward)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadsLHArgs(b, {{100, 8}, {25, 12}});
    });

// Smooth images with a little noise, CifarNet conv2's input (16 images of
// 32x16x16): few clusters per block, as on natural images.
Tensor SmoothConv2Input(Rng* rng) {
  Tensor input(Shape({16, 32, 16, 16}));
  float* dst = input.data();
  for (int64_t n = 0; n < 16; ++n) {
    for (int64_t c = 0; c < 32; ++c) {
      for (int64_t y = 0; y < 16; ++y) {
        for (int64_t x = 0; x < 16; ++x) {
          *dst++ = std::sin(0.3f * static_cast<float>(y + n) +
                            0.2f * static_cast<float>(x) +
                            0.7f * static_cast<float>(c)) +
                   0.05f * rng->NextGaussian();
        }
      }
    }
  }
  return input;
}

// Eval-mode forward of CifarNet conv2 (batch 16, 32x16x16 input, 5x5
// kernel, pad 2: N = 4096, K = 800) with M output channels, through the
// dense Conv2d (reuse:0) or the fused ReuseConv2d at L = 10, H = 11
// (reuse:1). Dense streams L2-sized im2col tiles, reuse walks each block
// in L1-sized chunks; the ratio of the two rows at each M is where reuse
// crosses dense on the wall clock.
void BM_ReuseVsDenseForward(benchmark::State& state) {
  SetupThreads(state);
  Conv2dConfig config;
  config.in_channels = 32;
  config.out_channels = state.range(1);
  config.kernel = 5;
  config.stride = 1;
  config.pad = 2;
  config.in_height = 16;
  config.in_width = 16;
  ReuseConfig reuse;
  reuse.sub_vector_length = 10;
  reuse.num_hashes = 11;
  Rng rng(29);
  Conv2d dense("bench_dense", config, &rng);
  ReuseConv2d clustered("bench_reuse", config, reuse, &rng);
  Layer& layer = state.range(2) != 0 ? static_cast<Layer&>(clustered)
                                     : static_cast<Layer&>(dense);
  const Tensor input = SmoothConv2Input(&rng);
  for (auto _ : state) {
    Tensor out = layer.Forward(input, /*training=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  // Items = the dense forward MACs, N * K * M.
  state.SetItemsProcessed(state.iterations() * 4096 * 800 * state.range(1));
}
BENCHMARK(BM_ReuseVsDenseForward)
    ->Apply([](benchmark::internal::Benchmark* b) {
      b->ArgNames({"threads", "M", "reuse"});
      for (const int64_t m : {32, 64, 128, 256}) {
        for (const int64_t threads : kThreadCounts) {
          b->Args({threads, m, 0});
          b->Args({threads, m, 1});
        }
      }
    });

// The reuse layer's whole backward (row sums, both per-block GEMMs and the
// fold into the NCHW input gradient) at CifarNet conv2's geometry: batch
// 16, 32x16x16 input, 5x5 kernel, pad 2, M = 32, L = 10, H = 11. Each
// iteration reruns the same training forward untimed (it starts the
// arena epoch Backward allocates from) and times Backward alone.
void BM_ReuseConv2dBackward(benchmark::State& state) {
  SetupThreads(state);
  Conv2dConfig config;
  config.in_channels = 32;
  config.out_channels = 32;
  config.kernel = 5;
  config.stride = 1;
  config.pad = 2;
  config.in_height = 16;
  config.in_width = 16;
  ReuseConfig reuse;
  reuse.sub_vector_length = 10;
  reuse.num_hashes = 11;
  Rng rng(23);
  ReuseConv2d layer("bench_conv2", config, reuse, &rng);
  const Tensor input = SmoothConv2Input(&rng);
  const Tensor grad_out =
      Tensor::RandomGaussian(Shape({16, 32, 16, 16}), &rng);
  for (auto _ : state) {
    state.PauseTiming();
    layer.Forward(input, /*training=*/true);
    state.ResumeTiming();
    Tensor grad_input = layer.Backward(grad_out);
    benchmark::DoNotOptimize(grad_input.data());
  }
  state.counters["peak_workspace_bytes"] =
      static_cast<double>(layer.workspace().reserved_bytes());
  // Items = the dense backward MACs (2 * N * K * M) replaced.
  state.SetItemsProcessed(state.iterations() * 2 * 4096 * 800 * 32);
}
BENCHMARK(BM_ReuseConv2dBackward)->Apply(ThreadsOnlyArgs);

}  // namespace
}  // namespace adr

int main(int argc, char** argv) {
  return adr::bench::RunBenchmarksWithJson(argc, argv, "micro_reuse");
}
