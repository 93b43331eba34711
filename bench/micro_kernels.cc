// google-benchmark microbenchmarks of the substrate kernels the reuse
// savings are measured against: GEMM, im2col, LSH hashing, the full
// clustered matmul vs its dense equivalent, and the ReLU and max-pool
// layers between the convolutions.
//
// Every benchmark takes the worker thread count as its first argument
// (the "threads" column), so scaling of the parallel runtime is read
// straight off the report: compare threads=1 vs threads=4 rows.

#include <benchmark/benchmark.h>

#include <array>

#include "bench_json_main.h"
#include "core/clustered_matmul.h"
#include "nn/activations.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int64_t kThreadCounts[] = {1, 2, 4};

// Reads the leading "threads" argument and points the global pool at it.
int64_t SetupThreads(const benchmark::State& state) {
  const int64_t threads = state.range(0);
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));
  return threads;
}

void BM_Gemm(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  const int64_t m = state.range(3);
  Rng rng(1);
  Tensor a = Tensor::RandomGaussian(Shape({n, k}), &rng);
  Tensor b = Tensor::RandomGaussian(Shape({k, m}), &rng);
  Tensor c(Shape({n, m}));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, k, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
void GemmArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "n", "k", "m"});
  // The last two are CifarNet's conv2 and conv1 forward: im2col rows x
  // patch length x output channels.
  for (const auto shape : {std::array<int64_t, 3>{256, 256, 256},
                           std::array<int64_t, 3>{1024, 400, 64},
                           std::array<int64_t, 3>{4096, 75, 64},
                           std::array<int64_t, 3>{4096, 800, 32},
                           std::array<int64_t, 3>{16384, 75, 32}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2]});
    }
  }
}
BENCHMARK(BM_Gemm)->Apply(GemmArgs);

void BM_GemmTransA(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = state.range(1), k = state.range(2), m = state.range(3);
  Rng rng(2);
  Tensor a = Tensor::RandomGaussian(Shape({n, k}), &rng);   // n x k
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);  // n x m
  Tensor c(Shape({k, m}));
  for (auto _ : state) {
    GemmTransA(a.data(), dy.data(), c.data(), k, n, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
// Backward shapes: CifarNet's conv2 and conv1 (im2col rows x patch length
// x output channels), then its dense head at batch 16 (batch x inputs x
// outputs of fc1).
constexpr std::array<std::array<int64_t, 3>, 4> kBackwardShapes = {
    {{1024, 400, 64}, {4096, 800, 32}, {16384, 75, 32}, {16, 2048, 64}}};
void GemmBackwardArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "n", "k", "m"});
  for (const auto& shape : kBackwardShapes) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2]});
    }
  }
}
BENCHMARK(BM_GemmTransA)->Apply(GemmBackwardArgs);

void BM_GemmTransB(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = state.range(1), k = state.range(2), m = state.range(3);
  Rng rng(6);
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);  // n x m
  Tensor w = Tensor::RandomGaussian(Shape({k, m}), &rng);   // k x m
  Tensor c(Shape({n, k}));
  for (auto _ : state) {
    GemmTransB(dy.data(), w.data(), c.data(), n, m, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_GemmTransB)->Apply(GemmBackwardArgs);

void BM_Im2Col(benchmark::State& state) {
  SetupThreads(state);
  ConvGeometry geo;
  geo.batch = 8;
  geo.in_channels = 16;
  geo.in_height = 32;
  geo.in_width = 32;
  geo.kernel_h = 5;
  geo.kernel_w = 5;
  geo.stride = 1;
  geo.pad = 2;
  Rng rng(3);
  Tensor input = Tensor::RandomGaussian(Shape({8, 16, 32, 32}), &rng);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  for (auto _ : state) {
    Im2Col(geo, input, &cols);
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * cols.num_elements());
}
void ThreadsOnlyArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads"});
  for (const int64_t threads : kThreadCounts) bench->Args({threads});
}
BENCHMARK(BM_Im2Col)->Apply(ThreadsOnlyArgs);

// The fold of the conv backward at CifarNet conv2's geometry (batch 16,
// 32x16x16 input, 5x5 kernel, pad 2): N = 4096 rows of K = 800.
void BM_Col2Im(benchmark::State& state) {
  SetupThreads(state);
  ConvGeometry geo;
  geo.batch = 16;
  geo.in_channels = 32;
  geo.in_height = 16;
  geo.in_width = 16;
  geo.kernel_h = 5;
  geo.kernel_w = 5;
  geo.stride = 1;
  geo.pad = 2;
  Rng rng(4);
  Tensor cols = Tensor::RandomGaussian(
      Shape({geo.unfolded_rows(), geo.unfolded_cols()}), &rng);
  Tensor grad_input(Shape({16, 32, 16, 16}));
  for (auto _ : state) {
    Col2Im(geo, cols, &grad_input);
    benchmark::DoNotOptimize(grad_input.data());
  }
  state.SetItemsProcessed(state.iterations() * cols.num_elements());
}
BENCHMARK(BM_Col2Im)->Apply(ThreadsOnlyArgs);

// Rows are read in place at `stride` floats apart: stride == dim is a
// contiguous matrix, stride 800 / 75 are one L-column block of the
// CifarNet conv2 / conv1 unfolded rows (K = 800 / 75, L = 10, H = 11).
void BM_LshHash(benchmark::State& state) {
  SetupThreads(state);
  const int64_t rows = 4096;
  const int64_t dim = state.range(1);
  const int num_hashes = static_cast<int>(state.range(2));
  const int64_t stride = state.range(3);
  LshFamily family;
  const Status status = LshFamily::Create(dim, num_hashes, 7, &family);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  Rng rng(4);
  Tensor data = Tensor::RandomGaussian(Shape({rows, stride}), &rng);
  std::vector<LshSignature> sigs;
  for (auto _ : state) {
    family.HashRows(data.data(), rows, stride, &sigs);
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * dim * num_hashes);
}
void LshHashArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "dim", "h", "stride"});
  for (const auto shape :
       {std::array<int64_t, 3>{400, 8, 400}, std::array<int64_t, 3>{400, 16, 400},
        std::array<int64_t, 3>{25, 8, 25}, std::array<int64_t, 3>{10, 11, 800},
        std::array<int64_t, 3>{10, 11, 75}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2]});
    }
  }
}
BENCHMARK(BM_LshHash)->Apply(LshHashArgs);

// Dense vs clustered forward on a redundant matrix: the headline kernel
// comparison. Items processed counts the *baseline* work so the reported
// throughput difference is the effective speedup.
void SetupRedundant(Tensor* x, Tensor* w, int64_t n, int64_t k, int64_t m) {
  Rng rng(5);
  Tensor protos = Tensor::RandomGaussian(Shape({16, k}), &rng);
  *x = Tensor(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = static_cast<int64_t>(rng.NextBounded(16));
    for (int64_t j = 0; j < k; ++j) {
      x->at(i, j) = protos.at(p, j) + 0.05f * rng.NextGaussian();
    }
  }
  *w = Tensor::RandomGaussian(Shape({k, m}), &rng);
}

void BM_DenseForward(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = 4096, k = 400, m = 64;
  Tensor x, w;
  SetupRedundant(&x, &w, n, k, m);
  Tensor y(Shape({n, m}));
  for (auto _ : state) {
    Gemm(x.data(), w.data(), y.data(), n, k, m);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_DenseForward)->Apply(ThreadsOnlyArgs);

void BM_ClusteredForward(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = 4096, k = 400, m = 64;
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  Tensor x, w;
  SetupRedundant(&x, &w, n, k, m);
  auto families = BlockLshFamilies::Create(k, l, h, 11);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    ForwardReuseResult result =
        ClusteredMatmulForward(*families, x.data(), n, w, nullptr, n,
                               nullptr);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
void ClusteredForwardArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "L", "H"});
  for (const auto shape :
       {std::array<int64_t, 2>{400, 8}, std::array<int64_t, 2>{100, 8},
        std::array<int64_t, 2>{25, 12}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1]});
    }
  }
}
BENCHMARK(BM_ClusteredForward)->Apply(ClusteredForwardArgs);

// The glue layers after conv1 at its output shape [16, 32, 32, 32]:
// ReLU, then 2x2 / stride-2 max pooling. training = 1 also records what
// Backward reads (the ReLU mask, the pool's window codes).
Tensor Conv1Output() {
  Rng rng(6);
  return Tensor::RandomGaussian(Shape({16, 32, 32, 32}), &rng);
}

void GlueArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "training"});
  for (const int64_t training : {0, 1}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, training});
    }
  }
}

void BM_ReluForward(benchmark::State& state) {
  SetupThreads(state);
  const bool training = state.range(1) != 0;
  const Tensor x = Conv1Output();
  Relu relu("relu");
  for (auto _ : state) {
    Tensor y = relu.Forward(x, training);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.num_elements());
}
BENCHMARK(BM_ReluForward)->Apply(GlueArgs);

void BM_MaxPoolForward(benchmark::State& state) {
  SetupThreads(state);
  const bool training = state.range(1) != 0;
  const Tensor x = Conv1Output();
  MaxPool2d pool("pool", PoolConfig{2, 2});
  for (auto _ : state) {
    Tensor y = pool.Forward(x, training);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.num_elements());
}
BENCHMARK(BM_MaxPoolForward)->Apply(GlueArgs);

}  // namespace
}  // namespace adr

int main(int argc, char** argv) {
  return adr::bench::RunBenchmarksWithJson(argc, argv, "micro_kernels");
}
