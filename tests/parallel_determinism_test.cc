// Bitwise determinism of the parallel kernels: the same inputs must give
// bit-identical results with 1, 2, and 8 worker threads. This is the
// contract that makes the thread count a pure performance knob — training
// runs are reproducible on any machine.

#include <gtest/gtest.h>

#include <vector>

#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "core/subvector_clustering_reference.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tests/clustering_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ThreadPool::GlobalThreads()) {}
  ~ThreadCountGuard() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what,
                        int threads) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    ASSERT_EQ(pa[i], pb[i])
        << what << " differs at " << i << " with " << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, GemmBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // {rows, depth, cols} of a conv layer's im2col GEMMs: a shape with
  // remainders in every dimension, then CifarNet's conv2.
  constexpr int64_t kShapes[][3] = {{300, 123, 77}, {4096, 800, 32}};
  const char* names[] = {"Gemm", "GemmTransA", "GemmTransB"};
  for (const auto& shape : kShapes) {
    const int64_t n = shape[0], k = shape[1], m = shape[2];
    SCOPED_TRACE(::testing::Message() << n << "x" << k << "x" << m);
    Rng rng(31);
    Tensor x = Tensor::RandomGaussian(Shape({n, k}), &rng);
    Tensor w = Tensor::RandomGaussian(Shape({k, m}), &rng);
    Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);
    // The forward, dW = x^T dy and dX = dy W^T, as Conv2d runs them.
    const auto run = [&] {
      std::vector<Tensor> out = {Tensor(Shape({n, m})), Tensor(Shape({k, m})),
                                 Tensor(Shape({n, k}))};
      Gemm(x.data(), w.data(), out[0].data(), n, k, m);
      GemmTransA(x.data(), dy.data(), out[1].data(), k, n, m);
      GemmTransB(dy.data(), w.data(), out[2].data(), n, m, k);
      return out;
    };
    ThreadPool::SetGlobalThreads(1);
    const std::vector<Tensor> reference = run();
    for (const int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      const std::vector<Tensor> got = run();
      for (size_t i = 0; i < got.size(); ++i) {
        ExpectBitIdentical(got[i], reference[i], names[i], threads);
      }
    }
  }
}

// Runs one forward + backward on a fresh, identically seeded layer and
// returns (output, grad_input, grad_weight, grad_bias).
std::vector<Tensor> RunReuseLayer(const Tensor& input,
                                  const Tensor& grad_out) {
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 8;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.in_height = 8;
  conv.in_width = 8;
  ReuseConfig reuse = ReuseConfigBuilder()
                          .SubVectorLength(9)
                          .NumHashes(10)
                          .ClusterReuse(true)
                          .BuildUnchecked();
  Rng rng(91);
  ReuseConv2d layer("conv", conv, reuse, &rng);

  std::vector<Tensor> result;
  result.push_back(layer.Forward(input, /*training=*/true));
  result.push_back(layer.Backward(grad_out));
  result.push_back(*layer.Gradients()[0]);
  result.push_back(*layer.Gradients()[1]);
  return result;
}

TEST(ParallelDeterminismTest, ReuseConv2dBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(47);
  Tensor input = Tensor::RandomGaussian(Shape({4, 3, 8, 8}), &rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({4, 8, 8, 8}), &rng);

  ThreadPool::SetGlobalThreads(1);
  const std::vector<Tensor> reference = RunReuseLayer(input, grad_out);
  const char* names[] = {"output", "grad_input", "grad_weight", "grad_bias"};

  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<Tensor> run = RunReuseLayer(input, grad_out);
    ASSERT_EQ(run.size(), reference.size());
    for (size_t i = 0; i < run.size(); ++i) {
      ExpectBitIdentical(run[i], reference[i], names[i], threads);
    }
  }
}

TEST(ParallelDeterminismTest, StreamingClustererBitIdenticalAcrossThreads) {
  // CifarNet conv2's shape at L = 10, H = 11: 80 blocks, each walked in
  // the forward's 256-row chunks. Every thread count must reproduce the
  // materialized reference bit for bit.
  ThreadCountGuard guard;
  const ConvGeometry geo = testutil::SameConvGeometry(16, 32, 16, 5);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const Tensor cols = testutil::SmoothUnfolded(geo, 35);
  auto families = BlockLshFamilies::Create(k, 10, 11, 23);
  ASSERT_TRUE(families.ok());
  const ReuseClustering oracle =
      ReferenceClusterSubVectors(*families, cols.data(), n, n);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ThreadPool::SetGlobalThreads(threads);
    StreamingSubVectorClusterer clusterer;
    // Two cycles: the second runs on the first one's buffers.
    for (int cycle = 0; cycle < 2; ++cycle) {
      const ReuseClustering& got = testutil::StreamClustering(
          *families, cols.data(), n, n,
          StreamingSubVectorClusterer::ChunkRows(
              StreamingSubVectorClusterer::ChunkStride(10)),
          &clusterer);
      testutil::ExpectSameClustering(got, oracle);
    }
  }
}

}  // namespace
}  // namespace adr
