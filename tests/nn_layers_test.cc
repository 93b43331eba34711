// Layer tests: shapes, known values, and finite-difference gradient checks.

#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/gradient_check.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu("relu");
  Tensor in(Shape({4}), {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor out = relu.Forward(in, false);
  EXPECT_EQ(out.at(0), 0.0f);
  EXPECT_EQ(out.at(1), 0.0f);
  EXPECT_EQ(out.at(2), 2.0f);
  EXPECT_EQ(out.at(3), 0.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  Relu relu("relu");
  Tensor in(Shape({3}), {-1.0f, 1.0f, 2.0f});
  relu.Forward(in, true);
  Tensor grad(Shape({3}), {5.0f, 5.0f, 5.0f});
  Tensor gin = relu.Backward(grad);
  EXPECT_EQ(gin.at(0), 0.0f);
  EXPECT_EQ(gin.at(1), 5.0f);
  EXPECT_EQ(gin.at(2), 5.0f);
}

TEST(TanhTest, GradientCheck) {
  Tanh tanh_layer("tanh");
  Rng rng(1);
  Tensor in = Tensor::RandomGaussian(Shape({2, 5}), &rng);
  testutil::CheckGradients(&tanh_layer, in);
}

TEST(Conv2dTest, OutputShape) {
  Rng rng(2);
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 6;
  config.in_width = 6;
  Conv2d conv("conv", config, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 6, 6}), &rng);
  Tensor out = conv.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({2, 8, 6, 6}));
}

TEST(Conv2dTest, KnownConvolution) {
  // 1-channel 3x3 input, single 2x2 all-ones filter, no pad.
  Rng rng(3);
  Conv2dConfig config;
  config.in_channels = 1;
  config.out_channels = 1;
  config.kernel = 2;
  config.in_height = 3;
  config.in_width = 3;
  Conv2d conv("conv", config, &rng);
  conv.weight().Fill(1.0f);
  conv.bias().Fill(0.5f);
  Tensor in(Shape({1, 1, 3, 3}), {0, 1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out = conv.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 0 + 1 + 3 + 4 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(3), 4 + 5 + 7 + 8 + 0.5f);
}

TEST(Conv2dTest, GradientCheck) {
  Rng rng(4);
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 3;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 5;
  config.in_width = 5;
  Conv2d conv("conv", config, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 5, 5}), &rng);
  testutil::CheckGradients(&conv, in, /*tolerance=*/5e-2, /*epsilon=*/1e-3f,
                           /*seed=*/7, /*training=*/true);
}

TEST(Conv2dTest, StridedGradientCheck) {
  Rng rng(5);
  Conv2dConfig config;
  config.in_channels = 1;
  config.out_channels = 2;
  config.kernel = 3;
  config.stride = 2;
  config.pad = 0;
  config.in_height = 7;
  config.in_width = 7;
  Conv2d conv("conv", config, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({1, 1, 7, 7}), &rng);
  testutil::CheckGradients(&conv, in, /*tolerance=*/5e-2, /*epsilon=*/1e-3f,
                           /*seed=*/7, /*training=*/true);
}

TEST(Conv2dTest, ForwardMacs) {
  Rng rng(6);
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 4;
  config.kernel = 5;
  config.pad = 2;
  config.in_height = 8;
  config.in_width = 8;
  Conv2d conv("conv", config, &rng);
  // N = 2*8*8 = 128, K = 75, M = 4.
  EXPECT_DOUBLE_EQ(conv.ForwardMacs(2), 128.0 * 75.0 * 4.0);
}

TEST(RowsToNchwTest, RoundTrip) {
  Rng rng(7);
  Tensor nchw = Tensor::RandomGaussian(Shape({2, 3, 4, 5}), &rng);
  Tensor rows = NchwToRows(nchw);
  EXPECT_EQ(rows.shape(), Shape({2 * 4 * 5, 3}));
  Tensor back = RowsToNchw(rows, 2, 3, 4, 5);
  EXPECT_EQ(MaxAbsDiff(back, nchw), 0.0f);
}

TEST(MaxPoolTest, ForwardPicksMaxima) {
  MaxPool2d pool("pool", PoolConfig{2, 2});
  Tensor in(Shape({1, 1, 2, 4}), {1, 5, 2, 0, 3, 4, 8, 1});
  Tensor out = pool.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 2}));
  EXPECT_EQ(out.at(0), 5.0f);
  EXPECT_EQ(out.at(1), 8.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool("pool", PoolConfig{2, 2});
  Tensor in(Shape({1, 1, 2, 2}), {1, 5, 3, 4});
  pool.Forward(in, true);
  Tensor grad(Shape({1, 1, 1, 1}), {7.0f});
  Tensor gin = pool.Backward(grad);
  EXPECT_EQ(gin.at(0), 0.0f);
  EXPECT_EQ(gin.at(1), 7.0f);  // the max was at index 1
  EXPECT_EQ(gin.at(2), 0.0f);
  EXPECT_EQ(gin.at(3), 0.0f);
}

TEST(MaxPoolTest, OverlappingWindows) {
  MaxPool2d pool("pool", PoolConfig{3, 2});
  Rng rng(8);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 7, 7}), &rng);
  Tensor out = pool.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 2, 3, 3}));
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.num_elements()) * sizeof(float)) ==
             0;
}

// Inputs with NaN, signed zeros, infinities and ties mixed into Gaussian
// noise.
Tensor SpecialInput(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::RandomGaussian(shape, &rng);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                            -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 1.0f};
  for (int64_t i = 0; i < t.num_elements(); i += 3) {
    t.at(i) = specials[(i / 3) % 6];
  }
  return t;
}

TEST(GlueLayersTest, EvalAndTrainingForwardsAgreeBitwise) {
  const Tensor in = SpecialInput(Shape({2, 3, 9, 12}), 21);
  Relu relu("relu");
  EXPECT_TRUE(SameBits(relu.Forward(in, false), relu.Forward(in, true)));
  for (const PoolConfig config : {PoolConfig{2, 2}, PoolConfig{3, 2}}) {
    MaxPool2d pool("pool", config);
    EXPECT_TRUE(SameBits(pool.Forward(in, false), pool.Forward(in, true)))
        << "kernel " << config.kernel << " stride " << config.stride;
  }
}

TEST(GlueLayersTest, BackwardRequiresTrainingForward) {
  const Tensor in = SpecialInput(Shape({1, 2, 4, 4}), 22);
  Relu relu("relu");
  relu.Forward(in, false);
  EXPECT_DEATH(relu.Backward(Tensor::Ones(in.shape())), "training-mode");
  MaxPool2d pool("pool", PoolConfig{2, 2});
  const Tensor out = pool.Forward(in, false);
  EXPECT_DEATH(pool.Backward(Tensor::Ones(out.shape())), "training-mode");
}

// A window of NaN or -inf has no strict maximum: its output is -inf and
// its gradient goes to the window's own first element, never to element 0
// of the batch.
TEST(MaxPoolTest, WindowWithoutMaximumKeepsGradientInside) {
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  for (const PoolConfig config :
       {PoolConfig{2, 2}, PoolConfig{3, 2}, PoolConfig{3, 3}}) {
    Rng rng(23);
    const Shape shape({2, 2, 7, 7});
    Tensor in = Tensor::RandomGaussian(shape, &rng);
    // Image 1, channel 1: output (0, 0)'s window all NaN, output (1, 1)'s
    // window all -inf.
    const int64_t k = config.kernel, s = config.stride;
    for (int64_t y = 0; y < k; ++y) {
      for (int64_t x = 0; x < k; ++x) {
        in.at4(1, 1, y, x) = kNan;
        in.at4(1, 1, s + y, s + x) = -kInf;
      }
    }
    MaxPool2d pool("pool", config);
    const Tensor out = pool.Forward(in, true);
    // The -inf window overlaps the NaN one when stride < kernel; then
    // neither window holds a finite value.
    EXPECT_EQ(out.at4(1, 1, 0, 0), -kInf);
    EXPECT_EQ(out.at4(1, 1, 1, 1), -kInf);

    for (const auto& [oy, ox] : {std::pair<int64_t, int64_t>{0, 0}, {1, 1}}) {
      Tensor grad(out.shape());
      grad.at4(1, 1, oy, ox) = 5.0f;
      const Tensor gin = pool.Backward(grad);
      ASSERT_EQ(gin.shape(), shape);
      EXPECT_EQ(gin.at4(1, 1, oy * s, ox * s), 5.0f)
          << "kernel " << k << " stride " << s << " output " << oy << ","
          << ox;
      EXPECT_DOUBLE_EQ(Sum(gin), 5.0);
      EXPECT_EQ(gin.at(0), 0.0f);
    }
  }
}

// The pool sweep and the gradient checks of the glue layers, once per
// SIMD backend available here.
TEST(GlueLayersTest, PoolSweepAndGradientChecksOnEveryBackend) {
  for (const simd::Kernels* backend : simd::AllAvailable()) {
    simd::ScopedKernelsOverride use(*backend);
    SCOPED_TRACE(backend->name);
    for (const auto& [kernel, stride] :
         {std::tuple<int64_t, int64_t>{2, 2}, {3, 2}, {3, 3}, {4, 4},
          {2, 1}}) {
      MaxPool2d pool("pool", PoolConfig{kernel, stride});
      Rng rng(9);
      Tensor in = Tensor::RandomGaussian(Shape({2, 3, 12, 12}), &rng);
      Tensor out = pool.Forward(in, true);
      Tensor gin = pool.Backward(Tensor::Ones(out.shape()));
      EXPECT_DOUBLE_EQ(Sum(gin), static_cast<double>(out.num_elements()))
          << "kernel " << kernel << " stride " << stride;
    }
    Rng rng(24);
    Relu relu("relu");
    testutil::CheckGradients(
        &relu, Tensor::RandomGaussian(Shape({2, 3, 5, 7}), &rng),
        /*tolerance=*/5e-2, /*epsilon=*/1e-3f, /*seed=*/7, /*training=*/true);
    for (const PoolConfig config : {PoolConfig{2, 2}, PoolConfig{3, 2}}) {
      MaxPool2d pool("pool", config);
      testutil::CheckGradients(
          &pool, Tensor::RandomGaussian(Shape({2, 2, 7, 9}), &rng),
          /*tolerance=*/5e-2, /*epsilon=*/1e-3f, /*seed=*/7,
          /*training=*/true);
    }
  }
}

TEST(DenseTest, ForwardKnownValues) {
  Rng rng(9);
  Dense dense("fc", 2, 2, &rng);
  std::vector<Tensor*> params = dense.Parameters();
  *params[0] = Tensor(Shape({2, 2}), {1, 2, 3, 4});  // W
  *params[1] = Tensor(Shape({2}), {10, 20});         // b
  Tensor in(Shape({1, 2}), {1, 1});
  Tensor out = dense.Forward(in, false);
  EXPECT_FLOAT_EQ(out.at(0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(out.at(1), 2 + 4 + 20);
}

TEST(DenseTest, GradientCheck) {
  Rng rng(10);
  Dense dense("fc", 6, 4, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({3, 6}), &rng);
  testutil::CheckGradients(&dense, in);
}

TEST(FlattenTest, RoundTrip) {
  Flatten flatten("flatten");
  Rng rng(11);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 4, 4}), &rng);
  Tensor out = flatten.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({2, 48}));
  Tensor back = flatten.Backward(out);
  EXPECT_EQ(back.shape(), in.shape());
  EXPECT_EQ(MaxAbsDiff(back, in), 0.0f);
}

}  // namespace
}  // namespace adr
