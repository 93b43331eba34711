// Parameterized property sweeps over layer geometries: Conv2d against a
// direct convolution reference, pooling round trips, and ReuseConv2d
// shape/consistency invariants across configurations.

#include <tuple>

#include <gtest/gtest.h>

#include "core/reuse_conv2d.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

// Direct (non-im2col) convolution used as an independent reference.
Tensor DirectConvolution(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dConfig& config) {
  const int64_t batch = input.shape()[0];
  const int64_t oh =
      (config.in_height + 2 * config.pad - config.kernel) / config.stride + 1;
  const int64_t ow =
      (config.in_width + 2 * config.pad - config.kernel) / config.stride + 1;
  Tensor out(Shape({batch, config.out_channels, oh, ow}));
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t m = 0; m < config.out_channels; ++m) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = bias.at(m);
          for (int64_t c = 0; c < config.in_channels; ++c) {
            for (int64_t ky = 0; ky < config.kernel; ++ky) {
              const int64_t y = oy * config.stride + ky - config.pad;
              if (y < 0 || y >= config.in_height) continue;
              for (int64_t kx = 0; kx < config.kernel; ++kx) {
                const int64_t x = ox * config.stride + kx - config.pad;
                if (x < 0 || x >= config.in_width) continue;
                // Weight row index in the K x M layout.
                const int64_t k_index =
                    (c * config.kernel + ky) * config.kernel + kx;
                acc += static_cast<double>(input.at4(n, c, y, x)) *
                       weight.at(k_index, m);
              }
            }
          }
          out.at4(n, m, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

class ConvGeometrySweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, int64_t>> {
};

TEST_P(ConvGeometrySweep, Im2ColConvMatchesDirectConv) {
  const auto [in_channels, out_channels, size, kernel, stride, pad] =
      GetParam();
  Conv2dConfig config;
  config.in_channels = in_channels;
  config.out_channels = out_channels;
  config.kernel = kernel;
  config.stride = stride;
  config.pad = pad;
  config.in_height = size;
  config.in_width = size;

  Rng rng(101);
  Conv2d conv("conv", config, &rng);
  Rng data_rng(202);
  Tensor input = Tensor::RandomGaussian(
      Shape({2, in_channels, size, size}), &data_rng);
  Tensor bias_copy = Tensor::RandomGaussian(
      Shape({out_channels}), &data_rng);
  conv.bias() = bias_copy;

  const Tensor expected =
      DirectConvolution(input, conv.weight(), bias_copy, config);
  const Tensor actual = conv.Forward(input, false);
  EXPECT_TRUE(AllClose(actual, expected, 1e-3f, 1e-4f))
      << "geometry: c=" << in_channels << " m=" << out_channels
      << " size=" << size << " k=" << kernel << " s=" << stride
      << " p=" << pad;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometrySweep,
    ::testing::Values(std::make_tuple(1, 1, 5, 3, 1, 0),
                      std::make_tuple(3, 8, 8, 3, 1, 1),
                      std::make_tuple(2, 4, 9, 3, 2, 0),
                      std::make_tuple(4, 2, 7, 1, 1, 0),
                      std::make_tuple(3, 6, 11, 5, 2, 1),
                      std::make_tuple(1, 16, 12, 4, 4, 0),
                      std::make_tuple(8, 8, 6, 3, 1, 1)));

class ReuseShapeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int>> {};

TEST_P(ReuseShapeSweep, ForwardBackwardShapesHold) {
  const auto [l, h] = GetParam();
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 6;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = l;
  reuse.num_hashes = h;
  Rng rng(7);
  ReuseConv2d layer("conv", config, reuse, &rng);
  Rng data_rng(8);
  Tensor input = Tensor::RandomGaussian(Shape({2, 3, 8, 8}), &data_rng);
  Tensor out = layer.Forward(input, true);
  EXPECT_EQ(out.shape(), Shape({2, 6, 8, 8}));
  Tensor grad = Tensor::RandomGaussian(out.shape(), &data_rng);
  Tensor gin = layer.Backward(grad);
  EXPECT_EQ(gin.shape(), input.shape());
  // Bias gradient is exact regardless of {L, H}.
  Tensor dy_rows(Shape({2 * 8 * 8, 6}));
  NchwToRows(grad, dy_rows.data());
  EXPECT_TRUE(AllClose(*layer.Gradients()[1], ColumnSums(dy_rows), 1e-4f,
                       1e-5f));
  // r_c bounded.
  EXPECT_GT(layer.stats().avg_remaining_ratio, 0.0);
  EXPECT_LE(layer.stats().avg_remaining_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReuseShapeSweep,
    ::testing::Values(std::make_tuple(0, 4), std::make_tuple(0, 32),
                      std::make_tuple(27, 8), std::make_tuple(9, 8),
                      std::make_tuple(3, 16), std::make_tuple(5, 2),
                      std::make_tuple(1, 1)));

class PoolSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(PoolSweep, MaxPoolGradientSumsPreserved) {
  const auto [kernel, stride] = GetParam();
  MaxPool2d pool("pool", PoolConfig{kernel, stride});
  Rng rng(9);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 12, 12}), &rng);
  Tensor out = pool.Forward(in, true);
  Tensor grad = Tensor::Ones(out.shape());
  Tensor gin = pool.Backward(grad);
  // Every unit of output gradient lands on exactly one input element.
  EXPECT_DOUBLE_EQ(Sum(gin), static_cast<double>(out.num_elements()));
}

INSTANTIATE_TEST_SUITE_P(Kernels, PoolSweep,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(3, 2),
                                           std::make_tuple(3, 3),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(2, 1)));

}  // namespace
}  // namespace adr
