#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

Tensor RowsToNchw(const Tensor& rows, int64_t batch, int64_t channels,
                  int64_t height, int64_t width) {
  ADR_CHECK(rows.shape() == Shape({batch * height * width, channels}));
  Tensor out(Shape({batch, channels, height, width}));
  RowsToNchw(rows.data(), batch, channels, height, width, out.data());
  return out;
}

void RowsToNchw(const float* rows, int64_t batch, int64_t channels,
                int64_t height, int64_t width, float* out) {
  // Per image, [hw, channels] -> [channels, hw] is a plain transpose.
  const int64_t hw = height * width;
  const simd::Kernels& kernels = simd::Active();
  for (int64_t n = 0; n < batch; ++n) {
    kernels.transpose(rows + n * hw * channels, channels, hw, channels,
                      out + n * channels * hw, hw);
  }
}

Tensor NchwToRows(const Tensor& nchw) {
  ADR_CHECK_EQ(nchw.shape().rank(), 4);
  const int64_t batch = nchw.shape()[0], channels = nchw.shape()[1];
  const int64_t height = nchw.shape()[2], width = nchw.shape()[3];
  Tensor out(Shape({batch * height * width, channels}));
  NchwToRows(nchw, out.data());
  return out;
}

void NchwToRows(const Tensor& nchw, float* out) {
  ADR_CHECK_EQ(nchw.shape().rank(), 4);
  const int64_t batch = nchw.shape()[0], channels = nchw.shape()[1];
  const int64_t height = nchw.shape()[2], width = nchw.shape()[3];
  const int64_t hw = height * width;
  const float* src = nchw.data();
  const simd::Kernels& kernels = simd::Active();
  for (int64_t n = 0; n < batch; ++n) {
    kernels.transpose(src + n * channels * hw, hw, channels, hw,
                      out + n * hw * channels, channels);
  }
}

ConvGeometry Conv2dConfig::Geometry(int64_t batch) const {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = in_channels;
  geo.in_height = in_height;
  geo.in_width = in_width;
  geo.kernel_h = kernel;
  geo.kernel_w = kernel;
  geo.stride = stride;
  geo.pad = pad;
  return geo;
}

Tensor ExactConvForward(const ConvGeometry& geo, const Tensor& input,
                        const Tensor& weight, const Tensor& bias, float* cols,
                        float* y, WorkspaceArena* arena) {
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = weight.shape()[1];
  ADR_CHECK(input.shape() ==
            Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}))
      << "conv input shape " << input.shape().ToString();

  if (cols != nullptr) {
    Im2Col(geo, input.data(), cols);
    Gemm(cols, weight.data(), y, n, k, m);
  } else {
    const int64_t tile_rows = L2TileRows(k);
    float* tile = arena->AllocFloats(tile_rows * k);
    for (int64_t row = 0; row < n; row += tile_rows) {
      const int64_t rows = std::min<int64_t>(tile_rows, n - row);
      ParallelFor(rows, 32, [&](int64_t begin, int64_t end) {
        Im2ColRows(geo, input.data(), row + begin, row + end,
                   tile + begin * k);
      });
      Gemm(tile, weight.data(), y + row * m, rows, k, m);
    }
  }

  AddRowBias(bias.data(), y, n, m);
  Tensor out = Tensor::Uninitialized(
      Shape({geo.batch, m, geo.out_height(), geo.out_width()}));
  RowsToNchw(y, geo.batch, m, geo.out_height(), geo.out_width(), out.data());
  return out;
}

void ExactConvBackward(const ConvGeometry& geo, const float* cols,
                       const Tensor& weight, const Tensor& grad_output,
                       WorkspaceArena* arena, Tensor* grad_weight,
                       Tensor* grad_bias, Tensor* grad_input) {
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = weight.shape()[1];
  ADR_CHECK(grad_output.shape() ==
            Shape({geo.batch, m, geo.out_height(), geo.out_width()}));
  float* dy = arena->AllocFloats(n * m);  // [N, M]
  NchwToRows(grad_output, dy);

  // dW = x^T * dy  (Eq. 2); db = column sums of dy.
  GemmTransA(cols, dy, grad_weight->data(), k, n, m);
  ColumnSumsInto(dy, n, m, grad_bias->data());
  if (grad_input == nullptr) return;

  // dx_cols = dy * W^T  (Eq. 3), folded back through col2im.
  float* dx_cols = arena->AllocFloats(n * k);
  GemmTransB(dy, weight.data(), dx_cols, n, m, k);
  *grad_input =
      Tensor(Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}));
  Col2Im(geo, dx_cols, grad_input->data());
}

Conv2d::Conv2d(std::string name, const Conv2dConfig& config, Rng* rng)
    : name_(std::move(name)), config_(config) {
  const int64_t k =
      config_.in_channels * config_.kernel * config_.kernel;
  const int64_t m = config_.out_channels;
  ADR_CHECK_GT(k, 0);
  ADR_CHECK_GT(m, 0);
  // He-normal initialization: stddev = sqrt(2 / fan_in).
  const float stddev = std::sqrt(2.0f / static_cast<float>(k));
  weight_ = Tensor::RandomGaussian(Shape({k, m}), rng, 0.0f, stddev);
  bias_ = Tensor(Shape({m}));
  grad_weight_ = Tensor(Shape({k, m}));
  grad_bias_ = Tensor(Shape({m}));
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  const int64_t batch = input.shape()[0];
  const ConvGeometry geo = config_.Geometry(batch);
  arena_.Reset();
  // y comes from the arena before cached_cols_ is (re)allocated: in the
  // other order glibc's adaptive mmap threshold left the train_dense
  // workload's peak RSS one conv2 N x K matrix (13 MB) higher.
  float* y = arena_.AllocFloats(geo.unfolded_rows() * config_.out_channels);
  if (!training) {
    // Inference needs no backward state: ExactConvForward streams tiles.
    cached_cols_ = Tensor();
    cached_batch_ = 0;
    return ExactConvForward(geo, input, weight_, bias_, nullptr, y, &arena_);
  }
  // Keep the full unfolded input for Backward. The tensor persists across
  // steps, so at fixed shapes it is allocated once.
  const Shape cols_shape({geo.unfolded_rows(), geo.unfolded_cols()});
  if (!(cached_cols_.shape() == cols_shape)) cached_cols_ = Tensor(cols_shape);
  cached_batch_ = batch;
  return ExactConvForward(geo, input, weight_, bias_, cached_cols_.data(), y,
                          &arena_);
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  ADR_CHECK_GT(cached_batch_, 0)
      << "Backward requires a preceding training-mode Forward";
  Tensor grad_input;
  ExactConvBackward(config_.Geometry(cached_batch_), cached_cols_.data(),
                    weight_, grad_output, &arena_, &grad_weight_, &grad_bias_,
                    &grad_input);
  return grad_input;
}

void Conv2d::BackwardParameters(const Tensor& grad_output) {
  ADR_CHECK_GT(cached_batch_, 0)
      << "Backward requires a preceding training-mode Forward";
  ExactConvBackward(config_.Geometry(cached_batch_), cached_cols_.data(),
                    weight_, grad_output, &arena_, &grad_weight_, &grad_bias_,
                    /*grad_input=*/nullptr);
}

double Conv2d::ForwardMacs(int64_t batch) const {
  const ConvGeometry geo = config_.Geometry(batch);
  return static_cast<double>(geo.unfolded_rows()) * geo.unfolded_cols() *
         config_.out_channels;
}

}  // namespace adr
