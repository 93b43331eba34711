#include "nn/pooling.h"

#include <limits>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Output spatial size of pooling without padding; allows a partial final
// window when the input is not evenly tiled (matches common "valid + ceil"
// behaviour closely enough for our networks, which are sized to tile).
int64_t PooledSize(int64_t in, int64_t kernel, int64_t stride) {
  ADR_CHECK_GE(in, kernel);
  return (in - kernel) / stride + 1;
}

}  // namespace

Tensor MaxPool2d::Forward(const Tensor& input, bool training) {
  ADR_CHECK_EQ(input.shape().rank(), 4);
  input_shape_ = input.shape();
  trained_ = training;
  const int64_t batch = input.shape()[0], channels = input.shape()[1];
  const int64_t ih = input.shape()[2], iw = input.shape()[3];
  const int64_t oh = PooledSize(ih, config_.kernel, config_.stride);
  const int64_t ow = PooledSize(iw, config_.kernel, config_.stride);

  Tensor out = Tensor::Uninitialized(Shape({batch, channels, oh, ow}));
  const float* src = input.data();
  float* dst = out.data();
  const int64_t planes = batch * channels;
  const int64_t plane_in = ih * iw;
  const int64_t plane_out = oh * ow;
  const size_t outputs = static_cast<size_t>(out.num_elements());

  if (Is2x2Stride2()) {
    if (training) codes_.resize(outputs);
    uint8_t* codes = training ? codes_.data() : nullptr;
    const simd::Kernels& kernels = simd::Active();
    ParallelFor(planes, GrainForCost(plane_in),
                [&](int64_t begin, int64_t end) {
                  kernels.max_pool_2x2(
                      src + begin * plane_in, end - begin, ih, iw,
                      dst + begin * plane_out,
                      codes == nullptr ? nullptr : codes + begin * plane_out);
                });
    return out;
  }

  ADR_CHECK_LE(plane_in, std::numeric_limits<int32_t>::max());
  if (training) argmax_.resize(outputs);
  int32_t* argmax = training ? argmax_.data() : nullptr;
  const int64_t k = config_.kernel, stride = config_.stride;
  ParallelFor(planes, GrainForCost(plane_out * k * k), [&](int64_t begin,
                                                          int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      const float* plane = src + p * plane_in;
      for (int64_t o = p * plane_out, oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++o) {
          float best = -std::numeric_limits<float>::infinity();
          // Seeded with the window's first element, so a window without a
          // winner (all NaN or -inf) keeps its gradient inside itself.
          int64_t best_idx = oy * stride * iw + ox * stride;
          for (int64_t y = oy * stride; y < oy * stride + k; ++y) {
            for (int64_t x = ox * stride; x < ox * stride + k; ++x) {
              const float v = plane[y * iw + x];
              if (v > best) {
                best = v;
                best_idx = y * iw + x;
              }
            }
          }
          dst[o] = best;
          if (argmax != nullptr) argmax[o] = static_cast<int32_t>(best_idx);
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  ADR_CHECK(trained_) << "Backward requires a preceding training-mode "
                         "Forward";
  const int64_t batch = input_shape_[0], channels = input_shape_[1];
  const int64_t ih = input_shape_[2], iw = input_shape_[3];
  const int64_t oh = PooledSize(ih, config_.kernel, config_.stride);
  const int64_t ow = PooledSize(iw, config_.kernel, config_.stride);
  ADR_CHECK(grad_output.shape() == Shape({batch, channels, oh, ow}))
      << "Backward before Forward";
  const int64_t planes = batch * channels;
  const int64_t plane_in = ih * iw;
  const int64_t plane_out = oh * ow;
  const float* src = grad_output.data();

  if (Is2x2Stride2()) {
    // Windows tile the input, so one dense pass writes every element.
    Tensor grad_input = Tensor::Uninitialized(input_shape_);
    float* dst = grad_input.data();
    const uint8_t* codes = codes_.data();
    const simd::Kernels& kernels = simd::Active();
    ParallelFor(planes, GrainForCost(plane_in),
                [&](int64_t begin, int64_t end) {
                  kernels.max_pool_2x2_backward(
                      src + begin * plane_out, codes + begin * plane_out,
                      end - begin, ih, iw, dst + begin * plane_in);
                });
    return grad_input;
  }

  // Windows may overlap: scatter-add into a zeroed gradient.
  Tensor grad_input(input_shape_);
  float* dst = grad_input.data();
  ParallelFor(planes, GrainForCost(plane_out), [&](int64_t begin,
                                                   int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      float* plane = dst + p * plane_in;
      for (int64_t o = p * plane_out; o < (p + 1) * plane_out; ++o) {
        plane[argmax_[static_cast<size_t>(o)]] += src[o];
      }
    }
  });
  return grad_input;
}

}  // namespace adr
