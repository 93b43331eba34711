#include "nn/activations.h"

#include <cmath>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

Tensor Relu::Forward(const Tensor& input, bool training) {
  Tensor out = Tensor::Uninitialized(input.shape());
  has_mask_ = training;
  // The mask tensor persists across steps: at fixed shapes it is
  // allocated once.
  if (training && !mask_.SameShape(input)) {
    mask_ = Tensor::Uninitialized(input.shape());
  }
  const float* x = input.data();
  float* y = out.data();
  float* mask = training ? mask_.data() : nullptr;
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(input.num_elements(), GrainForCost(1),
              [&](int64_t begin, int64_t end) {
                kernels.relu(x + begin, y + begin,
                             mask == nullptr ? nullptr : mask + begin,
                             end - begin);
              });
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  ADR_CHECK(has_mask_) << "Backward requires a preceding training-mode "
                          "Forward";
  ADR_CHECK(grad_output.SameShape(mask_)) << "Backward before Forward";
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  const float* g = grad_output.data();
  const float* mask = mask_.data();
  float* dx = grad.data();
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(grad.num_elements(), GrainForCost(1),
              [&](int64_t begin, int64_t end) {
                kernels.mul(g + begin, mask + begin, dx + begin, end - begin);
              });
  return grad;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  output_ = input;
  float* o = output_.data();
  const int64_t n = output_.num_elements();
  for (int64_t i = 0; i < n; ++i) o[i] = std::tanh(o[i]);
  return output_;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  ADR_CHECK(grad_output.SameShape(output_)) << "Backward before Forward";
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* o = output_.data();
  const int64_t n = grad.num_elements();
  for (int64_t i = 0; i < n; ++i) g[i] *= 1.0f - o[i] * o[i];
  return grad;
}

}  // namespace adr
