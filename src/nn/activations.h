// Elementwise activation layers.

#ifndef ADR_NN_ACTIVATIONS_H_
#define ADR_NN_ACTIVATIONS_H_

#include <string>

#include "nn/layer.h"

namespace adr {

/// \brief Rectified linear unit, y = x > 0 ? x : +0 (simd::Kernels::relu).
/// Only a training-mode Forward keeps the mask Backward needs.
class Relu : public Layer {
 public:
  explicit Relu(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  std::string name_;
  Tensor mask_;  ///< 1 where input > 0, else 0; kept across steps
  bool has_mask_ = false;  ///< the last Forward was in training mode
};

/// \brief Hyperbolic tangent.
class Tanh : public Layer {
 public:
  explicit Tanh(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  std::string name_;
  Tensor output_;  ///< cached tanh(x)
};

}  // namespace adr

#endif  // ADR_NN_ACTIVATIONS_H_
