// Spatial pooling layers over NCHW tensors.

#ifndef ADR_NN_POOLING_H_
#define ADR_NN_POOLING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace adr {

struct PoolConfig {
  int64_t kernel = 2;
  int64_t stride = 2;
};

/// \brief Max pooling. A window's elements are scanned in row-major order
/// and the first strict maximum wins; NaN never wins, and a window of NaN
/// or -inf outputs -inf and routes its gradient to its first element.
/// 2x2 / stride-2 pooling runs simd::Kernels::max_pool_2x2 and its
/// backward; other windows run a generic loop. Only a training-mode
/// Forward records the winners Backward needs.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, const PoolConfig& config)
      : name_(std::move(name)), config_(config) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  std::string name_;
  PoolConfig config_;
  Shape input_shape_;
  bool trained_ = false;  ///< the last Forward was in training mode
  /// 2x2 / stride 2: the winner's window element (0..3) per output.
  std::vector<uint8_t> codes_;
  /// Other windows: the winner's index within its input plane per output.
  std::vector<int32_t> argmax_;

  bool Is2x2Stride2() const {
    return config_.kernel == 2 && config_.stride == 2;
  }
};

}  // namespace adr

#endif  // ADR_NN_POOLING_H_
