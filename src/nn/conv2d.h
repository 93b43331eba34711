// Conv2d: im2col + GEMM convolution, the baseline that deep reuse
// accelerates. Weight layout is the paper's: W is K x M with
// K = Ic*kh*kw and M = out_channels, so y = x_unfolded * W + b.

#ifndef ADR_NN_CONV2D_H_
#define ADR_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"
#include "util/rng.h"

namespace adr {

/// \brief Spatial configuration of a conv layer (geometry minus batch size).
struct Conv2dConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 0;  ///< square kernel, kh == kw
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t in_height = 0;  ///< expected input spatial size
  int64_t in_width = 0;

  /// \brief Geometry for the given batch size.
  ConvGeometry Geometry(int64_t batch) const;
};

/// \brief Converts GEMM-output rows [N, M] (row order n, oy, ox) to a
/// [Nb, M, Oh, Ow] tensor; `out` holds batch*channels*height*width floats
/// and is fully overwritten.
void RowsToNchw(const float* rows, int64_t batch, int64_t channels,
                int64_t height, int64_t width, float* out);

/// \brief Inverse of RowsToNchw, into a caller-owned [N, M] buffer (fully
/// overwritten).
void NchwToRows(const Tensor& nchw, float* out);

/// \brief The exact im2col + GEMM convolution forward: writes the output
/// rows y = unfold(input) * weight + bias into `y` (N x M, overwritten)
/// and returns them as [batch, M, Oh, Ow].
///
/// When `cols` is non-null, all N x K unfolded rows are written there for
/// ExactConvBackward; otherwise L2TileRows-sized tiles stream through
/// `arena` scratch and the N x K matrix never exists. Rows are independent
/// in both im2col and the GEMM, so the two give the same bits.
Tensor ExactConvForward(const ConvGeometry& geo, const Tensor& input,
                        const Tensor& weight, const Tensor& bias, float* cols,
                        float* y, WorkspaceArena* arena);

/// \brief The exact backward from the unfolded input `cols` (N x K) that
/// ExactConvForward filled: overwrites `grad_weight` = cols^T * dy
/// (Eq. 2) and `grad_bias` = column sums of dy, and, when `grad_input` is
/// not null, sets it to the NCHW input gradient col2im(dy * weight^T)
/// (Eq. 3). Scratch comes from `arena`.
void ExactConvBackward(const ConvGeometry& geo, const float* cols,
                       const Tensor& weight, const Tensor& grad_output,
                       WorkspaceArena* arena, Tensor* grad_weight,
                       Tensor* grad_bias, Tensor* grad_input);

/// \brief Standard convolution layer.
class Conv2d : public Layer {
 public:
  Conv2d(std::string name, const Conv2dConfig& config, Rng* rng);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParameters(const Tensor& grad_output) override;
  std::vector<Tensor*> Parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  double ForwardMacs(int64_t batch) const override;

  const Conv2dConfig& config() const { return config_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

  /// \brief Step-scoped scratch arena (see WorkspaceArena); constant
  /// reserved_bytes()/alloc_slabs() after the first step at fixed shapes.
  const WorkspaceArena& workspace() const { return arena_; }

 private:
  std::string name_;
  Conv2dConfig config_;
  Tensor weight_;       ///< [K, M]
  Tensor bias_;         ///< [M]
  Tensor grad_weight_;  ///< [K, M]
  Tensor grad_bias_;    ///< [M]
  /// Step-scoped scratch; Reset() at the top of every Forward.
  WorkspaceArena arena_;
  /// Unfolded input kept for Backward — persistent across steps and only
  /// filled in training mode; eval streams L2-sized tiles instead.
  Tensor cached_cols_;
  int64_t cached_batch_ = 0;
};

}  // namespace adr

#endif  // ADR_NN_CONV2D_H_
