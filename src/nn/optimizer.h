// First-order optimizers over (parameter, gradient) pairs.

#ifndef ADR_NN_OPTIMIZER_H_
#define ADR_NN_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace adr {

/// \brief Abstract optimizer; Step applies one update given matched
/// parameter and gradient lists (the same lists every call).
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;
  virtual void Step(const std::vector<Tensor*>& params,
                    const std::vector<Tensor*>& grads) = 0;

  void set_learning_rate(float lr) { learning_rate_ = lr; }
  float learning_rate() const { return learning_rate_; }

 protected:
  explicit Optimizer(float learning_rate) : learning_rate_(learning_rate) {}

  float learning_rate_;
};

/// \brief SGD with classical momentum: v = mu*v - lr*g; p += v.
class MomentumSgd : public Optimizer {
 public:
  MomentumSgd(float learning_rate, float momentum)
      : Optimizer(learning_rate), momentum_(momentum) {}
  std::string name() const override { return "momentum"; }
  void Step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads) override;

 private:
  float momentum_;
  std::vector<Tensor> velocity_;
};

/// \brief Adam (Kingma & Ba 2014), with bias correction.
class Adam : public Optimizer {
 public:
  explicit Adam(float learning_rate, float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f)
      : Optimizer(learning_rate),
        beta1_(beta1),
        beta2_(beta2),
        epsilon_(epsilon) {}
  std::string name() const override { return "adam"; }
  void Step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads) override;

 private:
  float beta1_, beta2_, epsilon_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace adr

#endif  // ADR_NN_OPTIMIZER_H_
