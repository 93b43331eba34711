#include "nn/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace adr {

void MomentumSgd::Step(const std::vector<Tensor*>& params,
                       const std::vector<Tensor*>& grads) {
  ADR_CHECK_EQ(params.size(), grads.size());
  if (velocity_.empty()) {
    velocity_.reserve(params.size());
    for (const Tensor* p : params) velocity_.emplace_back(p->shape());
  }
  ADR_CHECK_EQ(velocity_.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = grads[i]->data();
    float* v = velocity_[i].data();
    const int64_t n = params[i]->num_elements();
    for (int64_t j = 0; j < n; ++j) {
      v[j] = momentum_ * v[j] - learning_rate_ * g[j];
      p[j] += v[j];
    }
  }
}

void Adam::Step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  ADR_CHECK_EQ(params.size(), grads.size());
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const Tensor* p : params) {
      m_.emplace_back(p->shape());
      v_.emplace_back(p->shape());
    }
  }
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const float step = static_cast<float>(
      static_cast<double>(learning_rate_) * std::sqrt(bias2) / bias1);
  for (size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = grads[i]->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = params[i]->num_elements();
    for (int64_t j = 0; j < n; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      p[j] -= step * m[j] / (std::sqrt(v[j]) + epsilon_);
    }
  }
}

}  // namespace adr
