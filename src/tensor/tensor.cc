#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>

namespace adr {

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  ADR_CHECK_EQ(static_cast<int64_t>(data_.size()), shape_.num_elements())
      << "data size does not match shape " << shape_.ToString();
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::RandomGaussian(Shape shape, Rng* rng, float mean,
                              float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.at(i) = rng->NextGaussian(mean, stddev);
  }
  return t;
}

Tensor Tensor::RandomUniform(Shape shape, Rng* rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.at(i) = rng->NextUniform(lo, hi);
  }
  return t;
}

float& Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) {
  ADR_DCHECK(shape_.rank() == 4);
  const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
  return data_[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
}

float Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
  ADR_DCHECK(shape_.rank() == 4);
  const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
  return data_[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  ADR_CHECK_EQ(new_shape.num_elements(), num_elements())
      << "reshape to " << new_shape.ToString() << " from "
      << shape_.ToString();
  return Tensor(std::move(new_shape), data_);
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << shape_.ToString() << " {";
  const int64_t n = std::min(max_elements, num_elements());
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (n < num_elements()) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace adr
