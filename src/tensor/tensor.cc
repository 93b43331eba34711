#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace adr {

namespace {

void CopyFloats(const float* from, size_t n, float* to) {
  if (n > 0) std::memcpy(to, from, n * sizeof(float));
}

}  // namespace

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(std::move(shape), UninitializedTag{}) {
  ADR_CHECK_EQ(static_cast<int64_t>(data.size()), shape_.num_elements())
      << "data size does not match shape " << shape_.ToString();
  CopyFloats(data.data(), data.size(), data_.data());
}

Tensor::Tensor(const Tensor& other)
    : Tensor(other.shape_, UninitializedTag{}) {
  CopyFloats(other.data_.data(), other.data_.size(), data_.data());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  // Emptied first, so a reallocation copies nothing.
  data_.clear();
  data_.resize(other.data_.size());
  CopyFloats(other.data_.data(), other.data_.size(), data_.data());
  return *this;
}

Tensor Tensor::Uninitialized(Shape shape) {
  return Tensor(std::move(shape), UninitializedTag{});
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
  Tensor t(*this);
  t.shape_ = std::move(new_shape);
  return t;
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
