// Tensor: dense row-major float32 storage, the numeric substrate for the
// whole library. Kept deliberately simple: contiguous, owning, no views
// other than raw-pointer access; higher layers (im2col, GEMM) work on spans.

#ifndef ADR_TENSOR_TENSOR_H_
#define ADR_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "tensor/shape.h"
#include "util/check.h"
#include "util/rng.h"

namespace adr {

namespace detail {

/// \brief std::allocator whose value-less construct default-initializes,
/// so resizing a vector of floats leaves them unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// \brief Dense row-major float tensor with value semantics.
class Tensor {
 public:
  /// Constructs an empty (rank-0, single-element) tensor.
  Tensor() : shape_({}), data_(1, 0.0f) {}

  /// Constructs a zero-filled tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.num_elements()), 0.0f) {}

  Tensor(Shape shape, const std::vector<float>& data);

  // Copies move the floats with memcpy: the allocator's element-wise
  // construct would copy them one at a time.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// \brief Tensor of the given shape whose elements are left unwritten,
  /// for outputs a kernel overwrites in full.
  static Tensor Uninitialized(Shape shape);

  /// \brief Tensor filled with a constant.
  static Tensor Full(Shape shape, float value);
  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

  /// \brief I.i.d. N(mean, stddev^2) entries drawn from `rng`.
  static Tensor RandomGaussian(Shape shape, Rng* rng, float mean = 0.0f,
                               float stddev = 1.0f);

  /// \brief I.i.d. U[lo, hi) entries drawn from `rng`.
  static Tensor RandomUniform(Shape shape, Rng* rng, float lo, float hi);

  const Shape& shape() const { return shape_; }
  int64_t num_elements() const { return static_cast<int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int64_t flat_index) {
    ADR_DCHECK(flat_index >= 0 && flat_index < num_elements());
    return data_[static_cast<size_t>(flat_index)];
  }
  float at(int64_t flat_index) const {
    ADR_DCHECK(flat_index >= 0 && flat_index < num_elements());
    return data_[static_cast<size_t>(flat_index)];
  }

  /// \brief 2-D accessor; requires rank 2.
  float& at(int64_t row, int64_t col) {
    ADR_DCHECK(shape_.rank() == 2);
    return data_[static_cast<size_t>(row * shape_[1] + col)];
  }
  float at(int64_t row, int64_t col) const {
    ADR_DCHECK(shape_.rank() == 2);
    return data_[static_cast<size_t>(row * shape_[1] + col)];
  }

  /// \brief 4-D accessor (NCHW); requires rank 4.
  float& at4(int64_t n, int64_t c, int64_t h, int64_t w);
  float at4(int64_t n, int64_t c, int64_t h, int64_t w) const;

  /// \brief Reinterprets the buffer under a new shape with the same element
  /// count (no copy of semantics beyond the shape change).
  Tensor Reshaped(Shape new_shape) const;

  /// \brief Sets every element to `value`.
  void Fill(float value);

  /// \brief Sets every element to zero.
  void SetZero() { Fill(0.0f); }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string DebugString(int64_t max_elements = 16) const;

 private:
  struct UninitializedTag {};
  Tensor(Shape shape, UninitializedTag)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.num_elements())) {}

  Shape shape_;
  std::vector<float, detail::DefaultInitAllocator<float>> data_;
};

}  // namespace adr

#endif  // ADR_TENSOR_TENSOR_H_
