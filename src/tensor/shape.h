// Shape: dimensions of a dense row-major tensor.

#ifndef ADR_TENSOR_SHAPE_H_
#define ADR_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace adr {

/// \brief The extent of each tensor dimension, outermost first.
///
/// Rank 0 denotes a scalar. All dimensions must be positive.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  int64_t operator[](int i) const { return dim(i); }
  const std::vector<int64_t>& dims() const { return dims_; }

  /// \brief Total number of elements (1 for a scalar).
  int64_t num_elements() const;

  /// \brief Row-major strides, innermost stride == 1.
  std::vector<int64_t> strides() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// \brief Renders e.g. "[32, 3, 32, 32]".
  std::string ToString() const;

 private:
  std::vector<int64_t> dims_;
};

}  // namespace adr

#endif  // ADR_TENSOR_SHAPE_H_
