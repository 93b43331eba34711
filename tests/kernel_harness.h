// Shared machinery for the differential golden-kernel tests: backend
// iteration, deterministic fills, double-precision reference kernels and
// the per-kernel tolerance policy (DESIGN.md section 6.3).
//
// Tolerance policy. Elementwise kernels (add, scale) must match the
// scalar expression bitwise — vector lanes perform the identical single
// operation. The gemm reduction regroups the accumulation order across
// lanes, so it is compared against a double-precision reference with an
// error budget proportional to eps * sum_i |a_i| * |b_i| — the standard
// forward error bound of floating-point summation — times a generous
// constant.

#ifndef ADR_TESTS_KERNEL_HARNESS_H_
#define ADR_TESTS_KERNEL_HARNESS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr::testutil {

/// Restores the global pool's thread count when a test that sweeps thread
/// counts ends.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ThreadPool::GlobalThreads()) {}
  ~ThreadCountGuard() { ThreadPool::SetGlobalThreads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Backends available on this build + machine, scalar first. Every golden
/// test iterates all of them, so the scalar fallback is always tested.
inline const std::vector<const simd::Kernels*>& Backends() {
  return simd::AllAvailable();
}

/// Shape sweep with remainder lanes: values straddling every vector width
/// in use (1, 4, 8 lanes and the 2x-unrolled 16-lane hot loops).
inline const std::vector<int64_t>& RemainderSizes() {
  static const std::vector<int64_t> sizes = {
      1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33,
      63, 64, 65, 100, 127, 128, 129, 255, 256, 257, 400};
  return sizes;
}

inline void FillGaussian(float* data, int64_t n, uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) data[i] = rng.NextGaussian();
}

inline std::vector<float> RandomVector(int64_t n, uint64_t seed) {
  std::vector<float> v(static_cast<size_t>(n));
  FillGaussian(v.data(), n, seed);
  return v;
}

// --- double-precision references -----------------------------------------

/// Reduction tolerance: c * n * eps * sum|a_i b_i|, floored to absorb
/// double-vs-float representation noise. c = 8 is far above the lane
/// regrouping error of any backend yet far below a real kernel bug (a
/// dropped or duplicated element shifts the result by O(|a_i b_i|)).
inline double ReductionTolerance(double abs_sum, int64_t n) {
  constexpr double kEps = 1.19209290e-07;  // FLT_EPSILON
  return 8.0 * static_cast<double>(n) * kEps * abs_sum + 1e-7;
}

/// C = A[m x k] * B[k x n] in double, row-major with leading dims, plus
/// per-element |A||B| products for the tolerance (written to abs_out).
inline void RefGemm(const float* a, int64_t lda, const float* b, int64_t ldb,
                    int64_t m, int64_t k, int64_t n, std::vector<double>* out,
                    std::vector<double>* abs_out) {
  out->assign(static_cast<size_t>(m * n), 0.0);
  abs_out->assign(static_cast<size_t>(m * n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const double a_ik = a[i * lda + kk];
      for (int64_t j = 0; j < n; ++j) {
        const double prod = a_ik * b[kk * ldb + j];
        (*out)[static_cast<size_t>(i * n + j)] += prod;
        (*abs_out)[static_cast<size_t>(i * n + j)] += std::abs(prod);
      }
    }
  }
}

}  // namespace adr::testutil

#endif  // ADR_TESTS_KERNEL_HARNESS_H_
