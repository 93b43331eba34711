// Cache-blocked GEMM kernels, parallelized over disjoint row slices of C
// through the shared thread pool (util/parallel.h). These are the
// computational core that deep reuse removes work from, so their absolute
// efficiency sets the denominator of every reported saving. All three
// forms run the same cache blocks through the same register-tiled
// microkernel (simd::Kernels::gemm_block); the transposed forms pack their
// transposed operand per block into a stack panel first, so they allocate
// nothing and equal Gemm on an explicitly transposed operand bit for bit.
// Results are bit-identical for any thread count: chunk boundaries depend
// only on the problem shape and each output row's accumulation order is
// fixed.

#ifndef ADR_TENSOR_GEMM_H_
#define ADR_TENSOR_GEMM_H_

#include <cstdint>

namespace adr {

/// \brief C = A * B (+ C if accumulate). A is MxK, B is KxN, C is MxN,
/// all row-major and contiguous.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate = false);

/// \brief C = A^T * B (+ C if accumulate). A is KxM (so A^T is MxK),
/// B is KxN, C is MxN.
void GemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate = false);

/// \brief C = A * B^T (+ C if accumulate). A is MxK, B is NxK (so B^T is
/// KxN), C is MxN.
void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate = false);

/// \brief Naive triple-loop reference used to validate the blocked kernels.
void GemmReference(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

}  // namespace adr

#endif  // ADR_TENSOR_GEMM_H_
