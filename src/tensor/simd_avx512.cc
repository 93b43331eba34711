// AVX-512 backend: 16-lane registers, k-mask tails. This file is the only
// one compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq -mavx2
// -mfma (see src/tensor/CMakeLists.txt); the dispatcher guards it behind
// a runtime __builtin_cpu_supports check, so binaries stay runnable on
// CPUs without AVX-512.

#include "tensor/simd_kernels_inl.h"

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || \
    !defined(__AVX512VL__) || !defined(__AVX512DQ__) || !defined(__FMA__)
#error "simd_avx512.cc must be compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq -mfma"
#endif

namespace adr::simd {

const Kernels& Avx512KernelsImpl() {
  static const Kernels kernels =
      detail::MakeKernels<detail::Avx512Ops>(Isa::kAvx512, "avx512");
  return kernels;
}

}  // namespace adr::simd
