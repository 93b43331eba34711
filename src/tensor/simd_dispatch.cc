// Backend selection for the SIMD kernel layer. Which vector backends
// exist is decided at build time (ADR_SIMD_HAVE_AVX2 / ADR_SIMD_HAVE_AVX512
// / ADR_SIMD_HAVE_NEON are set per-file by CMake when the matching TU is
// built); which one runs is decided once at first use from the CPU's
// reported features and the ADR_SIMD environment variable.

#include "tensor/simd.h"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace adr::simd {

const Kernels& ScalarKernelsImpl();
#if defined(ADR_SIMD_HAVE_AVX2)
const Kernels& Avx2KernelsImpl();
#endif
#if defined(ADR_SIMD_HAVE_AVX512)
const Kernels& Avx512KernelsImpl();
#endif
#if defined(ADR_SIMD_HAVE_NEON)
const Kernels& NeonKernelsImpl();
#endif

namespace {

std::atomic<const Kernels*> g_override{nullptr};

// Compiled-in backends the running CPU supports.
Availability Detect() {
  Availability available;
#if defined(__GNUC__) || defined(__clang__)
#if defined(ADR_SIMD_HAVE_AVX2)
  available.avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
#if defined(ADR_SIMD_HAVE_AVX512)
  // The unit is also compiled with -mavx2 -mfma, so it needs those too.
  available.avx512 = available.avx2 && __builtin_cpu_supports("avx512f") &&
                     __builtin_cpu_supports("avx512bw") &&
                     __builtin_cpu_supports("avx512vl") &&
                     __builtin_cpu_supports("avx512dq");
#endif
#endif
#if defined(ADR_SIMD_HAVE_NEON)
  available.neon = true;
#endif
  return available;
}

const Availability& Available() {
  static const Availability available = Detect();
  return available;
}

const Kernels& KernelsFor(Isa isa) {
  switch (isa) {
#if defined(ADR_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      return Avx2KernelsImpl();
#endif
#if defined(ADR_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      return Avx512KernelsImpl();
#endif
#if defined(ADR_SIMD_HAVE_NEON)
    case Isa::kNeon:
      return NeonKernelsImpl();
#endif
    default:
      return ScalarKernelsImpl();
  }
}

}  // namespace

Isa ChooseIsa(const char* adr_simd, const Availability& available) {
  const std::string_view value = adr_simd == nullptr ? "" : adr_simd;
  if (value == "0" || value == "off" || value == "OFF" ||
      value == "scalar") {
    return Isa::kScalar;
  }
  if (value == "avx2" && available.avx2) return Isa::kAvx2;
  if (value == "avx512" && available.avx512) return Isa::kAvx512;
  if (value == "neon" && available.neon) return Isa::kNeon;
  if (available.avx512) return Isa::kAvx512;
  if (available.avx2) return Isa::kAvx2;
  if (available.neon) return Isa::kNeon;
  return Isa::kScalar;
}

const Kernels& Scalar() { return ScalarKernelsImpl(); }

const Kernels& Active() {
  const Kernels* override_kernels =
      g_override.load(std::memory_order_acquire);
  if (override_kernels != nullptr) return *override_kernels;
  static const Kernels& chosen =
      KernelsFor(ChooseIsa(std::getenv("ADR_SIMD"), Available()));
  return chosen;
}

const std::vector<const Kernels*>& AllAvailable() {
  static const std::vector<const Kernels*> all = [] {
    std::vector<const Kernels*> backends{&ScalarKernelsImpl()};
    const Availability& available = Available();
    if (available.avx2) backends.push_back(&KernelsFor(Isa::kAvx2));
    if (available.avx512) backends.push_back(&KernelsFor(Isa::kAvx512));
    if (available.neon) backends.push_back(&KernelsFor(Isa::kNeon));
    return backends;
  }();
  return all;
}

ScopedKernelsOverride::ScopedKernelsOverride(const Kernels& kernels)
    : previous_(g_override.exchange(&kernels, std::memory_order_acq_rel)) {}

ScopedKernelsOverride::~ScopedKernelsOverride() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace adr::simd
