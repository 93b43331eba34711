// Portable SIMD kernel layer for the reuse hot paths.
//
// Every dense inner loop the library spends its time in (the GEMM
// microkernels, LSH sign projections, the cluster gather/scatter adds and
// the backward sum/average reductions)
// funnels through the small table of primitives below, as do the ReLU and
// max-pool layers between the convolutions. The table has one
// implementation per instruction set:
//
//   scalar — always built, always tested; the golden reference the
//            differential harness (tests/golden_kernels_test.cc) compares
//            every vector backend against.
//   avx2   — x86-64 AVX2 + FMA, 8 lanes, compiled in its own translation
//            unit with -mavx2 -mfma so no AVX instruction can leak into
//            generic code paths; selected only when the running CPU
//            reports both features.
//   avx512 — x86-64 AVX-512 F/BW/VL/DQ, 16 lanes with k-mask tails, in
//            its own unit likewise; selected ahead of avx2 when the CPU
//            reports those features. Every kernel's output is bitwise
//            equal to avx2's, gemm_block and lsh_sign_project included.
//   neon   — aarch64 NEON (baseline on that architecture).
//
// Backend resolution, highest priority first:
//   1. ScopedKernelsOverride (tests pinning a specific backend);
//   2. the ADR_SIMD environment variable, read once (like ADR_THREADS):
//      "0"/"off"/"OFF"/"scalar" forces the scalar backend, and a backend
//      name ("avx2", "avx512", "neon") pins that backend, so one binary
//      can time backends against each other. A name that is unknown, not
//      compiled in or not supported by the CPU falls back to rule 3
//      (ChooseIsa below is this rule as a pure function);
//   3. the best backend that was compiled in (-DADR_SIMD=OFF builds none)
//      AND is supported by the running CPU: avx512, then avx2, then neon.
//
// Numerical contract: backends may differ from each other in the final
// few ULPs (vector lanes regroup the accumulation order), but every
// backend is deterministic — same input, same shape, same backend gives
// bit-identical output on any thread count. Per-kernel tolerances are
// stated in DESIGN.md section 6.3 and enforced by the golden harness.

#ifndef ADR_TENSOR_SIMD_H_
#define ADR_TENSOR_SIMD_H_

#include <cstdint>
#include <vector>

namespace adr::simd {

enum class Isa { kScalar, kAvx2, kAvx512, kNeon };

/// \brief Float lanes of the widest vector backend (avx512). LSH
/// hyperplane panels and the clusterer's sub-vector chunks pad to a
/// multiple of this, which is a multiple of every backend's width, so one
/// layout serves them all.
inline constexpr int kMaxWidth = 16;

/// \brief 64-bit words per packed sign signature (up to 128 hash bits).
inline constexpr int kSignatureWords = 2;

/// \brief Most tables one Kernels::gather_add_rows call adds per row.
inline constexpr int kGatherTables = 8;

/// \brief One backend's implementations of the hot-path primitives.
struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";  ///< "scalar", "avx2", "avx512" or "neon"
  int width = 1;                ///< float lanes per vector register

  /// y[i] += x[i]
  void (*add)(const float* x, float* y, int64_t n);
  /// Gathered row sums, the back half of the reuse forward: for every row
  /// i in [begin, end) and column j < n,
  ///   y[i * n + j] = (((s + t_0[j]) + t_1[j]) + ... + t_{T-1}[j]) + b[j]
  /// where t_u is row ids[u][i] of table `tables[u]` (rows of n floats),
  /// T = num_tables <= kGatherTables, s is +0 when `accumulate` is false
  /// and the old y[i * n + j] when it is true, and the bias term b is
  /// added last only when `bias` is not null. Each element is loaded and
  /// stored once; the adds run in registers in exactly this order on
  /// every backend, so the result is bitwise backend-independent and
  /// equal to zero-filling y, adding each table row with `add` and then
  /// the bias. Tail lanes are masked: nothing past n floats is touched.
  void (*gather_add_rows)(const float* const* tables,
                          const int32_t* const* ids, int num_tables,
                          int64_t begin, int64_t end, const float* bias,
                          bool accumulate, float* y, int64_t n);
  /// Centroid sums of the streaming clusterer: for r = 0, 1, ..., rows - 1
  /// in order, sums[ids[r] * n + i] += x[r * ldx + i] for every i < n.
  /// Every lane sees the same single-rounding adds in the same row order,
  /// so the result is bitwise equal to that per-row loop on every
  /// backend. Rows go one at a time with no branch on the id; the
  /// clusterer passes n as a whole number of registers, so a row that
  /// repeats the previous row's id reloads a sum through store
  /// forwarding. Tail lanes are masked: nothing past n floats of a row or
  /// a sum is read or written.
  void (*scatter_add_rows)(const float* x, int64_t ldx, int64_t rows,
                           const int32_t* ids, float* sums, int64_t n);
  /// y[i] = x[i]; bitwise-exact on every backend (the cluster-cache
  /// gather and other row moves route through this instead of memcpy so
  /// the wide loads/stores stay in the dispatched ISA).
  void (*copy)(const float* x, float* y, int64_t n);
  /// y[i] *= s
  void (*scale)(float s, float* y, int64_t n);
  /// dst[c * ldd + r] = src[r * lds + c] for r < rows, c < cols; a
  /// bitwise-exact copy on every backend. Full width x width tiles are
  /// transposed in registers, so both sides move whole vectors. Packs the
  /// transposed operands of GemmTransA/GemmTransB and converts conv
  /// outputs between row and NCHW layouts.
  void (*transpose)(const float* src, int64_t lds, int64_t rows,
                    int64_t cols, float* dst, int64_t ldd);
  /// C[m x n] += A[m x k] * B[k x n]; row-major with leading dimensions
  /// lda/ldb/ldc >= the respective row lengths. The register-blocked FMA
  /// microkernel behind every cache block of Gemm, GemmTransA and
  /// GemmTransB (the latter two on packed, transposed operands). Each
  /// output element accumulates its k-products in ascending-k order, so
  /// for a fixed backend the result depends only on the operands. On
  /// avx2 and avx512 that is one FMA chain from zero, then one add into
  /// C, wherever the element's column falls, so the two agree bitwise.
  void (*gemm_block)(const float* a, int64_t lda, const float* b,
                     int64_t ldb, float* c, int64_t ldc, int64_t m,
                     int64_t k, int64_t n);
  /// Sign-random-projection hashing, the LSH hot path. For row i of x
  /// (x[i * ldx + j], j < dim) and hash lane h < num_hashes the projection
  ///   p = sum_j x[i * ldx + j] * panel[j * h_padded + h]
  /// is one FMA chain over ascending j starting from zero, kept in a
  /// register; bit h of out[i * kSignatureWords ...] is set iff p > 0.
  /// `panel` is dim x h_padded (dimension-major), h_padded a multiple of
  /// kMaxWidth >= num_hashes, with zero planes in the padding lanes; a
  /// zero plane projects to +0 (or NaN), never > 0, so bits at or above
  /// num_hashes are zero. A row's bits depend only on that row, never on
  /// `rows` or the row's position in the call.
  void (*lsh_sign_project)(const float* x, int64_t ldx, int64_t rows,
                           const float* panel, int64_t dim, int64_t h_padded,
                           int num_hashes, uint64_t* out);
  /// ReLU: y[i] = x[i] > 0 ? x[i] : +0, so NaN, -0 and +0 all give +0.
  /// When `mask` is not null, mask[i] = x[i] > 0 ? 1 : +0 as well. No
  /// branch per element (AVX2 `max(x, +0)`, a compare-and-select on
  /// NEON). Bitwise equal on every backend.
  void (*relu)(const float* x, float* y, float* mask, int64_t n);
  /// y[i] = a[i] * b[i]; bitwise equal on every backend. ReLU's backward
  /// multiplies by its mask with this.
  void (*mul)(const float* a, const float* b, float* y, int64_t n);
  /// 2x2 / stride-2 max pooling of `planes` row-major ih x iw planes at x
  /// into (ih / 2) x (iw / 2) planes at y, a last odd row or column left
  /// out. A window's elements e0..e3 are scanned in row-major order from
  /// best = -inf, taking e_j when e_j > best: the first strict maximum
  /// wins ties, NaN is never taken, and a window of NaN or -inf yields
  /// -inf. When `codes` is not null, codes[o] receives the j of output
  /// o's winner (0 if none). Bitwise equal on every backend.
  void (*max_pool_2x2)(const float* x, int64_t planes, int64_t ih,
                       int64_t iw, float* y, uint8_t* codes);
  /// The backward of max_pool_2x2: overwrites all `planes` ih x iw
  /// planes of dx, writing +0 + dy[o] at the element codes[o] names in
  /// output o's window and +0 everywhere else (a left-out odd row or
  /// column included). One dense pass: no zero-fill, no scatter.
  /// Bitwise equal to zero-filling dx and adding each dy[o] into it.
  void (*max_pool_2x2_backward)(const float* dy, const uint8_t* codes,
                                int64_t planes, int64_t ih, int64_t iw,
                                float* dx);
};

/// \brief Which vector backends this build compiled in AND the running
/// CPU supports.
struct Availability {
  bool avx2 = false;
  bool avx512 = false;
  bool neon = false;
};

/// \brief The backend rules 2 and 3 of the header comment pick, given the
/// ADR_SIMD value (null when unset) and what is available. Pure: Active()
/// calls it once with the environment and the detected CPU.
Isa ChooseIsa(const char* adr_simd, const Availability& available);

/// \brief The scalar backend. Always available.
const Kernels& Scalar();

/// \brief The backend hot kernels should use, resolved per the rules in
/// the header comment. Safe to call from pool threads.
const Kernels& Active();

/// \brief Every backend usable on this build + CPU, scalar first. The
/// differential harness iterates this list.
const std::vector<const Kernels*>& AllAvailable();

/// \brief RAII override of Active() for differential tests. Install from
/// the main thread between pieces of work, never concurrently with
/// running kernels.
class ScopedKernelsOverride {
 public:
  explicit ScopedKernelsOverride(const Kernels& kernels);
  ~ScopedKernelsOverride();
  ScopedKernelsOverride(const ScopedKernelsOverride&) = delete;
  ScopedKernelsOverride& operator=(const ScopedKernelsOverride&) = delete;

 private:
  const Kernels* previous_;
};

}  // namespace adr::simd

#endif  // ADR_TENSOR_SIMD_H_
