// Generic implementations of the simd::Kernels primitives, templated on a
// per-ISA vector-ops struct. Each backend translation unit (simd_scalar.cc,
// simd_avx2.cc, simd_neon.cc) includes this header and instantiates
// MakeKernels with its Ops type; the AVX2 unit alone is compiled with
// -mavx2 -mfma, so the intrinsics below only ever exist there.
//
// An Ops type provides:
//   using Reg            — the vector register type (float for scalar);
//   static constexpr int kWidth — float lanes per register;
//   Zero(), Load(p), Store(p, v), Broadcast(s), Add(a, b), Mul(a, b),
//   Fma(a, b, acc) = a * b + acc,
//   SignBits(v) — bit l set iff lane l > 0 (false for NaN),
//   Transpose(v) — transposes the kWidth x kWidth tile in v[0..kWidth),
//   using Cmp, CmpGt(a, b) and CmpEq(a, b) — per-lane a > b and a == b,
//     false when either lane is NaN,
//   Select(m, a, b) — per lane m ? a : b,
//   Max(a, b) — per lane a > b ? a : b (b when either is NaN),
//   LoadPairs(p, &even, &odd) — the even and odd floats of p[0..2 kWidth),
//   StorePairs(p, even, odd) — the inverse, interleaving into p,
//   LoadBytes(p) / StoreBytes(p, v) — kWidth bytes to and from lanes
//     holding small non-negative integers.
// Vector Ops (kWidth > 1) also provide a partial-register interface:
//   using Mask, TailMask(count) for 0 < count < kWidth,
//   MaskLoad(p, mask) — lanes >= count read as zero, never touched,
//   MaskStore(p, mask, v) — writes only lanes < count.
//
// Remainder lanes (n not a multiple of kWidth) run in scalar tail loops
// or, where a kernel keeps them in registers, masked partial registers;
// the golden harness sweeps such shapes explicitly.

#ifndef ADR_TENSOR_SIMD_KERNELS_INL_H_
#define ADR_TENSOR_SIMD_KERNELS_INL_H_

#include <cstdint>
#include <limits>

#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace adr::simd::detail {

// One float per "register". The vector kernels run their remainder lanes
// through ScalarLanes<TheirOps>: a distinct type per backend, so no scalar
// instantiation compiled with one backend's ISA flags can stand in for
// another backend's (template instantiations are merged at link time).
template <typename Backend>
struct ScalarLanes {
  using Reg = float;
  static constexpr int kWidth = 1;
  static Reg Zero() { return 0.0f; }
  static Reg Load(const float* p) { return *p; }
  static void Store(float* p, Reg v) { *p = v; }
  static Reg Broadcast(float s) { return s; }
  static Reg Add(Reg a, Reg b) { return a + b; }
  static Reg Mul(Reg a, Reg b) { return a * b; }
  static Reg Fma(Reg a, Reg b, Reg acc) { return a * b + acc; }
  static uint32_t SignBits(Reg v) { return v > 0.0f ? 1u : 0u; }
  static void Transpose(Reg*) {}
  using Cmp = bool;
  static Cmp CmpGt(Reg a, Reg b) { return a > b; }
  static Cmp CmpEq(Reg a, Reg b) { return a == b; }
  static Reg Select(Cmp m, Reg a, Reg b) { return m ? a : b; }
  static Reg Max(Reg a, Reg b) { return a > b ? a : b; }
  static void LoadPairs(const float* p, Reg* even, Reg* odd) {
    *even = p[0];
    *odd = p[1];
  }
  static void StorePairs(float* p, Reg even, Reg odd) {
    p[0] = even;
    p[1] = odd;
  }
  static Reg LoadBytes(const uint8_t* p) { return static_cast<float>(*p); }
  static void StoreBytes(uint8_t* p, Reg v) { *p = static_cast<uint8_t>(v); }
};

using ScalarOps = ScalarLanes<void>;

#if defined(__AVX2__) && defined(__FMA__)
struct Avx2Ops {
  using Reg = __m256;
  static constexpr int kWidth = 8;
  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg Broadcast(float s) { return _mm256_set1_ps(s); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg Fma(Reg a, Reg b, Reg acc) { return _mm256_fmadd_ps(a, b, acc); }
  static uint32_t SignBits(Reg v) {
    return static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ)));
  }
  using Mask = __m256i;
  static Mask TailMask(int count) {
    // All-ones in the first `count` lanes: a window into a sliding table.
    static const int32_t kTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                       0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTable + kWidth - count));
  }
  static Reg MaskLoad(const float* p, Mask mask) {
    return _mm256_maskload_ps(p, mask);
  }
  static void MaskStore(float* p, Mask mask, Reg v) {
    _mm256_maskstore_ps(p, mask, v);
  }
  static void Transpose(Reg* v) {
    // Interleave pairs of rows, then pairs of pairs within each 128-bit
    // half, then swap the halves.
    const Reg t0 = _mm256_unpacklo_ps(v[0], v[1]);
    const Reg t1 = _mm256_unpackhi_ps(v[0], v[1]);
    const Reg t2 = _mm256_unpacklo_ps(v[2], v[3]);
    const Reg t3 = _mm256_unpackhi_ps(v[2], v[3]);
    const Reg t4 = _mm256_unpacklo_ps(v[4], v[5]);
    const Reg t5 = _mm256_unpackhi_ps(v[4], v[5]);
    const Reg t6 = _mm256_unpacklo_ps(v[6], v[7]);
    const Reg t7 = _mm256_unpackhi_ps(v[6], v[7]);
    const Reg u0 = _mm256_shuffle_ps(t0, t2, 0x44);
    const Reg u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    const Reg u2 = _mm256_shuffle_ps(t1, t3, 0x44);
    const Reg u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    const Reg u4 = _mm256_shuffle_ps(t4, t6, 0x44);
    const Reg u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    const Reg u6 = _mm256_shuffle_ps(t5, t7, 0x44);
    const Reg u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    v[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    v[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    v[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    v[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    v[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    v[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    v[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
    v[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
  }
  using Cmp = __m256;
  static Cmp CmpGt(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static Cmp CmpEq(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static Reg Select(Cmp m, Reg a, Reg b) { return _mm256_blendv_ps(b, a, m); }
  // vmaxps returns its second operand unless the first is greater.
  static Reg Max(Reg a, Reg b) { return _mm256_max_ps(a, b); }
  static void LoadPairs(const float* p, Reg* even, Reg* odd) {
    // shuffle_ps picks within 128-bit halves, giving 64-bit quarters
    // (lo0 lo2)(hi0 hi2)(lo4 lo6)(hi4 hi6); the permute puts them in
    // order 0, 2, 1, 3.
    const Reg lo = _mm256_loadu_ps(p);
    const Reg hi = _mm256_loadu_ps(p + kWidth);
    *even = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, 0x88)), 0xD8));
    *odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, 0xDD)), 0xD8));
  }
  static void StorePairs(float* p, Reg even, Reg odd) {
    // unpack interleaves within 128-bit halves: (e0 o0 e1 o1 | e4 o4 e5 o5)
    // and (e2 o2 e3 o3 | e6 o6 e7 o7).
    const Reg t0 = _mm256_unpacklo_ps(even, odd);
    const Reg t1 = _mm256_unpackhi_ps(even, odd);
    _mm256_storeu_ps(p, _mm256_permute2f128_ps(t0, t1, 0x20));
    _mm256_storeu_ps(p + kWidth, _mm256_permute2f128_ps(t0, t1, 0x31));
  }
  static Reg LoadBytes(const uint8_t* p) {
    return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
  static void StoreBytes(uint8_t* p, Reg v) {
    const __m256i words = _mm256_cvttps_epi32(v);
    const __m128i halves =
        _mm_packs_epi32(_mm256_castsi256_si128(words),
                        _mm256_extracti128_si256(words, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                     _mm_packus_epi16(halves, halves));
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
struct NeonOps {
  using Reg = float32x4_t;
  static constexpr int kWidth = 4;
  static Reg Zero() { return vdupq_n_f32(0.0f); }
  static Reg Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Reg v) { vst1q_f32(p, v); }
  static Reg Broadcast(float s) { return vdupq_n_f32(s); }
  static Reg Add(Reg a, Reg b) { return vaddq_f32(a, b); }
  static Reg Mul(Reg a, Reg b) { return vmulq_f32(a, b); }
  static Reg Fma(Reg a, Reg b, Reg acc) { return vfmaq_f32(acc, a, b); }
  static uint32_t SignBits(Reg v) {
    float lanes[kWidth];
    vst1q_f32(lanes, v);
    uint32_t bits = 0;
    for (int l = 0; l < kWidth; ++l) {
      bits |= static_cast<uint32_t>(lanes[l] > 0.0f) << l;
    }
    return bits;
  }
  // No masked memory ops on NEON: partial registers go through a lane
  // buffer, touching only the first `count` floats.
  using Mask = int;
  static Mask TailMask(int count) { return count; }
  static Reg MaskLoad(const float* p, Mask count) {
    float lanes[kWidth] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (int l = 0; l < count; ++l) lanes[l] = p[l];
    return vld1q_f32(lanes);
  }
  static void MaskStore(float* p, Mask count, Reg v) {
    float lanes[kWidth];
    vst1q_f32(lanes, v);
    for (int l = 0; l < count; ++l) p[l] = lanes[l];
  }
  static void Transpose(Reg* v) {
    // vtrnq pairs lanes {0,2} and {1,3} of two rows; the 64-bit halves
    // then assemble the columns.
    const float32x4x2_t t01 = vtrnq_f32(v[0], v[1]);
    const float32x4x2_t t23 = vtrnq_f32(v[2], v[3]);
    v[0] = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
    v[1] = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
    v[2] = vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
    v[3] = vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
  }
  using Cmp = uint32x4_t;
  static Cmp CmpGt(Reg a, Reg b) { return vcgtq_f32(a, b); }
  static Cmp CmpEq(Reg a, Reg b) { return vceqq_f32(a, b); }
  static Reg Select(Cmp m, Reg a, Reg b) { return vbslq_f32(m, a, b); }
  // Not vmaxq_f32: it returns NaN when either lane is NaN.
  static Reg Max(Reg a, Reg b) { return vbslq_f32(vcgtq_f32(a, b), a, b); }
  static void LoadPairs(const float* p, Reg* even, Reg* odd) {
    const float32x4x2_t pairs = vld2q_f32(p);
    *even = pairs.val[0];
    *odd = pairs.val[1];
  }
  static void StorePairs(float* p, Reg even, Reg odd) {
    float32x4x2_t pairs;
    pairs.val[0] = even;
    pairs.val[1] = odd;
    vst2q_f32(p, pairs);
  }
  static Reg LoadBytes(const uint8_t* p) {
    const float lanes[kWidth] = {static_cast<float>(p[0]),
                                 static_cast<float>(p[1]),
                                 static_cast<float>(p[2]),
                                 static_cast<float>(p[3])};
    return vld1q_f32(lanes);
  }
  static void StoreBytes(uint8_t* p, Reg v) {
    float lanes[kWidth];
    vst1q_f32(lanes, v);
    for (int l = 0; l < kWidth; ++l) p[l] = static_cast<uint8_t>(lanes[l]);
  }
};
#endif  // __ARM_NEON

template <typename Ops>
void AddImpl(const float* x, float* y, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Add(Ops::Load(y + i), Ops::Load(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

template <typename Ops>
void SegmentRowSumsImpl(const float* x, int64_t ldx, const int32_t* rows,
                        const int64_t* seg, int64_t num_segs, float* y,
                        int64_t n) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  int64_t i = 0;
  // Four registers of the total and four of the segment sum per pass.
  for (; i + 4 * kW <= n; i += 4 * kW) {
    Reg t0 = Ops::Zero(), t1 = Ops::Zero(), t2 = Ops::Zero(),
        t3 = Ops::Zero();
    for (int64_t g = 0; g < num_segs; ++g) {
      Reg s0 = Ops::Zero(), s1 = Ops::Zero(), s2 = Ops::Zero(),
          s3 = Ops::Zero();
      for (int64_t r = seg[g]; r < seg[g + 1]; ++r) {
        const float* row = x + rows[r] * ldx + i;
        s0 = Ops::Add(s0, Ops::Load(row));
        s1 = Ops::Add(s1, Ops::Load(row + kW));
        s2 = Ops::Add(s2, Ops::Load(row + 2 * kW));
        s3 = Ops::Add(s3, Ops::Load(row + 3 * kW));
      }
      t0 = Ops::Add(t0, s0);
      t1 = Ops::Add(t1, s1);
      t2 = Ops::Add(t2, s2);
      t3 = Ops::Add(t3, s3);
    }
    Ops::Store(y + i, t0);
    Ops::Store(y + i + kW, t1);
    Ops::Store(y + i + 2 * kW, t2);
    Ops::Store(y + i + 3 * kW, t3);
  }
  for (; i + kW <= n; i += kW) {
    Reg total = Ops::Zero();
    for (int64_t g = 0; g < num_segs; ++g) {
      Reg sum = Ops::Zero();
      for (int64_t r = seg[g]; r < seg[g + 1]; ++r) {
        sum = Ops::Add(sum, Ops::Load(x + rows[r] * ldx + i));
      }
      total = Ops::Add(total, sum);
    }
    Ops::Store(y + i, total);
  }
  for (; i < n; ++i) {
    float total = 0.0f;
    for (int64_t g = 0; g < num_segs; ++g) {
      float sum = 0.0f;
      for (int64_t r = seg[g]; r < seg[g + 1]; ++r) sum += x[rows[r] * ldx + i];
      total += sum;
    }
    y[i] = total;
  }
}

template <typename Ops>
void ScatterAddRowsImpl(const float* x, int64_t ldx, int64_t rows,
                        const int32_t* ids, float* sums, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  // One row at a time, no run detection: clusters change every row or
  // two on real data, so a run branch would mispredict about as often as
  // it is taken. A row equal to the previous row's cluster reloads the
  // sum its store just wrote, which full-width stores forward.
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * ldx;
    float* s = sums + static_cast<int64_t>(ids[r]) * n;
    int64_t i = 0;
#pragma GCC unroll 4
    for (; i + kW <= n; i += kW) {
      Ops::Store(s + i, Ops::Add(Ops::Load(s + i), Ops::Load(xr + i)));
    }
    if constexpr (kW > 1) {
      if (i < n) {
        const typename Ops::Mask mask = Ops::TailMask(static_cast<int>(n - i));
        Ops::MaskStore(s + i, mask,
                       Ops::Add(Ops::MaskLoad(s + i, mask),
                                Ops::MaskLoad(xr + i, mask)));
      }
    }
  }
}

template <typename Ops>
void CopyImpl(const float* x, float* y, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Load(x + i));
  }
  for (; i < n; ++i) y[i] = x[i];
}

template <typename Ops>
void ScaleImpl(float s, float* y, int64_t n) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  const Reg sv = Ops::Broadcast(s);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Mul(Ops::Load(y + i), sv));
  }
  for (; i < n; ++i) y[i] *= s;
}

template <typename Ops>
void TransposeImpl(const float* src, int64_t lds, int64_t rows, int64_t cols,
                   float* dst, int64_t ldd) {
  using Reg = typename Ops::Reg;
  constexpr int kW = Ops::kWidth;
  int64_t r0 = 0;
  for (; r0 + kW <= rows; r0 += kW) {
    int64_t c0 = 0;
    for (; c0 + kW <= cols; c0 += kW) {
      Reg tile[kW];
#pragma GCC unroll 8
      for (int r = 0; r < kW; ++r) {
        tile[r] = Ops::Load(src + (r0 + r) * lds + c0);
      }
      Ops::Transpose(tile);
#pragma GCC unroll 8
      for (int c = 0; c < kW; ++c) {
        Ops::Store(dst + (c0 + c) * ldd + r0, tile[c]);
      }
    }
    for (int64_t c = c0; c < cols; ++c) {
      for (int64_t r = r0; r < r0 + kW; ++r) dst[c * ldd + r] = src[r * lds + c];
    }
  }
  for (; r0 < rows; ++r0) {
    for (int64_t c = 0; c < cols; ++c) dst[c * ldd + r0] = src[r0 * lds + c];
  }
}

// One tile of R rows of C: C[R x n] += A[R x k] * B[k x n]. Columns run
// in tiles of two registers (the hot loop: one broadcast of A per row, two
// FMAs reusing the loaded B registers across all R rows), then one
// register, then a scalar tail. Accumulators live in registers across the
// whole k loop and are added to C once, so each element's accumulation
// order depends only on k. As in SignProjectTile, the r loops must unroll
// completely or -O2 keeps acc[] on the stack; unrolling does not change
// the FMA order.
template <typename Ops, int R>
void GemmRowTile(const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* c, int64_t ldc, int64_t k, int64_t n) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  int64_t j = 0;
  for (; j + 2 * kW <= n; j += 2 * kW) {
    Reg acc0[R];
    Reg acc1[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc0[r] = Ops::Zero();
      acc1[r] = Ops::Zero();
    }
    const float* b_col = b + j;
    for (int64_t kk = 0; kk < k; ++kk) {
      const Reg b0 = Ops::Load(b_col + kk * ldb);
      const Reg b1 = Ops::Load(b_col + kk * ldb + kW);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const Reg av = Ops::Broadcast(a[r * lda + kk]);
        acc0[r] = Ops::Fma(av, b0, acc0[r]);
        acc1[r] = Ops::Fma(av, b1, acc1[r]);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* c_row = c + r * ldc + j;
      Ops::Store(c_row, Ops::Add(Ops::Load(c_row), acc0[r]));
      Ops::Store(c_row + kW, Ops::Add(Ops::Load(c_row + kW), acc1[r]));
    }
  }
  for (; j + kW <= n; j += kW) {
    Reg acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r] = Ops::Zero();
    const float* b_col = b + j;
    for (int64_t kk = 0; kk < k; ++kk) {
      const Reg bv = Ops::Load(b_col + kk * ldb);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        acc[r] = Ops::Fma(Ops::Broadcast(a[r * lda + kk]), bv, acc[r]);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* c_row = c + r * ldc + j;
      Ops::Store(c_row, Ops::Add(Ops::Load(c_row), acc[r]));
    }
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float acc = 0.0f;
      const float* a_row = a + r * lda;
      for (int64_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b[kk * ldb + j];
      c[r * ldc + j] += acc;
    }
  }
}

template <typename Ops>
void GemmBlockImpl(const float* a, int64_t lda, const float* b, int64_t ldb,
                   float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmRowTile<Ops, 4>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
  }
  switch (m - i) {
    case 3:
      GemmRowTile<Ops, 3>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
      break;
    case 2:
      GemmRowTile<Ops, 2>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
      break;
    case 1:
      GemmRowTile<Ops, 1>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
      break;
    default:
      break;
  }
}

// R rows x C registers of hash lanes [h0, h0 + C * kWidth): each j loads
// the C panel registers once and reuses them across all R rows (like
// GemmRowTile), the R*C projections stay in registers for the whole j
// loop, and their sign bits are OR-ed straight into the signatures — no
// projection buffer is written or re-read. kWidth divides 64, so a
// register's bits never straddle two signature words.
template <typename Ops, int R, int C>
void SignProjectTile(const float* x, int64_t ldx, const float* panel,
                     int64_t ldp, int64_t dim, int h0, uint64_t* out) {
  using Reg = typename Ops::Reg;
  constexpr int kW = Ops::kWidth;
  // The r/c loops must unroll completely so acc[][] lives in registers;
  // -O2 alone leaves them rolled, with every accumulator on the stack.
  Reg acc[R][C];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) acc[r][c] = Ops::Zero();
  }
  const float* p = panel + h0;
  for (int64_t j = 0; j < dim; ++j) {
    Reg pv[C];
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) pv[c] = Ops::Load(p + j * ldp + c * kW);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const Reg xv = Ops::Broadcast(x[r * ldx + j]);
#pragma GCC unroll 8
      for (int c = 0; c < C; ++c) acc[r][c] = Ops::Fma(xv, pv[c], acc[r][c]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < C; ++c) {
      const int h = h0 + c * kW;
      out[r * kSignatureWords + (h >> 6)] |=
          static_cast<uint64_t>(Ops::SignBits(acc[r][c])) << (h & 63);
    }
  }
}

// All hash lanes of R rows, two registers at a time.
template <typename Ops, int R>
void SignProjectRows(const float* x, int64_t ldx, const float* panel,
                     int64_t ldp, int64_t dim, int regs, uint64_t* out) {
  constexpr int kW = Ops::kWidth;
  int c = 0;
  for (; c + 2 <= regs; c += 2) {
    SignProjectTile<Ops, R, 2>(x, ldx, panel, ldp, dim, c * kW, out);
  }
  if (c < regs) {
    SignProjectTile<Ops, R, 1>(x, ldx, panel, ldp, dim, c * kW, out);
  }
}

template <typename Ops>
void LshSignProjectImpl(const float* x, int64_t ldx, int64_t rows,
                        const float* panel, int64_t dim, int64_t h_padded,
                        int num_hashes, uint64_t* out) {
  constexpr int kW = Ops::kWidth;
  // Only the registers covering [0, num_hashes) run; h_padded is a
  // multiple of kMaxWidth, hence of kW, so they never read past a row.
  const int regs = (num_hashes + kW - 1) / kW;
  for (int64_t w = 0; w < rows * kSignatureWords; ++w) out[w] = 0;
  int64_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    SignProjectRows<Ops, 4>(x + i * ldx, ldx, panel, h_padded, dim, regs,
                            out + i * kSignatureWords);
  }
  const float* xt = x + i * ldx;
  uint64_t* ot = out + i * kSignatureWords;
  switch (rows - i) {
    case 3:
      SignProjectRows<Ops, 3>(xt, ldx, panel, h_padded, dim, regs, ot);
      break;
    case 2:
      SignProjectRows<Ops, 2>(xt, ldx, panel, h_padded, dim, regs, ot);
      break;
    case 1:
      SignProjectRows<Ops, 1>(xt, ldx, panel, h_padded, dim, regs, ot);
      break;
    default:
      break;
  }
}

template <typename Ops>
void ReluImpl(const float* x, float* y, float* mask, int64_t n) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  const Reg zero = Ops::Zero();
  int64_t i = 0;
  if (mask == nullptr) {
#pragma GCC unroll 4
    for (; i + kW <= n; i += kW) {
      Ops::Store(y + i, Ops::Max(Ops::Load(x + i), zero));
    }
  } else {
    const Reg one = Ops::Broadcast(1.0f);
#pragma GCC unroll 4
    for (; i + kW <= n; i += kW) {
      const Reg v = Ops::Load(x + i);
      const typename Ops::Cmp positive = Ops::CmpGt(v, zero);
      Ops::Store(y + i, Ops::Select(positive, v, zero));
      Ops::Store(mask + i, Ops::Select(positive, one, zero));
    }
  }
  if constexpr (kW > 1) {
    if (i < n) {
      ReluImpl<ScalarLanes<Ops>>(x + i, y + i,
                                 mask == nullptr ? nullptr : mask + i, n - i);
    }
  }
}

template <typename Ops>
void MulImpl(const float* a, const float* b, float* y, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t i = 0;
#pragma GCC unroll 4
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Mul(Ops::Load(a + i), Ops::Load(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

// One output row of 2x2 max pooling: output ox reads top[2 ox], top[2 ox +
// 1], bottom[2 ox], bottom[2 ox + 1]. LoadPairs splits each input row into
// its even and odd columns, so one register holds one window element of
// kWidth outputs. The scan is a compare-and-select chain, no branch.
template <typename Ops>
void MaxPoolRow(const float* top, const float* bottom, int64_t ow, float* y,
                uint8_t* codes) {
  using Reg = typename Ops::Reg;
  using Cmp = typename Ops::Cmp;
  constexpr int64_t kW = Ops::kWidth;
  const Reg neg_inf = Ops::Broadcast(-std::numeric_limits<float>::infinity());
  int64_t ox = 0;
  if (codes == nullptr) {
    for (; ox + kW <= ow; ox += kW) {
      Reg e0, e1, e2, e3;
      Ops::LoadPairs(top + 2 * ox, &e0, &e1);
      Ops::LoadPairs(bottom + 2 * ox, &e2, &e3);
      const Reg best = Ops::Max(e0, neg_inf);
      Ops::Store(y + ox, Ops::Max(e3, Ops::Max(e2, Ops::Max(e1, best))));
    }
  } else {
    const Reg one = Ops::Broadcast(1.0f);
    const Reg two = Ops::Broadcast(2.0f);
    const Reg three = Ops::Broadcast(3.0f);
    for (; ox + kW <= ow; ox += kW) {
      Reg e0, e1, e2, e3;
      Ops::LoadPairs(top + 2 * ox, &e0, &e1);
      Ops::LoadPairs(bottom + 2 * ox, &e2, &e3);
      Reg best = Ops::Max(e0, neg_inf);
      Reg code = Ops::Zero();
      const Cmp gt1 = Ops::CmpGt(e1, best);
      best = Ops::Select(gt1, e1, best);
      code = Ops::Select(gt1, one, code);
      const Cmp gt2 = Ops::CmpGt(e2, best);
      best = Ops::Select(gt2, e2, best);
      code = Ops::Select(gt2, two, code);
      const Cmp gt3 = Ops::CmpGt(e3, best);
      best = Ops::Select(gt3, e3, best);
      code = Ops::Select(gt3, three, code);
      Ops::Store(y + ox, best);
      Ops::StoreBytes(codes + ox, code);
    }
  }
  if constexpr (kW > 1) {
    if (ox < ow) {
      MaxPoolRow<ScalarLanes<Ops>>(top + 2 * ox, bottom + 2 * ox, ow - ox,
                                   y + ox,
                                   codes == nullptr ? nullptr : codes + ox);
    }
  }
}

template <typename Ops>
void MaxPool2x2Impl(const float* x, int64_t planes, int64_t ih, int64_t iw,
                    float* y, uint8_t* codes) {
  const int64_t oh = ih / 2;
  const int64_t ow = iw / 2;
  for (int64_t p = 0; p < planes; ++p) {
    for (int64_t oy = 0; oy < oh; ++oy) {
      const float* top = x + (p * ih + 2 * oy) * iw;
      const int64_t o = (p * oh + oy) * ow;
      MaxPoolRow<Ops>(top, top + iw, ow, y + o,
                      codes == nullptr ? nullptr : codes + o);
    }
  }
}

// One output row of the 2x2 max-pool backward: window element j of output
// ox gets +0 + dy[ox] where codes[ox] == j and +0 elsewhere; StorePairs
// interleaves elements 0/1 into the top row and 2/3 into the bottom row.
// +0 + g is g except that -0 becomes +0, as in adding g into a zeroed dx.
template <typename Ops>
void MaxPoolRowBackward(const float* dy, const uint8_t* codes, int64_t ow,
                        float* top, float* bottom) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  const Reg zero = Ops::Zero();
  const Reg one = Ops::Broadcast(1.0f);
  const Reg two = Ops::Broadcast(2.0f);
  const Reg three = Ops::Broadcast(3.0f);
  int64_t ox = 0;
  for (; ox + kW <= ow; ox += kW) {
    const Reg g = Ops::Add(zero, Ops::Load(dy + ox));
    const Reg code = Ops::LoadBytes(codes + ox);
    Ops::StorePairs(top + 2 * ox, Ops::Select(Ops::CmpEq(code, zero), g, zero),
                    Ops::Select(Ops::CmpEq(code, one), g, zero));
    Ops::StorePairs(bottom + 2 * ox,
                    Ops::Select(Ops::CmpEq(code, two), g, zero),
                    Ops::Select(Ops::CmpEq(code, three), g, zero));
  }
  if constexpr (kW > 1) {
    if (ox < ow) {
      MaxPoolRowBackward<ScalarLanes<Ops>>(dy + ox, codes + ox, ow - ox,
                                           top + 2 * ox, bottom + 2 * ox);
    }
  }
}

template <typename Ops>
void MaxPool2x2BackwardImpl(const float* dy, const uint8_t* codes,
                            int64_t planes, int64_t ih, int64_t iw,
                            float* dx) {
  const int64_t oh = ih / 2;
  const int64_t ow = iw / 2;
  for (int64_t p = 0; p < planes; ++p) {
    float* plane = dx + p * ih * iw;
    for (int64_t oy = 0; oy < oh; ++oy) {
      float* top = plane + 2 * oy * iw;
      float* bottom = top + iw;
      const int64_t o = (p * oh + oy) * ow;
      MaxPoolRowBackward<Ops>(dy + o, codes + o, ow, top, bottom);
      // A last odd column lies in no window.
      for (int64_t x = 2 * ow; x < iw; ++x) top[x] = bottom[x] = 0.0f;
    }
    // As does a last odd row.
    for (int64_t i = 2 * oh * iw; i < ih * iw; ++i) plane[i] = 0.0f;
  }
}

template <typename Ops>
Kernels MakeKernels(Isa isa, const char* name) {
  static_assert(kMaxWidth % Ops::kWidth == 0 && 64 % Ops::kWidth == 0,
                "sign-projection lanes must tile the panel and the words");
  Kernels kernels;
  kernels.isa = isa;
  kernels.name = name;
  kernels.width = Ops::kWidth;
  kernels.add = &AddImpl<Ops>;
  kernels.segment_row_sums = &SegmentRowSumsImpl<Ops>;
  kernels.scatter_add_rows = &ScatterAddRowsImpl<Ops>;
  kernels.copy = &CopyImpl<Ops>;
  kernels.scale = &ScaleImpl<Ops>;
  kernels.transpose = &TransposeImpl<Ops>;
  kernels.gemm_block = &GemmBlockImpl<Ops>;
  kernels.lsh_sign_project = &LshSignProjectImpl<Ops>;
  kernels.relu = &ReluImpl<Ops>;
  kernels.mul = &MulImpl<Ops>;
  kernels.max_pool_2x2 = &MaxPool2x2Impl<Ops>;
  kernels.max_pool_2x2_backward = &MaxPool2x2BackwardImpl<Ops>;
  return kernels;
}

}  // namespace adr::simd::detail

#endif  // ADR_TENSOR_SIMD_KERNELS_INL_H_
