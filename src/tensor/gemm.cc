#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "tensor/simd.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Block sizes tuned for a typical 32 KiB L1 / 256 KiB L2: the (i,k) panel of
// A and the (k,j) panel of B both fit in L2 across the inner loops.
constexpr int64_t kBlockM = 64;
constexpr int64_t kBlockK = 128;
constexpr int64_t kBlockN = 256;

// Rows per ParallelFor chunk, shared by all three forms. Chunks are
// multiples of kBlockM so the cache blocking inside a slice is the serial
// kernel's.
int64_t RowGrain(int64_t k, int64_t n) {
  return std::max(kBlockM,
                  (GrainForCost(k * n) + kBlockM - 1) / kBlockM * kBlockM);
}

void ZeroRows(float* c, int64_t row_begin, int64_t row_end, int64_t n) {
  std::memset(c + row_begin * n, 0,
              sizeof(float) * static_cast<size_t>((row_end - row_begin) * n));
}

// The three slice kernels below cut C into the same blocks and hand each
// one to gemm_block. An output element sums its k-blocks in ascending
// order, and gemm_block's per-element order depends only on k and on the
// column's position in its block, so neither the row partition nor the
// order in which blocks are visited changes a result.

// Gemm: computes C rows [row_begin, row_end) of A * B.
void GemmRowSlice(const simd::Kernels& kernels, const float* a,
                  const float* b, float* c, int64_t row_begin,
                  int64_t row_end, int64_t k, int64_t n, bool accumulate) {
  if (!accumulate) ZeroRows(c, row_begin, row_end, n);
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kBlockM) {
    const int64_t i1 = std::min(i0 + kBlockM, row_end);
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k1 = std::min(k0 + kBlockK, k);
      for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const int64_t j1 = std::min(j0 + kBlockN, n);
        kernels.gemm_block(a + i0 * k + k0, k, b + k0 * n + j0, n,
                           c + i0 * n + j0, n, i1 - i0, k1 - k0, j1 - j0);
      }
    }
  }
}

// GemmTransA: A is KxM. Each (i, k) block of A^T is packed row-major into
// a stack panel, once, and then serves every column block, in
// GemmRowSlice's block order.
void GemmTransARowSlice(const simd::Kernels& kernels, const float* a,
                        const float* b, float* c, int64_t m,
                        int64_t row_begin, int64_t row_end, int64_t k,
                        int64_t n, bool accumulate) {
  if (!accumulate) ZeroRows(c, row_begin, row_end, n);
  // Left uninitialized: transpose writes every element gemm_block reads.
  alignas(64) float panel[kBlockM * kBlockK];
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kBlockM) {
    const int64_t i1 = std::min(i0 + kBlockM, row_end);
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k1 = std::min(k0 + kBlockK, k);
      kernels.transpose(a + k0 * m + i0, m, k1 - k0, i1 - i0, panel, kBlockK);
      for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const int64_t j1 = std::min(j0 + kBlockN, n);
        kernels.gemm_block(panel, kBlockK, b + k0 * n + j0, n,
                           c + i0 * n + j0, n, i1 - i0, k1 - k0, j1 - j0);
      }
    }
  }
}

// GemmTransB: B is NxK. Each (k, j) block of B^T is packed row-major into
// a stack panel, once per slice, and then serves every row block of the
// slice. The block loops run j, k, i rather than Gemm's i, k, j; each
// element still sees its k-blocks in ascending order, so the sums match.
void GemmTransBRowSlice(const simd::Kernels& kernels, const float* a,
                        const float* b, float* c, int64_t row_begin,
                        int64_t row_end, int64_t k, int64_t n,
                        bool accumulate) {
  if (!accumulate) ZeroRows(c, row_begin, row_end, n);
  // Left uninitialized, like GemmTransARowSlice's panel.
  alignas(64) float panel[kBlockK * kBlockN];
  for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
    const int64_t j1 = std::min(j0 + kBlockN, n);
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k1 = std::min(k0 + kBlockK, k);
      kernels.transpose(b + j0 * k + k0, k, j1 - j0, k1 - k0, panel, kBlockN);
      for (int64_t i0 = row_begin; i0 < row_end; i0 += kBlockM) {
        const int64_t i1 = std::min(i0 + kBlockM, row_end);
        kernels.gemm_block(a + i0 * k + k0, k, panel, kBlockN,
                           c + i0 * n + j0, n, i1 - i0, k1 - k0, j1 - j0);
      }
    }
  }
}

}  // namespace

// Each form is parallelized over disjoint slices of C rows. The backend is
// resolved once on the calling thread so an override active here covers
// the whole call.

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate) {
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(m, RowGrain(k, n), [&](int64_t row_begin, int64_t row_end) {
    GemmRowSlice(kernels, a, b, c, row_begin, row_end, k, n, accumulate);
  });
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(m, RowGrain(k, n), [&](int64_t row_begin, int64_t row_end) {
    GemmTransARowSlice(kernels, a, b, c, m, row_begin, row_end, k, n,
                       accumulate);
  });
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(m, RowGrain(k, n), [&](int64_t row_begin, int64_t row_end) {
    GemmTransBRowSlice(kernels, a, b, c, row_begin, row_end, k, n,
                       accumulate);
  });
}

void GemmReference(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        sum += a[i * k + kk] * b[kk * n + j];
      }
      c[i * n + j] = sum;
    }
  }
}

}  // namespace adr
