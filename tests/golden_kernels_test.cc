// Differential golden-kernel tests for the SIMD layer (tensor/simd.h).
//
// Every backend available on this build + machine (scalar always; avx2 or
// neon when present) is swept over remainder-lane shapes and compared
// against double-precision references or the scalar backend, with the
// per-kernel tolerances documented in tests/kernel_harness.h and DESIGN.md
// section 6.3. The ReLU and max-pool kernels are also held bitwise to the
// layer loops they replaced. The suite closes with a finite-difference
// gradient check of ReuseConv2d running end-to-end on the active (SIMD)
// backend.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/clustered_matmul.h"
#include "core/reuse_backward.h"
#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "clustering/lsh.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/gradient_check.h"
#include "tests/kernel_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::Backends;
using testutil::RandomVector;
using testutil::ReductionTolerance;
using testutil::RefGemm;
using testutil::RemainderSizes;

TEST(GoldenKernels, AtLeastScalarIsAvailable) {
  ASSERT_FALSE(Backends().empty());
  EXPECT_EQ(Backends().front(), &simd::Scalar());
  EXPECT_EQ(simd::Scalar().isa, simd::Isa::kScalar);
  // Every backend reports a sane lane width and a name.
  for (const simd::Kernels* backend : Backends()) {
    EXPECT_GE(backend->width, 1) << backend->name;
    EXPECT_NE(backend->name, nullptr);
  }
}

TEST(GoldenKernels, AddAndScaleMatchScalarBitwise) {
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : RemainderSizes()) {
      const std::vector<float> x = RandomVector(n, 400 + n);
      std::vector<float> y = RandomVector(n, 500 + n);
      std::vector<float> actual = y;
      backend->add(x.data(), actual.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(actual[i], y[i] + x[i])
            << backend->name << " add n=" << n << " i=" << i;
      }
      actual = y;
      backend->scale(0.37f, actual.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(actual[i], y[i] * 0.37f)
            << backend->name << " scale n=" << n << " i=" << i;
      }
    }
  }
}

TEST(GoldenKernels, SegmentRowSumsMatchScalarOrderBitwise) {
  // Rows out of order and repeated, an empty segment, -0.0 entries (a
  // segment of -0 rows sums to +0, never -0), every remainder width.
  const std::vector<int32_t> rows = {3, 0, 5, 3, 1, 6, 2, 4};
  const std::vector<std::vector<int64_t>> segmentations = {
      {0, 0}, {0, 1}, {0, 8}, {0, 3, 3, 4, 8}, {0, 1, 2, 5, 6, 7, 8}};
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : RemainderSizes()) {
      const int64_t ldx = n + 3;
      std::vector<float> x = RandomVector(7 * ldx, 600 + n);
      for (int64_t i = 0; i < 7 * ldx; i += 5) {
        x[static_cast<size_t>(i)] = -0.0f;
      }
      for (int64_t i = 0; i < n; ++i) x[static_cast<size_t>(i)] = -0.0f;
      for (const std::vector<int64_t>& seg : segmentations) {
        const int64_t num_segs = static_cast<int64_t>(seg.size()) - 1;
        std::vector<float> expected(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          float total = 0.0f;
          for (int64_t g = 0; g < num_segs; ++g) {
            float sum = 0.0f;
            for (int64_t r = seg[static_cast<size_t>(g)];
                 r < seg[static_cast<size_t>(g + 1)]; ++r) {
              sum += x[static_cast<size_t>(rows[static_cast<size_t>(r)] *
                                               ldx +
                                           i)];
            }
            total += sum;
          }
          expected[static_cast<size_t>(i)] = total;
        }
        std::vector<float> actual(static_cast<size_t>(n) + 4, 99.0f);
        backend->segment_row_sums(x.data(), ldx, rows.data(), seg.data(),
                                  num_segs, actual.data(), n);
        EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << backend->name << " n=" << n << " segments=" << num_segs;
        for (size_t i = static_cast<size_t>(n); i < actual.size(); ++i) {
          EXPECT_EQ(actual[i], 99.0f) << backend->name << " n=" << n;
        }
      }
    }
  }
}

TEST(GoldenKernels, ScatterAddRowsMatchesPerRowLoopBitwise) {
  // Runs of length 1 (ids 0 and 3), a long run of 20 (id 2), id 0 again
  // after other ids, id 4 never used, and a run of 2 (id 5) on the last
  // rows. The last row of x and the sum of id 5 both end exactly at the
  // end of their allocations, so an over-read past n floats shows up
  // under AddressSanitizer. Sums start at -0, +0 or random values and x
  // holds -0 and +0 entries: signed zeros must come out as in the loop.
  std::vector<int32_t> ids(20, 2);
  for (const int32_t id : {0, 1, 1, 0, 3, 1, 1, 1, 5, 5}) ids.push_back(id);
  const int64_t rows = static_cast<int64_t>(ids.size());
  const int64_t num_ids = 6;
  for (const simd::Kernels* backend : Backends()) {
    for (int64_t n = 1; n <= 17; ++n) {
      const int64_t ldx = n + 3;
      std::vector<float> x = RandomVector((rows - 1) * ldx + n, 900 + n);
      for (size_t i = 0; i < x.size(); i += 3) x[i] = -0.0f;
      for (size_t i = 1; i < x.size(); i += 7) x[i] = 0.0f;
      std::vector<float> sums = RandomVector(num_ids * n, 950 + n);
      for (size_t i = 0; i < sums.size(); i += 2) sums[i] = -0.0f;
      for (size_t i = 1; i < sums.size(); i += 5) sums[i] = 0.0f;

      std::vector<float> expected = sums;
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t i = 0; i < n; ++i) {
          expected[static_cast<size_t>(ids[static_cast<size_t>(r)] * n + i)] +=
              x[static_cast<size_t>(r * ldx + i)];
        }
      }
      backend->scatter_add_rows(x.data(), ldx, rows, ids.data(), sums.data(),
                                n);
      EXPECT_EQ(std::memcmp(sums.data(), expected.data(),
                            sums.size() * sizeof(float)),
                0)
          << backend->name << " n=" << n;
    }
  }
}

TEST(GoldenKernels, CopyIsBitwiseExactAndLeavesTailUntouched) {
  // GatherHits in the cluster-reuse cache depends on copy being a pure
  // bitwise move on every backend.
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : RemainderSizes()) {
      const std::vector<float> x = RandomVector(n, 800 + n);
      std::vector<float> actual(static_cast<size_t>(n) + 4, 99.0f);
      backend->copy(x.data(), actual.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(&actual[static_cast<size_t>(i)],
                              &x[static_cast<size_t>(i)], sizeof(float)),
                  0)
            << backend->name << " copy n=" << n << " i=" << i;
      }
      // No write past n.
      for (size_t i = static_cast<size_t>(n); i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], 99.0f) << backend->name << " copy n=" << n;
      }
    }
  }
}

TEST(GoldenKernels, TransposeIsBitwiseExactAndLeavesPaddingUntouched) {
  // GemmTransA/GemmTransB pack their transposed operands with this kernel,
  // so it must be a pure bitwise move on every backend.
  const std::vector<int64_t> sizes = {1, 3, 4, 7, 8, 9, 16, 17, 33};
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t rows : sizes) {
      for (const int64_t cols : sizes) {
        const int64_t lds = cols + 3;
        const int64_t ldd = rows + 5;
        const std::vector<float> src = RandomVector(rows * lds, 900 + rows);
        std::vector<float> dst(static_cast<size_t>(cols * ldd), 99.0f);
        backend->transpose(src.data(), lds, rows, cols, dst.data(), ldd);
        for (int64_t c = 0; c < cols; ++c) {
          for (int64_t r = 0; r < ldd; ++r) {
            const float expected =
                r < rows ? src[static_cast<size_t>(r * lds + c)] : 99.0f;
            EXPECT_EQ(std::memcmp(&dst[static_cast<size_t>(c * ldd + r)],
                                  &expected, sizeof(float)),
                      0)
                << backend->name << " rows=" << rows << " cols=" << cols
                << " at (" << c << "," << r << ")";
          }
        }
      }
    }
  }
}

TEST(GoldenKernels, GemmBlockSweepWithLeadingDims) {
  // Leading dimensions strictly larger than the logical widths catch
  // stride bugs; m sweeps every row-tile remainder (R = 4 tiles).
  const std::vector<int64_t> ms = {1, 2, 3, 4, 5, 6, 7, 8, 13};
  const std::vector<int64_t> ks = {1, 3, 17, 64};
  const std::vector<int64_t> ns = {1, 3, 7, 8, 15, 16, 17, 33};
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t m : ms) {
      for (const int64_t k : ks) {
        for (const int64_t n : ns) {
          const int64_t lda = k + 3, ldb = n + 5, ldc = n + 2;
          const std::vector<float> a =
              RandomVector(m * lda, 1000 + m * 31 + k * 7 + n);
          const std::vector<float> b =
              RandomVector(k * ldb, 2000 + m + k * 13 + n * 3);
          // gemm_block accumulates: start from a non-trivial C.
          const std::vector<float> c0 =
              RandomVector(m * ldc, 3000 + m + k + n);
          std::vector<float> c = c0;
          backend->gemm_block(a.data(), lda, b.data(), ldb, c.data(), ldc,
                              m, k, n);
          std::vector<double> expected, abs_bound;
          RefGemm(a.data(), lda, b.data(), ldb, m, k, n, &expected,
                  &abs_bound);
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              const double want =
                  expected[static_cast<size_t>(i * n + j)] +
                  c0[static_cast<size_t>(i * ldc + j)];
              // The accumulate-into-C add rounds at the magnitude of C too.
              const double tolerance = ReductionTolerance(
                  abs_bound[static_cast<size_t>(i * n + j)] +
                      std::abs(
                          c0[static_cast<size_t>(i * ldc + j)]),
                  k + 1);
              EXPECT_NEAR(c[static_cast<size_t>(i * ldc + j)], want,
                          tolerance)
                  << backend->name << " m=" << m << " k=" << k << " n=" << n
                  << " at (" << i << "," << j << ")";
            }
          }
          // Padding between rows must be untouched.
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = n; j < ldc; ++j) {
              EXPECT_EQ(c[static_cast<size_t>(i * ldc + j)],
                        c0[static_cast<size_t>(i * ldc + j)])
                  << backend->name << " padding at (" << i << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

// Full Gemm/GemmTransA/GemmTransB under every backend vs the scalar
// triple-loop reference, at remainder and block-crossing shapes (the last
// crosses every cache-block edge: 64 rows, depth 128, 256 columns).
class GemmGoldenSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(GemmGoldenSweep, AllBackendsMatchReference) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> a = RandomVector(m * k, 40 + m + k);
  const std::vector<float> b = RandomVector(k * n, 50 + k + n);
  std::vector<float> expected(static_cast<size_t>(m * n));
  GemmReference(a.data(), b.data(), expected.data(), m, k, n);
  // Column max |A||B| bound: one tolerance per output (worst case row).
  double abs_bound = 0.0;
  for (int64_t i = 0; i < m * k; ++i) abs_bound += std::abs(a[i]);
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<float> actual(static_cast<size_t>(m * n), 7.25f);
    Gemm(a.data(), b.data(), actual.data(), m, k, n);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  expected[static_cast<size_t>(i)],
                  1e-4 * (std::abs(expected[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " m=" << m << " k=" << k << " n=" << n
          << " flat index " << i;
    }
    // accumulate=true adds on top of the previous result.
    Gemm(a.data(), b.data(), actual.data(), m, k, n, /*accumulate=*/true);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  2.0 * expected[static_cast<size_t>(i)],
                  2e-4 * (std::abs(expected[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " accumulate, flat index " << i;
    }
  }
}

TEST_P(GemmGoldenSweep, TransposedVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> at = RandomVector(k * m, 60 + m + k);  // KxM
  const std::vector<float> b = RandomVector(k * n, 70 + k + n);   // KxN
  const std::vector<float> bt = RandomVector(n * k, 80 + k + n);  // NxK
  const std::vector<float> a = RandomVector(m * k, 90 + m + n);   // MxK
  // Explicit transposes for the reference.
  std::vector<float> a_mk(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < m; ++j) a_mk[j * k + i] = at[i * m + j];
  }
  std::vector<float> b_kn(static_cast<size_t>(k * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) b_kn[j * n + i] = bt[i * k + j];
  }
  std::vector<float> expected_ta(static_cast<size_t>(m * n));
  GemmReference(a_mk.data(), b.data(), expected_ta.data(), m, k, n);
  std::vector<float> expected_tb(static_cast<size_t>(m * n));
  GemmReference(a.data(), b_kn.data(), expected_tb.data(), m, k, n);
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<float> actual(static_cast<size_t>(m * n));
    GemmTransA(at.data(), b.data(), actual.data(), m, k, n);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  expected_ta[static_cast<size_t>(i)],
                  1e-4 * (std::abs(expected_ta[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " TransA flat index " << i;
    }
    GemmTransB(a.data(), bt.data(), actual.data(), m, k, n);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  expected_tb[static_cast<size_t>(i)],
                  1e-4 * (std::abs(expected_tb[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " TransB flat index " << i;
    }
  }
}

// GemmTransA and GemmTransB run Gemm's cache blocks and microkernel on
// packed operands, so on every backend they must equal Gemm on explicitly
// transposed operands bit for bit, with and without accumulate.
TEST_P(GemmGoldenSweep, TransposedVariantsEqualGemmOnExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> at = RandomVector(k * m, 61 + m + k);  // KxM
  const std::vector<float> b = RandomVector(k * n, 71 + k + n);   // KxN
  const std::vector<float> bt = RandomVector(n * k, 81 + k + n);  // NxK
  const std::vector<float> a = RandomVector(m * k, 91 + m + n);   // MxK
  const std::vector<float> c0 = RandomVector(m * n, 95 + m + n);
  std::vector<float> a_mk(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < m; ++j) a_mk[j * k + i] = at[i * m + j];
  }
  std::vector<float> b_kn(static_cast<size_t>(k * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) b_kn[j * n + i] = bt[i * k + j];
  }
  const auto expect_bitwise = [&](const std::vector<float>& actual,
                                  const std::vector<float>& expected,
                                  const char* what) {
    ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                          sizeof(float) * actual.size()),
              0)
        << what << " m=" << m << " k=" << k << " n=" << n;
  };
  for (const simd::Kernels* backend : Backends()) {
    SCOPED_TRACE(backend->name);
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const bool accumulate : {false, true}) {
      SCOPED_TRACE(accumulate ? "accumulate" : "overwrite");
      std::vector<float> expected = c0;
      std::vector<float> actual = c0;
      Gemm(a_mk.data(), b.data(), expected.data(), m, k, n, accumulate);
      GemmTransA(at.data(), b.data(), actual.data(), m, k, n, accumulate);
      expect_bitwise(actual, expected, "TransA");
      expected = c0;
      actual = c0;
      Gemm(a.data(), b_kn.data(), expected.data(), m, k, n, accumulate);
      GemmTransB(a.data(), bt.data(), actual.data(), m, k, n, accumulate);
      expect_bitwise(actual, expected, "TransB");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmGoldenSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 3, 7),
                      std::make_tuple(3, 7, 17), std::make_tuple(7, 17, 3),
                      std::make_tuple(17, 7, 1), std::make_tuple(17, 17, 17),
                      std::make_tuple(5, 129, 33),
                      std::make_tuple(65, 40, 31),
                      std::make_tuple(9, 257, 15),
                      std::make_tuple(67, 131, 263)));

TEST(GoldenKernels, LshHashSignsMatchDoubleProjection) {
  const int64_t dim = 37;  // remainder lanes in the projection GEMM
  const int num_hashes = 24;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, num_hashes, 17, &family).ok());
  const std::vector<float>& panel = family.panel();
  const int64_t ldp = family.padded_hashes();
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (int trial = 0; trial < 32; ++trial) {
      const std::vector<float> row =
          RandomVector(dim, 4000 + static_cast<uint64_t>(trial));
      const LshSignature sig = family.Hash(row.data());
      for (int h = 0; h < num_hashes; ++h) {
        double projection = 0.0;
        for (int64_t j = 0; j < dim; ++j) {
          projection += static_cast<double>(row[static_cast<size_t>(j)]) *
                        panel[static_cast<size_t>(j * ldp + h)];
        }
        // Skip sign checks inside the rounding ambiguity band.
        if (std::abs(projection) < 1e-4) continue;
        const bool bit = (sig.words[h >> 6] >> (h & 63)) & 1;
        EXPECT_EQ(bit, projection > 0.0)
            << backend->name << " trial=" << trial << " h=" << h;
      }
    }
  }
}

TEST(GoldenKernels, LshBatchedHashMatchesPerRowOnEveryBackend) {
  const int64_t dim = 29, rows = 21;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, 48, 23, &family).ok());
  const std::vector<float> data = RandomVector(rows * dim, 4500);
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<LshSignature> batched;
    family.HashRows(data.data(), rows, dim, &batched);
    for (int64_t i = 0; i < rows; ++i) {
      EXPECT_EQ(batched[static_cast<size_t>(i)],
                family.Hash(data.data() + i * dim))
          << backend->name << " row " << i;
    }
  }
}

// The sign-projection kernel behind every LSH signature, swept per
// backend over remainder shapes: hash counts on both sides of each
// vector width and of the 64-bit word boundary, row counts around the
// 4-row register tile, and row strides equal to and larger than dim.
// Every bit must match the sign of a double-precision projection outside
// the rounding band, bits at or above H must be zero, and the strided,
// per-row and contiguous batched signatures must be bitwise equal at 1
// and 4 threads.
TEST(GoldenKernels, LshSignProjectSweep) {
  const int saved_threads = ThreadPool::GlobalThreads();
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const int64_t dim : {1, 7, 10, 17, 37}) {
      for (const int num_hashes : {1, 7, 8, 11, 16, 17, 64, 65, 128}) {
        LshFamily family;
        ASSERT_TRUE(LshFamily::Create(dim, num_hashes,
                                      static_cast<uint64_t>(dim * 131 +
                                                            num_hashes),
                                      &family)
                        .ok());
        const std::vector<float>& panel = family.panel();
        const int64_t ldp = family.padded_hashes();
        ASSERT_EQ(ldp % simd::kMaxWidth, 0);
        ASSERT_GE(ldp, num_hashes);
        for (int64_t j = 0; j < dim; ++j) {
          for (int64_t h = num_hashes; h < ldp; ++h) {
            ASSERT_EQ(panel[static_cast<size_t>(j * ldp + h)], 0.0f)
                << "padding lanes must be zero planes";
          }
        }
        for (const int64_t rows : {1, 3, 4, 5, 65}) {
          for (const int64_t stride : {dim, dim + 5}) {
            SCOPED_TRACE(std::string(backend->name) +
                         " dim=" + std::to_string(dim) +
                         " h=" + std::to_string(num_hashes) +
                         " rows=" + std::to_string(rows) +
                         " stride=" + std::to_string(stride));
            const std::vector<float> data = RandomVector(
                rows * stride, static_cast<uint64_t>(6000 + dim * 7 +
                                                     num_hashes * 3 + rows));
            std::vector<LshSignature> direct(static_cast<size_t>(rows));
            backend->lsh_sign_project(
                data.data(), stride, rows, panel.data(), dim, ldp, num_hashes,
                direct.data()->words.data());
            int64_t sign_mismatches = 0, high_bits = 0;
            for (int64_t i = 0; i < rows; ++i) {
              const LshSignature& sig = direct[static_cast<size_t>(i)];
              for (int h = 0; h < kMaxLshHashes; ++h) {
                const bool bit = (sig.words[h >> 6] >> (h & 63)) & 1;
                if (h >= num_hashes) {
                  high_bits += bit;
                  continue;
                }
                double projection = 0.0;
                for (int64_t j = 0; j < dim; ++j) {
                  projection +=
                      static_cast<double>(
                          data[static_cast<size_t>(i * stride + j)]) *
                      panel[static_cast<size_t>(j * ldp + h)];
                }
                if (std::abs(projection) < 1e-4) continue;
                sign_mismatches += bit != (projection > 0.0);
              }
            }
            EXPECT_EQ(sign_mismatches, 0);
            EXPECT_EQ(high_bits, 0) << "bits at or above H must be zero";

            // The contiguous copy of the same rows.
            std::vector<float> compact(static_cast<size_t>(rows * dim));
            for (int64_t i = 0; i < rows; ++i) {
              std::memcpy(compact.data() + i * dim, data.data() + i * stride,
                          static_cast<size_t>(dim) * sizeof(float));
            }
            for (const int threads : {1, 4}) {
              ThreadPool::SetGlobalThreads(threads);
              std::vector<LshSignature> strided, batched;
              family.HashRows(data.data(), rows, stride, &strided);
              family.HashRows(compact.data(), rows, dim, &batched);
              for (int64_t i = 0; i < rows; ++i) {
                const LshSignature& want = direct[static_cast<size_t>(i)];
                EXPECT_EQ(strided[static_cast<size_t>(i)], want)
                    << "strided row " << i << " threads=" << threads;
                EXPECT_EQ(batched[static_cast<size_t>(i)], want)
                    << "batched row " << i << " threads=" << threads;
                EXPECT_EQ(family.Hash(compact.data() + i * dim), want)
                    << "per-row " << i << " threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

// --- ReLU and 2x2 max pooling --------------------------------------------

// Values that stress the glue kernels' contracts: NaN, both zeros, both
// infinities, and a few repeated finite values so windows tie often.
std::vector<float> SpecialValues(int64_t n, uint64_t seed) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kPool[] = {std::numeric_limits<float>::quiet_NaN(),
                         0.0f, -0.0f, kInf, -kInf, 1.0f, -1.0f, 2.0f};
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    const uint64_t pick = rng.NextU64() % 12;
    x = pick < 8 ? kPool[pick] : rng.NextGaussian();
  }
  return v;
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

// The ReLU layer's loop before it moved onto simd::Kernels.
void LoopRelu(const float* x, float* y, float* mask, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = x[i];
    if (y[i] > 0.0f) {
      mask[i] = 1.0f;
    } else {
      y[i] = 0.0f;
      mask[i] = 0.0f;
    }
  }
}

// MaxPool2d's 2x2 / stride-2 loop before it moved onto simd::Kernels (the
// winner's index seeded with the window's first element), returning the
// winner as its window element 0..3.
void LoopMaxPool2x2(const float* x, int64_t planes, int64_t ih, int64_t iw,
                    float* y, uint8_t* codes) {
  const int64_t oh = (ih - 2) / 2 + 1, ow = (iw - 2) / 2 + 1;
  int64_t o = 0;
  for (int64_t p = 0; p < planes; ++p) {
    const float* plane = x + p * ih * iw;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        int best_code = 0;
        for (int64_t ky = 0; ky < 2; ++ky) {
          for (int64_t kx = 0; kx < 2; ++kx) {
            const float v = plane[(2 * oy + ky) * iw + 2 * ox + kx];
            if (v > best) {
              best = v;
              best_code = static_cast<int>(2 * ky + kx);
            }
          }
        }
        y[o] = best;
        codes[o] = static_cast<uint8_t>(best_code);
        ++o;
      }
    }
  }
}

// MaxPool2d's backward before: zero-fill dx, add each dy into its winner.
void LoopMaxPool2x2Backward(const float* dy, const uint8_t* codes,
                            int64_t planes, int64_t ih, int64_t iw,
                            float* dx) {
  const int64_t oh = ih / 2, ow = iw / 2;
  std::fill(dx, dx + planes * ih * iw, 0.0f);
  int64_t o = 0;
  for (int64_t p = 0; p < planes; ++p) {
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        const int64_t ky = codes[o] / 2, kx = codes[o] % 2;
        dx[(p * ih + 2 * oy + ky) * iw + 2 * ox + kx] += dy[o];
        ++o;
      }
    }
  }
}

TEST(GoldenKernels, ReluMatchesLayerLoopBitwise) {
  // Every length up to three registers of the widest backend, so every
  // tail of 1 to width - 1 lanes runs, plus the remainder sweep.
  std::vector<int64_t> lengths;
  for (int64_t n = 1; n <= 3 * simd::kMaxWidth; ++n) lengths.push_back(n);
  for (const int64_t n : RemainderSizes()) lengths.push_back(n);
  const float kSentinel = 99.0f;
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : lengths) {
      const std::vector<float> x = SpecialValues(n, 1000 + n);
      std::vector<float> want_y(static_cast<size_t>(n));
      std::vector<float> want_mask(static_cast<size_t>(n));
      LoopRelu(x.data(), want_y.data(), want_mask.data(), n);

      std::vector<float> y(static_cast<size_t>(n) + 3, kSentinel);
      std::vector<float> mask(static_cast<size_t>(n) + 3, kSentinel);
      backend->relu(x.data(), y.data(), mask.data(), n);
      EXPECT_TRUE(SameBits(y.data(), want_y.data(), n))
          << backend->name << " n=" << n;
      EXPECT_TRUE(SameBits(mask.data(), want_mask.data(), n))
          << backend->name << " n=" << n;
      for (size_t i = static_cast<size_t>(n); i < y.size(); ++i) {
        EXPECT_EQ(y[i], kSentinel) << backend->name << " n=" << n;
        EXPECT_EQ(mask[i], kSentinel) << backend->name << " n=" << n;
      }

      // Without a mask.
      std::vector<float> eval_y(static_cast<size_t>(n));
      backend->relu(x.data(), eval_y.data(), nullptr, n);
      EXPECT_TRUE(SameBits(eval_y.data(), want_y.data(), n))
          << backend->name << " no mask n=" << n;
    }
  }
}

TEST(GoldenKernels, MulMatchesScalarBitwise) {
  for (const simd::Kernels* backend : Backends()) {
    for (int64_t n = 1; n <= 3 * simd::kMaxWidth + 1; ++n) {
      // a holds every special value; b is a ReLU mask or a random factor
      // (never NaN, so which NaN operand propagates never comes up).
      const std::vector<float> a = SpecialValues(n, 1100 + n);
      std::vector<float> b = RandomVector(n, 1200 + n);
      for (int64_t i = 0; i < n; i += 2) {
        b[static_cast<size_t>(i)] = (i % 4 == 0) ? 0.0f : 1.0f;
      }
      std::vector<float> want(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        want[static_cast<size_t>(i)] =
            a[static_cast<size_t>(i)] * b[static_cast<size_t>(i)];
      }
      std::vector<float> y(static_cast<size_t>(n) + 3, 99.0f);
      backend->mul(a.data(), b.data(), y.data(), n);
      EXPECT_TRUE(SameBits(y.data(), want.data(), n))
          << backend->name << " n=" << n;
      EXPECT_EQ(y[static_cast<size_t>(n)], 99.0f) << backend->name;

      std::vector<float> scalar(static_cast<size_t>(n));
      simd::Scalar().mul(a.data(), b.data(), scalar.data(), n);
      EXPECT_TRUE(SameBits(y.data(), scalar.data(), n))
          << backend->name << " n=" << n;
    }
  }
}

TEST(GoldenKernels, MaxPool2x2MatchesLayerLoopBitwise) {
  // Output widths 1 .. 2 * kMaxWidth + 1 cover every tail on every
  // backend; odd input sizes leave a last row and column out.
  const float kSentinel = 99.0f;
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t ih : {2, 3, 4, 5}) {
      for (int64_t iw = 2; iw <= 4 * simd::kMaxWidth + 3; ++iw) {
        const int64_t planes = 3;
        const int64_t oh = ih / 2, ow = iw / 2;
        const int64_t in_n = planes * ih * iw, out_n = planes * oh * ow;
        std::vector<float> x = SpecialValues(in_n, 1300 + ih * 100 + iw);
        // Whole windows of NaN, of -inf, of signed zeros and of one tied
        // value, in the first windows of plane 1.
        const float kNan = std::numeric_limits<float>::quiet_NaN();
        const float kInf = std::numeric_limits<float>::infinity();
        const float fills[4][4] = {{kNan, kNan, kNan, kNan},
                                   {-kInf, -kInf, -kInf, -kInf},
                                   {-0.0f, 0.0f, -0.0f, 0.0f},
                                   {kNan, 3.0f, -kInf, 3.0f}};
        for (int64_t w = 0; w < std::min<int64_t>(4, ow); ++w) {
          float* window = x.data() + ih * iw + 2 * w;
          window[0] = fills[w][0];
          window[1] = fills[w][1];
          window[iw] = fills[w][2];
          window[iw + 1] = fills[w][3];
        }
        std::vector<float> want_y(static_cast<size_t>(out_n));
        std::vector<uint8_t> want_codes(static_cast<size_t>(out_n));
        LoopMaxPool2x2(x.data(), planes, ih, iw, want_y.data(),
                       want_codes.data());

        std::vector<float> y(static_cast<size_t>(out_n) + 9, kSentinel);
        std::vector<uint8_t> codes(static_cast<size_t>(out_n) + 9, 77);
        backend->max_pool_2x2(x.data(), planes, ih, iw, y.data(),
                              codes.data());
        const std::string where = std::string(backend->name) +
                                  " ih=" + std::to_string(ih) +
                                  " iw=" + std::to_string(iw);
        EXPECT_TRUE(SameBits(y.data(), want_y.data(), out_n)) << where;
        EXPECT_TRUE(std::equal(want_codes.begin(), want_codes.end(),
                               codes.begin()))
            << where;
        for (size_t i = static_cast<size_t>(out_n); i < y.size(); ++i) {
          EXPECT_EQ(y[i], kSentinel) << where;
          EXPECT_EQ(codes[i], 77) << where;
        }

        // Eval form: no codes, the same outputs.
        std::vector<float> eval_y(static_cast<size_t>(out_n));
        backend->max_pool_2x2(x.data(), planes, ih, iw, eval_y.data(),
                              nullptr);
        EXPECT_TRUE(SameBits(eval_y.data(), want_y.data(), out_n)) << where;

        // Backward: every element of dx overwritten, bitwise as the
        // zero-fill-and-add loop. dy holds special values too (-0 must
        // come out +0, as 0 + -0 does).
        const std::vector<float> dy = SpecialValues(out_n, 1400 + iw);
        std::vector<float> want_dx(static_cast<size_t>(in_n));
        LoopMaxPool2x2Backward(dy.data(), want_codes.data(), planes, ih, iw,
                               want_dx.data());
        std::vector<float> dx(static_cast<size_t>(in_n) + 9, kNan);
        dx[static_cast<size_t>(in_n)] = kSentinel;
        backend->max_pool_2x2_backward(dy.data(), want_codes.data(), planes,
                                       ih, iw, dx.data());
        EXPECT_TRUE(SameBits(dx.data(), want_dx.data(), in_n)) << where;
        EXPECT_EQ(dx[static_cast<size_t>(in_n)], kSentinel) << where;
      }
    }
  }
}

// The clustered forward (hash + centroid GEMM + gather/scatter) and the
// reuse backward (per-cluster sum/average reductions + scatter) compared
// across backends: clustering must be identical, tensors within tolerance.
TEST(GoldenKernels, ClusteredMatmulAndBackwardScalarVsSimd) {
  const int64_t n = 40, k = 20, m = 6, l = 7;  // blocks of length 7, 7, 6
  Rng rng(31);
  Tensor x = Tensor::RandomGaussian(Shape({n, k}), &rng);
  Tensor weight = Tensor::RandomGaussian(Shape({k, m}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);
  auto families = BlockLshFamilies::Create(k, l, 12, 37);
  ASSERT_TRUE(families.ok());

  simd::ScopedKernelsOverride scalar_override(simd::Scalar());
  ForwardReuseResult scalar_forward =
      ClusteredMatmulForward(*families, x.data(), n, weight, nullptr, n,
                             nullptr);
  BackwardReuseResult scalar_backward =
      ReuseBackward(scalar_forward.clustering, weight, dy);

  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    ForwardReuseResult forward =
        ClusteredMatmulForward(*families, x.data(), n, weight, nullptr, n,
                               nullptr);
    ASSERT_EQ(forward.clustering.blocks.size(),
              scalar_forward.clustering.blocks.size());
    for (size_t bi = 0; bi < forward.clustering.blocks.size(); ++bi) {
      EXPECT_EQ(forward.clustering.blocks[bi].clustering.assignment,
                scalar_forward.clustering.blocks[bi].clustering.assignment)
          << backend->name << " block " << bi
          << ": clustering diverged between backends";
    }
    EXPECT_LT(MaxAbsDiff(forward.y_rows, scalar_forward.y_rows), 1e-3f)
        << backend->name;

    BackwardReuseResult backward =
        ReuseBackward(forward.clustering, weight, dy);
    EXPECT_LT(MaxAbsDiff(backward.grad_weight, scalar_backward.grad_weight),
              1e-3f)
        << backend->name;
    EXPECT_LT(MaxAbsDiff(backward.grad_x, scalar_backward.grad_x), 1e-3f)
        << backend->name;
    EXPECT_LT(MaxAbsDiff(backward.grad_bias, scalar_backward.grad_bias),
              1e-3f)
        << backend->name;
  }
}

// End-to-end: finite-difference gradient check of ReuseConv2d with the
// active (SIMD) backend, near-singleton clustering so the reuse backward
// is the exact gradient of the clustered forward.
TEST(GoldenKernels, ReuseConv2dGradientCheckWithSimdActive) {
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 3;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 5;
  config.in_width = 5;
  ReuseConfig reuse;
  reuse.sub_vector_length = 0;
  reuse.num_hashes = 96;
  Rng rng(41);
  ReuseConv2d layer("conv_simd", config, reuse, &rng);
  Rng data_rng(42);
  Tensor input = Tensor::RandomGaussian(Shape({1, 2, 5, 5}), &data_rng);
  testutil::CheckGradients(&layer, input, /*tolerance=*/5e-2, /*epsilon=*/1e-3f,
                           /*seed=*/7, /*training=*/true);
}

}  // namespace
}  // namespace adr
