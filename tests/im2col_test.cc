// Tests for ConvGeometry, Im2Col and Col2Im, including the adjoint
// property <Im2Col(x), g> == <x, Col2Im(g)> that backpropagation relies on,
// bitwise agreement of the clipped-run fold with a per-tap fold, and of
// the column-range unfold with Im2Col's columns.

#include <cstring>
#include <string>
#include <utility>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/kernel_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

ConvGeometry MakeGeometry(int64_t batch, int64_t channels, int64_t size,
                          int64_t kernel, int64_t stride, int64_t pad) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = channels;
  geo.in_height = size;
  geo.in_width = size;
  geo.kernel_h = kernel;
  geo.kernel_w = kernel;
  geo.stride = stride;
  geo.pad = pad;
  return geo;
}

TEST(ConvGeometryTest, OutputDims) {
  const ConvGeometry geo = MakeGeometry(2, 3, 32, 5, 1, 2);
  EXPECT_EQ(geo.out_height(), 32);
  EXPECT_EQ(geo.out_width(), 32);
  EXPECT_EQ(geo.unfolded_rows(), 2 * 32 * 32);
  EXPECT_EQ(geo.unfolded_cols(), 3 * 5 * 5);
  EXPECT_EQ(geo.rows_per_image(), 32 * 32);
}

TEST(ConvGeometryTest, StridedOutputDims) {
  const ConvGeometry geo = MakeGeometry(1, 3, 227, 11, 4, 0);
  EXPECT_EQ(geo.out_height(), 55);
  EXPECT_EQ(geo.unfolded_cols(), 363);  // the paper's AlexNet conv1 K
}

TEST(ConvGeometryTest, ValidationCatchesBadInputs) {
  ConvGeometry geo = MakeGeometry(1, 1, 8, 3, 1, 0);
  EXPECT_TRUE(geo.Validate().ok());
  geo.batch = 0;
  EXPECT_EQ(geo.Validate().code(), StatusCode::kInvalidArgument);
  geo = MakeGeometry(1, 1, 8, 0, 1, 0);
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 8, 3, 0, 0);
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 8, 3, 1, -1);
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 2, 5, 1, 0);  // kernel larger than input
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 8, 3, 2, 0);  // (8-3) % 2 != 0
  EXPECT_FALSE(geo.Validate().ok());
}

TEST(Im2ColTest, OneByOneKernelIsTransposedCopy) {
  const ConvGeometry geo = MakeGeometry(1, 2, 3, 1, 1, 0);
  Rng rng(1);
  Tensor input = Tensor::RandomGaussian(
      Shape({1, 2, 3, 3}), &rng);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  // Row p (output pixel p) holds [channel0[p], channel1[p]].
  for (int64_t p = 0; p < 9; ++p) {
    EXPECT_EQ(cols.at(p, 0), input.at(p));
    EXPECT_EQ(cols.at(p, 1), input.at(9 + p));
  }
}

TEST(Im2ColTest, KnownPatchLayout) {
  // 1x1x3x3 image with values 0..8, 2x2 kernel, stride 1, no pad.
  Tensor input(Shape({1, 1, 3, 3}), {0, 1, 2, 3, 4, 5, 6, 7, 8});
  const ConvGeometry geo = MakeGeometry(1, 1, 3, 2, 1, 0);
  Tensor cols(Shape({4, 4}));
  Im2Col(geo, input, &cols);
  // Patch at (0,0): 0 1 3 4
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(0, 1), 1.0f);
  EXPECT_EQ(cols.at(0, 2), 3.0f);
  EXPECT_EQ(cols.at(0, 3), 4.0f);
  // Patch at (1,1): 4 5 7 8
  EXPECT_EQ(cols.at(3, 0), 4.0f);
  EXPECT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2ColTest, ZeroPaddingProducesZeros) {
  Tensor input = Tensor::Ones(Shape({1, 1, 2, 2}));
  const ConvGeometry geo = MakeGeometry(1, 1, 2, 3, 1, 1);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  // Top-left patch: first row and first column of the 3x3 window are pad.
  EXPECT_EQ(cols.at(0, 0), 0.0f);  // (-1,-1)
  EXPECT_EQ(cols.at(0, 4), 1.0f);  // (0,0)
}

TEST(Im2ColTest, BatchRowsAreContiguousPerImage) {
  const ConvGeometry geo = MakeGeometry(2, 1, 4, 2, 2, 0);
  Rng rng(2);
  Tensor input = Tensor::RandomGaussian(Shape({2, 1, 4, 4}), &rng);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  // Second image's first patch starts at row rows_per_image().
  const int64_t row = geo.rows_per_image();
  EXPECT_EQ(cols.at(row, 0), input.at4(1, 0, 0, 0));
}

// Im2Col by its definition, one tap at a time.
Tensor NaiveIm2Col(const ConvGeometry& geo, const Tensor& input) {
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  int64_t row = 0;
  for (int64_t n = 0; n < geo.batch; ++n) {
    for (int64_t oy = 0; oy < geo.out_height(); ++oy) {
      for (int64_t ox = 0; ox < geo.out_width(); ++ox, ++row) {
        int64_t col = 0;
        for (int64_t c = 0; c < geo.in_channels; ++c) {
          for (int64_t ky = 0; ky < geo.kernel_h; ++ky) {
            for (int64_t kx = 0; kx < geo.kernel_w; ++kx, ++col) {
              const int64_t y = oy * geo.stride - geo.pad + ky;
              const int64_t x = ox * geo.stride - geo.pad + kx;
              const bool inside = y >= 0 && y < geo.in_height && x >= 0 &&
                                  x < geo.in_width;
              cols.at(row, col) = inside ? input.at4(n, c, y, x) : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

struct ColumnSliceCase {
  int64_t channels, size, kernel, stride, pad, length;
};

TEST(Im2ColColumnsTest, SlicesEqualIm2ColColumnsAndKeepPadding) {
  // Kernels 3 and 5 (and one 11 wide, past the fixed-width runs), pad 0
  // and 2, stride 1 and 2. Blocks of L = 7 against kw = 5 start and end
  // inside kernel rows; blocks of L = 10 straddle channels, and K = 75
  // (conv1) leaves a short last block.
  std::vector<ColumnSliceCase> cases;
  for (const int64_t kernel : {3, 5}) {
    for (const int64_t stride : {1, 2}) {
      for (const int64_t pad : {0, 2}) {
        for (const int64_t length : {7, 10}) {
          cases.push_back({3, 9, kernel, stride, pad, length});
        }
      }
    }
  }
  cases.push_back({2, 12, 11, 1, 3, 13});
  constexpr float kSentinel = -777.0f;
  for (const ColumnSliceCase& c : cases) {
    const ConvGeometry geo =
        MakeGeometry(2, c.channels, c.size, c.kernel, c.stride, c.pad);
    ASSERT_TRUE(geo.Validate().ok());
    SCOPED_TRACE("kernel=" + std::to_string(c.kernel) +
                 " stride=" + std::to_string(c.stride) +
                 " pad=" + std::to_string(c.pad) +
                 " L=" + std::to_string(c.length));
    Rng rng(static_cast<uint64_t>(c.kernel * 100 + c.stride * 10 + c.pad));
    const Tensor input = Tensor::RandomGaussian(
        Shape({2, c.channels, c.size, c.size}), &rng);
    Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
    Im2Col(geo, input, &cols);
    const Tensor naive = NaiveIm2Col(geo, input);
    ASSERT_EQ(std::memcmp(cols.data(), naive.data(),
                          sizeof(float) * cols.num_elements()),
              0);

    const int64_t n = geo.unfolded_rows();
    const int64_t k = geo.unfolded_cols();
    const int64_t per_image = geo.rows_per_image();
    // Whole range, and ranges starting and ending mid-image.
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, n}, {3, n - 2}, {per_image / 2, per_image + 3}, {n - 1, n}};
    const int64_t stride = (c.length + 7) / 8 * 8 + 3;  // padded, odd
    for (int64_t col = 0; col < k; col += c.length) {
      const int64_t width = std::min(c.length, k - col);
      for (const auto& [begin, end] : ranges) {
        std::vector<float> out(static_cast<size_t>((end - begin) * stride),
                               kSentinel);
        Im2ColColumns(geo, input.data(), begin, end, col, col + width,
                      out.data(), stride);
        for (int64_t r = begin; r < end; ++r) {
          const float* got = out.data() + (r - begin) * stride;
          ASSERT_EQ(std::memcmp(got, cols.data() + r * k + col,
                                sizeof(float) * width),
                    0)
              << "row " << r << " columns [" << col << ", " << col + width
              << ")";
          for (int64_t j = width; j < stride; ++j) {
            ASSERT_EQ(got[j], kSentinel) << "padding lane " << j;
          }
        }
      }
    }
  }
}

class Im2ColAdjointSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(Im2ColAdjointSweep, Col2ImIsAdjointOfIm2Col) {
  const auto [channels, size, kernel, stride, pad] = GetParam();
  const ConvGeometry geo = MakeGeometry(2, channels, size, kernel, stride,
                                        pad);
  ASSERT_TRUE(geo.Validate().ok());
  Rng rng(3);
  Tensor x = Tensor::RandomGaussian(
      Shape({2, channels, size, size}), &rng);
  Tensor g = Tensor::RandomGaussian(
      Shape({geo.unfolded_rows(), geo.unfolded_cols()}), &rng);

  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, x, &cols);
  Tensor folded(Shape({2, channels, size, size}));
  Col2Im(geo, g, &folded);

  // <Im2Col(x), g> must equal <x, Col2Im(g)>.
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.num_elements(); ++i) {
    lhs += static_cast<double>(cols.at(i)) * g.at(i);
  }
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    rhs += static_cast<double>(x.at(i)) * folded.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColAdjointSweep,
    ::testing::Values(std::make_tuple(1, 6, 3, 1, 0),
                      std::make_tuple(3, 8, 3, 1, 1),
                      std::make_tuple(2, 9, 3, 2, 0),
                      std::make_tuple(4, 7, 1, 1, 0),
                      std::make_tuple(1, 11, 5, 2, 1),
                      std::make_tuple(3, 12, 4, 4, 0)));

TEST(Col2ImTest, OverlappingPatchesAccumulate) {
  // 3x3 input, 2x2 kernel, stride 1: center pixel (1,1) appears in all
  // four patches.
  const ConvGeometry geo = MakeGeometry(1, 1, 3, 2, 1, 0);
  Tensor g = Tensor::Ones(Shape({4, 4}));
  Tensor folded(Shape({1, 1, 3, 3}));
  Col2Im(geo, g, &folded);
  EXPECT_EQ(folded.at4(0, 0, 1, 1), 4.0f);  // in 4 patches
  EXPECT_EQ(folded.at4(0, 0, 0, 0), 1.0f);  // in 1 patch
  EXPECT_EQ(folded.at4(0, 0, 0, 1), 2.0f);  // in 2 patches
}

// The per-tap fold: every (row, c, ky, kx) tap in row-major order, with
// a bounds test per tap.
void NaiveCol2Im(const ConvGeometry& geo, const float* cols, float* out) {
  const int64_t ih = geo.in_height, iw = geo.in_width;
  std::fill_n(out, geo.batch * geo.in_channels * ih * iw, 0.0f);
  const float* src = cols;
  for (int64_t n = 0; n < geo.batch; ++n) {
    for (int64_t oy = 0; oy < geo.out_height(); ++oy) {
      for (int64_t ox = 0; ox < geo.out_width(); ++ox) {
        for (int64_t c = 0; c < geo.in_channels; ++c) {
          float* chan = out + (n * geo.in_channels + c) * ih * iw;
          for (int64_t ky = 0; ky < geo.kernel_h; ++ky) {
            for (int64_t kx = 0; kx < geo.kernel_w; ++kx, ++src) {
              const int64_t y = oy * geo.stride + ky - geo.pad;
              const int64_t x = ox * geo.stride + kx - geo.pad;
              if (y >= 0 && y < ih && x >= 0 && x < iw) {
                chan[y * iw + x] += *src;
              }
            }
          }
        }
      }
    }
  }
}

// The per-tap unfold, the inverse walk of NaiveCol2Im.
void NaiveIm2Col(const ConvGeometry& geo, const float* input, float* cols) {
  const int64_t ih = geo.in_height, iw = geo.in_width;
  float* dst = cols;
  for (int64_t n = 0; n < geo.batch; ++n) {
    for (int64_t oy = 0; oy < geo.out_height(); ++oy) {
      for (int64_t ox = 0; ox < geo.out_width(); ++ox) {
        for (int64_t c = 0; c < geo.in_channels; ++c) {
          const float* chan = input + (n * geo.in_channels + c) * ih * iw;
          for (int64_t ky = 0; ky < geo.kernel_h; ++ky) {
            for (int64_t kx = 0; kx < geo.kernel_w; ++kx) {
              const int64_t y = oy * geo.stride + ky - geo.pad;
              const int64_t x = ox * geo.stride + kx - geo.pad;
              *dst++ = y >= 0 && y < ih && x >= 0 && x < iw
                           ? chan[y * iw + x]
                           : 0.0f;
            }
          }
        }
      }
    }
  }
}

using testutil::ThreadCountGuard;

TEST(Col2ImTest, ClippedRunsAreBitwiseEqualToPerTapLoops) {
  // Both directions: Col2Im against the per-tap fold, and Im2Col of the
  // folded image against the per-tap unfold.
  ThreadCountGuard guard;
  for (const int64_t kernel : {1, 3, 5}) {
    for (const int64_t stride : {1, 2}) {
      // Up to kernel + 1: whole receptive fields in the padding.
      for (int64_t pad = 0; pad <= kernel + 1; ++pad) {
        // Smallest input >= 5 that the stride tiles exactly.
        int64_t size = 5;
        while ((size + 2 * pad - kernel) % stride != 0) ++size;
        const ConvGeometry geo = MakeGeometry(3, 2, size, kernel, stride, pad);
        ASSERT_TRUE(geo.Validate().ok());
        const int64_t n = geo.unfolded_rows();
        const int64_t k = geo.unfolded_cols();
        const std::vector<float> cols =
            testutil::RandomVector(n * k, 100 + kernel * 10 + pad);
        std::vector<float> expected(
            static_cast<size_t>(3 * 2 * size * size));
        NaiveCol2Im(geo, cols.data(), expected.data());
        std::vector<float> unfolded_ref(static_cast<size_t>(n * k));
        NaiveIm2Col(geo, expected.data(), unfolded_ref.data());
        for (const simd::Kernels* backend : testutil::Backends()) {
          simd::ScopedKernelsOverride override_backend(*backend);
          for (const int threads : {1, 2, 8}) {
            SCOPED_TRACE(std::string(backend->name) + " threads=" +
                         std::to_string(threads) + " kernel=" +
                         std::to_string(kernel) + " stride=" +
                         std::to_string(stride) + " pad=" +
                         std::to_string(pad));
            ThreadPool::SetGlobalThreads(threads);
            std::vector<float> unfolded(static_cast<size_t>(n * k), 7.0f);
            Im2Col(geo, expected.data(), unfolded.data());
            for (size_t i = 0; i < unfolded.size(); ++i) {
              ASSERT_EQ(unfolded[i], unfolded_ref[i]) << "im2col " << i;
            }
            // Garbage in the output proves Col2Im zeroes it first.
            std::vector<float> folded(expected.size(), 7.0f);
            Col2Im(geo, cols.data(), folded.data());
            for (size_t i = 0; i < expected.size(); ++i) {
              ASSERT_EQ(folded[i], expected[i]) << "element " << i;
            }
          }
        }
      }
    }
  }
}

TEST(Col2ImTest, RowSourceBuffersAreFoldedLikeStoredRows) {
  // A source that writes each row into its chunk's buffer must fold to
  // the same bits as one that points into the stored matrix.
  ThreadCountGuard guard;
  const ConvGeometry geo = MakeGeometry(4, 3, 9, 3, 2, 1);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const std::vector<float> cols = testutil::RandomVector(n * k, 9);
  std::vector<float> expected(static_cast<size_t>(4 * 3 * 9 * 9));
  Col2Im(geo, cols.data(), expected.data());
  for (const int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<float> scratch(static_cast<size_t>(geo.batch * k));
    std::vector<float> folded(expected.size());
    Col2ImRows(geo, folded.data(), scratch.data(),
               [&](int64_t row, float* buf) {
                 std::copy_n(cols.data() + row * k, k, buf);
                 return static_cast<const float*>(buf);
               });
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(folded[i], expected[i])
          << "threads " << threads << " element " << i;
    }
  }
}

}  // namespace
}  // namespace adr
