#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/check.h"
#include "util/parallel.h"

namespace adr {

Status ConvGeometry::Validate() const {
  if (batch <= 0 || in_channels <= 0 || in_height <= 0 || in_width <= 0) {
    return Status::InvalidArgument("conv geometry: input dims must be > 0");
  }
  if (kernel_h <= 0 || kernel_w <= 0) {
    return Status::InvalidArgument("conv geometry: kernel dims must be > 0");
  }
  if (stride <= 0) {
    return Status::InvalidArgument("conv geometry: stride must be > 0");
  }
  if (pad < 0) {
    return Status::InvalidArgument("conv geometry: pad must be >= 0");
  }
  if (in_height + 2 * pad < kernel_h || in_width + 2 * pad < kernel_w) {
    return Status::InvalidArgument(
        "conv geometry: kernel larger than padded input");
  }
  if ((in_height + 2 * pad - kernel_h) % stride != 0 ||
      (in_width + 2 * pad - kernel_w) % stride != 0) {
    return Status::InvalidArgument(
        "conv geometry: stride does not evenly tile the input");
  }
  return Status::OK();
}

namespace {

// dst[j] = src[j] for j < len in fixed 4-float moves; a ragged tail
// repeats the last full move, shifted to end at len, so nothing outside
// [0, len) is read or written. A plain loop would become one memcpy call
// per short run.
inline void CopyRun(const float* src, float* dst, int64_t len) {
  if (len < 4) {
    for (int64_t j = 0; j < len; ++j) dst[j] = src[j];
    return;
  }
  int64_t j = 0;
  for (; j + 4 <= len; j += 4) std::memcpy(dst + j, src + j, 16);
  if (j < len) std::memcpy(dst + len - 4, src + len - 4, 16);
}

// Floor of a / b for b > 0 and any sign of a. Stride 1, the common
// case, skips the division.
inline int64_t FloorDiv(int64_t a, int64_t b) {
  if (b == 1) return a;
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

// One kernel-row run of `len` taps for each of `pixels` consecutive
// pixels of an output row: pixel p reads image columns
// x0 + p * stride + j (j < len) of input row `line`, or zeros where a
// column lies outside [0, iw) or `line` is null (the kernel row lies in
// the vertical padding), and writes them to dst + p * dst_step. kLen > 0
// fixes len at compile time, so a run is a few fixed-width moves.
template <int64_t kLen>
void UnfoldRun(const float* line, int64_t iw, int64_t x0, int64_t stride,
               int64_t pixels, int64_t len, float* dst, int64_t dst_step) {
  const int64_t n = kLen > 0 ? kLen : len;
  if (line == nullptr) {
    for (int64_t p = 0; p < pixels; ++p, dst += dst_step) {
      if constexpr (kLen > 0) {
        std::memset(dst, 0, sizeof(float) * kLen);
      } else {
        std::fill_n(dst, n, 0.0f);
      }
    }
    return;
  }
  // Pixels [inner_lo, inner_hi) read inside the image: plain copies.
  const int64_t inner_lo =
      std::clamp<int64_t>(FloorDiv(stride - 1 - x0, stride), 0, pixels);
  const int64_t inner_hi = std::clamp<int64_t>(
      FloorDiv(iw - n - x0, stride) + 1, inner_lo, pixels);
  const auto clipped = [&](int64_t p) {
    const int64_t x = x0 + p * stride;
    float* d = dst + p * dst_step;
    for (int64_t j = 0; j < n; ++j) {
      d[j] = x + j >= 0 && x + j < iw ? line[x + j] : 0.0f;
    }
  };
  for (int64_t p = 0; p < inner_lo; ++p) clipped(p);
  for (int64_t p = inner_lo; p < inner_hi; ++p) {
    if constexpr (kLen > 0) {
      std::memcpy(dst + p * dst_step, line + x0 + p * stride,
                  sizeof(float) * kLen);
    } else {
      CopyRun(line + x0 + p * stride, dst + p * dst_step, n);
    }
  }
  for (int64_t p = inner_hi; p < pixels; ++p) clipped(p);
}

// UnfoldRun with the run lengths of kernels up to 8 wide fixed.
void UnfoldRunAnyLength(const float* line, int64_t iw, int64_t x0,
                        int64_t stride, int64_t pixels, int64_t len,
                        float* dst, int64_t dst_step) {
  switch (len) {
#define ADR_UNFOLD_CASE(n)                                             \
  case n:                                                              \
    return UnfoldRun<n>(line, iw, x0, stride, pixels, len, dst, dst_step);
    ADR_UNFOLD_CASE(1)
    ADR_UNFOLD_CASE(2)
    ADR_UNFOLD_CASE(3)
    ADR_UNFOLD_CASE(4)
    ADR_UNFOLD_CASE(5)
    ADR_UNFOLD_CASE(6)
    ADR_UNFOLD_CASE(7)
    ADR_UNFOLD_CASE(8)
#undef ADR_UNFOLD_CASE
    default:
      return UnfoldRun<0>(line, iw, x0, stride, pixels, len, dst, dst_step);
  }
}

}  // namespace

void Im2ColRows(const ConvGeometry& geo, const float* input,
                int64_t row_begin, int64_t row_end, float* out) {
  const int64_t k = geo.unfolded_cols();
  Im2ColColumns(geo, input, row_begin, row_end, 0, k, out, k);
}

void Im2ColColumns(const ConvGeometry& geo, const float* input,
                   int64_t row_begin, int64_t row_end, int64_t col_begin,
                   int64_t col_end, float* out, int64_t out_stride) {
  ADR_CHECK_LE(0, col_begin);
  ADR_CHECK_LE(col_begin, col_end);
  ADR_CHECK_LE(col_end, geo.unfolded_cols());
  ADR_CHECK_GE(out_stride, col_end - col_begin);
  const int64_t oh = geo.out_height();
  const int64_t ow = geo.out_width();
  const int64_t rows_per_image = oh * ow;
  const int64_t ih = geo.in_height, iw = geo.in_width;
  const int64_t kh = geo.kernel_h, kw = geo.kernel_w;
  const int64_t stride = geo.stride, pad = geo.pad;
  const int64_t chan_stride = ih * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;
  // Column col_begin is tap (c0, ky0, kx0); every row walks the same
  // runs from there: the rest of that kernel row, then whole kernel rows,
  // the last one cut at col_end.
  const int64_t c0 = col_begin / (kh * kw);
  const int64_t ky0 = col_begin / kw % kh;
  const int64_t kx0 = col_begin % kw;

  // Rows go by strips: the consecutive rows of one output row (n, oy).
  // Within a strip a run reads one input row, so each run is unfolded
  // for every pixel of the strip in turn.
  int64_t row = row_begin;
  while (row < row_end) {
    const int64_t n = row / rows_per_image;
    const int64_t oy = row % rows_per_image / ow;
    const int64_t ox_begin = row % ow;
    const int64_t pixels = std::min(ow - ox_begin, row_end - row);
    const float* img = input + n * img_stride;
    float* strip = out + (row - row_begin) * out_stride;
    const int64_t y0 = oy * stride - pad;
    int64_t c = c0, ky = ky0, kx = kx0;
    for (int64_t col = 0; col < col_end - col_begin;) {
      const int64_t len = std::min(kw - kx, col_end - col_begin - col);
      const int64_t y = y0 + ky;
      const float* line =
          y < 0 || y >= ih ? nullptr : img + c * chan_stride + y * iw;
      UnfoldRunAnyLength(line, iw, ox_begin * stride - pad + kx, stride,
                         pixels, len, strip + col, out_stride);
      col += len;
      kx = 0;
      if (++ky == kh) {
        ky = 0;
        ++c;
      }
    }
    row += pixels;
  }
}

void Im2Col(const ConvGeometry& geo, const Tensor& input, Tensor* out) {
  ADR_CHECK(input.shape() ==
            Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}))
      << "Im2Col input shape " << input.shape().ToString();
  ADR_CHECK(out->shape() == Shape({geo.unfolded_rows(), geo.unfolded_cols()}))
      << "Im2Col output shape " << out->shape().ToString();
  Im2Col(geo, input.data(), out->data());
}

void Im2Col(const ConvGeometry& geo, const float* input, float* out) {
  const int64_t k_cols = geo.unfolded_cols();
  const int64_t rows_per_image = geo.rows_per_image();
  // Per-image parallelism: image n fills exactly the row block
  // [n * rows_per_image, (n+1) * rows_per_image) of the unfolded matrix,
  // so chunks write disjoint ranges. Each row is a pure function of the
  // input, so this matches any row tiling of Im2ColRows bit-for-bit.
  ParallelFor(geo.batch, 1, [&](int64_t n_begin, int64_t n_end) {
    Im2ColRows(geo, input, n_begin * rows_per_image, n_end * rows_per_image,
               out + n_begin * rows_per_image * k_cols);
  });
}

int64_t L2TileRows(int64_t row_width) {
  const int64_t budget_floats = (192 * 1024) / static_cast<int64_t>(sizeof(float));
  const int64_t rows = budget_floats / (row_width < 1 ? 1 : row_width);
  return std::min<int64_t>(4096, std::max<int64_t>(64, rows));
}

void Col2Im(const ConvGeometry& geo, const Tensor& grad_cols,
            Tensor* grad_input) {
  ADR_CHECK(grad_cols.shape() ==
            Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  ADR_CHECK(grad_input->shape() ==
            Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}));
  Col2Im(geo, grad_cols.data(), grad_input->data());
}

void Col2Im(const ConvGeometry& geo, const float* grad_cols,
            float* grad_input) {
  const int64_t k = geo.unfolded_cols();
  Col2ImRows(geo, grad_input, /*scratch=*/nullptr,
             [grad_cols, k](int64_t row, float*) {
               return grad_cols + row * k;
             });
}

void Col2ImRows(const ConvGeometry& geo, float* grad_input, float* scratch,
                Col2ImRowSource row_of) {
  const int64_t oh = geo.out_height();
  const int64_t ow = geo.out_width();
  const int64_t ih = geo.in_height, iw = geo.in_width;
  const int64_t kh = geo.kernel_h, kw = geo.kernel_w;
  const int64_t k = geo.unfolded_cols();
  const int64_t chan_stride = ih * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;
  const int64_t rows_per_image = oh * ow;

  // Per-image parallelism: patches only overlap within one image, so each
  // chunk zeroes and accumulates into a disjoint [Ic, Ih, Iw] slab.
  ParallelFor(geo.batch, 1, [&](int64_t n_begin, int64_t n_end) {
    for (int64_t n = n_begin; n < n_end; ++n) {
      float* img = grad_input + n * img_stride;
      std::fill_n(img, static_cast<size_t>(img_stride), 0.0f);
      float* buf = scratch == nullptr ? nullptr : scratch + n * k;
      int64_t row = n * rows_per_image;
      for (int64_t oy = 0; oy < oh; ++oy) {
        // Kernel rows and columns that land inside the image.
        const int64_t y0 = oy * geo.stride - geo.pad;
        const int64_t ky_lo = std::max<int64_t>(0, -y0);
        const int64_t ky_hi = std::min<int64_t>(kh, ih - y0);
        for (int64_t ox = 0; ox < ow; ++ox, ++row) {
          const int64_t x0 = ox * geo.stride - geo.pad;
          const int64_t kx_lo = std::max<int64_t>(0, -x0);
          const int64_t kx_hi = std::min<int64_t>(kw, iw - x0);
          if (ky_lo >= ky_hi || kx_lo >= kx_hi) continue;  // all padding
          const int64_t run = kx_hi - kx_lo;
          const float* src = row_of(row, buf);
          for (int64_t c = 0; c < geo.in_channels; ++c) {
            float* chan = img + c * chan_stride;
            const float* taps = src + c * kh * kw;
            for (int64_t ky = ky_lo; ky < ky_hi; ++ky) {
              float* dst = chan + (y0 + ky) * iw + (x0 + kx_lo);
              const float* from = taps + ky * kw + kx_lo;
              for (int64_t j = 0; j < run; ++j) dst[j] += from[j];
            }
          }
        }
      }
    }
  });
}

}  // namespace adr
