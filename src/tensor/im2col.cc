#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <string>

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

void Im2ColRows(const ConvGeometry& geo, const float* input,
                int64_t row_begin, int64_t row_end, float* out) {
  const int64_t oh = geo.out_height();
  const int64_t ow = geo.out_width();
  const int64_t rows_per_image = oh * ow;
  const int64_t ih = geo.in_height, iw = geo.in_width;
  const int64_t chan_stride = ih * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;

  // Decode (n, oy, ox) of the first row once, then step incrementally.
  int64_t n = row_begin / rows_per_image;
  const int64_t rem = row_begin % rows_per_image;
  int64_t oy = rem / ow;
  int64_t ox = rem % ow;
  float* dst = out;
  const int64_t kh = geo.kernel_h, kw = geo.kernel_w;
  for (int64_t row = row_begin; row < row_end; ++row) {
    const float* img = input + n * img_stride;
    // One output row: all (c, ky, kx) taps of this receptive field. Per
    // (c, ky) the taps inside the image are one contiguous run, clipped
    // once; the taps in the padding are zeros.
    const int64_t y0 = oy * geo.stride - geo.pad;
    const int64_t x0 = ox * geo.stride - geo.pad;
    const int64_t kx_lo = std::min(kw, std::max<int64_t>(0, -x0));
    const int64_t kx_hi = std::max(kx_lo, std::min(kw, iw - x0));
    for (int64_t c = 0; c < geo.in_channels; ++c) {
      const float* chan = img + c * chan_stride;
      for (int64_t ky = 0; ky < kh; ++ky, dst += kw) {
        const int64_t y = y0 + ky;
        if (y < 0 || y >= ih) {
          std::fill_n(dst, kw, 0.0f);
          continue;
        }
        for (int64_t kx = 0; kx < kx_lo; ++kx) dst[kx] = 0.0f;
        // Taps [kx_lo, kx_hi) are image columns x0 + kx_lo onwards. Fixed
        // 4-float moves: a plain loop would become one memcpy call per
        // short run.
        const float* src = chan + y * iw + (x0 + kx_lo);
        float* run = dst + kx_lo;
        const int64_t len = kx_hi - kx_lo;
        int64_t j = 0;
        for (; j + 4 <= len; j += 4) std::memcpy(run + j, src + j, 16);
        for (; j < len; ++j) run[j] = src[j];
        for (int64_t kx = kx_hi; kx < kw; ++kx) dst[kx] = 0.0f;
      }
    }
    if (++ox == ow) {
      ox = 0;
      if (++oy == oh) {
        oy = 0;
        ++n;
      }
    }
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
