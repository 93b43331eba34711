// im2col / col2im: the unfolding that turns convolution into GEMM.
//
// The unfolded matrix x (N x K) is exactly the object whose rows ("neuron
// vectors") adaptive deep reuse clusters, so its layout is the contract
// between the nn substrate and the core reuse library:
//   N = Nb * Oh * Ow   rows, ordered batch-major then output-row-major;
//   K = Ic * kh * kw   columns, ordered channel-major then kernel-row-major.

#ifndef ADR_TENSOR_IM2COL_H_
#define ADR_TENSOR_IM2COL_H_

#include <cstdint>

#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/status.h"

namespace adr {

/// \brief Static geometry of one convolution, shared by im2col, Conv2d and
/// the reuse layer.
struct ConvGeometry {
  int64_t batch = 0;        ///< Nb
  int64_t in_channels = 0;  ///< Ic
  int64_t in_height = 0;    ///< Ih
  int64_t in_width = 0;     ///< Iw
  int64_t kernel_h = 0;     ///< kh
  int64_t kernel_w = 0;     ///< kw
  int64_t stride = 1;       ///< s
  int64_t pad = 0;          ///< symmetric zero padding

  int64_t out_height() const {
    return (in_height + 2 * pad - kernel_h) / stride + 1;
  }
  int64_t out_width() const {
    return (in_width + 2 * pad - kernel_w) / stride + 1;
  }
  /// Rows of the unfolded matrix for the whole batch (N in the paper).
  int64_t unfolded_rows() const {
    return batch * out_height() * out_width();
  }
  /// Columns of the unfolded matrix (K in the paper).
  int64_t unfolded_cols() const { return in_channels * kernel_h * kernel_w; }
  /// Rows corresponding to one input (N_img in the paper).
  int64_t rows_per_image() const { return out_height() * out_width(); }

  /// \brief Validates positivity and divisibility constraints.
  Status Validate() const;
};

/// \brief Unfolds `input` (shape [Nb, Ic, Ih, Iw]) into `out` (shape
/// [N, K]); `out` must be pre-shaped.
void Im2Col(const ConvGeometry& geo, const Tensor& input, Tensor* out);

/// \brief Generates rows [row_begin, row_end) of the unfolded matrix
/// directly from the raw NCHW `input`, writing them contiguously into
/// `out` ((row_end - row_begin) x K, row-major). Each row is a pure
/// function of the input, so any tiling of [0, N) reproduces Im2Col's
/// output bit-for-bit. This is the fused pipeline's tile producer: tiles
/// sized to L2 never materialize the full N x K matrix.
void Im2ColRows(const ConvGeometry& geo, const float* input,
                int64_t row_begin, int64_t row_end, float* out);

/// \brief Column slice of Im2ColRows: columns [col_begin, col_end) of
/// unfolded rows [row_begin, row_end), row r written to
/// out + (r - row_begin) * out_stride. Lanes at or past
/// col_end - col_begin of each output row are never touched, so a chunk
/// padded to a wider stride keeps its padding. Bitwise equal to those
/// columns of Im2Col. Interior receptive fields copy fixed-width runs with
/// no clipping; Im2ColRows is the full-width case.
void Im2ColColumns(const ConvGeometry& geo, const float* input,
                   int64_t row_begin, int64_t row_end, int64_t col_begin,
                   int64_t col_end, float* out, int64_t out_stride);

/// \brief Folds gradient `grad_cols` ([N, K]) back into `grad_input`
/// ([Nb, Ic, Ih, Iw]), accumulating overlapping patches.
void Col2Im(const ConvGeometry& geo, const Tensor& grad_cols,
            Tensor* grad_input);

/// \brief Raw-pointer Im2Col for arena-backed buffers; same per-image
/// parallel fill as the Tensor overload.
void Im2Col(const ConvGeometry& geo, const float* input, float* out);

/// \brief Raw-pointer Col2Im for arena-backed buffers; `grad_input`
/// (Nb*Ic*Ih*Iw floats) is zeroed first, then accumulated into. The
/// identity row source of Col2ImRows.
void Col2Im(const ConvGeometry& geo, const float* grad_cols,
            float* grad_input);

/// \brief Supplies unfolded row `row` (K floats) to Col2ImRows: either a
/// pointer into existing storage or `buf` after writing the row into it.
/// `buf` is K floats private to the calling chunk.
using Col2ImRowSource = FunctionRef<const float*(int64_t row, float* buf)>;

/// \brief The one col2im fold loop. `grad_input` (Nb*Ic*Ih*Iw floats) is
/// zeroed, then every unfolded row, taken from `row_of`, is added into
/// its receptive field: per (channel, kernel row) one contiguous kx run,
/// clipped to the image once, so no tap carries a bounds branch.
///
/// Images fold in parallel (patches overlap only within one image);
/// within an image rows are added in ascending order and each pixel gets
/// at most one add per row, so the result is bitwise independent of the
/// thread count and of how the row source produces its values.
/// `scratch` holds Nb*K floats (image n's row buffer is scratch + n*K);
/// it may be null when `row_of` never writes `buf`.
void Col2ImRows(const ConvGeometry& geo, float* grad_input, float* scratch,
                Col2ImRowSource row_of);

/// \brief Rows per tile for the L2-resident tiled pipelines: a tile of
/// `row_width` floats per row should occupy roughly 192 KiB (leaving the
/// rest of a typical 256 KiB+ L2 for hash scratch and the weight panel),
/// clamped to [64, 4096] rows.
int64_t L2TileRows(int64_t row_width);

}  // namespace adr

#endif  // ADR_TENSOR_IM2COL_H_
