// Shared machinery for the streaming-clusterer tests: a bitwise
// comparison of two ReuseClusterings, a helper that streams a
// materialized unfolded matrix through StreamingSubVectorClusterer block
// by block in fixed-height chunks, and smooth conv inputs whose unfolded
// rows repeat signatures the way natural images do.

#ifndef ADR_TESTS_CLUSTERING_HARNESS_H_
#define ADR_TESTS_CLUSTERING_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/subvector_clustering.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace adr::testutil {

/// Asserts that `got` equals `want` bit for bit: block layout, ids,
/// sizes, signatures and every centroid float (signed zeros included).
inline void ExpectSameClustering(const ReuseClustering& got,
                                 const ReuseClustering& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.num_cols, want.num_cols);
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (size_t b = 0; b < got.blocks.size(); ++b) {
    const SubMatrixClustering& gb = got.blocks[b];
    const SubMatrixClustering& wb = want.blocks[b];
    ASSERT_EQ(gb.col_offset, wb.col_offset) << "block " << b;
    ASSERT_EQ(gb.length, wb.length) << "block " << b;
    ASSERT_EQ(gb.clustering.assignment, wb.clustering.assignment)
        << "block " << b;
    ASSERT_EQ(gb.clustering.cluster_sizes, wb.clustering.cluster_sizes)
        << "block " << b;
    ASSERT_EQ(gb.signatures.size(), wb.signatures.size()) << "block " << b;
    for (size_t c = 0; c < gb.signatures.size(); ++c) {
      ASSERT_TRUE(gb.signatures[c] == wb.signatures[c])
          << "block " << b << " cluster " << c;
    }
    ASSERT_EQ(gb.centroids.size(), wb.centroids.size()) << "block " << b;
    ASSERT_EQ(std::memcmp(gb.centroids.data(), wb.centroids.data(),
                          sizeof(float) * gb.centroids.size()),
              0)
        << "block " << b << " centroids differ";
  }
}

/// Runs one Begin/ConsumeBlock/Finish cycle of `clusterer` over the
/// num_rows x families.k() matrix `x`: each block's columns are copied
/// into a chunk at the clusterer's padded stride and fed in chunks of
/// `tile_rows` rows, blocks in ascending order or, with
/// `descending_blocks`, from the last block down. The result lives in
/// `clusterer` until its next Begin.
inline const ReuseClustering& StreamClustering(
    const BlockLshFamilies& families, const float* x, int64_t num_rows,
    int64_t rows_per_group, int64_t tile_rows,
    StreamingSubVectorClusterer* clusterer, bool descending_blocks = false) {
  const int64_t k = families.k();
  clusterer->Begin(&families, num_rows, rows_per_group);
  const int64_t stride = clusterer->chunk_stride();
  // Kept across calls, so steady cycles allocate nothing here either.
  static std::vector<float> chunk;
  chunk.resize(
      std::max(chunk.size(), static_cast<size_t>(tile_rows * stride)));
  const int64_t num_blocks = families.num_blocks();
  for (int64_t i = 0; i < num_blocks; ++i) {
    const int64_t b = descending_blocks ? num_blocks - 1 - i : i;
    const int64_t offset = families.block_offset(b);
    const int64_t length = families.block_length(b);
    for (int64_t row = 0; row < num_rows; row += tile_rows) {
      const int64_t rows = std::min(tile_rows, num_rows - row);
      for (int64_t r = 0; r < rows; ++r) {
        std::memcpy(chunk.data() + r * stride, x + (row + r) * k + offset,
                    sizeof(float) * static_cast<size_t>(length));
      }
      clusterer->ConsumeBlock(b, chunk.data(), stride, row, rows);
    }
  }
  return clusterer->Finish();
}

/// Square kernel_size x kernel_size, stride 1, same-padding geometry.
inline ConvGeometry SameConvGeometry(int64_t batch, int64_t channels,
                                     int64_t size, int64_t kernel_size) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = channels;
  geo.in_height = size;
  geo.in_width = size;
  geo.kernel_h = kernel_size;
  geo.kernel_w = kernel_size;
  geo.stride = 1;
  geo.pad = kernel_size / 2;
  return geo;
}

/// Unfolded matrix of smooth images with a little noise: neighbouring
/// rows often share a signature, as on natural images.
inline Tensor SmoothUnfolded(const ConvGeometry& geo, uint64_t seed) {
  Rng rng(seed);
  Tensor input(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}));
  float* dst = input.data();
  for (int64_t n = 0; n < geo.batch; ++n) {
    for (int64_t c = 0; c < geo.in_channels; ++c) {
      for (int64_t y = 0; y < geo.in_height; ++y) {
        for (int64_t x = 0; x < geo.in_width; ++x) {
          *dst++ = std::sin(0.3f * static_cast<float>(y + n) +
                            0.2f * static_cast<float>(x) +
                            0.7f * static_cast<float>(c)) +
                   0.05f * rng.NextGaussian();
        }
      }
    }
  }
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  return cols;
}

}  // namespace adr::testutil

#endif  // ADR_TESTS_CLUSTERING_HARNESS_H_
