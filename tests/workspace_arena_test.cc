// WorkspaceArena semantics plus the layer-level zero-allocation contract:
// after the first training step at fixed shapes, a conv layer's arena
// must not grow or touch the heap again.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/reuse_conv2d.h"
#include "nn/conv2d.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"
#include "util/metrics_registry.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(WorkspaceArenaTest, ReturnsAlignedDistinctBuffers) {
  WorkspaceArena arena;
  float* a = arena.AllocFloats(3);
  float* b = arena.AllocFloats(100);
  int32_t* c = arena.AllocInt32(1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(b));
  EXPECT_NE(static_cast<void*>(b), static_cast<void*>(c));
  // Zero-size requests still give valid unique pointers.
  EXPECT_NE(arena.AllocBytes(0), arena.AllocBytes(0));
}

TEST(WorkspaceArenaTest, ConsolidatesToHighWaterAndStopsAllocating) {
  WorkspaceArena arena;
  // First epoch: everything is an overflow slab (empty primary).
  arena.AllocFloats(1000);
  arena.AllocFloats(500);
  const int64_t first_epoch_used = arena.used_bytes();
  EXPECT_EQ(arena.alloc_slabs(), 2);
  EXPECT_EQ(arena.high_water_bytes(), first_epoch_used);

  // Reset consolidates: one primary slab covering the high water mark.
  arena.Reset();
  EXPECT_EQ(arena.consolidations(), 1);
  EXPECT_EQ(arena.used_bytes(), 0);
  EXPECT_EQ(arena.reserved_bytes(), first_epoch_used);

  // Same-shape epochs run entirely inside the primary slab.
  for (int step = 0; step < 3; ++step) {
    arena.AllocFloats(1000);
    arena.AllocFloats(500);
    EXPECT_EQ(arena.used_bytes(), first_epoch_used);
    arena.Reset();
  }
  EXPECT_EQ(arena.alloc_slabs(), 2);      // unchanged since the first epoch
  EXPECT_EQ(arena.consolidations(), 1);   // no further replanning
  EXPECT_EQ(arena.reserved_bytes(), first_epoch_used);
}

TEST(WorkspaceArenaTest, GrowthTriggersOverflowThenReplan) {
  WorkspaceArena arena;
  arena.AllocFloats(100);
  arena.Reset();
  const int64_t small_capacity = arena.reserved_bytes();

  // A bigger epoch spills into overflow (hot-path allocation)...
  arena.AllocFloats(100);
  arena.AllocFloats(4000);
  EXPECT_GT(arena.alloc_slabs(), 1);
  EXPECT_GT(arena.reserved_bytes(), small_capacity);

  // ...and the next Reset folds the new high water into the primary.
  const int64_t slabs_after_growth = arena.alloc_slabs();
  arena.Reset();
  arena.AllocFloats(100);
  arena.AllocFloats(4000);
  EXPECT_EQ(arena.alloc_slabs(), slabs_after_growth);
}

TEST(WorkspaceArenaTest, ReleaseDropsCapacity) {
  WorkspaceArena arena;
  arena.AllocFloats(2048);
  arena.Reset();
  EXPECT_GT(arena.reserved_bytes(), 0);
  arena.Release();
  EXPECT_EQ(arena.reserved_bytes(), 0);
  EXPECT_EQ(arena.used_bytes(), 0);
  // The arena is reusable after Release.
  float* p = arena.AllocFloats(16);
  EXPECT_NE(p, nullptr);
}

// One full training step (Forward + Backward) of a layer.
template <typename LayerT>
void RunStep(LayerT* layer, const Tensor& input, const Tensor& grad_out) {
  layer->Forward(input, /*training=*/true);
  layer->Backward(grad_out);
}

TEST(WorkspaceArenaTest, ReuseConv2dStopsAllocatingAfterFirstStep) {
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = 9;
  reuse.num_hashes = 10;

  Rng rng(31);
  ReuseConv2d layer("arena_steady", config, reuse, &rng);
  Rng data_rng(32);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 3, 8, 8}),
                                              &data_rng);
  const Tensor grad_out = Tensor::RandomGaussian(Shape({2, 8, 8, 8}),
                                                 &data_rng);

  RunStep(&layer, input, grad_out);
  // Step 2 may still consolidate capacity planned in step 1's Reset.
  RunStep(&layer, input, grad_out);
  const int64_t steady_reserved = layer.workspace().reserved_bytes();
  const int64_t steady_slabs = layer.workspace().alloc_slabs();
  EXPECT_GT(steady_reserved, 0);

  for (int step = 0; step < 4; ++step) {
    RunStep(&layer, input, grad_out);
    EXPECT_EQ(layer.workspace().reserved_bytes(), steady_reserved)
        << "arena grew at step " << step;
    EXPECT_EQ(layer.workspace().alloc_slabs(), steady_slabs)
        << "hot-path allocation at step " << step;
  }

  // The published metrics agree: the gauge shows the arena capacity and
  // the per-step allocation counter has stopped advancing.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_EQ(metrics.gauge("reuse/arena_steady/workspace_bytes")->value(),
            static_cast<double>(steady_reserved));
  const int64_t allocs =
      metrics.counter("reuse/arena_steady/allocations_per_step")->value();
  RunStep(&layer, input, grad_out);
  EXPECT_EQ(
      metrics.counter("reuse/arena_steady/allocations_per_step")->value(),
      allocs);
}

TEST(WorkspaceArenaTest, ReuseConv2dExactBackwardStopsAllocating) {
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 4;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 6;
  config.in_width = 6;
  ReuseConfig reuse;
  reuse.sub_vector_length = 6;
  reuse.num_hashes = 8;

  Rng rng(33);
  ReuseConv2d layer("arena_exact", config, reuse, &rng);
  layer.set_exact_backward(true);
  Rng data_rng(34);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 2, 6, 6}),
                                              &data_rng);
  const Tensor grad_out = Tensor::RandomGaussian(Shape({2, 4, 6, 6}),
                                                 &data_rng);

  RunStep(&layer, input, grad_out);
  RunStep(&layer, input, grad_out);
  const int64_t steady_slabs = layer.workspace().alloc_slabs();
  for (int step = 0; step < 3; ++step) {
    RunStep(&layer, input, grad_out);
    EXPECT_EQ(layer.workspace().alloc_slabs(), steady_slabs);
  }
}

TEST(WorkspaceArenaTest, Conv2dStopsAllocatingAfterFirstStep) {
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 5;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 7;
  config.in_width = 7;

  Rng rng(35);
  Conv2d layer("conv_steady", config, &rng);
  Rng data_rng(36);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 3, 7, 7}),
                                              &data_rng);
  const Tensor grad_out = Tensor::RandomGaussian(Shape({2, 5, 7, 7}),
                                                 &data_rng);

  RunStep(&layer, input, grad_out);
  RunStep(&layer, input, grad_out);
  const int64_t steady_reserved = layer.workspace().reserved_bytes();
  const int64_t steady_slabs = layer.workspace().alloc_slabs();
  for (int step = 0; step < 3; ++step) {
    RunStep(&layer, input, grad_out);
    EXPECT_EQ(layer.workspace().reserved_bytes(), steady_reserved);
    EXPECT_EQ(layer.workspace().alloc_slabs(), steady_slabs);
  }
}

// Smooth images with a little noise, the kind of input on which LSH
// clusters stay few (r_c of a few percent), as on natural images.
Tensor SmoothImages(int64_t batch, int64_t channels, int64_t size,
                    uint64_t seed) {
  Rng rng(seed);
  Tensor images(Shape({batch, channels, size, size}));
  float* dst = images.data();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t y = 0; y < size; ++y) {
        for (int64_t x = 0; x < size; ++x) {
          *dst++ = std::sin(0.3f * static_cast<float>(y + n) +
                            0.2f * static_cast<float>(x) +
                            0.7f * static_cast<float>(c)) +
                   0.05f * rng.NextGaussian();
        }
      }
    }
  }
  return images;
}

TEST(WorkspaceArenaTest, ReuseConv2dBackwardNeverReservesTheUnfoldedDelta) {
  // CifarNet conv2: batch 16, 32x16x16 input, 5x5 kernel, pad 2, M = 32,
  // L = 10, H = 11, so N = 4096 and K = 800.
  Conv2dConfig config;
  config.in_channels = 32;
  config.out_channels = 32;
  config.kernel = 5;
  config.stride = 1;
  config.pad = 2;
  config.in_height = 16;
  config.in_width = 16;
  ReuseConfig reuse;
  reuse.sub_vector_length = 10;
  reuse.num_hashes = 11;
  const int64_t n = 16 * 16 * 16;
  const int64_t k = 32 * 5 * 5;

  Rng rng(37);
  ReuseConv2d layer("arena_conv2", config, reuse, &rng);
  const Tensor input = SmoothImages(16, 32, 16, 38);
  Rng data_rng(39);
  const Tensor grad_out =
      Tensor::RandomGaussian(Shape({16, 32, 16, 16}), &data_rng);

  RunStep(&layer, input, grad_out);
  RunStep(&layer, input, grad_out);
  // The arena of this step, when the backward still wrote the N x K input
  // delta and a chunks x |C| x M partial buffer per block, reserved this
  // many bytes (the same on the scalar and AVX2 backends). Folding the
  // centroid deltas into the input gradient must save at least the
  // N x K floats.
  constexpr int64_t kUnfoldedDeltaBackwardBytes = 29629696;
  const int64_t reserved = layer.workspace().reserved_bytes();
  EXPECT_LE(reserved, kUnfoldedDeltaBackwardBytes -
                          n * k * static_cast<int64_t>(sizeof(float)));

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t allocs =
      metrics.counter("reuse/arena_conv2/allocations_per_step")->value();
  const int64_t slabs = layer.workspace().alloc_slabs();
  for (int step = 0; step < 2; ++step) {
    RunStep(&layer, input, grad_out);
    EXPECT_EQ(layer.workspace().reserved_bytes(), reserved);
    EXPECT_EQ(layer.workspace().alloc_slabs(), slabs);
  }
  EXPECT_EQ(
      metrics.counter("reuse/arena_conv2/allocations_per_step")->value(),
      allocs);
}

}  // namespace
}  // namespace adr
