// Tests for the ReuseConv2d layer: agreement with Conv2d in the exact
// limits, reconfiguration, cluster-reuse cache lifecycle and telemetry.

#include <gtest/gtest.h>

#include "core/reuse_conv2d.h"
#include "nn/conv2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

Conv2dConfig SmallConv() {
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 4;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 6;
  config.in_width = 6;
  return config;
}

ReuseConfig PreciseReuse() {
  ReuseConfig reuse;
  reuse.sub_vector_length = 0;
  reuse.num_hashes = 96;  // near-singleton clustering
  return reuse;
}

TEST(ReuseConv2dTest, MatchesConv2dWithPreciseClustering) {
  Rng rng1(1), rng2(1);
  Conv2d baseline("conv", SmallConv(), &rng1);
  ReuseConv2d reuse("conv_r", SmallConv(), PreciseReuse(), &rng2);
  // Same rng seed => same He init, but copy anyway for robustness.
  reuse.CopyWeightsFrom(baseline);

  Rng data_rng(2);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 6, 6}), &data_rng);
  Tensor expected = baseline.Forward(in, false);
  Tensor actual = reuse.Forward(in, false);
  EXPECT_EQ(actual.shape(), expected.shape());
  EXPECT_LT(MaxAbsDiff(actual, expected), 1e-3f);
}

TEST(ReuseConv2dTest, BackwardMatchesConv2dInSingletonLimit) {
  Rng rng1(3), rng2(3);
  Conv2d baseline("conv", SmallConv(), &rng1);
  ReuseConv2d reuse("conv_r", SmallConv(), PreciseReuse(), &rng2);
  reuse.CopyWeightsFrom(baseline);

  Rng data_rng(4);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({1, 4, 6, 6}), &data_rng);

  baseline.Forward(in, true);
  Tensor exact_gin = baseline.Backward(grad_out);
  reuse.Forward(in, true);
  Tensor reuse_gin = reuse.Backward(grad_out);

  // In the singleton limit the reuse backward is the exact backward.
  EXPECT_LT(MaxAbsDiff(reuse_gin, exact_gin), 5e-3f);
  EXPECT_LT(MaxAbsDiff(*reuse.Gradients()[0], *baseline.Gradients()[0]),
            5e-3f);
  EXPECT_LT(MaxAbsDiff(*reuse.Gradients()[1], *baseline.Gradients()[1]),
            1e-4f);
}

TEST(ReuseConv2dTest, SingletonClusteringIsExactDifferential) {
  // H = 128 hashes (the maximum) drives every cluster to a single member
  // (r_c = 1): the clustered forward and backward then compute exactly
  // what Conv2d computes, up to SIMD accumulation-order rounding. This
  // pins the whole reuse pipeline (hash, gather, centroid GEMM, scatter,
  // cluster reductions) against the dense reference.
  ReuseConfig singleton;
  singleton.sub_vector_length = 0;  // L = K: one block
  singleton.num_hashes = 128;
  Rng rng1(23), rng2(23);
  Conv2d baseline("conv", SmallConv(), &rng1);
  ReuseConv2d reuse("conv_r", SmallConv(), singleton, &rng2);
  reuse.CopyWeightsFrom(baseline);

  Rng data_rng(24);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 6, 6}), &data_rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({2, 4, 6, 6}), &data_rng);

  baseline.Forward(in, true);
  Tensor exact_gin = baseline.Backward(grad_out);
  Tensor actual = reuse.Forward(in, true);
  Tensor reuse_gin = reuse.Backward(grad_out);

  // Gaussian rows essentially never collide under 128 hyperplanes.
  EXPECT_GT(reuse.stats().avg_remaining_ratio, 0.999);
  EXPECT_LT(MaxAbsDiff(actual, baseline.Forward(in, false)), 1e-4f);
  EXPECT_LT(MaxAbsDiff(reuse_gin, exact_gin), 1e-4f);
  EXPECT_LT(MaxAbsDiff(*reuse.Gradients()[0], *baseline.Gradients()[0]),
            1e-4f);
  EXPECT_LT(MaxAbsDiff(*reuse.Gradients()[1], *baseline.Gradients()[1]),
            1e-4f);
}

TEST(ReuseConv2dTest, ExactBackwardFlagMatchesConv2dAlways) {
  // Even with coarse clustering, exact_backward must reproduce Conv2d's
  // gradients (the forward output still differs — only backward is exact).
  ReuseConfig coarse;
  coarse.sub_vector_length = 6;
  coarse.num_hashes = 3;
  Rng rng1(5), rng2(5);
  Conv2d baseline("conv", SmallConv(), &rng1);
  ReuseConv2d reuse("conv_r", SmallConv(), coarse, &rng2);
  reuse.CopyWeightsFrom(baseline);
  reuse.set_exact_backward(true);
  EXPECT_TRUE(reuse.exact_backward());

  Rng data_rng(6);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 6, 6}), &data_rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({2, 4, 6, 6}), &data_rng);
  baseline.Forward(in, true);
  Tensor exact_gin = baseline.Backward(grad_out);
  reuse.Forward(in, true);
  Tensor reuse_gin = reuse.Backward(grad_out);
  EXPECT_LT(MaxAbsDiff(reuse_gin, exact_gin), 1e-4f);
  EXPECT_LT(MaxAbsDiff(*reuse.Gradients()[0], *baseline.Gradients()[0]),
            1e-4f);
}

TEST(ReuseConv2dDeathTest, BackwardAfterEvalForwardAborts) {
  // The reuse backward reads the clustering the layer's clusterer keeps in
  // place from the last Forward. An eval Forward in between rebuilt it
  // for another batch, so Backward must abort rather than read it.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(8);
  ReuseConv2d layer("conv_r", SmallConv(), PreciseReuse(), &rng);
  Rng data_rng(9);
  const Tensor in = Tensor::RandomGaussian(Shape({2, 2, 6, 6}), &data_rng);
  const Tensor grad_out =
      Tensor::RandomGaussian(Shape({2, 4, 6, 6}), &data_rng);
  layer.Forward(in, /*training=*/true);
  layer.Forward(in, /*training=*/false);
  EXPECT_DEATH(layer.Backward(grad_out), "training-mode Forward");
}

TEST(ReuseConv2dTest, SetReuseConfigValidates) {
  Rng rng(7);
  ReuseConv2d layer("conv", SmallConv(), PreciseReuse(), &rng);
  ReuseConfig bad;
  bad.sub_vector_length = 1000;  // > K = 18
  EXPECT_FALSE(layer.SetReuseConfig(bad).ok());
  bad = PreciseReuse();
  bad.num_hashes = 0;
  EXPECT_FALSE(layer.SetReuseConfig(bad).ok());
  ReuseConfig good;
  good.sub_vector_length = 9;
  good.num_hashes = 10;
  EXPECT_TRUE(layer.SetReuseConfig(good).ok());
  EXPECT_EQ(layer.reuse_config().sub_vector_length, 9);
}

TEST(ReuseConv2dTest, ReuseConfigBuilderValidates) {
  // Build() catches geometry-independent errors.
  EXPECT_FALSE(ReuseConfigBuilder().NumHashes(0).Build().ok());
  EXPECT_FALSE(ReuseConfigBuilder()
                   .KMeans(/*clusters=*/0, /*iterations=*/5)
                   .Build()
                   .ok());
  EXPECT_FALSE(ReuseConfigBuilder()
                   .KMeans(/*clusters=*/16, /*iterations=*/5)
                   .ClusterReuse(true)
                   .Build()
                   .ok());
  // Build(k) additionally checks L against K.
  EXPECT_TRUE(ReuseConfigBuilder().SubVectorLength(100).Build().ok());
  EXPECT_FALSE(ReuseConfigBuilder().SubVectorLength(100).Build(18).ok());

  auto config = ReuseConfigBuilder()
                    .SubVectorLength(9)
                    .NumHashes(10)
                    .Scope(ClusterScope::kAcrossBatch)
                    .Build(18);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sub_vector_length, 9);
  EXPECT_EQ(config->num_hashes, 10);
  EXPECT_TRUE(config->ClusterReuseEnabled());

  // Builder seeded from an existing config only changes what it is told.
  const ReuseConfig flipped =
      ReuseConfigBuilder(PreciseReuse()).ClusterReuse(true).BuildUnchecked();
  ReuseConfig expected = PreciseReuse();
  expected.cluster_reuse = true;
  EXPECT_EQ(flipped, expected);
}

TEST(ReuseConv2dTest, ConfigChangeTakesEffect) {
  Rng rng(8);
  ReuseConv2d layer("conv", SmallConv(), PreciseReuse(), &rng);
  Rng data_rng(9);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  const double precise_rc = layer.stats().avg_remaining_ratio;

  ReuseConfig coarse;
  coarse.sub_vector_length = 0;
  coarse.num_hashes = 2;
  ASSERT_TRUE(layer.SetReuseConfig(coarse).ok());
  layer.ResetStats();
  layer.Forward(in, true);
  EXPECT_LT(layer.stats().avg_remaining_ratio, precise_rc);
}

TEST(ReuseConv2dTest, ClusterReuseCacheAcrossBatches) {
  ReuseConfig cr;
  cr.sub_vector_length = 6;
  cr.num_hashes = 8;
  cr.cluster_reuse = true;
  Rng rng(10);
  ReuseConv2d layer("conv", SmallConv(), cr, &rng);
  ASSERT_NE(layer.cache(), nullptr);

  Rng data_rng(11);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  EXPECT_DOUBLE_EQ(layer.stats().last_batch_reuse_rate, 0.0);
  layer.Forward(in, true);  // identical batch: full reuse
  EXPECT_DOUBLE_EQ(layer.stats().last_batch_reuse_rate, 1.0);
  layer.ClearCache();
  layer.Forward(in, true);
  EXPECT_DOUBLE_EQ(layer.stats().last_batch_reuse_rate, 0.0);
}

TEST(ReuseConv2dTest, DisablingClusterReuseDropsCache) {
  ReuseConfig cr;
  cr.num_hashes = 8;
  cr.cluster_reuse = true;
  Rng rng(12);
  ReuseConv2d layer("conv", SmallConv(), cr, &rng);
  EXPECT_NE(layer.cache(), nullptr);
  ReuseConfig off = cr;
  off.cluster_reuse = false;
  ASSERT_TRUE(layer.SetReuseConfig(off).ok());
  EXPECT_EQ(layer.cache(), nullptr);
}

TEST(ReuseConv2dTest, SingleInputScopeRuns) {
  ReuseConfig scope;
  scope.num_hashes = 8;
  scope.scope = ClusterScope::kSingleInput;
  Rng rng(13);
  ReuseConv2d layer("conv", SmallConv(), scope, &rng);
  Rng data_rng(14);
  Tensor in = Tensor::RandomGaussian(Shape({3, 2, 6, 6}), &data_rng);
  Tensor out = layer.Forward(in, true);
  EXPECT_EQ(out.shape(), Shape({3, 4, 6, 6}));
}

TEST(ReuseConv2dTest, StatsAccumulateAndReset) {
  Rng rng(15);
  ReuseConv2d layer("conv", SmallConv(), PreciseReuse(), &rng);
  Rng data_rng(16);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  layer.Forward(in, true);
  EXPECT_EQ(layer.stats().forward_calls, 2);
  EXPECT_GT(layer.stats().macs_baseline, 0.0);
  EXPECT_GT(layer.stats().macs_executed, 0.0);
  layer.ResetStats();
  EXPECT_EQ(layer.stats().forward_calls, 0);
  EXPECT_EQ(layer.stats().macs_baseline, 0.0);
}

TEST(ReuseConv2dTest, CoarseClusteringSavesMacs) {
  ReuseConfig coarse;
  coarse.sub_vector_length = 6;
  coarse.num_hashes = 4;
  Rng rng(17);
  ReuseConv2d layer("conv", SmallConv(), coarse, &rng);
  Rng data_rng(18);
  // Smooth input => heavy clustering.
  Tensor in(Shape({2, 2, 6, 6}));
  for (int64_t i = 0; i < in.num_elements(); ++i) {
    in.at(i) = static_cast<float>(i % 7) * 0.1f;
  }
  layer.Forward(in, true);
  Tensor grad = Tensor::Ones(Shape({2, 4, 6, 6}));
  layer.Backward(grad);
  EXPECT_GT(layer.stats().MacsSavedFraction(), 0.0);
}

TEST(ReuseConv2dTest, ForwardMacsMatchesConv2d) {
  Rng rng1(19), rng2(19);
  Conv2d baseline("conv", SmallConv(), &rng1);
  ReuseConv2d reuse("conv_r", SmallConv(), PreciseReuse(), &rng2);
  EXPECT_DOUBLE_EQ(reuse.ForwardMacs(4), baseline.ForwardMacs(4));
}

}  // namespace
}  // namespace adr
