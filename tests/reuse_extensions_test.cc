// Tests for the reuse extensions: the per-layer enabled switch, the
// k-means clustering mode, and the controller's exact landing stage.

#include <gtest/gtest.h>

#include "core/adaptive_controller.h"
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

TEST(ReuseDisabledTest, ForwardMatchesConv2dExactly) {
  Rng rng1(1), rng2(1);
  Conv2d dense("conv", SmallConv(), &rng1);
  ReuseConfig off;
  off.enabled = false;
  ReuseConv2d reuse("conv_r", SmallConv(), off, &rng2);
  reuse.CopyWeightsFrom(dense);

  Rng data_rng(2);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 6, 6}), &data_rng);
  for (const bool training : {true, false}) {
    EXPECT_EQ(MaxAbsDiff(reuse.Forward(in, training),
                         dense.Forward(in, training)),
              0.0f)
        << "training=" << training;
  }
}

TEST(ReuseDisabledTest, BackwardMatchesConv2dExactly) {
  Rng rng1(3), rng2(3);
  Conv2d dense("conv", SmallConv(), &rng1);
  ReuseConfig off;
  off.enabled = false;
  ReuseConv2d reuse("conv_r", SmallConv(), off, &rng2);
  reuse.CopyWeightsFrom(dense);

  Rng data_rng(4);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 6, 6}), &data_rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({2, 4, 6, 6}), &data_rng);
  dense.Forward(in, true);
  reuse.Forward(in, true);
  Tensor dense_gin = dense.Backward(grad_out);
  Tensor reuse_gin = reuse.Backward(grad_out);
  EXPECT_EQ(MaxAbsDiff(reuse_gin, dense_gin), 0.0f);
  EXPECT_EQ(MaxAbsDiff(*reuse.Gradients()[0], *dense.Gradients()[0]), 0.0f);
  EXPECT_EQ(MaxAbsDiff(*reuse.Gradients()[1], *dense.Gradients()[1]), 0.0f);
}

TEST(ReuseDisabledTest, MacsCountedAsBaseline) {
  Rng rng(5);
  ReuseConfig off;
  off.enabled = false;
  ReuseConv2d layer("conv", SmallConv(), off, &rng);
  Rng data_rng(6);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  EXPECT_DOUBLE_EQ(layer.stats().macs_executed,
                   layer.stats().macs_baseline);
  EXPECT_DOUBLE_EQ(layer.stats().MacsSavedFraction(), 0.0);
}

TEST(ReuseKMeansTest, RunsAndApproximatesDense) {
  Rng rng1(7), rng2(7);
  Conv2d dense("conv", SmallConv(), &rng1);
  ReuseConfig kmeans;
  kmeans.method = ClusteringMethod::kKMeans;
  kmeans.kmeans_clusters = 1000000;  // clamped to rows => exact
  kmeans.kmeans_iterations = 3;
  ReuseConv2d reuse("conv_r", SmallConv(), kmeans, &rng2);
  reuse.CopyWeightsFrom(dense);

  Rng data_rng(8);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  Tensor expected = dense.Forward(in, false);
  Tensor actual = reuse.Forward(in, false);
  // Clamped to one cluster per row: exact reconstruction.
  EXPECT_LT(MaxAbsDiff(actual, expected), 1e-4f);
}

TEST(ReuseKMeansTest, FewClustersCoarsens) {
  Rng rng(9);
  ReuseConfig kmeans;
  kmeans.method = ClusteringMethod::kKMeans;
  kmeans.kmeans_clusters = 2;
  ReuseConv2d layer("conv", SmallConv(), kmeans, &rng);
  Rng data_rng(10);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  // 36 rows in 2 clusters: r_c = 2/36.
  EXPECT_NEAR(layer.stats().avg_remaining_ratio, 2.0 / 36.0, 1e-9);
}

TEST(ReuseKMeansTest, ValidationRules) {
  ReuseConfig config;
  config.method = ClusteringMethod::kKMeans;
  config.kmeans_clusters = 0;
  EXPECT_FALSE(config.Validate(100).ok());
  config.kmeans_clusters = 8;
  config.kmeans_iterations = 0;
  EXPECT_FALSE(config.Validate(100).ok());
  config.kmeans_iterations = 5;
  EXPECT_TRUE(config.Validate(100).ok());
  config.cluster_reuse = true;  // CR needs LSH signatures
  EXPECT_FALSE(config.Validate(100).ok());
}

TEST(ReuseConfigTest, MethodToString) {
  EXPECT_EQ(ClusteringMethodToString(ClusteringMethod::kLsh), "lsh");
  EXPECT_EQ(ClusteringMethodToString(ClusteringMethod::kKMeans), "kmeans");
  ReuseConfig config;
  config.method = ClusteringMethod::kKMeans;
  config.kmeans_clusters = 32;
  EXPECT_NE(config.ToString().find("kmeans(|C|=32)"), std::string::npos);
}

std::unique_ptr<ReuseConv2d> MakeLayer(Rng* rng) {
  ReuseConfig reuse;
  reuse.num_hashes = 8;
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 8;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.in_height = 8;
  conv.in_width = 8;
  return std::make_unique<ReuseConv2d>("conv1", conv, reuse, rng);
}

TEST(FinalExactStageTest, LastStageDisablesReuse) {
  Rng rng(11);
  auto layer = MakeLayer(&rng);
  AdaptiveOptions options;
  options.plateau_window = 1;
  options.min_steps_per_stage = 1;
  options.final_exact_stage = true;
  AdaptiveController controller({layer.get()}, 4, options);
  ASSERT_TRUE(controller.Init().ok());
  EXPECT_TRUE(layer->reuse_config().enabled);
  while (!controller.Exhausted()) {
    controller.Step(1.0, 0.2, [&]() { return 0.9; });
  }
  EXPECT_FALSE(layer->reuse_config().enabled);
}

TEST(FinalExactStageTest, DisabledOptionKeepsReuseOn) {
  Rng rng(12);
  auto layer = MakeLayer(&rng);
  AdaptiveOptions options;
  options.plateau_window = 1;
  options.min_steps_per_stage = 1;
  options.final_exact_stage = false;
  AdaptiveController controller({layer.get()}, 4, options);
  ASSERT_TRUE(controller.Init().ok());
  while (!controller.Exhausted()) {
    controller.Step(1.0, 0.2, [&]() { return 0.9; });
  }
  EXPECT_TRUE(layer->reuse_config().enabled);
  // And it ends on its most precise candidate.
  const LhCandidate& last = controller.CurrentCandidate(0);
  EXPECT_EQ(layer->reuse_config().sub_vector_length, last.l);
  EXPECT_EQ(layer->reuse_config().num_hashes, last.h);
}

TEST(FinalExactStageTest, AddsExactlyOneStage) {
  Rng rng(13);
  auto with_layer = MakeLayer(&rng);
  auto without_layer = MakeLayer(&rng);
  AdaptiveOptions with_exact;
  with_exact.final_exact_stage = true;
  AdaptiveOptions without_exact;
  without_exact.final_exact_stage = false;
  AdaptiveController with({with_layer.get()}, 4, with_exact);
  AdaptiveController without({without_layer.get()}, 4, without_exact);
  ASSERT_TRUE(with.Init().ok());
  ASSERT_TRUE(without.Init().ok());
  EXPECT_EQ(with.num_stages(), without.num_stages() + 1);
}

}  // namespace
}  // namespace adr
