// Tests for losses, optimizers, the Network container, and training helpers.

#include <cmath>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(1);
  Tensor logits = Tensor::RandomGaussian(Shape({5, 7}), &rng, 0.0f, 3.0f);
  Tensor probs = Softmax(logits);
  for (int64_t i = 0; i < 5; ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < 7; ++j) row_sum += probs.at(i, j);
    EXPECT_NEAR(row_sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, NumericallyStableWithLargeLogits) {
  Tensor logits(Shape({1, 2}), {1000.0f, 1000.0f});
  Tensor probs = Softmax(logits);
  EXPECT_NEAR(probs.at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(probs.at(1), 0.5f, 1e-6f);
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits(Shape({2, 4}));
  const LossResult r = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits(Shape({1, 3}), {100.0f, 0.0f, 0.0f});
  const LossResult r = SoftmaxCrossEntropy(logits, {0});
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.num_correct, 1);
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesFiniteDifference) {
  Rng rng(2);
  Tensor logits = Tensor::RandomGaussian(Shape({3, 5}), &rng);
  const std::vector<int> labels = {1, 4, 0};
  const LossResult base = SoftmaxCrossEntropy(logits, labels);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.num_elements(); ++i) {
    Tensor up = logits;
    up.at(i) += eps;
    Tensor down = logits;
    down.at(i) -= eps;
    const double numeric = (SoftmaxCrossEntropy(up, labels).loss -
                            SoftmaxCrossEntropy(down, labels).loss) /
                           (2.0 * eps);
    EXPECT_NEAR(base.grad_logits.at(i), numeric, 1e-3);
  }
}

TEST(SoftmaxCrossEntropyTest, CountsCorrectPredictions) {
  Tensor logits(Shape({3, 2}), {2, 1, 0, 5, 3, 1});
  const LossResult r = SoftmaxCrossEntropy(logits, {0, 1, 1});
  EXPECT_EQ(r.num_correct, 2);  // rows 0 and 1 are right, row 2 wrong
}

TEST(MeanSquaredErrorTest, ZeroAtTarget) {
  Tensor pred(Shape({2, 2}), {1, 2, 3, 4});
  const LossResult r = MeanSquaredError(pred, pred);
  EXPECT_EQ(r.loss, 0.0);
  EXPECT_EQ(MaxAbs(r.grad_logits), 0.0f);
}

TEST(MeanSquaredErrorTest, KnownValue) {
  Tensor pred(Shape({1, 2}), {1.0f, 3.0f});
  Tensor target(Shape({1, 2}), {0.0f, 0.0f});
  const LossResult r = MeanSquaredError(pred, target);
  EXPECT_DOUBLE_EQ(r.loss, 0.5 * (1.0 + 9.0));
  EXPECT_FLOAT_EQ(r.grad_logits.at(0), 1.0f);
  EXPECT_FLOAT_EQ(r.grad_logits.at(1), 3.0f);
}

TEST(MomentumTest, AcceleratesAlongConstantGradient) {
  Tensor param(Shape({1}), {0.0f});
  Tensor grad(Shape({1}), {1.0f});
  MomentumSgd opt(0.1f, 0.9f);
  opt.Step({&param}, {&grad});
  EXPECT_FLOAT_EQ(param.at(0), -0.1f);  // v1 = -0.1
  opt.Step({&param}, {&grad});
  // v2 = 0.9 * (-0.1) - 0.1 = -0.19: the step grows along a constant slope.
  EXPECT_FLOAT_EQ(param.at(0), -0.1f - 0.19f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2 with gradient 2(x - 3).
  Tensor x(Shape({1}), {0.0f});
  Tensor grad(Shape({1}));
  Adam adam(0.1f);
  for (int i = 0; i < 500; ++i) {
    grad.at(0) = 2.0f * (x.at(0) - 3.0f);
    adam.Step({&x}, {&grad});
  }
  EXPECT_NEAR(x.at(0), 3.0f, 0.05f);
}

TEST(AdamTest, ZeroGradientLeavesParameterUnchanged) {
  Tensor param(Shape({1}), {2.0f});
  Tensor grad(Shape({1}), {0.0f});
  Adam adam(0.1f);
  adam.Step({&param}, {&grad});
  EXPECT_FLOAT_EQ(param.at(0), 2.0f);
}

TEST(OptimizerTest, LearningRateMutable) {
  MomentumSgd opt(0.1f, 0.9f);
  opt.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.01f);
}

TEST(NetworkTest, ForwardComposesLayers) {
  Rng rng(3);
  Network net;
  net.Add(std::make_unique<Dense>("fc1", 4, 8, &rng));
  net.Add(std::make_unique<Relu>("relu1"));
  net.Add(std::make_unique<Dense>("fc2", 8, 2, &rng));
  Tensor in = Tensor::RandomGaussian(Shape({3, 4}), &rng);
  Tensor out = net.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({3, 2}));
}

TEST(NetworkTest, ParametersAndGradientsAligned) {
  Rng rng(4);
  Network net;
  net.Add(std::make_unique<Dense>("fc1", 4, 8, &rng));
  net.Add(std::make_unique<Relu>("relu"));
  net.Add(std::make_unique<Dense>("fc2", 8, 2, &rng));
  const auto params = net.Parameters();
  const auto grads = net.Gradients();
  ASSERT_EQ(params.size(), 4u);  // two Dense layers x (W, b)
  ASSERT_EQ(grads.size(), 4u);
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i]->SameShape(*grads[i]));
  }
  EXPECT_EQ(net.NumParameters(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(NetworkTest, FindLayerByName) {
  Rng rng(5);
  Network net;
  net.Add(std::make_unique<Dense>("fc1", 2, 2, &rng));
  net.Add(std::make_unique<Relu>("relu"));
  EXPECT_NE(net.FindLayer("relu"), nullptr);
  EXPECT_EQ(net.FindLayer("missing"), nullptr);
  EXPECT_EQ(net.num_layers(), 2u);
}

TEST(NetworkTest, BackwardPropagatesThroughAllLayers) {
  Rng rng(6);
  Network net;
  net.Add(std::make_unique<Dense>("fc1", 3, 5, &rng));
  net.Add(std::make_unique<Relu>("relu"));
  net.Add(std::make_unique<Dense>("fc2", 5, 2, &rng));
  Tensor in = Tensor::RandomGaussian(Shape({2, 3}), &rng);
  Tensor out = net.Forward(in, true);
  Tensor grad = Tensor::Ones(out.shape());
  Tensor gin = net.Backward(grad);
  EXPECT_EQ(gin.shape(), in.shape());
  EXPECT_GT(MaxAbs(gin), 0.0f);
}

TEST(NetworkTest, TrainsXorWithDenseLayers) {
  Rng rng(7);
  Network net;
  net.Add(std::make_unique<Dense>("fc1", 2, 16, &rng));
  net.Add(std::make_unique<Relu>("relu"));
  net.Add(std::make_unique<Dense>("fc2", 16, 2, &rng));
  Tensor inputs(Shape({4, 2}), {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<int> labels = {0, 1, 1, 0};
  Adam adam(0.02f);
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    Tensor logits = net.Forward(inputs, true);
    const LossResult loss = SoftmaxCrossEntropy(logits, labels);
    net.Backward(loss.grad_logits);
    adam.Step(net.Parameters(), net.Gradients());
    final_loss = loss.loss;
  }
  EXPECT_LT(final_loss, 0.05);
  const LossResult final =
      SoftmaxCrossEntropy(net.Forward(inputs, false), labels);
  EXPECT_EQ(final.num_correct, 4);
}

}  // namespace
}  // namespace adr
