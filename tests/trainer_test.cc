// Tests for the training-step and evaluation helpers.

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/reuse_conv2d.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

SyntheticImageDataset TinyDataset() {
  SyntheticImageConfig config;
  config.num_classes = 2;
  config.num_samples = 64;
  config.height = 8;
  config.width = 8;
  config.seed = 5;
  return *SyntheticImageDataset::Create(config);
}

Model TinyModel(bool reuse = false) {
  ModelOptions options;
  options.num_classes = 2;
  options.input_size = 8;
  options.width = 0.0625;
  options.fc_width = 0.02;
  options.use_reuse = reuse;
  options.reuse.sub_vector_length = 5;
  options.reuse.num_hashes = 6;
  return BuildCifarNet(options).ValueOrDie();
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.num_elements()) * sizeof(float)) ==
             0;
}

std::vector<Tensor> CopyGradients(const std::vector<Tensor*>& grads) {
  std::vector<Tensor> copies;
  for (const Tensor* g : grads) copies.push_back(*g);
  return copies;
}

TEST(TrainerTest, TrainStepReducesLossOnRepeatedBatch) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  const Batch batch = MakeBatch(dataset, 0, 16);
  Adam optimizer(0.005f);
  const StepResult first = TrainStep(&model.network, &optimizer, batch);
  StepResult last = first;
  for (int i = 0; i < 20; ++i) {
    last = TrainStep(&model.network, &optimizer, batch);
  }
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GE(last.accuracy, first.accuracy);
}

TEST(TrainerTest, TrainStepUpdatesParameters) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  const Batch batch = MakeBatch(dataset, 0, 8);
  // Snapshot a parameter.
  Tensor before = *model.network.Parameters()[0];
  Adam optimizer(0.01f);
  TrainStep(&model.network, &optimizer, batch);
  EXPECT_GT(MaxAbsDiff(*model.network.Parameters()[0], before), 0.0f);
}

// The first layer of a training step skips its input gradient
// (Layer::BackwardParameters); its parameter gradients must not change by
// a bit. Checked for the dense layer, the reuse layer, the reuse layer's
// exact-backward ablation and a disabled reuse layer.
TEST(BackwardParametersTest, ConvLayersMatchFullBackwardBitwise) {
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 5;
  config.pad = 2;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = 15;
  reuse.num_hashes = 8;
  ReuseConfig disabled = reuse;
  disabled.enabled = false;
  Rng rng(11);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv2d>("dense", config, &rng));
  layers.push_back(
      std::make_unique<ReuseConv2d>("reuse", config, reuse, &rng));
  auto exact = std::make_unique<ReuseConv2d>("exact", config, reuse, &rng);
  exact->set_exact_backward(true);
  layers.push_back(std::move(exact));
  layers.push_back(
      std::make_unique<ReuseConv2d>("disabled", config, disabled, &rng));

  Rng data_rng(12);
  const Tensor input = Tensor::RandomGaussian(Shape({4, 3, 8, 8}), &data_rng);
  const Tensor grad = Tensor::RandomGaussian(Shape({4, 8, 8, 8}), &data_rng);
  for (const auto& layer : layers) {
    layer->Forward(input, /*training=*/true);
    const Tensor grad_input = layer->Backward(grad);
    EXPECT_EQ(grad_input.shape(), input.shape()) << layer->name();
    const std::vector<Tensor> full = CopyGradients(layer->Gradients());
    for (Tensor* g : layer->Gradients()) g->Fill(-7.0f);

    layer->Forward(input, /*training=*/true);
    layer->BackwardParameters(grad);
    const std::vector<Tensor*> skipped = layer->Gradients();
    ASSERT_EQ(skipped.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_TRUE(SameBits(*skipped[i], full[i]))
          << layer->name() << " gradient " << i;
    }
  }
}

TEST(BackwardParametersTest, NetworkGradientsMatchFullBackwardBitwise) {
  const SyntheticImageDataset dataset = TinyDataset();
  const Batch batch = MakeBatch(dataset, 0, 8);
  for (const bool reuse : {false, true}) {
    Model model = TinyModel(reuse);
    Network& net = model.network;
    Tensor logits = net.Forward(batch.images, /*training=*/true);
    const LossResult loss = SoftmaxCrossEntropy(logits, batch.labels);
    const Tensor grad_input = net.Backward(loss.grad_logits);
    EXPECT_EQ(grad_input.shape(), batch.images.shape());
    const std::vector<Tensor> full = CopyGradients(net.Gradients());

    logits = net.Forward(batch.images, /*training=*/true);
    net.BackwardParameters(
        SoftmaxCrossEntropy(logits, batch.labels).grad_logits);
    const std::vector<Tensor*> skipped = net.Gradients();
    ASSERT_EQ(skipped.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_TRUE(SameBits(*skipped[i], full[i]))
          << "reuse=" << reuse << " gradient " << i;
    }
  }
}

TEST(TrainerTest, EvaluateBatchDoesNotUpdateParameters) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  const Batch batch = MakeBatch(dataset, 0, 8);
  Tensor before = *model.network.Parameters()[0];
  const StepResult result = EvaluateBatch(&model.network, batch);
  EXPECT_EQ(MaxAbsDiff(*model.network.Parameters()[0], before), 0.0f);
  EXPECT_GT(result.loss, 0.0);
  EXPECT_GE(result.accuracy, 0.0);
  EXPECT_LE(result.accuracy, 1.0);
}

TEST(TrainerTest, EvaluateAccuracyBounds) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  const double accuracy =
      EvaluateAccuracy(&model.network, dataset, 16, 64);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST(TrainerTest, EvaluateAccuracyRespectsMaxSamples) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  // Only full batches are evaluated: 20 samples at batch 16 -> one batch.
  const double subset = EvaluateAccuracy(&model.network, dataset, 16, 20);
  const double one_batch = EvaluateAccuracy(&model.network, dataset, 16, 16);
  EXPECT_EQ(subset, one_batch);
}

TEST(TrainerTest, EvaluateAccuracyDefaultsToWholeDataset) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  const double all = EvaluateAccuracy(&model.network, dataset, 16);
  const double capped = EvaluateAccuracy(&model.network, dataset, 16, 64);
  EXPECT_EQ(all, capped);  // dataset has exactly 64 samples
}

TEST(TrainerTest, DeterministicEvaluation) {
  const SyntheticImageDataset dataset = TinyDataset();
  Model model = TinyModel();
  EXPECT_EQ(EvaluateAccuracy(&model.network, dataset, 16, 32),
            EvaluateAccuracy(&model.network, dataset, 16, 32));
}

}  // namespace
}  // namespace adr
