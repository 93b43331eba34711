// End-to-end integration tests crossing all modules: full training runs,
// determinism, checkpoint round trips through training, and reuse twins
// tracking dense models.

#include <gtest/gtest.h>

#include "core/reuse_conv2d.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "tensor/tensor_ops.h"

namespace adr {
namespace {

SyntheticImageDataset EasyDataset(uint64_t seed = 11) {
  SyntheticImageConfig config;
  config.num_classes = 4;
  config.num_samples = 256;
  config.height = 16;
  config.width = 16;
  config.structured_noise = 0.15f;
  config.white_noise = 0.02f;
  config.seed = seed;
  return *SyntheticImageDataset::Create(config);
}

ModelOptions SmallCifar() {
  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 16;
  options.width = 0.25;
  options.fc_width = 0.1;
  options.seed = 3;
  return options;
}

double TrainAndEvaluate(Model* model, const SyntheticImageDataset& dataset,
                        int steps, uint64_t loader_seed = 7) {
  DataLoader loader(&dataset, 16, true, loader_seed);
  Adam optimizer(0.002f);
  Batch batch;
  for (int i = 0; i < steps; ++i) {
    loader.Next(&batch);
    TrainStep(&model->network, &optimizer, batch);
  }
  return EvaluateAccuracy(&model->network, dataset, 16, 128);
}

TEST(IntegrationTest, DenseCifarNetLearnsEasyTask) {
  const SyntheticImageDataset dataset = EasyDataset();
  auto model = BuildCifarNet(SmallCifar());
  ASSERT_TRUE(model.ok());
  EXPECT_GT(TrainAndEvaluate(&*model, dataset, 120), 0.9);
}

TEST(IntegrationTest, BatchNormCifarNetLearns) {
  const SyntheticImageDataset dataset = EasyDataset();
  ModelOptions options = SmallCifar();
  options.batch_norm = true;
  auto model = BuildCifarNet(options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(TrainAndEvaluate(&*model, dataset, 120), 0.9);
}

TEST(IntegrationTest, ReuseCifarNetLearnsEasyTask) {
  const SyntheticImageDataset dataset = EasyDataset();
  ModelOptions options = SmallCifar();
  options.use_reuse = true;
  options.reuse.sub_vector_length = 25;
  options.reuse.num_hashes = 12;
  auto model = BuildCifarNet(options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(TrainAndEvaluate(&*model, dataset, 150), 0.85);
  // And it actually reused computation while doing so.
  for (ReuseConv2d* layer : model->reuse_layers) {
    EXPECT_GT(layer->stats().MacsSavedFraction(), 0.1);
  }
}

TEST(IntegrationTest, TrainingIsDeterministic) {
  const SyntheticImageDataset dataset = EasyDataset();
  auto a = BuildCifarNet(SmallCifar());
  auto b = BuildCifarNet(SmallCifar());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double acc_a = TrainAndEvaluate(&*a, dataset, 40);
  const double acc_b = TrainAndEvaluate(&*b, dataset, 40);
  EXPECT_EQ(acc_a, acc_b);
  const std::vector<Tensor*> pa = a->network.Parameters();
  const std::vector<Tensor*> pb = b->network.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(*pa[i], *pb[i]), 0.0f) << "parameter " << i;
  }
}

TEST(IntegrationTest, ReuseTrainingIsDeterministic) {
  const SyntheticImageDataset dataset = EasyDataset();
  ModelOptions options = SmallCifar();
  options.use_reuse = true;
  options.reuse.num_hashes = 10;
  auto a = BuildCifarNet(options);
  auto b = BuildCifarNet(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(TrainAndEvaluate(&*a, dataset, 30),
            TrainAndEvaluate(&*b, dataset, 30));
}

TEST(IntegrationTest, CheckpointMidTrainingResumes) {
  const SyntheticImageDataset dataset = EasyDataset();
  auto model = BuildCifarNet(SmallCifar());
  ASSERT_TRUE(model.ok());
  TrainAndEvaluate(&*model, dataset, 40);
  const std::string path = testing::TempDir() + "/resume.ckpt";
  ASSERT_TRUE(SaveCheckpoint(model->network, path).ok());

  ModelOptions fresh_options = SmallCifar();
  fresh_options.seed = 123;
  auto resumed = BuildCifarNet(fresh_options);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(LoadCheckpoint(path, &resumed->network).ok());
  // Identical parameters => identical evaluation.
  EXPECT_EQ(EvaluateAccuracy(&model->network, dataset, 16, 128),
            EvaluateAccuracy(&resumed->network, dataset, 16, 128));
  std::remove(path.c_str());
}

TEST(IntegrationTest, AdaptiveReuseOnAlexNetForwardBackward) {
  // Smoke over the deepest geometry pieces: scaled AlexNet in reuse mode
  // runs a full train step without shape errors.
  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 67;
  options.width = 0.125;
  options.fc_width = 0.01;
  options.use_reuse = true;
  options.reuse.num_hashes = 8;
  auto model = BuildAlexNet(options);
  ASSERT_TRUE(model.ok());
  SyntheticImageConfig config;
  config.num_classes = 4;
  config.num_samples = 8;
  config.height = 67;
  config.width = 67;
  config.max_translation = 4;
  auto dataset = SyntheticImageDataset::Create(config);
  ASSERT_TRUE(dataset.ok());
  const Batch batch = MakeBatch(*dataset, 0, 2);
  Adam optimizer(0.002f);
  const StepResult result = TrainStep(&model->network, &optimizer, batch);
  EXPECT_GT(result.loss, 0.0);
}

}  // namespace
}  // namespace adr
