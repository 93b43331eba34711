// Quickstart: train a small CNN with adaptive deep reuse and print what
// the reuse machinery saved.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/reuse_config.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/optimizer.h"
#include "nn/reuse_stats.h"
#include "nn/trainer.h"

int main() {
  using namespace adr;

  // 1. A dataset. SyntheticImageDataset generates smooth, structured
  //    images (a stand-in for CIFAR-10; see DESIGN.md).
  SyntheticImageConfig data_config = SyntheticImageConfig::CifarLike(
      /*num_samples=*/512, /*seed=*/42);
  data_config.num_classes = 4;
  data_config.height = 16;
  data_config.width = 16;
  auto dataset = SyntheticImageDataset::Create(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  // 2. A model with reuse-enabled convolutions. ReuseConfigBuilder sets
  //    the paper's three knobs — sub-vector length L, hash count H, and
  //    the cluster-reuse flag CR — and validates them in one place.
  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 16;
  options.width = 0.25;   // scaled-down CifarNet
  options.fc_width = 0.1;
  options.use_reuse = true;
  auto reuse = ReuseConfigBuilder()
                   .SubVectorLength(25)  // L
                   .NumHashes(12)        // H
                   .ClusterReuse(false)  // CR
                   .Build();
  if (!reuse.ok()) {
    std::fprintf(stderr, "reuse config: %s\n",
                 reuse.status().ToString().c_str());
    return 1;
  }
  options.reuse = *reuse;
  auto model = BuildCifarNet(options);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }

  // 3. A plain training loop; the reuse layers cluster neuron vectors on
  //    the fly and reuse centroid results in both directions.
  DataLoader loader(&*dataset, /*batch_size=*/16, /*shuffle=*/true, 7);
  Adam optimizer(0.002f);
  Batch batch;
  for (int step = 1; step <= 150; ++step) {
    loader.Next(&batch);
    const StepResult result = TrainStep(&model->network, &optimizer, batch);
    if (step % 30 == 0) {
      std::printf("step %3d  loss %.4f  batch accuracy %.3f\n", step,
                  result.loss, result.accuracy);
    }
  }

  // 4. What did reuse buy us?
  const double accuracy =
      EvaluateAccuracy(&model->network, *dataset, 16, 256);
  std::printf("\nfinal accuracy: %.3f\n\n", accuracy);
  std::printf("%-10s %8s %10s\n", "layer", "r_c", "MACs saved");
  ReuseLayerStats total;
  for (const auto& [name, stats] : model->network.CollectReuseStats()) {
    std::printf("%-10s %8.3f %9.1f%%\n", name.c_str(),
                stats.avg_remaining_ratio, stats.MacsSavedFraction() * 100.0);
    total.macs_executed += stats.macs_executed;
    total.macs_baseline += stats.macs_baseline;
  }
  std::printf("%-10s %8s %9.1f%%\n", "TOTAL", "",
              total.MacsSavedFraction() * 100.0);
  return 0;
}
