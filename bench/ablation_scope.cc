// Ablation of the clustering scope (paper Section III-B): single-input vs
// single-batch vs across-batch (cluster reuse) on one trained layer.
// Expectation: wider scopes pool more redundancy, so they reach the same
// accuracy at smaller remaining ratios, with across-batch additionally
// removing recomputation of clusters seen in earlier batches.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/reuse_conv2d.h"
#include "util/csv_writer.h"

namespace adr::bench {
namespace {

void Main() {
  std::printf("== Ablation: clustering scope on CifarNet conv2 ==\n");
  CsvWriter csv;
  const Status open = CsvWriter::Open(
      ResultsDir() + "/ablation_scope.csv",
      {"scope", "H", "rc", "accuracy", "cumulative_reuse_rate"}, &csv);
  ADR_CHECK(open.ok()) << open.ToString();

  TrainSpec spec;
  spec.model_name = "cifarnet";
  spec.model_options.num_classes = 10;
  spec.model_options.input_size = 16;
  spec.model_options.width = 0.25;
  spec.model_options.fc_width = 0.1;
  spec.data_config = HardTask(16, 512, 71);
  spec.train_steps = Scaled(300);
  spec.batch_size = 8;
  const TrainedContext context = TrainBaseline(spec);
  std::printf("dense accuracy: %.3f\n\n", context.baseline_accuracy);

  PrintRow({"scope", "H", "r_c", "accuracy", "cum. R"});
  for (const ClusterScope scope :
       {ClusterScope::kSingleInput, ClusterScope::kSingleBatch,
        ClusterScope::kAcrossBatch}) {
    for (int h : {6, 10, 14}) {
      Model twin = MakeReuseTwin(context, ExactReuseConfig());
      ReuseConv2d* layer = twin.reuse_layers[1];
      const ReuseConfig config = ReuseConfigBuilder()
                                     .SubVectorLength(10)
                                     .NumHashes(h)
                                     .Scope(scope)
                                     .BuildUnchecked();
      const Status status = layer->SetReuseConfig(config);
      ADR_CHECK(status.ok()) << status.ToString();
      const double accuracy = EvaluateAccuracy(
          &twin.network, context.dataset, 8, Scaled(128));
      const double rc = layer->stats().avg_remaining_ratio;
      const double reuse_rate = layer->stats().CacheHitRate();
      PrintRow({std::string(ClusterScopeToString(scope)),
                std::to_string(h), Fmt(rc, 4), Fmt(accuracy, 3),
                Fmt(reuse_rate, 3)});
      csv.WriteRow(std::vector<std::string>{
          std::string(ClusterScopeToString(scope)), std::to_string(h),
          Fmt(rc, 6), Fmt(accuracy, 6), Fmt(reuse_rate, 6)});
    }
  }
  csv.Close();
  std::printf("\nCSV written to %s/ablation_scope.csv\n",
              ResultsDir().c_str());
}

}  // namespace
}  // namespace adr::bench

int main() {
  adr::bench::Main();
  return 0;
}
