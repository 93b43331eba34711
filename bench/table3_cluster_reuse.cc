// Table III reproduction: inference accuracy with cluster reuse off vs on
// (CR=0 vs CR=1) for each CifarNet conv layer at its best {L, H}, plus the
// Section VI-B2 claim that the per-batch reuse rate R climbs toward ~1
// within ~20 batches.
//
// Paper reference (full scale): conv1 {L=5, H=15}: 0.813 -> 0.799;
// conv2 {L=10, H=10}: 0.816 -> 0.784 — CR trades a little accuracy for
// removing most computation on later batches.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/reuse_conv2d.h"
#include "util/bench_json.h"
#include "util/csv_writer.h"

namespace adr::bench {
namespace {

struct LayerSetting {
  size_t layer_index;
  std::string name;
  int64_t l;
  int h;
};

double EvaluateWithConfig(const TrainedContext& context,
                          const LayerSetting& setting, bool cluster_reuse,
                          int64_t batch_size, int64_t eval_samples,
                          double* reuse_rate_out) {
  Model twin = MakeReuseTwin(context, ExactReuseConfig());
  ReuseConv2d* layer = twin.reuse_layers[setting.layer_index];
  const ReuseConfig config = ReuseConfigBuilder()
                                 .SubVectorLength(setting.l)
                                 .NumHashes(setting.h)
                                 .ClusterReuse(cluster_reuse)
                                 .BuildUnchecked();
  const Status status = layer->SetReuseConfig(config);
  ADR_CHECK(status.ok()) << status.ToString();
  const double accuracy = EvaluateAccuracy(&twin.network, context.dataset,
                                           batch_size, eval_samples);
  if (reuse_rate_out != nullptr) {
    *reuse_rate_out = layer->stats().CacheHitRate();
  }
  return accuracy;
}

void Main() {
  std::printf("== Table III: cluster reuse (CR) on CifarNet ==\n");
  CsvWriter csv;
  Status open = CsvWriter::Open(
      ResultsDir() + "/table3_cluster_reuse.csv",
      {"layer", "L", "H", "accuracy_cr0", "accuracy_cr1", "reuse_rate"},
      &csv);
  ADR_CHECK(open.ok()) << open.ToString();

  TrainSpec spec;
  spec.model_name = "cifarnet";
  spec.model_options.num_classes = 10;
  spec.model_options.input_size = 16;
  spec.model_options.width = 0.25;
  spec.model_options.fc_width = 0.1;
  spec.data_config = HardTask(16, 512, 31);
  spec.train_steps = Scaled(300);
  spec.batch_size = 8;
  const TrainedContext context = TrainBaseline(spec);
  std::printf("dense accuracy: %.3f\n\n", context.baseline_accuracy);

  // The paper's per-layer optimal settings. conv1 K = 75 (divisible by 5);
  // conv2 K = 16*25 = 400 at width 0.25 (divisible by 10).
  const std::vector<LayerSetting> settings = {
      {0, "conv1", 5, 15},
      {1, "conv2", 10, 10},
  };

  // Alongside the CSVs, the same results go into a schema-versioned
  // BENCH_table3_cluster_reuse.json (util/bench_json.h) so the table
  // benches share the micro benches' machine-readable trajectory format.
  BenchJsonEmitter emitter("table3_cluster_reuse");

  PrintRow({"layer", "L", "H", "acc CR=0", "acc CR=1", "cum. R"});
  for (const LayerSetting& setting : settings) {
    const double acc0 = EvaluateWithConfig(context, setting, false, 8,
                                           Scaled(128), nullptr);
    double reuse_rate = 0.0;
    const double acc1 = EvaluateWithConfig(context, setting, true, 8,
                                           Scaled(128), &reuse_rate);
    PrintRow({setting.name, std::to_string(setting.l),
              std::to_string(setting.h), Fmt(acc0, 3), Fmt(acc1, 3),
              Fmt(reuse_rate, 3)});
    csv.WriteRow(std::vector<std::string>{
        setting.name, std::to_string(setting.l), std::to_string(setting.h),
        Fmt(acc0, 6), Fmt(acc1, 6), Fmt(reuse_rate, 6)});
    BenchRecord record;
    record.name = "table3/" + setting.name + "/L:" +
                  std::to_string(setting.l) + "/H:" +
                  std::to_string(setting.h);
    record.iterations = 1;
    record.counters.emplace_back("accuracy_cr0", acc0);
    record.counters.emplace_back("accuracy_cr1", acc1);
    record.counters.emplace_back("reuse_rate", reuse_rate);
    emitter.Add(std::move(record));
  }
  csv.Close();

  // Section VI-B2: reuse rate R per batch over the first 20 batches.
  std::printf("\nPer-batch reuse rate R (conv1, CR=1), Section VI-B2:\n");
  CsvWriter rate_csv;
  open = CsvWriter::Open(ResultsDir() + "/table3_reuse_rate_growth.csv",
                         {"batch", "reuse_rate"}, &rate_csv);
  ADR_CHECK(open.ok()) << open.ToString();
  Model twin = MakeReuseTwin(context, ExactReuseConfig());
  ReuseConv2d* layer = twin.reuse_layers[0];
  const ReuseConfig config = ReuseConfigBuilder()
                                 .SubVectorLength(5)
                                 .NumHashes(15)
                                 .ClusterReuse(true)
                                 .BuildUnchecked();
  ADR_CHECK(layer->SetReuseConfig(config).ok());
  DataLoader loader(&context.dataset, 8, /*shuffle=*/true, 555);
  Batch batch;
  PrintRow({"batch", "R"});
  BenchRecord growth;
  growth.name = "table3/conv1/reuse_rate_growth";
  growth.iterations = 20;
  for (int b = 1; b <= 20; ++b) {
    loader.Next(&batch);
    twin.network.Forward(batch.images, /*training=*/false);
    const double r = layer->stats().last_batch_reuse_rate;
    PrintRow({std::to_string(b), Fmt(r, 3)});
    rate_csv.WriteRow(std::vector<double>{static_cast<double>(b), r});
    growth.counters.emplace_back("r_batch_" + std::to_string(b), r);
  }
  rate_csv.Close();
  emitter.Add(std::move(growth));
  const std::string json_path =
      BenchJsonEmitter::DefaultPath("table3_cluster_reuse");
  const Status json_status = emitter.WriteFile(json_path);
  ADR_CHECK(json_status.ok()) << json_status.ToString();
  std::printf("\nCSVs written to %s; JSON written to %s\n",
              ResultsDir().c_str(), json_path.c_str());
}

}  // namespace
}  // namespace adr::bench

int main() {
  adr::bench::Main();
  return 0;
}
