// End-to-end benchmark driver: runs one workload for a wall-clock budget
// and prints one JSON result line. perfbench/run.py builds and invokes it;
// perfbench/README.md describes the workloads and metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//
// --trace 0 reports the end-to-end metrics; training calls TrainStep the
// way a user does, inference walks the layers as Network::Forward does.
// --trace 1 walks the network layer by layer with a span and a timer
// around every call into a layer,
// reports the per-layer metrics, and writes the spans (the library's own
// included) as Chrome trace JSON to --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {
namespace {

// One thread: comparable across hosts with different core counts, and
// steadier on a shared host.
constexpr int kThreads = 1;
constexpr int64_t kBatch = 16;
// The image set is fixed, like a real dataset; --seed picks the batch
// order and the weight initialisation. Training sees each image a few
// times per run; the inference stream repeats them in reshuffled batches,
// so the cross-batch cache reaches its steady size within the first
// seconds.
constexpr int64_t kDatasetSize = 1024;
constexpr uint64_t kDatasetSeed = 1234;
constexpr float kLearningRate = 0.002f;
// Batches run inside the setup: arenas, optimizer state and clustering
// buffers reach their steady size before timing starts.
constexpr int kWarmupBatches = 2;
// Setups per run, one after another before the measurement; setup_s is
// their median.
constexpr int kSetupRepeats = 5;
// Every kCheckStride-th inference batch is checked against the exact
// layers, outside its latency.
constexpr int64_t kCheckStride = 8;
// Largest accepted ||reuse - exact|| / ||exact|| for conv1's output,
// conv2's output and the logits: in any one checked batch, and averaged
// over the run's checked batches. An all-zero output scores 1. With
// L = 10, H = 11 and untrained weights, correct runs average about 0.6
// and 0.45 on the conv layers (worst batches 0.75 and 0.53), while a cache
// that returns the entry next to the right one averages 0.94 and 1.01.
// The logits compound both layers and spread from 0.45 to 0.93 per batch,
// so they are only held to beat an all-zero output.
constexpr std::array<double, 3> kMaxRelErr = {0.9, 0.7, 1.0};
constexpr std::array<double, 3> kMaxMeanRelErr = {0.7, 0.55, 1.0};
// Training must end with a mean loss below this share of its start.
constexpr double kMaxFinalLossShare = 0.9;
constexpr size_t kLossWindow = 10;

enum class Mode { kTrain, kInfer };

struct Workload {
  Mode mode = Mode::kTrain;
  bool reuse = false;  // ReuseConv2d layers instead of Conv2d
  ReuseConfig reuse_config;
  // Empty the cross-batch caches before every batch (untimed), so every
  // lookup misses and every cluster is inserted into a fresh table.
  bool cold_cache = false;
  SyntheticImageConfig data;
  uint64_t seed = 0;  // batch order and weight initialisation
};

std::optional<Workload> FindWorkload(const std::string& name,
                                     uint64_t seed) {
  Workload w;
  w.seed = seed;
  w.data = SyntheticImageConfig::CifarLike(kDatasetSize, kDatasetSeed);
  // The fixed CifarNet setting of the training-savings bench (table4):
  // L = 10, H = 11. conv1 (K = 75) splits into 8 sub-vector blocks,
  // conv2 (K = 800) into 80.
  w.reuse_config =
      ReuseConfigBuilder().SubVectorLength(10).NumHashes(11).BuildUnchecked();
  if (name == "train_dense") {
  } else if (name == "train_reuse") {
    w.reuse = true;
  } else if (name == "infer_cached" || name == "infer_cache_fill") {
    w.mode = Mode::kInfer;
    w.reuse = true;
    w.reuse_config.scope = ClusterScope::kAcrossBatch;  // CR = 1
    w.cold_cache = name == "infer_cache_fill";
  } else if (name == "infer_uncached") {
    w.mode = Mode::kInfer;
    w.reuse = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// CifarNet at half width, the scale of the training-savings bench: the
// paper's layer structure at a size one core runs ~10 steps a second.
ModelOptions CifarNetOptions(const Workload& workload, bool reuse) {
  ModelOptions options;
  options.num_classes = workload.data.num_classes;
  options.input_size = workload.data.height;
  options.width = 0.5;
  options.fc_width = 0.25;
  options.use_reuse = reuse;
  options.reuse = workload.reuse_config;
  options.seed = workload.seed;
  return options;
}

// Layer groups the per-layer metrics are reported for.
enum Group { kConv1 = 0, kConv2 = 1, kHead = 2, kNumGroups = 3 };
constexpr std::array<const char*, kNumGroups> kGroupName = {"conv1", "conv2",
                                                            "head"};
constexpr std::array<const char*, kNumGroups> kForwardSpan = {
    "bench/conv1.forward", "bench/conv2.forward", "bench/head.forward"};
constexpr std::array<const char*, kNumGroups> kBackwardSpan = {
    "bench/conv1.backward", "bench/conv2.backward", "bench/head.backward"};
constexpr std::array<const char*, kNumGroups> kUpdateSpan = {
    "bench/conv1.update", "bench/conv2.update", "bench/head.update"};

Group GroupOf(const Layer& layer) {
  const std::string name = layer.name();
  if (name == "conv1") return kConv1;
  if (name == "conv2") return kConv2;
  return kHead;
}

// Milliseconds one batch spent in each layer group (trace mode).
struct LayerTimes {
  double data = 0.0;
  std::array<double, kNumGroups> forward{};
  std::array<double, kNumGroups> total{};  // forward + backward + update
};

// Everything one setup builds. Heap-allocated so the loader's pointer to
// the dataset stays valid.
struct State {
  Mode mode = Mode::kTrain;
  bool trace = false;
  bool cold_cache = false;
  std::optional<SyntheticImageDataset> dataset;
  std::optional<DataLoader> loader;
  Model model;
  Model dense_reference;  // inference: same weights, exact convolutions
  std::unique_ptr<Optimizer> optimizer;
  // Trace mode gives each group its own Adam, which is element-wise
  // identical to one Adam over all parameters.
  std::array<std::unique_ptr<Optimizer>, kNumGroups> group_optimizers;
  std::array<std::vector<Tensor*>, kNumGroups> group_params;
  std::array<std::vector<Tensor*>, kNumGroups> group_grads;
  std::vector<Group> layer_group;
  Batch batch;
};

// What one batch produced.
struct Outcome {
  double latency_ms = 0.0;
  double loss = 0.0;  // training
  Tensor logits;      // inference
};

// Training step, layer by layer, with a span and a timer around every call
// into a layer. Same arithmetic as TrainStep.
double TrainStepTraced(State* s, LayerTimes* times) {
  Network& net = s->model.network;
  Timer timer;
  auto lap = [&timer] {
    const double ms = timer.ElapsedMillis();
    timer.Reset();
    return ms;
  };
  Tensor x = s->batch.images;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const Group g = s->layer_group[i];
    {
      TraceSpan span(kForwardSpan[g]);
      x = net.layer(i)->Forward(x, /*training=*/true);
    }
    const double ms = lap();
    times->forward[g] += ms;
    times->total[g] += ms;
  }
  LossResult loss;
  {
    ADR_TRACE_SPAN("bench/head.loss");
    loss = SoftmaxCrossEntropy(x, s->batch.labels);
  }
  times->total[kHead] += lap();
  Tensor grad = std::move(loss.grad_logits);
  for (size_t i = net.num_layers(); i-- > 0;) {
    const Group g = s->layer_group[i];
    {
      TraceSpan span(kBackwardSpan[g]);
      grad = net.layer(i)->Backward(grad);
    }
    times->total[g] += lap();
  }
  for (int g = 0; g < kNumGroups; ++g) {
    if (s->group_params[g].empty()) continue;
    {
      TraceSpan span(kUpdateSpan[g]);
      s->group_optimizers[g]->Step(s->group_params[g], s->group_grads[g]);
    }
    times->total[g] += lap();
  }
  return loss.loss;
}

// The input and output of each conv layer in one inference batch, kept
// for the cross-check against the exact layers.
struct ConvCapture {
  std::array<Tensor, kHead> input;
  std::array<Tensor, kHead> output;
};

// Inference forward, layer by layer, timed like TrainStepTraced. Same
// arithmetic as Network::Forward, whose loop this is. Fills `capture`
// when it is not null.
Tensor ForwardLayers(State* s, LayerTimes* times, ConvCapture* capture) {
  Network& net = s->model.network;
  Tensor x = s->batch.images;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const Group g = s->layer_group[i];
    Tensor input = std::move(x);
    Timer timer;
    {
      TraceSpan span(kForwardSpan[g]);
      x = net.layer(i)->Forward(input, /*training=*/false);
    }
    const double ms = timer.ElapsedMillis();
    times->forward[g] += ms;
    times->total[g] += ms;
    if (capture != nullptr && g != kHead) {
      capture->input[g] = std::move(input);
      capture->output[g] = x;
    }
  }
  return x;
}

// One batch. A training step's latency includes loading its batch (the
// loader is part of the training pipeline); an inference request arrives
// with its images, so generating them is not part of its latency.
Outcome RunBatch(State* s, LayerTimes* times, ConvCapture* capture) {
  Outcome out;
  Timer data_timer;
  {
    ADR_TRACE_SPAN("bench/data");
    s->loader->Next(&s->batch);
  }
  times->data = data_timer.ElapsedMillis();
  if (s->cold_cache) {
    for (ReuseConv2d* layer : s->model.reuse_layers) layer->ClearCache();
  }
  Timer timer;
  if (s->mode == Mode::kTrain) {
    out.loss = s->trace
                   ? TrainStepTraced(s, times)
                   : TrainStep(&s->model.network, s->optimizer.get(), s->batch)
                         .loss;
    out.latency_ms = times->data + timer.ElapsedMillis();
  } else {
    out.logits = ForwardLayers(s, times, capture);
    out.latency_ms = timer.ElapsedMillis();
  }
  return out;
}

// Builds everything a run needs and warms it up.
Result<std::unique_ptr<State>> Setup(const Workload& workload, bool trace) {
  ADR_TRACE_SPAN("bench/setup");
  auto s = std::make_unique<State>();
  s->mode = workload.mode;
  s->trace = trace;
  s->cold_cache = workload.cold_cache;
  ADR_ASSIGN_OR_RETURN(SyntheticImageDataset dataset,
                       SyntheticImageDataset::Create(workload.data));
  s->dataset.emplace(std::move(dataset));
  s->loader.emplace(&*s->dataset, kBatch, /*shuffle=*/true, workload.seed);
  ADR_ASSIGN_OR_RETURN(s->model, BuildCifarNet(CifarNetOptions(
                                     workload, workload.reuse)));
  if (workload.mode == Mode::kInfer) {
    ADR_ASSIGN_OR_RETURN(s->dense_reference,
                         BuildCifarNet(CifarNetOptions(workload, false)));
    ADR_RETURN_NOT_OK(CopyWeights(s->dense_reference, &s->model));
  }
  s->optimizer = std::make_unique<Adam>(kLearningRate);
  Network& net = s->model.network;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const Group g = GroupOf(*net.layer(i));
    s->layer_group.push_back(g);
    for (Tensor* p : net.layer(i)->Parameters()) {
      s->group_params[g].push_back(p);
    }
    for (Tensor* p : net.layer(i)->Gradients()) {
      s->group_grads[g].push_back(p);
    }
  }
  for (auto& optimizer : s->group_optimizers) {
    optimizer = std::make_unique<Adam>(kLearningRate);
  }
  for (int b = 0; b < kWarmupBatches; ++b) {
    LayerTimes unused;
    RunBatch(s.get(), &unused, /*capture=*/nullptr);
  }
  return s;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Relative Frobenius error of `got` against `want`; infinity when the
// shapes differ or either holds a non-finite value.
double RelativeError(const Tensor& got, const Tensor& want) {
  if (!got.SameShape(want)) return INFINITY;
  double diff = 0.0;
  double norm = 0.0;
  for (int64_t i = 0; i < want.num_elements(); ++i) {
    const double d = static_cast<double>(got.at(i)) - want.at(i);
    diff += d * d;
    norm += static_cast<double>(want.at(i)) * want.at(i);
  }
  if (!std::isfinite(diff) || !std::isfinite(norm)) return INFINITY;
  return std::sqrt(diff / std::max(norm, 1e-30));
}

// Relative errors of one inference batch against the exact network with
// the same weights: each conv layer on the input its reuse twin saw, and
// the logits on the batch's images.
std::array<double, kNumGroups> CheckAgainstExact(State* s,
                                                 const ConvCapture& capture,
                                                 const Tensor& logits) {
  std::array<double, kNumGroups> err{};
  Network& exact = s->dense_reference.network;
  for (size_t i = 0; i < exact.num_layers(); ++i) {
    const Group g = s->layer_group[i];
    if (g == kHead) continue;
    err[g] = RelativeError(
        capture.output[g],
        exact.layer(i)->Forward(capture.input[g], /*training=*/false));
  }
  err[kHead] = RelativeError(
      logits, exact.Forward(s->batch.images, /*training=*/false));
  return err;
}

double Mean(const std::vector<double>& values, size_t begin, size_t end) {
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += values[i];
  return sum / static_cast<double>(end - begin);
}

// The result line run.py relays: correctness, batch counts, and the
// metrics of the chosen trace mode in insertion order.
struct ResultLine {
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics;

  void Metric(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }

  void Print(bool correct, int64_t attempted, int64_t failed) const {
    JsonWriter w;
    w.BeginObject();
    w.Key("correct");
    w.Bool(correct);
    w.Key("attempted");
    w.Int(attempted);
    w.Key("failed");
    w.Int(failed);
    w.Key("metrics");
    w.BeginObject();
    for (const Entry& m : metrics) {
      w.Key(m.name);
      w.BeginObject();
      w.Key("value");
      w.Double(m.value);
      w.Key("unit");
      w.String(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
};

int Run(const std::string& workload_name, uint64_t seed, double seconds,
        bool trace, const std::string& trace_out) {
  const std::optional<Workload> workload = FindWorkload(workload_name, seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", workload_name.c_str());
    return 1;
  }
  const bool train = workload->mode == Mode::kTrain;
  ThreadPool::SetGlobalThreads(kThreads);
  if (trace) {
    Tracer::Global().SetCurrentThreadName("main");
    Tracer::Global().SetEnabled(true);
  }

  // The last setup is measured. Each earlier one is destroyed before the
  // next is built, so the peak RSS counts one state.
  std::vector<double> setup_seconds;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const Timer timer;
    auto built = Setup(*workload, trace);
    setup_seconds.push_back(timer.ElapsedSeconds());
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    state = std::move(built).ValueOrDie();
  }
  State* s = state.get();
  s->model.network.ResetReuseStats();

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> losses;
  std::vector<LayerTimes> layer_times;
  // Inference: worst and summed relative errors against the exact layers,
  // per conv layer and for the logits.
  std::array<double, kNumGroups> worst_err{};
  std::array<double, kNumGroups> sum_err{};
  int64_t checked = 0;
  const Timer wall;
  while (wall.ElapsedSeconds() < seconds) {
    const bool check = !train && attempted % kCheckStride == 0;
    ConvCapture capture;
    LayerTimes times;
    Outcome out;
    {
      ADR_TRACE_SPAN("bench/batch");
      out = RunBatch(s, &times, check ? &capture : nullptr);
    }
    latency_ms.push_back(out.latency_ms);
    layer_times.push_back(times);
    if (train) {
      losses.push_back(out.loss);
      if (!std::isfinite(out.loss)) ++failed;
    } else if (check) {
      ADR_TRACE_SPAN("bench/check");
      const std::array<double, kNumGroups> err =
          CheckAgainstExact(s, capture, out.logits);
      bool ok = true;
      for (int g = 0; g < kNumGroups; ++g) {
        worst_err[g] = std::max(worst_err[g], err[g]);
        sum_err[g] += err[g];
        ok = ok && err[g] <= kMaxRelErr[g];
      }
      if (!ok) ++failed;
      ++checked;
    }
    ++attempted;
  }
  Tracer::Global().SetEnabled(false);

  // Correctness: training must make progress; inference must stay close
  // to the exact layers on the same inputs.
  bool correct = true;
  if (train) {
    if (losses.size() < 2 * kLossWindow) {
      std::fprintf(stderr, "too few steps (%zu) to check convergence\n",
                   losses.size());
      correct = false;
    } else {
      const double first = Mean(losses, 0, kLossWindow);
      const double last =
          Mean(losses, losses.size() - kLossWindow, losses.size());
      std::fprintf(stderr, "loss: first %.4f last %.4f over %zu steps\n",
                   first, last, losses.size());
      if (!(last < kMaxFinalLossShare * first)) correct = false;
    }
  } else if (checked == 0) {
    correct = false;
  } else {
    for (int g = 0; g < kNumGroups; ++g) {
      const double mean = sum_err[g] / static_cast<double>(checked);
      std::fprintf(stderr,
                   "%s rel err vs exact over %lld batches: mean %.4f "
                   "worst %.4f\n",
                   g == kHead ? "logits" : kGroupName[g],
                   static_cast<long long>(checked), mean, worst_err[g]);
      if (!(mean <= kMaxMeanRelErr[g])) correct = false;
    }
  }
  if (failed > 0) correct = false;

  ResultLine result;
  if (!trace) {
    const double p5 = Percentile(latency_ms, 5);
    std::fprintf(stderr,
                 "batches: %zu, latency p5 %.3f p25 %.3f p50 %.3f p90 %.3f "
                 "ms\n",
                 latency_ms.size(), p5, Percentile(latency_ms, 25),
                 Percentile(latency_ms, 50), Percentile(latency_ms, 90));
    result.Metric("batch_p5_ms", p5, "ms");
    result.Metric("setup_s", Percentile(setup_seconds, 50), "s");
    result.Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    auto median_of = [&layer_times](auto field) {
      std::vector<double> values;
      for (const LayerTimes& t : layer_times) values.push_back(field(t));
      return Percentile(values, 50);
    };
    result.Metric("data_ms",
                  median_of([](const LayerTimes& t) { return t.data; }), "ms");
    for (int g = 0; g < kNumGroups; ++g) {
      const std::string name = kGroupName[g];
      if (g != kHead) {
        result.Metric(
            name + "_fwd_ms",
            median_of([g](const LayerTimes& t) { return t.forward[g]; }),
            "ms");
      }
      result.Metric(name + "_ms",
                    median_of([g](const LayerTimes& t) { return t.total[g]; }),
                    "ms");
    }
    // Reuse telemetry over the measured batches. Exact layers do all their
    // work (r_c = 1) and have no cache.
    double macs_executed = 0.0;
    double macs_baseline = 0.0;
    std::array<std::optional<ReuseLayerStats>, 2> conv_stats;
    for (const auto& [name, st] : s->model.network.CollectReuseStats()) {
      if (name == kGroupName[kConv1]) conv_stats[kConv1] = st;
      if (name == kGroupName[kConv2]) conv_stats[kConv2] = st;
      macs_executed += st.macs_executed;
      macs_baseline += st.macs_baseline;
    }
    for (int g : {kConv1, kConv2}) {
      const std::optional<ReuseLayerStats>& st = conv_stats[g];
      const std::string name = kGroupName[g];
      result.Metric(name + "_rc", st ? st->avg_remaining_ratio : 1.0,
                    "ratio");
      result.Metric(name + "_hit_rate",
                    st && st->cache_lookups > 0
                        ? static_cast<double>(st->cache_hits) /
                              static_cast<double>(st->cache_lookups)
                        : 0.0,
                    "ratio");
    }
    result.Metric("conv_macs_saved_pct",
                  macs_baseline > 0.0
                      ? 100.0 * (1.0 - macs_executed / macs_baseline)
                      : 0.0,
                  "%");
    if (!trace_out.empty()) {
      if (const Status status = Tracer::Global().WriteJsonFile(trace_out);
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  result.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace adr

int main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string trace_out;
  adr::FlagSet flags;
  flags.AddString("workload", &workload,
                  "train_dense | train_reuse | infer_cached | "
                  "infer_cache_fill | infer_uncached");
  flags.AddInt64("seed", &seed, "batch order and weight initialisation");
  flags.AddDouble("seconds", &seconds, "measurement wall-clock budget");
  flags.AddInt64("trace", &trace, "1 = per-layer metrics, 0 = end-to-end");
  flags.AddString("trace-out", &trace_out,
                  "trace mode: write Chrome trace JSON here");
  if (const adr::Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "need --seed >= 0, --seconds > 0, --trace 0|1\n");
    return 1;
  }
  return adr::Run(workload, static_cast<uint64_t>(seed), seconds, trace == 1,
                  trace_out);
}
