#include "nn/trainer.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

StepResult TrainStep(Network* network, Optimizer* optimizer,
                     const Batch& batch) {
  ADR_TRACE_SPAN("TrainStep");
  Timer timer;
  const Tensor logits = network->Forward(batch.images, /*training=*/true);
  const LossResult loss = SoftmaxCrossEntropy(logits, batch.labels);
  network->BackwardParameters(loss.grad_logits);
  {
    ADR_TRACE_SPAN("Optimizer::Step");
    optimizer->Step(network->Parameters(), network->Gradients());
  }
  StepResult result;
  result.loss = loss.loss;
  result.accuracy = static_cast<double>(loss.num_correct) /
                    static_cast<double>(batch.size());

  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("train/steps")->Increment();
  metrics.histogram("train/step_seconds")->Record(timer.ElapsedSeconds());
  metrics.gauge("train/loss")->Set(result.loss);
  metrics.gauge("train/accuracy")->Set(result.accuracy);
  return result;
}

StepResult EvaluateBatch(Network* network, const Batch& batch,
                         bool training_mode) {
  ADR_TRACE_SPAN("EvaluateBatch");
  const Tensor logits = network->Forward(batch.images, training_mode);
  const LossResult loss = SoftmaxCrossEntropy(logits, batch.labels);
  StepResult result;
  result.loss = loss.loss;
  result.accuracy = static_cast<double>(loss.num_correct) /
                    static_cast<double>(batch.size());
  return result;
}

double EvaluateAccuracy(Network* network, const Dataset& dataset,
                        int64_t batch_size, int64_t max_samples) {
  ADR_TRACE_SPAN("EvaluateAccuracy");
  const int64_t total =
      max_samples < 0 ? dataset.size() : std::min(max_samples, dataset.size());
  ADR_CHECK_GT(total, 0);
  int64_t correct = 0;
  int64_t seen = 0;
  for (int64_t start = 0; start + batch_size <= total; start += batch_size) {
    const Batch batch = MakeBatch(dataset, start, batch_size);
    const Tensor logits = network->Forward(batch.images, /*training=*/false);
    const LossResult loss = SoftmaxCrossEntropy(logits, batch.labels);
    correct += loss.num_correct;
    seen += batch.size();
  }
  ADR_CHECK_GT(seen, 0) << "batch_size larger than evaluation set";
  MetricsRegistry::Global().counter("train/evaluations")->Increment();
  return static_cast<double>(correct) / static_cast<double>(seen);
}

}  // namespace adr
