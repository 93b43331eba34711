#include "core/adaptive_controller.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace adr {

bool PlateauDetector::Observe(double loss) {
  history_.push_back(loss);
  const size_t needed = 2 * static_cast<size_t>(window_);
  if (history_.size() > needed) history_.pop_front();
  if (history_.size() < needed) return false;
  double older = 0.0, recent = 0.0;
  for (int i = 0; i < window_; ++i) {
    older += history_[static_cast<size_t>(i)];
    recent += history_[static_cast<size_t>(window_ + i)];
  }
  older /= window_;
  recent /= window_;
  if (older <= 0.0) return true;
  const double rel_improvement = (older - recent) / older;
  return rel_improvement < min_rel_improvement_;
}

AdaptiveController::AdaptiveController(std::vector<ReuseConv2d*> layers,
                                       int64_t batch_size,
                                       const AdaptiveOptions& options)
    : batch_size_(batch_size),
      options_(options),
      plateau_(options.plateau_window, options.plateau_min_rel_improvement) {
  for (ReuseConv2d* layer : layers) {
    LayerState state;
    state.layer = layer;
    layers_.push_back(std::move(state));
  }
}

Status AdaptiveController::Init() {
  if (layers_.empty()) {
    return Status::InvalidArgument("no reuse layers to control");
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    ReuseConv2d* layer = layers_[i].layer;
    LayerScheduleParams params;
    params.kernel_w = layer->config().kernel;
    params.in_channels = layer->config().in_channels;
    params.k = layer->unfolded_cols();
    params.m = layer->config().out_channels;
    params.n = layer->config().Geometry(batch_size_).unfolded_rows();
    params.is_first_layer = i == 0;
    ADR_ASSIGN_OR_RETURN(layers_[i].candidates, BuildCandidateList(params));
    ADR_CHECK(!layers_[i].candidates.empty());
  }
  stage_ = 0;
  steps_in_stage_ = 0;
  ApplyStage(0);
  MetricsRegistry::Global().gauge("adaptive/stage")->Set(0.0);
  MetricsRegistry::Global()
      .gauge("adaptive/num_stages")
      ->Set(static_cast<double>(num_stages()));
  return Status::OK();
}

void AdaptiveController::ApplyStage(int stage) {
  const bool exact = options_.final_exact_stage && stage >= num_stages() - 1;
  for (LayerState& state : layers_) {
    const int idx = std::min(
        stage, static_cast<int>(state.candidates.size()) - 1);
    const LhCandidate& c = state.candidates[static_cast<size_t>(idx)];
    ReuseConfig config = state.layer->reuse_config();
    config.enabled = !exact;
    config.sub_vector_length = c.l;
    config.num_hashes = c.h;
    const Status status = state.layer->SetReuseConfig(config);
    ADR_CHECK(status.ok()) << status.ToString();
  }
}

int AdaptiveController::num_stages() const {
  int stages = 0;
  for (const LayerState& state : layers_) {
    stages = std::max(stages, static_cast<int>(state.candidates.size()));
  }
  if (options_.final_exact_stage) ++stages;
  return stages;
}

bool AdaptiveController::Exhausted() const {
  return stage_ >= num_stages() - 1;
}

const LhCandidate& AdaptiveController::CurrentCandidate(size_t i) const {
  const LayerState& state = layers_[i];
  const int idx = std::min(
      stage_, static_cast<int>(state.candidates.size()) - 1);
  return state.candidates[static_cast<size_t>(idx)];
}

bool AdaptiveController::Step(double train_loss, double train_accuracy,
                              const ProbeFn& probe) {
  ++steps_in_stage_;
  last_train_accuracy_ = train_accuracy;
  const bool plateaued = plateau_.Observe(train_loss);
  if (!plateaued || steps_in_stage_ < options_.min_steps_per_stage ||
      Exhausted()) {
    return false;
  }
  ADR_TRACE_SPAN("AdaptiveController::AdvanceStage");
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("adaptive/plateaus")->Increment();

  // Probe the current setting once (A_cur).
  const double a_cur = probe();
  const int max_stage = num_stages() - 1;
  const bool low_accuracy =
      train_accuracy < options_.low_accuracy_threshold;

  // Amendments 3.1 / 3.2: scan forward for the first acceptable candidate.
  int accepted = -1;
  double a_accepted = 0.0;
  for (int j = stage_ + 1; j <= max_stage; ++j) {
    ApplyStage(j);
    const double a_j = probe();
    const bool ok = low_accuracy
                        ? (a_cur > 0.0 && a_j / a_cur >= options_.ratio_accept)
                        : (a_j - a_cur >= options_.diff_accept);
    if (ok) {
      accepted = j;
      a_accepted = a_j;
      break;
    }
  }

  // Amendment 3.3: fall back to the weaker ratio test.
  if (accepted < 0) {
    for (int j = stage_ + 1; j <= max_stage; ++j) {
      ApplyStage(j);
      const double a_j = probe();
      if (a_cur <= 0.0 || a_j / a_cur >= options_.fallback_ratio) {
        accepted = j;
        a_accepted = a_j;
        break;
      }
    }
  }

  // Guarantee progress: when nothing passes even the fallback, take the
  // immediate successor (the schedule must eventually reach its most
  // precise setting for training to converge).
  if (accepted < 0) {
    accepted = stage_ + 1;
    ApplyStage(accepted);
    a_accepted = probe();
  }

  ADR_LOG(Info) << "adaptive stage " << stage_ << " -> " << accepted
                << " (probe accuracy " << a_cur << " -> " << a_accepted
                << ")";
  stage_ = accepted;
  ApplyStage(stage_);
  steps_in_stage_ = 0;
  plateau_.Reset();
  metrics.counter("adaptive/stage_advances")->Increment();
  metrics.gauge("adaptive/stage")->Set(static_cast<double>(stage_));
  metrics.gauge("adaptive/probe_accuracy")->Set(a_accepted);
  return true;
}

}  // namespace adr
