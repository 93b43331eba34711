#include "nn/network.h"

#include "util/check.h"
#include "util/trace.h"

namespace adr {

Tensor Network::Forward(const Tensor& input, bool training) {
  ADR_TRACE_SPAN("Network::Forward");
  ADR_CHECK(!layers_.empty());
  Tensor current = input;
  for (auto& layer : layers_) {
    current = layer->Forward(current, training);
  }
  return current;
}

Tensor Network::Backward(const Tensor& grad_output) {
  ADR_TRACE_SPAN("Network::Backward");
  ADR_CHECK(!layers_.empty());
  Tensor current = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    current = (*it)->Backward(current);
  }
  return current;
}

void Network::BackwardParameters(const Tensor& grad_output) {
  ADR_TRACE_SPAN("Network::Backward");
  ADR_CHECK(!layers_.empty());
  Tensor current = grad_output;
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    current = layers_[i]->Backward(current);
  }
  layers_.front()->BackwardParameters(current);
}

std::vector<Tensor*> Network::Parameters() const {
  std::vector<Tensor*> params;
  for (const auto& layer : layers_) {
    for (Tensor* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor*> Network::Gradients() const {
  std::vector<Tensor*> grads;
  for (const auto& layer : layers_) {
    for (Tensor* g : layer->Gradients()) grads.push_back(g);
  }
  return grads;
}

std::vector<Tensor*> Network::StateTensors() const {
  std::vector<Tensor*> state;
  for (const auto& layer : layers_) {
    for (Tensor* s : layer->StateTensors()) state.push_back(s);
  }
  return state;
}

Layer* Network::FindLayer(const std::string& name) {
  for (auto& layer : layers_) {
    if (layer->name() == name) return layer.get();
  }
  return nullptr;
}

int64_t Network::NumParameters() const {
  int64_t n = 0;
  for (Tensor* p : Parameters()) n += p->num_elements();
  return n;
}

double Network::ForwardMacs(int64_t batch) const {
  double macs = 0.0;
  for (const auto& layer : layers_) macs += layer->ForwardMacs(batch);
  return macs;
}

std::vector<std::pair<std::string, ReuseLayerStats>>
Network::CollectReuseStats() const {
  std::vector<std::pair<std::string, ReuseLayerStats>> stats;
  for (const auto& layer : layers_) {
    if (const ReuseLayerStats* s = layer->GetReuseStats()) {
      stats.emplace_back(layer->name(), *s);
    }
  }
  return stats;
}

void Network::ResetReuseStats() {
  for (auto& layer : layers_) layer->ResetReuseStats();
}

}  // namespace adr
