#include "util/metrics_registry.h"

#include <cmath>
#include <fstream>

#include "util/json_writer.h"

namespace adr {

namespace {

// Lowers an atomic double with a CAS loop (used for min/max tracking).
template <typename Compare>
void AtomicExtremum(std::atomic<double>* slot, double value, Compare better) {
  double current = slot->load(std::memory_order_relaxed);
  while (better(value, current) &&
         !slot->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN
  const int exponent = static_cast<int>(std::floor(std::log2(value)));
  if (exponent < kMinExponent) return 1;
  if (exponent > kMaxExponent) return kNumBuckets - 1;
  return exponent - kMinExponent + 1;
}

void Histogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  AtomicExtremum(&min_, value, std::less<double>());
  AtomicExtremum(&max_, value, std::greater<double>());
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  const int64_t total = count();
  if (total == 0) return 0.0;
  p = std::fmin(100.0, std::fmax(0.0, p));
  // Rank of the requested percentile, 1-based (nearest-rank method).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * total)));
  int64_t seen = 0;
  int bucket = 0;
  for (; bucket < kNumBuckets; ++bucket) {
    seen += buckets_[bucket].load(std::memory_order_relaxed);
    if (seen >= rank) break;
  }
  double estimate;
  if (bucket <= 0) {
    estimate = 0.0;
  } else if (bucket >= kNumBuckets - 1) {
    estimate = max();
  } else {
    // Geometric midpoint of [2^e, 2^(e+1)): relative error <= sqrt(2).
    const int exponent = bucket - 1 + kMinExponent;
    estimate = std::exp2(exponent + 0.5);
  }
  return std::fmin(max(), std::fmax(min(), estimate));
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramStats stats;
    stats.count = histogram->count();
    stats.sum = histogram->sum();
    stats.min = histogram->min();
    stats.max = histogram->max();
    stats.p50 = histogram->Percentile(50.0);
    stats.p90 = histogram->Percentile(90.0);
    stats.p99 = histogram->Percentile(99.0);
    snapshot.histograms[name] = stats;
  }
  return snapshot;
}

std::string MetricsRegistry::ToJson() const {
  const MetricsSnapshot snapshot = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(1);
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w.Key(name);
    w.Int(value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w.Key(name);
    w.Double(value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, stats] : snapshot.histograms) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Int(stats.count);
    w.Key("sum");
    w.Double(stats.sum);
    w.Key("min");
    w.Double(stats.min);
    w.Key("max");
    w.Double(stats.max);
    w.Key("p50");
    w.Double(stats.p50);
    w.Key("p90");
    w.Double(stats.p90);
    w.Key("p99");
    w.Double(stats.p99);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::InvalidArgument("cannot open metrics file: " + path);
  }
  file << ToJson() << "\n";
  file.close();
  if (!file) {
    return Status::Internal("failed writing metrics file: " + path);
  }
  return Status::OK();
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace adr
