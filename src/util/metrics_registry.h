// MetricsRegistry: the process-wide telemetry hub of the library.
//
// Producers (ReuseConv2d, the clustering kernels, AdaptiveController, the
// trainer) publish named counters, gauges and histograms; consumers (the
// examples' --metrics-out flag, tests, dashboards) take a consistent
// snapshot or a JSON dump. Handles returned by counter()/gauge()/
// histogram() are lock-free to publish through and safe to share across
// ParallelFor workers; only the name -> handle lookup takes a mutex.
//
// Naming convention: slash-separated paths, most-general component first,
// e.g. "reuse/conv1/r_c", "train/steps", "adaptive/stage".

#ifndef ADR_UTIL_METRICS_REGISTRY_H_
#define ADR_UTIL_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace adr {

/// \brief Monotonic event count. All operations are lock-free.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-written instantaneous value. Set/Add are lock-free.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Lock-free histogram over power-of-two buckets.
///
/// Covers positive values from 2^-48 to 2^48 (seconds, MACs, bytes all
/// fit); zero and negative values land in a dedicated bottom bucket.
/// Percentile() interpolates at the geometric midpoint of the selected
/// bucket, so its relative error is bounded by sqrt(2); exact count, sum,
/// min and max are tracked alongside.
class Histogram {
 public:
  static constexpr int kMinExponent = -48;
  static constexpr int kMaxExponent = 48;
  // bucket 0: v <= 0; buckets 1..96: [2^e, 2^(e+1)); plus overflow.
  static constexpr int kNumBuckets = kMaxExponent - kMinExponent + 2;

  void Record(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest/largest recorded value; 0 when empty.
  double min() const;
  double max() const;
  double mean() const;

  /// \brief Value at percentile `p` in [0, 100], clamped to the observed
  /// [min, max] range. Returns 0 when empty.
  double Percentile(double p) const;

 private:
  static int BucketIndex(double value);

  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// \brief Point-in-time copy of every metric, for reporting.
struct MetricsSnapshot {
  struct HistogramStats {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// \brief Named metric store. Thread-safe; normally used through Global().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief The process-wide registry every library component publishes
  /// into. Never destroyed.
  static MetricsRegistry& Global();

  /// \brief Returns the metric with this name, creating it on first use.
  /// The returned pointer stays valid until Clear().
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// \brief The snapshot as a JSON document:
  /// {"schema_version":1,"counters":{...},"gauges":{...},
  ///  "histograms":{name:{count,sum,min,max,p50,p90,p99}}}.
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

  /// \brief Drops every metric. Outstanding handles dangle: test-only,
  /// never concurrent with publishers.
  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace adr

#endif  // ADR_UTIL_METRICS_REGISTRY_H_
