#ifndef P2PDT_COMMON_METRICS_H_
#define P2PDT_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace p2pdt {

/// Sorted (key, value) pairs identifying one member of a metric family,
/// e.g. {{"classifier","pace"},{"phase","train"}}. Callers may pass labels
/// in any order; the registry canonicalizes by sorting on key.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonical identity string: `name{k1=v1,k2=v2}` (labels sorted by key),
/// or just `name` for an unlabeled metric. Exports and lookups key on this.
std::string RenderMetricKey(const std::string& name,
                            const MetricLabels& labels);

/// Monotonically increasing count. Lock-free; safe to drive from pool
/// workers during parallel training.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (e.g. live homes, model coverage). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with exact count/sum/max and quantile estimates
/// (linear interpolation inside the bucket containing the rank). Bounds are
/// upper edges; one implicit overflow bucket catches everything above the
/// last bound. All updates are lock-free, so per-task wall timings can be
/// observed straight from thread-pool workers.
class Histogram {
 public:
  /// Exponential bounds suited to both simulated latencies (tens of ms) and
  /// wall-clock compute phases (µs to minutes): 1e-4 .. 250 seconds.
  static const std::vector<double>& DefaultLatencyBounds();

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Largest observed value (0 when empty).
  double max() const;
  double mean() const;
  /// Estimated q-quantile in [0, 1]; 0 when empty. Clamped to max().
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> bucket_counts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of every registered metric, ordered by canonical key
/// so exports (and goldens built on them) are deterministic.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    MetricLabels labels;
    Kind kind = Kind::kCounter;
    /// Counter / gauge reading.
    double value = 0.0;
    /// Histogram aggregates (count also doubles as "observations").
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Raw buckets kept so snapshots can be diffed exactly.
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;

    std::string key() const { return RenderMetricKey(name, labels); }
  };

  std::vector<Entry> entries;

  const Entry* Find(const std::string& name,
                    const MetricLabels& labels = {}) const;
  bool empty() const { return entries.empty(); }
};

/// after − before: counters and histogram buckets subtract (entries absent
/// from `before` pass through); gauges take the `after` reading. Histogram
/// quantiles are re-derived from the differenced buckets, so a diff answers
/// "what did *this phase* cost" even when the registry spans a whole run.
MetricsSnapshot DiffSnapshots(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Registry of named metric families. Get* registers on first use and
/// returns a stable reference; subsequent calls with the same (name,
/// labels) return the same object, so call sites can cache the pointer or
/// re-resolve each time. Registration takes a mutex; recording on the
/// returned objects is lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge& GetGauge(const std::string& name, MetricLabels labels = {});
  /// Empty `bounds` selects Histogram::DefaultLatencyBounds(). Bounds are
  /// fixed at first registration; later calls ignore the argument.
  Histogram& GetHistogram(const std::string& name, MetricLabels labels = {},
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (families stay registered).
  void Reset();

  std::size_t num_metrics() const;

  /// `name,labels,kind,value,count,sum,mean,max,p50,p95,p99` — one row per
  /// metric, ordered by canonical key.
  static std::string ToCsv(const MetricsSnapshot& snapshot);
  /// `{"metrics":[{"name":...,"labels":{...},"kind":...,...}]}`.
  static std::string ToJson(const MetricsSnapshot& snapshot);

  std::string ToCsv() const { return ToCsv(Snapshot()); }
  std::string ToJson() const { return ToJson(Snapshot()); }

  Status WriteCsv(const std::string& path) const;
  Status WriteJson(const std::string& path) const;

 private:
  template <typename T>
  struct Family {
    std::string name;
    MetricLabels labels;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mu_;  // guards the maps; metric objects are stable
  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
};

/// The `phase_seconds{classifier, phase}` histogram a wall-clock phase timer
/// (PhaseScope) records into; null when `metrics` is null (metrics off).
Histogram* PhaseSeconds(MetricsRegistry* metrics, const char* classifier,
                        const char* phase);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_METRICS_H_
