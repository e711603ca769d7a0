#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace p2pdt {

namespace {

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

MetricLabels Canonicalize(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Escapes a string for embedding in JSON output.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* KindToString(MetricsSnapshot::Kind kind) {
  switch (kind) {
    case MetricsSnapshot::Kind::kCounter:
      return "counter";
    case MetricsSnapshot::Kind::kGauge:
      return "gauge";
    case MetricsSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string RenderLabels(const MetricLabels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  return out;
}

/// Quantile estimate from differenced bucket counts (shared by live
/// histograms and snapshot diffs).
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets,
                           uint64_t count, double max_value, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    uint64_t prev = cum;
    cum += buckets[i];
    if (cum < rank) continue;
    // Implicit overflow bucket: observations beyond the last bound are not
    // uniformly spread over [last_bound, max] — the only honest point
    // estimate is the observed maximum. Interpolating here used to
    // fabricate values below every observation in the bucket.
    if (i >= bounds.size()) return max_value;
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    if (hi < lo) hi = lo;
    double frac = buckets[i] == 0
                      ? 1.0
                      : static_cast<double>(rank - prev) /
                            static_cast<double>(buckets[i]);
    double est = lo + frac * (hi - lo);
    return std::min(est, max_value);
  }
  return max_value;
}

void FillHistogramEntry(MetricsSnapshot::Entry& e) {
  e.p50 = QuantileFromBuckets(e.bounds, e.buckets, e.count, e.max, 0.50);
  e.p95 = QuantileFromBuckets(e.bounds, e.buckets, e.count, e.max, 0.95);
  e.p99 = QuantileFromBuckets(e.bounds, e.buckets, e.count, e.max, 0.99);
}

}  // namespace

std::string RenderMetricKey(const std::string& name,
                            const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = Canonicalize(labels);
  return name + "{" + RenderLabels(sorted) + "}";
}

void Gauge::Add(double delta) { AtomicAddDouble(value_, delta); }

const std::vector<double>& Histogram::DefaultLatencyBounds() {
  static const std::vector<double> bounds = {
      1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
      0.25, 0.5,    1.0,  2.5,  5.0,    10.0, 25.0, 50.0,   100.0, 250.0};
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBounds();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  std::size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, v);
  AtomicMaxDouble(max_, v);
}

double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  return QuantileFromBuckets(bounds_, bucket_counts(), count(), max(), q);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     MetricLabels labels) {
  labels = Canonicalize(std::move(labels));
  std::string key = RenderMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::move(key),
                      Family<Counter>{name, std::move(labels),
                                      std::unique_ptr<Counter>(new Counter())})
             .first;
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 MetricLabels labels) {
  labels = Canonicalize(std::move(labels));
  std::string key = RenderMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::move(key),
                      Family<Gauge>{name, std::move(labels),
                                    std::unique_ptr<Gauge>(new Gauge())})
             .first;
  }
  return *it->second.metric;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels,
                                         std::vector<double> bounds) {
  labels = Canonicalize(std::move(labels));
  std::string key = RenderMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::move(key),
                      Family<Histogram>{
                          name, std::move(labels),
                          std::unique_ptr<Histogram>(
                              new Histogram(std::move(bounds)))})
             .first;
  }
  return *it->second.metric;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.entries.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [key, fam] : counters_) {
    MetricsSnapshot::Entry e;
    e.name = fam.name;
    e.labels = fam.labels;
    e.kind = MetricsSnapshot::Kind::kCounter;
    e.value = static_cast<double>(fam.metric->value());
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, fam] : gauges_) {
    MetricsSnapshot::Entry e;
    e.name = fam.name;
    e.labels = fam.labels;
    e.kind = MetricsSnapshot::Kind::kGauge;
    e.value = fam.metric->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, fam] : histograms_) {
    MetricsSnapshot::Entry e;
    e.name = fam.name;
    e.labels = fam.labels;
    e.kind = MetricsSnapshot::Kind::kHistogram;
    e.count = fam.metric->count();
    e.sum = fam.metric->sum();
    e.max = fam.metric->max();
    e.bounds = fam.metric->bounds();
    e.buckets = fam.metric->bucket_counts();
    FillHistogramEntry(e);
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const MetricsSnapshot::Entry& a,
               const MetricsSnapshot::Entry& b) { return a.key() < b.key(); });
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, fam] : counters_) {
    fam.metric->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [key, fam] : gauges_) {
    fam.metric->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [key, fam] : histograms_) {
    Histogram& h = *fam.metric;
    for (std::size_t i = 0; i <= h.bounds_.size(); ++i) h.buckets_[i] = 0;
    h.count_.store(0, std::memory_order_relaxed);
    h.sum_.store(0.0, std::memory_order_relaxed);
    h.max_.store(0.0, std::memory_order_relaxed);
  }
}

std::size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    const std::string& name, const MetricLabels& labels) const {
  std::string key = RenderMetricKey(name, labels);
  for (const Entry& e : entries) {
    if (e.key() == key) return &e;
  }
  return nullptr;
}

MetricsSnapshot DiffSnapshots(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot out;
  out.entries.reserve(after.entries.size());
  for (const MetricsSnapshot::Entry& a : after.entries) {
    const MetricsSnapshot::Entry* b = before.Find(a.name, a.labels);
    MetricsSnapshot::Entry e = a;
    if (b != nullptr && b->kind == a.kind) {
      switch (a.kind) {
        case MetricsSnapshot::Kind::kCounter:
          e.value = a.value - b->value;
          break;
        case MetricsSnapshot::Kind::kGauge:
          break;  // gauges are not cumulative; keep the `after` reading
        case MetricsSnapshot::Kind::kHistogram:
          e.count = a.count - b->count;
          e.sum = a.sum - b->sum;
          if (a.buckets.size() == b->buckets.size()) {
            for (std::size_t i = 0; i < e.buckets.size(); ++i) {
              e.buckets[i] = a.buckets[i] - b->buckets[i];
            }
          }
          // Max is not invertible from buckets; the window max is at most
          // the cumulative max, which we keep as the best available bound.
          FillHistogramEntry(e);
          break;
      }
    }
    out.entries.push_back(std::move(e));
  }
  return out;
}

std::string MetricsRegistry::ToCsv(const MetricsSnapshot& snapshot) {
  std::string out =
      "name,labels,kind,value,count,sum,mean,max,p50,p95,p99\n";
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    double mean =
        e.count == 0 ? 0.0 : e.sum / static_cast<double>(e.count);
    out += e.name;
    out += ',';
    std::string labels = RenderLabels(e.labels);
    if (labels.find(',') != std::string::npos) {
      out += '"' + labels + '"';
    } else {
      out += labels;
    }
    out += ',';
    out += KindToString(e.kind);
    out += ',';
    out += FormatDouble(e.value);
    out += ',';
    out += std::to_string(e.count);
    out += ',';
    out += FormatDouble(e.sum);
    out += ',';
    out += FormatDouble(mean);
    out += ',';
    out += FormatDouble(e.max);
    out += ',';
    out += FormatDouble(e.p50);
    out += ',';
    out += FormatDouble(e.p95);
    out += ',';
    out += FormatDouble(e.p99);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    const MetricsSnapshot::Entry& e = snapshot.entries[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(e.name) + "\",\"labels\":{";
    for (std::size_t j = 0; j < e.labels.size(); ++j) {
      if (j > 0) out += ',';
      out += "\"" + JsonEscape(e.labels[j].first) + "\":\"" +
             JsonEscape(e.labels[j].second) + "\"";
    }
    out += "},\"kind\":\"";
    out += KindToString(e.kind);
    out += "\"";
    if (e.kind == MetricsSnapshot::Kind::kHistogram) {
      double mean =
          e.count == 0 ? 0.0 : e.sum / static_cast<double>(e.count);
      out += ",\"count\":" + std::to_string(e.count);
      out += ",\"sum\":" + FormatDouble(e.sum);
      out += ",\"mean\":" + FormatDouble(mean);
      out += ",\"max\":" + FormatDouble(e.max);
      out += ",\"p50\":" + FormatDouble(e.p50);
      out += ",\"p95\":" + FormatDouble(e.p95);
      out += ",\"p99\":" + FormatDouble(e.p99);
    } else {
      out += ",\"value\":" + FormatDouble(e.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

Status WriteStringToFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << body;
  out.close();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

}  // namespace

Status MetricsRegistry::WriteCsv(const std::string& path) const {
  return WriteStringToFile(path, ToCsv());
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

Histogram* PhaseSeconds(MetricsRegistry* metrics, const char* classifier,
                        const char* phase) {
  if (metrics == nullptr) return nullptr;
  return &metrics->GetHistogram(
      "phase_seconds", {{"classifier", classifier}, {"phase", phase}});
}

}  // namespace p2pdt
