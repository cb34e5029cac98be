#include "src/common/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace csi::telemetry {

namespace {

// Numbers in exports must be deterministic across platforms for golden
// tests: integral values print as integers, everything else as shortest %g
// with enough digits to round-trip float-ish precision.
std::string FormatNumber(double v) {
  char buffer[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  }
  return buffer;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
      default:
        out += c;
    }
  }
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + JsonEscape(labels[i].first) + "\":\"" + JsonEscape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

// `{stage="group_search"}` — empty string when there are no labels.
std::string PromLabels(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += labels[i].first + "=\"" + PromEscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

// Same, but with room for an extra trailing label (the histogram `le`).
std::string PromLabelsWith(const Labels& labels, const std::string& extra_key,
                           const std::string& extra_value) {
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    out += key + "=\"" + PromEscapeLabelValue(value) + "\",";
  }
  out += extra_key + "=\"" + PromEscapeLabelValue(extra_value) + "\"}";
  return out;
}

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

// Prometheus text-exposition label values escape exactly backslash, double
// quote and newline (https://prometheus.io/docs/instrumenting/exposition_formats/).
std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool IsValidPrometheusMetricName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  auto head_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head_ok(name[0])) {
    return false;
  }
  for (size_t i = 1; i < name.size(); ++i) {
    const char c = name[i];
    if (!head_ok(c) && !(c >= '0' && c <= '9')) {
      return false;
    }
  }
  return true;
}

bool IsValidPrometheusLabelName(const std::string& name) {
  if (name.empty() || (name.size() >= 2 && name[0] == '_' && name[1] == '_')) {
    return false;  // "__" prefix is reserved for internal labels
  }
  auto head_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head_ok(name[0])) {
    return false;
  }
  for (size_t i = 1; i < name.size(); ++i) {
    const char c = name[i];
    if (!head_ok(c) && !(c >= '0' && c <= '9')) {
      return false;
    }
  }
  return true;
}

int ThreadStripe() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned stripe =
      next.fetch_add(1, std::memory_order_relaxed) % static_cast<unsigned>(kStripes);
  return static_cast<int>(stripe);
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& stripe : stripes_) {
    stripe.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), stripes_(kStripes) {
  for (auto& stripe : stripes_) {
    stripe.buckets = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      stripe.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Observe(double value) {
  // lower_bound: first bound >= value, so a value equal to a bound lands in
  // that bound's bucket (Prometheus `le` buckets are inclusive upper bounds).
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  Stripe& stripe = stripes_[static_cast<size_t>(ThreadStripe())];
  stripe.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(stripe.sum, value);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const auto& stripe : stripes_) {
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      total += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const auto& stripe : stripes_) {
    total += stripe.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(bounds_.size() + 1, 0);
  for (const auto& stripe : stripes_) {
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      counts[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& stripe : stripes_) {
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      stripe.buckets[b].store(0, std::memory_order_relaxed);
    }
    stripe.sum.store(0.0, std::memory_order_relaxed);
  }
}

const std::vector<double>& DurationBuckets() {
  static const std::vector<double> buckets = {1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3,
                                              0.01, 0.05, 0.1,  0.5,  1.0,  5.0,
                                              10.0, 60.0};
  return buckets;
}

const std::vector<double>& CountBuckets() {
  static const std::vector<double> buckets = {0,    1,    2,    5,     10,    25,   50,
                                              100,  250,  500,  1000,  2500,  5000,
                                              10000, 50000, 100000};
  return buckets;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Histogram* StageHistogram(const std::string& stage) {
  return MetricsRegistry::Global().GetHistogram("csi_stage_duration_seconds",
                                                DurationBuckets(), {{"stage", stage}});
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  const Key key{name, SortedLabels(labels)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, std::unique_ptr<Counter>(new Counter())).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  const Key key{name, SortedLabels(labels)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds,
                                         const Labels& labels) {
  const Key key{name, SortedLabels(labels)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(key, std::unique_ptr<Histogram>(new Histogram(bounds))).first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, counter] : counters_) {
    snapshot.counters.push_back(CounterSnapshot{key.first, key.second, counter->Value()});
  }
  for (const auto& [key, gauge] : gauges_) {
    snapshot.gauges.push_back(GaugeSnapshot{key.first, key.second, gauge->Value()});
  }
  for (const auto& [key, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = key.first;
    h.labels = key.second;
    h.bounds = histogram->bounds();
    const std::vector<int64_t> per_bucket = histogram->BucketCounts();
    h.cumulative.resize(per_bucket.size());
    int64_t running = 0;
    for (size_t b = 0; b < per_bucket.size(); ++b) {
      running += per_bucket[b];
      h.cumulative[b] = running;
    }
    h.count = running;
    h.sum = histogram->Sum();
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [key, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [key, histogram] : histograms_) {
    histogram->Reset();
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": [";
  for (size_t i = 0; i < counters.size(); ++i) {
    const CounterSnapshot& c = counters[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"name\":\"" + JsonEscape(c.name) + "\",\"labels\":" + JsonLabels(c.labels) +
           ",\"value\":" + FormatNumber(static_cast<double>(c.value)) + "}";
  }
  out += counters.empty() ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  for (size_t i = 0; i < gauges.size(); ++i) {
    const GaugeSnapshot& g = gauges[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"name\":\"" + JsonEscape(g.name) + "\",\"labels\":" + JsonLabels(g.labels) +
           ",\"value\":" + FormatNumber(g.value) + "}";
  }
  out += gauges.empty() ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"name\":\"" + JsonEscape(h.name) + "\",\"labels\":" + JsonLabels(h.labels) +
           ",\"count\":" + FormatNumber(static_cast<double>(h.count)) +
           ",\"sum\":" + FormatNumber(h.sum) + ",\"buckets\":[";
    for (size_t b = 0; b < h.cumulative.size(); ++b) {
      if (b > 0) {
        out += ",";
      }
      const std::string le =
          b < h.bounds.size() ? FormatNumber(h.bounds[b]) : std::string("\"+Inf\"");
      out += "{\"le\":" + le +
             ",\"count\":" + FormatNumber(static_cast<double>(h.cumulative[b])) + "}";
    }
    out += "]}";
  }
  out += histograms.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const CounterSnapshot& c : counters) {
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + PromLabels(c.labels) + " " +
           FormatNumber(static_cast<double>(c.value)) + "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + PromLabels(g.labels) + " " + FormatNumber(g.value) + "\n";
  }
  std::string last_histogram_name;
  for (const HistogramSnapshot& h : histograms) {
    // One TYPE line per metric family (label variants share it).
    if (h.name != last_histogram_name) {
      out += "# TYPE " + h.name + " histogram\n";
      last_histogram_name = h.name;
    }
    for (size_t b = 0; b < h.cumulative.size(); ++b) {
      const std::string le = b < h.bounds.size() ? FormatNumber(h.bounds[b]) : "+Inf";
      out += h.name + "_bucket" + PromLabelsWith(h.labels, "le", le) + " " +
             FormatNumber(static_cast<double>(h.cumulative[b])) + "\n";
    }
    out += h.name + "_sum" + PromLabels(h.labels) + " " + FormatNumber(h.sum) + "\n";
    out += h.name + "_count" + PromLabels(h.labels) + " " +
           FormatNumber(static_cast<double>(h.count)) + "\n";
  }
  return out;
}

}  // namespace csi::telemetry
