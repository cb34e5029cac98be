// Pipeline telemetry: a process-wide metrics registry (counters, gauges,
// fixed-bucket histograms) plus the scoped stage span that is the one
// instrumentation point of every pipeline stage, exported as JSON or
// Prometheus text exposition.
//
// Hot-path contract, in order of importance:
//   1. Telemetry must never change what the pipeline computes. All
//      instrumentation is write-only from the instrumented code's point of
//      view; inference output is byte-identical with and without an active
//      trace session (covered by the golden digests in telemetry_test and
//      tracing_test).
//   2. Increments are uncontended: every metric is sharded into
//      cache-line-aligned stripes and each thread writes its own stripe
//      (relaxed atomics), so concurrent batch workers never bounce a line
//      and TSan sees only atomic accesses. Stripes are summed on Snapshot().
//   3. One plane, no switches: metrics always record, and a stage span
//      (CSI_SPAN) feeds both its histogram and, while a TraceSession is
//      active, the trace ring under the same name. With no session the trace
//      half costs one relaxed load and a branch.
//
// Instrumentation sites use the CSI_* macros below. Each site resolves its
// metric pointer once (function-local static), so the registry mutex is
// touched once per site per process, never per operation.

#ifndef CSI_SRC_COMMON_TELEMETRY_H_
#define CSI_SRC_COMMON_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/tracing.h"

namespace csi::telemetry {

// Label set attached to a metric, e.g. {{"stage", "group_search"}}. Kept
// sorted by key inside the registry so identity and export order are
// canonical.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Number of per-metric shards. Each thread is assigned one stripe
// round-robin; threads only contend when more than kStripes of them share a
// stripe, and even then the operations stay correct (atomic adds).
inline constexpr int kStripes = 16;

// Stripe index of the calling thread.
int ThreadStripe();

namespace internal {

struct alignas(64) PaddedCount {
  std::atomic<int64_t> value{0};
};

// Relaxed atomic add for doubles (pre-C++20-fetch_add portability).
inline void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

// Monotonically increasing event count.
class Counter {
 public:
  void Add(int64_t n) {
    stripes_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  // Sum over stripes; safe to call concurrently with Add.
  int64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void Reset();
  internal::PaddedCount stripes_[kStripes];
};

// Last-write-wins instantaneous value (queue depth, batch progress).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. `bounds` are inclusive upper bounds; an implicit
// +Inf bucket catches the tail. Observations update one stripe's bucket
// count and running sum.
class Histogram {
 public:
  void Observe(double value);
  const std::vector<double>& bounds() const { return bounds_; }
  // Stripe-summed totals; safe to call concurrently with Observe.
  int64_t Count() const;
  double Sum() const;
  // Per-bucket (non-cumulative) counts, bounds().size() + 1 entries.
  std::vector<int64_t> BucketCounts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();

  struct alignas(64) Stripe {
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<Stripe> stripes_;
};

// Canonical duration buckets (seconds) for stage spans and task latencies.
const std::vector<double>& DurationBuckets();
// Canonical magnitude buckets for "how many items" histograms
// (candidates per query, nodes per search).
const std::vector<double>& CountBuckets();

struct CounterSnapshot {
  std::string name;
  Labels labels;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::vector<double> bounds;
  // Cumulative counts, Prometheus-style: cumulative[i] is the number of
  // observations <= bounds[i]; the final entry is the +Inf bucket == count.
  std::vector<int64_t> cumulative;
  int64_t count = 0;
  double sum = 0.0;
};

// Point-in-time copy of every registered metric, ordered by (name, labels).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::string ToJson() const;
  std::string ToPrometheus() const;
};

// Prometheus text-exposition helpers (used by ToPrometheus, exposed for
// exporter edge-case tests). Label values escape backslash, double quote and
// newline; names must match the exposition-format grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]* for metrics, no leading "__" for labels).
std::string PromEscapeLabelValue(const std::string& value);
bool IsValidPrometheusMetricName(const std::string& name);
bool IsValidPrometheusLabelName(const std::string& name);

// Thread-safe named-metric registry. Get* registers on first use and returns
// the same pointer afterwards; pointers stay valid for the registry's
// lifetime (for Global(): the process lifetime), which is what lets call
// sites cache them in function-local statics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every CSI_* macro records into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  // If the metric already exists, `bounds` must match the registered ones
  // (the existing histogram wins; bounds are fixed at first registration).
  Histogram* GetHistogram(const std::string& name, const std::vector<double>& bounds,
                          const Labels& labels = {});

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric in place. Pointers handed out by Get*
  // stay valid (used by tests; call sites cache pointers in statics).
  void Reset();

 private:
  using Key = std::pair<std::string, Labels>;

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

// The csi_stage_duration_seconds{stage="<stage>"} histogram of the global
// registry (registered on first use).
Histogram* StageHistogram(const std::string& stage);

// Scoped timer recording its lifetime into a histogram, in seconds.
class SpanTimer {
 public:
  explicit SpanTimer(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~SpanTimer() {
    hist_->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// One pipeline stage: times its scope into the stage's histogram and, while
// a TraceSession is active, brackets it with a 'B'/'E' pair of the same name
// in trace category "stage". The session state is captured at construction
// so a session starting mid-span never emits an unmatched 'E'. `stage` and
// string-valued args must be string literals (see trace::TraceArg).
class StageSpan {
 public:
  StageSpan(Histogram* hist, const char* stage, std::initializer_list<trace::TraceArg> args)
      : timer_(hist), stage_(stage), traced_(trace::Enabled()) {
    if (traced_) {
      trace::EmitBegin(stage_, "stage", args);
    }
  }
  ~StageSpan() {
    if (traced_) {
      trace::EmitEnd(stage_, "stage");
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  SpanTimer timer_;  // destroyed after the 'E' is emitted
  const char* stage_;
  bool traced_;
};

}  // namespace csi::telemetry

#define CSI_TELEMETRY_CAT2(a, b) a##b
#define CSI_TELEMETRY_CAT(a, b) CSI_TELEMETRY_CAT2(a, b)

// Stage span over the enclosing scope, optionally with up to
// trace::kMaxTraceArgs args on its 'B' event, e.g.
//   CSI_SPAN("db_build", {"tracks", tracks}, {"positions", positions});
#define CSI_SPAN(stage, ...)                                                        \
  static ::csi::telemetry::Histogram* const CSI_TELEMETRY_CAT(csi_span_hist_,       \
                                                              __LINE__) =           \
      ::csi::telemetry::StageHistogram(stage);                                      \
  ::csi::telemetry::StageSpan CSI_TELEMETRY_CAT(csi_span_, __LINE__)(               \
      CSI_TELEMETRY_CAT(csi_span_hist_, __LINE__), (stage), {__VA_ARGS__})

// Times the enclosing scope into an unlabelled histogram named `metric`
// (metrics only; not a pipeline stage).
#define CSI_SCOPED_HIST_TIMER(metric)                                               \
  static ::csi::telemetry::Histogram* const CSI_TELEMETRY_CAT(csi_timer_hist_,      \
                                                              __LINE__) =           \
      ::csi::telemetry::MetricsRegistry::Global().GetHistogram(                     \
          (metric), ::csi::telemetry::DurationBuckets());                           \
  ::csi::telemetry::SpanTimer CSI_TELEMETRY_CAT(csi_timer_, __LINE__)(              \
      CSI_TELEMETRY_CAT(csi_timer_hist_, __LINE__))

#define CSI_COUNTER_ADD(metric, n)                                                  \
  do {                                                                              \
    static ::csi::telemetry::Counter* const csi_counter_site =                      \
        ::csi::telemetry::MetricsRegistry::Global().GetCounter((metric));           \
    csi_counter_site->Add(static_cast<int64_t>(n));                                 \
  } while (false)

#define CSI_COUNTER_INC(metric) CSI_COUNTER_ADD(metric, 1)

#define CSI_GAUGE_SET(metric, v)                                                    \
  do {                                                                              \
    static ::csi::telemetry::Gauge* const csi_gauge_site =                          \
        ::csi::telemetry::MetricsRegistry::Global().GetGauge((metric));             \
    csi_gauge_site->Set(static_cast<double>(v));                                    \
  } while (false)

#define CSI_HISTOGRAM_OBSERVE(metric, bucket_bounds, v)                             \
  do {                                                                              \
    static ::csi::telemetry::Histogram* const csi_hist_site =                       \
        ::csi::telemetry::MetricsRegistry::Global().GetHistogram((metric),          \
                                                                 (bucket_bounds));  \
    csi_hist_site->Observe(static_cast<double>(v));                                 \
  } while (false)

#endif  // CSI_SRC_COMMON_TELEMETRY_H_
