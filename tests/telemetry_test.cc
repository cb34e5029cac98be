// Telemetry subsystem contract:
//   * the registry is safe to hammer from ThreadPool workers (run under TSan
//     in CI) and loses no increments;
//   * histogram bucket boundaries are inclusive upper bounds with a +Inf
//     tail;
//   * JSON / Prometheus exports are byte-stable (golden outputs);
//   * instrumentation never changes inference output (golden digest);
//   * one CSI_SPAN site feeds both planes: the stage histogram always, and a
//     'B'/'E' pair of the same name while a trace session is active.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/telemetry.h"
#include "src/common/thread_pool.h"
#include "src/common/tracing.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"

namespace csi {
namespace {

using infer::DesignType;
using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;

TEST(MetricsRegistry, SameNameAndLabelsYieldSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", {{"design", "SQ"}});
  Counter* b = registry.GetCounter("requests_total", {{"design", "SQ"}});
  Counter* c = registry.GetCounter("requests_total", {{"design", "CH"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Label order must not matter for identity.
  Gauge* g1 = registry.GetGauge("depth", {{"a", "1"}, {"b", "2"}});
  Gauge* g2 = registry.GetGauge("depth", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(g1, g2);
}

TEST(MetricsRegistry, CountersSurviveConcurrentHammering) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hammered_total");
  Histogram* hist = registry.GetHistogram("hammered_values", {10.0, 100.0});
  constexpr int kTasks = 64;
  constexpr int kPerTask = 10000;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](int64_t task) {
    for (int i = 0; i < kPerTask; ++i) {
      counter->Increment();
      hist->Observe(static_cast<double>((task + i) % 150));
    }
  });
  EXPECT_EQ(counter->Value(), static_cast<int64_t>(kTasks) * kPerTask);
  EXPECT_EQ(hist->Count(), static_cast<int64_t>(kTasks) * kPerTask);
}

TEST(MetricsRegistry, GlobalMacrosRecordFromPoolWorkers) {
  MetricsRegistry::Global().Reset();
  ThreadPool pool(4);
  pool.ParallelFor(32, [&](int64_t) {
    CSI_COUNTER_INC("telemetry_test_macro_total");
    CSI_HISTOGRAM_OBSERVE("telemetry_test_macro_hist", telemetry::CountBuckets(), 3);
  });
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("telemetry_test_macro_total")->Value(), 32);
}

// Count of csi_stage_duration_seconds{stage=<stage>} in `snapshot`, 0 when
// the stage never ran.
int64_t StageCount(const MetricsSnapshot& snapshot, const std::string& stage) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == "csi_stage_duration_seconds" && !h.labels.empty() &&
        h.labels[0].second == stage) {
      return h.count;
    }
  }
  return 0;
}

void RunTwoStages() {
  CSI_SPAN("telemetry_test_outer", {"n", 2});
  CSI_SPAN("telemetry_test_inner");
}

TEST(StageSpan, FeedsHistogramAlwaysAndTraceOnlyWhileSessionActive) {
  MetricsRegistry::Global().Reset();
  trace::TraceSession& session = trace::TraceSession::Global();
  session.Stop();
  RunTwoStages();
  session.Start({});
  RunTwoStages();
  session.Stop();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(StageCount(snapshot, "telemetry_test_outer"), 2);
  EXPECT_EQ(StageCount(snapshot, "telemetry_test_inner"), 2);

  // Only the traced run reached the ring: properly nested B/E pairs under
  // the histogram's stage names, category "stage", args on the outer 'B'.
  std::string phases;
  for (const trace::TraceEvent& e : session.Collect()) {
    ASSERT_STREQ(e.category, "stage");
    phases += e.phase;
    phases += std::string(e.name) == "telemetry_test_outer" ? "o" : "i";
    if (e.phase == 'B' && std::string(e.name) == "telemetry_test_outer") {
      ASSERT_EQ(e.num_args, 1);
      EXPECT_STREQ(e.args[0].key, "n");
      EXPECT_EQ(e.args[0].int_value, 2);
    }
  }
  EXPECT_EQ(phases, "BoBiEiEo");
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("bounds", {1.0, 2.5, 10.0});
  // One observation per region, including both exact boundaries and the
  // +Inf tail.
  hist->Observe(0.5);   // <= 1.0
  hist->Observe(1.0);   // <= 1.0 (boundary is inclusive)
  hist->Observe(2.5);   // <= 2.5
  hist->Observe(3.0);   // <= 10.0
  hist->Observe(10.1);  // +Inf
  const std::vector<int64_t> counts = hist->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(hist->Count(), 5);
  EXPECT_DOUBLE_EQ(hist->Sum(), 0.5 + 1.0 + 2.5 + 3.0 + 10.1);
}

// Builds a small deterministic registry for the exporter goldens.
MetricsSnapshot GoldenSnapshot() {
  static MetricsRegistry registry;
  static bool filled = false;
  if (!filled) {
    filled = true;
    registry.GetCounter("csi_cache_hits_total")->Add(42);
    registry.GetCounter("csi_queries_total", {{"design", "SQ"}})->Add(7);
    registry.GetGauge("csi_queue_depth")->Set(3);
    Histogram* hist = registry.GetHistogram("csi_stage_seconds", {0.001, 0.01},
                                            {{"stage", "split"}});
    hist->Observe(0.0005);
    hist->Observe(0.002);
    hist->Observe(5.0);
  }
  return registry.Snapshot();
}

TEST(Exporters, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": [\n"
      "    {\"name\":\"csi_cache_hits_total\",\"labels\":{},\"value\":42},\n"
      "    {\"name\":\"csi_queries_total\",\"labels\":{\"design\":\"SQ\"},\"value\":7}\n"
      "  ],\n"
      "  \"gauges\": [\n"
      "    {\"name\":\"csi_queue_depth\",\"labels\":{},\"value\":3}\n"
      "  ],\n"
      "  \"histograms\": [\n"
      "    {\"name\":\"csi_stage_seconds\",\"labels\":{\"stage\":\"split\"},"
      "\"count\":3,\"sum\":5.0025,\"buckets\":["
      "{\"le\":0.001,\"count\":1},"
      "{\"le\":0.01,\"count\":2},"
      "{\"le\":\"+Inf\",\"count\":3}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(GoldenSnapshot().ToJson(), expected);
}

TEST(Exporters, PrometheusGolden) {
  const std::string expected =
      "# TYPE csi_cache_hits_total counter\n"
      "csi_cache_hits_total 42\n"
      "# TYPE csi_queries_total counter\n"
      "csi_queries_total{design=\"SQ\"} 7\n"
      "# TYPE csi_queue_depth gauge\n"
      "csi_queue_depth 3\n"
      "# TYPE csi_stage_seconds histogram\n"
      "csi_stage_seconds_bucket{stage=\"split\",le=\"0.001\"} 1\n"
      "csi_stage_seconds_bucket{stage=\"split\",le=\"0.01\"} 2\n"
      "csi_stage_seconds_bucket{stage=\"split\",le=\"+Inf\"} 3\n"
      "csi_stage_seconds_sum{stage=\"split\"} 5.0025\n"
      "csi_stage_seconds_count{stage=\"split\"} 3\n";
  EXPECT_EQ(GoldenSnapshot().ToPrometheus(), expected);
}

// --- Inference-output invariance -----------------------------------------
// The fixed batch, digest, and golden value live in tests/inference_digest.h,
// shared with tracing_test (same invariance contract, different subsystem).

using testutil::AnalyzeFixedSqBatch;
using testutil::DigestResults;
using testutil::MakeBatch;
using testutil::kSqBatchDigest;

TEST(TelemetryInvariance, GoldenDigestHolds) {
  EXPECT_EQ(DigestResults(AnalyzeFixedSqBatch()), kSqBatchDigest);
}

TEST(TelemetryInvariance, AnalyzePopulatesStageHistograms) {
  MetricsRegistry::Global().Reset();
  AnalyzeFixedSqBatch();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(StageCount(snapshot, "analyze"), 4);
  EXPECT_EQ(StageCount(snapshot, "traffic_split"), 4);
  // The batch envelopes are stages too, in both planes.
  EXPECT_EQ(StageCount(snapshot, "batch_analyze_all"), 1);
  EXPECT_EQ(StageCount(snapshot, "batch_trace"), 4);
  int64_t queries = 0;
  int64_t batch_traces = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "csi_candidate_queries_total") {
      queries = c.value;
    }
    if (c.name == "csi_batch_traces_total") {
      batch_traces = c.value;
    }
  }
  EXPECT_GT(queries, 0);
  EXPECT_EQ(batch_traces, 4);
}

TEST(BatchAnalyzer, ProgressCallbackAndTimingSlots) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest = testbed::MakeAssetForDesign(DesignType::kCH, 2, duration);
  const auto traces = MakeBatch(manifest, DesignType::kCH, 5, duration);
  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.progress_every = 2;
  std::vector<std::pair<size_t, size_t>> ticks;
  std::mutex mu;
  batch.progress = [&](size_t done, size_t total) {
    std::lock_guard<std::mutex> lock(mu);
    ticks.emplace_back(done, total);
  };
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  std::vector<double> seconds;
  const auto results = analyzer.AnalyzeAll(traces, &seconds);
  ASSERT_EQ(results.size(), 5u);
  ASSERT_EQ(seconds.size(), 5u);
  for (double s : seconds) {
    EXPECT_GT(s, 0.0);
  }
  // Every tick reports total == 5, and the final tick fires at done == 5
  // regardless of divisibility by progress_every.
  ASSERT_FALSE(ticks.empty());
  bool saw_final = false;
  for (const auto& [done, total] : ticks) {
    EXPECT_EQ(total, 5u);
    saw_final |= done == 5u;
  }
  EXPECT_TRUE(saw_final);
}

}  // namespace
}  // namespace csi
