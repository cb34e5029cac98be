#include <gtest/gtest.h>

#include <string>

#include "src/common/build_info.h"
#include "src/common/telemetry.h"
#include "src/testbed/experiment.h"
#include "src/testbed/metrics.h"

namespace csi::testbed {
namespace {

using infer::InferenceResult;
using infer::InferredSequence;
using infer::InferredSlot;
using infer::SlotKind;
using media::ChunkRef;
using media::MediaType;

std::vector<player::DownloadRecord> GroundTruth() {
  std::vector<player::DownloadRecord> gt;
  for (int i = 0; i < 4; ++i) {
    player::DownloadRecord v;
    v.chunk = ChunkRef{MediaType::kVideo, i % 2, i};
    gt.push_back(v);
    player::DownloadRecord a;
    a.chunk = ChunkRef{MediaType::kAudio, 0, i};
    gt.push_back(a);
  }
  return gt;
}

InferredSlot Video(int track, int index) {
  InferredSlot s;
  s.kind = SlotKind::kVideo;
  s.chunk = ChunkRef{MediaType::kVideo, track, index};
  return s;
}

InferredSlot Audio(int index) {
  InferredSlot s;
  s.kind = SlotKind::kAudio;
  s.chunk = ChunkRef{MediaType::kAudio, 0, index};
  return s;
}

InferredSequence PerfectSequence() {
  InferredSequence seq;
  for (int i = 0; i < 4; ++i) {
    seq.slots.push_back(Video(i % 2, i));
    seq.slots.push_back(Audio(i));
  }
  return seq;
}

TEST(SequenceAccuracy, PerfectIsOne) {
  EXPECT_DOUBLE_EQ(SequenceAccuracy(PerfectSequence(), GroundTruth()), 1.0);
}

TEST(SequenceAccuracy, WrongTrackLosesCredit) {
  InferredSequence seq = PerfectSequence();
  seq.slots[0].chunk.track = 1;  // truth is track 0
  EXPECT_DOUBLE_EQ(SequenceAccuracy(seq, GroundTruth()), 7.0 / 8.0);
}

TEST(SequenceAccuracy, MissingSlotsLoseCredit) {
  InferredSequence seq;
  seq.slots.push_back(Video(0, 0));
  seq.slots.push_back(Audio(0));
  EXPECT_DOUBLE_EQ(SequenceAccuracy(seq, GroundTruth()), 2.0 / 8.0);
}

TEST(SequenceAccuracy, WrongAudioIndexLosesCredit) {
  InferredSequence seq = PerfectSequence();
  seq.slots[1].chunk.index = 99;
  EXPECT_DOUBLE_EQ(SequenceAccuracy(seq, GroundTruth()), 7.0 / 8.0);
}

TEST(SequenceAccuracy, OtherSlotsNeitherHelpNorHarm) {
  InferredSequence seq = PerfectSequence();
  InferredSlot other;
  other.kind = SlotKind::kOther;
  seq.slots.push_back(other);
  EXPECT_DOUBLE_EQ(SequenceAccuracy(seq, GroundTruth()), 1.0);
}

TEST(SequenceAccuracy, EmptyGroundTruthScoresZero) {
  EXPECT_DOUBLE_EQ(SequenceAccuracy(PerfectSequence(), {}), 0.0);
}

TEST(ScoreInference, BestAndWorstAcrossSequences) {
  InferenceResult result;
  result.sequences.push_back(PerfectSequence());
  InferredSequence bad;
  bad.slots.push_back(Video(1, 0));  // wrong track
  result.sequences.push_back(bad);
  const AccuracyResult acc = ScoreInference(result, GroundTruth());
  EXPECT_EQ(acc.num_sequences, 2);
  EXPECT_DOUBLE_EQ(acc.best, 1.0);
  EXPECT_DOUBLE_EQ(acc.worst, 0.0);
  EXPECT_TRUE(acc.found_ground_truth);
  EXPECT_FALSE(acc.unique_output);
}

TEST(ScoreInference, UniqueOutputFlag) {
  InferenceResult result;
  result.sequences.push_back(PerfectSequence());
  const AccuracyResult acc = ScoreInference(result, GroundTruth());
  EXPECT_TRUE(acc.unique_output);
  EXPECT_TRUE(acc.found_ground_truth);
}

TEST(ScoreInference, NoSequencesScoresZero) {
  const AccuracyResult acc = ScoreInference(InferenceResult{}, GroundTruth());
  EXPECT_EQ(acc.num_sequences, 0);
  EXPECT_DOUBLE_EQ(acc.best, 0.0);
  EXPECT_FALSE(acc.found_ground_truth);
}

TEST(Aggregate, ComputesTable4Columns) {
  std::vector<AccuracyResult> runs;
  for (double best : {1.0, 1.0, 0.97, 0.5}) {
    AccuracyResult r;
    r.best = best;
    r.worst = best - 0.1;
    runs.push_back(r);
  }
  const AccuracyAggregate agg = Aggregate(runs, /*best=*/true);
  EXPECT_DOUBLE_EQ(agg.pct_100_match, 50.0);
  EXPECT_DOUBLE_EQ(agg.pct_above_95, 75.0);
  EXPECT_GT(agg.pct5_accuracy, 50.0);
  EXPECT_LT(agg.pct5_accuracy, 97.0);
}

// --- Prometheus exporter edge cases ---------------------------------------
// The text-exposition format escapes exactly backslash, double quote and
// newline inside label values; metric names are [a-zA-Z_:][a-zA-Z0-9_:]* and
// label names [a-zA-Z_][a-zA-Z0-9_]* with the "__" prefix reserved.

TEST(PrometheusExporter, EscapesLabelValueSpecialCharacters) {
  EXPECT_EQ(telemetry::PromEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(telemetry::PromEscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(telemetry::PromEscapeLabelValue("\\\\"), "\\\\\\\\");
  EXPECT_EQ(telemetry::PromEscapeLabelValue("\n\n"), "\\n\\n");
  // Tabs and other characters pass through untouched.
  EXPECT_EQ(telemetry::PromEscapeLabelValue("a\tb"), "a\tb");
}

TEST(PrometheusExporter, GoldenWithSpecialCharacterLabels) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("csi_paths_total", {{"path", "C:\\traces\n\"live\""}})->Add(3);
  registry.GetGauge("csi_mode", {{"note", "line1\nline2"}})->Set(1);
  telemetry::Histogram* hist =
      registry.GetHistogram("csi_h_seconds", {0.5}, {{"stage", "a\"b"}});
  hist->Observe(0.1);
  const std::string expected =
      "# TYPE csi_paths_total counter\n"
      "csi_paths_total{path=\"C:\\\\traces\\n\\\"live\\\"\"} 3\n"
      "# TYPE csi_mode gauge\n"
      "csi_mode{note=\"line1\\nline2\"} 1\n"
      "# TYPE csi_h_seconds histogram\n"
      "csi_h_seconds_bucket{stage=\"a\\\"b\",le=\"0.5\"} 1\n"
      "csi_h_seconds_bucket{stage=\"a\\\"b\",le=\"+Inf\"} 1\n"
      "csi_h_seconds_sum{stage=\"a\\\"b\"} 0.1\n"
      "csi_h_seconds_count{stage=\"a\\\"b\"} 1\n";
  EXPECT_EQ(registry.Snapshot().ToPrometheus(), expected);
}

TEST(PrometheusExporter, MetricNameValidity) {
  EXPECT_TRUE(telemetry::IsValidPrometheusMetricName("csi_batch_traces_total"));
  EXPECT_TRUE(telemetry::IsValidPrometheusMetricName("ns:sub_metric9"));
  EXPECT_TRUE(telemetry::IsValidPrometheusMetricName("_leading_underscore"));
  EXPECT_FALSE(telemetry::IsValidPrometheusMetricName(""));
  EXPECT_FALSE(telemetry::IsValidPrometheusMetricName("9starts_with_digit"));
  EXPECT_FALSE(telemetry::IsValidPrometheusMetricName("has-dash"));
  EXPECT_FALSE(telemetry::IsValidPrometheusMetricName("has space"));
}

TEST(PrometheusExporter, LabelNameValidity) {
  EXPECT_TRUE(telemetry::IsValidPrometheusLabelName("design"));
  EXPECT_TRUE(telemetry::IsValidPrometheusLabelName("_hidden"));
  EXPECT_TRUE(telemetry::IsValidPrometheusLabelName("a__b"));
  EXPECT_FALSE(telemetry::IsValidPrometheusLabelName("__reserved"));
  EXPECT_FALSE(telemetry::IsValidPrometheusLabelName("9digit"));
  EXPECT_FALSE(telemetry::IsValidPrometheusLabelName("with:colon"));
  EXPECT_FALSE(telemetry::IsValidPrometheusLabelName(""));
}

TEST(PrometheusExporter, BuildInfoIsWellFormed) {
  EXPECT_TRUE(telemetry::IsValidPrometheusMetricName("csi_build_info"));
  const telemetry::Labels labels = BuildInfoLabels();
  EXPECT_FALSE(labels.empty());
  for (const auto& [key, value] : labels) {
    EXPECT_TRUE(telemetry::IsValidPrometheusLabelName(key)) << key;
    EXPECT_EQ(telemetry::PromEscapeLabelValue(value), value) << value;
  }
}

}  // namespace
}  // namespace csi::testbed
