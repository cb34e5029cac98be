// Determinism contract of the parallel batch-inference engine: results are
// positioned by input index and bit-identical for any worker count, and the
// parallel SQ candidate enumeration matches the serial path exactly.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/telemetry.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/live_database.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

namespace csi {
namespace {

using infer::DesignType;
using testbed::MakeAssetForDesign;
using testbed::RunStreamingSession;

std::vector<testbed::SessionResult> MakeSessions(const media::Manifest& manifest,
                                                 DesignType design, int count,
                                                 TimeUs duration) {
  std::vector<testbed::SessionResult> sessions;
  for (int i = 0; i < count; ++i) {
    testbed::SessionConfig config;
    config.design = design;
    config.manifest = &manifest;
    Rng rng(1000 + static_cast<uint64_t>(i));
    config.downlink = (i % 2 == 0)
                          ? nettrace::StableTrace("s", (4 + i % 4) * kMbps)
                          : nettrace::CellularTrace("c", 5 * kMbps, 0.4, duration,
                                                    2 * kUsPerSec, rng);
    config.duration = duration;
    config.seed = 100 + static_cast<uint64_t>(i);
    sessions.push_back(RunStreamingSession(config));
  }
  return sessions;
}

std::vector<capture::CaptureTrace> TracesOf(const std::vector<testbed::SessionResult>& s) {
  std::vector<capture::CaptureTrace> traces;
  for (const auto& session : s) {
    traces.push_back(session.capture);
  }
  return traces;
}

TEST(BatchAnalyzer, EightTracesIdenticalAcrossOneAndEightThreads) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 1, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kSH, 8, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  infer::BatchConfig serial;
  serial.threads = 1;
  infer::BatchConfig wide;
  wide.threads = 8;
  infer::BatchAnalyzer one(&manifest, config, serial);
  infer::BatchAnalyzer eight(&manifest, config, wide);

  const auto results_1 = one.AnalyzeAll(traces);
  const auto results_8 = eight.AnalyzeAll(traces);
  ASSERT_EQ(results_1.size(), 8u);
  ASSERT_EQ(results_8.size(), 8u);
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(results_1[i], results_8[i]) << "trace " << i;
  }
}

TEST(BatchAnalyzer, MatchesSingleTraceEngineByIndex) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 2, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kCH, 4, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  const infer::InferenceEngine reference(&manifest, config);
  infer::BatchConfig batch;
  batch.threads = 4;
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  const auto results = analyzer.AnalyzeAll(traces);
  ASSERT_EQ(results.size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(results[i], reference.Analyze(traces[i])) << "trace " << i;
  }
}

// Fault isolation: one trace whose analysis throws must not take the batch
// down or perturb any sibling result.
TEST(BatchAnalyzer, ThrowingTraceDoesNotPoisonSiblings) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 3, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kCH, 5, duration));
  const size_t poison = 2;

  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  const infer::InferenceEngine reference(&manifest, config);

  infer::BatchConfig batch;
  batch.threads = 4;
  batch.analyze_override = [&](const capture::CaptureTrace& trace) {
    if (&trace == &traces[poison]) {
      throw std::runtime_error("injected analyze failure");
    }
    return reference.Analyze(trace);
  };
  infer::BatchAnalyzer analyzer(&manifest, config, batch);

  auto* failures = telemetry::MetricsRegistry::Global().GetCounter(
      "csi_batch_trace_analyze_failures_total");
  const uint64_t failures_before = failures->Value();

  std::vector<double> seconds;
  std::vector<std::string> errors;
  const auto results = analyzer.AnalyzeAll(traces, &seconds, &errors);

  ASSERT_EQ(results.size(), traces.size());
  ASSERT_EQ(errors.size(), traces.size());
  ASSERT_EQ(seconds.size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i == poison) {
      EXPECT_EQ(results[i], infer::InferenceResult{}) << "failed slot must stay default";
      EXPECT_EQ(errors[i], "injected analyze failure");
    } else {
      EXPECT_EQ(results[i], reference.Analyze(traces[i])) << "trace " << i;
      EXPECT_TRUE(errors[i].empty()) << "trace " << i << ": " << errors[i];
    }
  }
  EXPECT_EQ(failures->Value(), failures_before + 1);
}

TEST(BatchAnalyzer, NonStdExceptionIsReportedAsUnknown) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 1, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kCH, 2, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.analyze_override = [&](const capture::CaptureTrace& trace) -> infer::InferenceResult {
    if (&trace == &traces[0]) {
      throw 42;  // not derived from std::exception
    }
    return {};
  };
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  std::vector<std::string> errors;
  const auto results = analyzer.AnalyzeAll(traces, nullptr, &errors);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], "unknown error");
  EXPECT_TRUE(errors[1].empty());
}

// The snapshot-based constructor is the new primary API: analyzing through a
// LiveChunkDatabase snapshot must be bit-identical to the manifest-based
// path, and UpdateSnapshot must keep the engine working across live
// publishes.
TEST(BatchAnalyzer, SnapshotConstructorMatchesManifestConstructor) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 1, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kSH, 3, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  infer::BatchConfig batch;
  batch.threads = 4;

  infer::BatchAnalyzer from_manifest(&manifest, config, batch);
  const auto expected = from_manifest.AnalyzeAll(traces);

  infer::LiveChunkDatabase live(manifest);
  infer::BatchAnalyzer from_snapshot(live.Acquire(), config, batch);
  EXPECT_EQ(from_snapshot.AnalyzeAll(traces), expected);

  // Re-acquiring the same published state is a no-op rebind.
  from_snapshot.UpdateSnapshot(live.Acquire());
  EXPECT_EQ(from_snapshot.AnalyzeAll(traces), expected);

  // A live refresh appending decoy chunks far outside every estimate window
  // must not perturb the inference of the already-captured traces.
  infer::ManifestRefresh refresh;
  refresh.video_appends.resize(static_cast<size_t>(manifest.num_video_tracks()));
  for (auto& track_appends : refresh.video_appends) {
    track_appends.push_back(media::Chunk{500'000'000, 2'000'000});
  }
  live.ApplyRefresh(refresh);
  from_snapshot.UpdateSnapshot(live.Acquire());
  EXPECT_EQ(from_snapshot.AnalyzeAll(traces), expected);
}

TEST(BatchAnalyzer, EmptyBatchYieldsEmptyResults) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 0, 60 * kUsPerSec);
  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  infer::BatchAnalyzer analyzer(&manifest, config);
  EXPECT_TRUE(analyzer.AnalyzeAll(std::vector<capture::CaptureTrace>{}).empty());
}

// The SQ candidate enumeration partitions its start range across workers;
// the merged candidate lists must be bit-identical to the serial path.
TEST(GroupSearchParallel, CandidateListsIdenticalSerialVsParallelOnSqSession) {
  const TimeUs duration = 2 * 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 3, duration);
  testbed::SessionConfig session_config;
  session_config.design = DesignType::kSQ;
  session_config.manifest = &manifest;
  session_config.downlink = nettrace::StableTrace("s", 6 * kMbps);
  session_config.duration = duration;
  session_config.seed = 7;
  const auto session = RunStreamingSession(session_config);

  // Media-flow packets only (same filter the engine applies).
  const capture::PacketColumns columns = capture::PacketColumns::Build(session.capture);
  const std::vector<uint32_t> media = infer::ClassifyMediaFlowIds(columns, manifest.host);
  ASSERT_EQ(media.size(), 1u);
  const auto groups = infer::SplitIntoGroups(columns.flow(media[0]));
  ASSERT_FALSE(groups.empty());

  const infer::ChunkDatabase db(&manifest);
  ThreadPool pool(8);
  infer::GroupSearchConfig serial_config;
  infer::GroupSearchConfig parallel_config;
  parallel_config.pool = &pool;

  const int positions = db.num_positions();
  for (size_t g = 0; g < groups.size(); ++g) {
    bool serial_truncated = false;
    bool parallel_truncated = false;
    const auto serial = infer::EnumerateGroupCandidates(groups[g], db, serial_config, {}, 0,
                                                        positions - 1, &serial_truncated);
    const auto parallel = infer::EnumerateGroupCandidates(
        groups[g], db, parallel_config, {}, 0, positions - 1, &parallel_truncated);
    EXPECT_EQ(serial, parallel) << "group " << g;
    EXPECT_EQ(serial_truncated, parallel_truncated) << "group " << g;
  }
}

TEST(GroupSearchParallel, FullSqInferenceIdenticalSerialVsParallel) {
  const TimeUs duration = 2 * 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 4, duration);
  testbed::SessionConfig session_config;
  session_config.design = DesignType::kSQ;
  session_config.manifest = &manifest;
  Rng rng(17);
  session_config.downlink =
      nettrace::CellularTrace("c", 5 * kMbps, 0.4, duration, 2 * kUsPerSec, rng);
  session_config.duration = duration;
  session_config.seed = 23;
  const auto session = RunStreamingSession(session_config);

  infer::InferenceConfig serial_config;
  serial_config.design = DesignType::kSQ;
  const infer::InferenceEngine serial_engine(&manifest, serial_config);

  ThreadPool pool(8);
  infer::InferenceConfig parallel_config;
  parallel_config.design = DesignType::kSQ;
  parallel_config.search_pool = &pool;
  const infer::InferenceEngine parallel_engine(&manifest, parallel_config);

  const auto serial = serial_engine.Analyze(session.capture);
  const auto parallel = parallel_engine.Analyze(session.capture);
  EXPECT_FALSE(serial.sequences.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace csi
