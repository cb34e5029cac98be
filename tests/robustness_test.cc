// Failure-injection and robustness tests: bursty loss, noisy OCR, ablation
// switches, and degraded inputs.

#include <vector>

#include <gtest/gtest.h>

#include "src/csi/displayed_info.h"
#include "src/csi/inference.h"
#include "src/testbed/experiment.h"

namespace csi {
namespace {

using infer::DesignType;
using testbed::MakeAssetForDesign;
using testbed::RunStreamingSession;
using testbed::SessionConfig;

testbed::SessionResult RunSession(const media::Manifest* manifest, DesignType design,
                                  uint64_t seed, TimeUs duration = 6 * 60 * kUsPerSec) {
  SessionConfig s;
  s.design = design;
  s.manifest = manifest;
  s.downlink = nettrace::StableTrace("s", 6 * kMbps);
  s.duration = duration;
  s.seed = seed;
  return RunStreamingSession(s);
}

TEST(Robustness, BurstyLossStillInfersAccurately) {
  // Gilbert-Elliott style bursts are harsher than Bernoulli on recovery; the
  // estimator and matcher must still hold Property (1).
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 2, 6 * 60 * kUsPerSec);
  SessionConfig s;
  s.design = DesignType::kSH;
  s.manifest = &manifest;
  s.downlink = nettrace::SquareWaveTrace("burst", 8 * kMbps, 2 * kMbps, 20 * kUsPerSec,
                                         10 * kUsPerSec);
  s.downlink_loss = 0.008;
  s.duration = 6 * 60 * kUsPerSec;
  s.seed = 5;
  const auto result = RunStreamingSession(s);
  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  const infer::InferenceEngine engine(&manifest, config);
  const auto accuracy =
      testbed::ScoreInference(engine.Analyze(result.capture), result.downloads);
  EXPECT_GT(accuracy.best, 0.95);
}

TEST(Robustness, NoisyOcrStillHelps) {
  // Even when the OCR misses half the samples, the remaining constraints must
  // not hurt the best output.
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 1, 6 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kSQ, 9);
  infer::InferenceConfig config;
  config.design = DesignType::kSQ;
  const infer::InferenceEngine engine(&manifest, config);
  const auto plain = testbed::ScoreInference(engine.Analyze(result.capture), result.downloads);
  infer::OcrConfig ocr;
  ocr.miss_rate = 0.5;
  Rng rng(1);
  const auto display = infer::SampleDisplayedChunks(result.displays,
                                                    6 * 60 * kUsPerSec, ocr, rng);
  EXPECT_GT(display.size(), 10u);
  const auto noisy =
      testbed::ScoreInference(engine.Analyze(result.capture, display), result.downloads);
  EXPECT_GE(noisy.best + 1e-9, plain.best);
}

TEST(Robustness, OcrMissRateReducesConstraintCount) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 0, 5 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kSH, 11, 5 * 60 * kUsPerSec);
  Rng rng(2);
  infer::OcrConfig clean;
  infer::OcrConfig lossy;
  lossy.miss_rate = 0.7;
  const auto full =
      infer::SampleDisplayedChunks(result.displays, 5 * 60 * kUsPerSec, clean, rng);
  const auto sparse =
      infer::SampleDisplayedChunks(result.displays, 5 * 60 * kUsPerSec, lossy, rng);
  EXPECT_LT(sparse.size(), full.size());
  // Every constraint reflects the truth.
  for (const auto& [index, track] : sparse) {
    bool found = false;
    for (const auto& d : result.downloads) {
      if (d.chunk.type == media::MediaType::kVideo && d.chunk.index == index) {
        EXPECT_EQ(d.chunk.track, track);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Robustness, AblationSwitchesDoNotBreakNonMux) {
  // Disabling the robustness machinery must degrade gracefully, never crash.
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 0, 4 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kCH, 13, 4 * 60 * kUsPerSec);
  for (const bool wildcards : {true, false}) {
    for (const bool merge : {true, false}) {
      infer::InferenceConfig config;
      config.design = DesignType::kCH;
      config.enable_wildcards = wildcards;
      config.enable_merge_repair = merge;
      config.enable_phantom_deficit = false;
      const infer::InferenceEngine engine(&manifest, config);
      const auto accuracy =
          testbed::ScoreInference(engine.Analyze(result.capture), result.downloads);
      EXPECT_GT(accuracy.best, 0.9) << wildcards << merge;
    }
  }
}

TEST(Robustness, UncalibratedRankingStillFindsSomething) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 0, 4 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kSQ, 17, 4 * 60 * kUsPerSec);
  infer::InferenceConfig config;
  config.design = DesignType::kSQ;
  config.enable_calibrated_ranking = false;
  const infer::InferenceEngine engine(&manifest, config);
  const auto inference = engine.Analyze(result.capture);
  EXPECT_FALSE(inference.sequences.empty());
}

TEST(Robustness, Sp2DisabledDegradesSqButRuns) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 0, 4 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kSQ, 19, 4 * 60 * kUsPerSec);
  infer::InferenceConfig with_sp2;
  with_sp2.design = DesignType::kSQ;
  infer::InferenceConfig without_sp2 = with_sp2;
  without_sp2.splitter.enable_sp2 = false;
  const infer::InferenceEngine engine_on(&manifest, with_sp2);
  const infer::InferenceEngine engine_off(&manifest, without_sp2);
  const auto on = testbed::ScoreInference(engine_on.Analyze(result.capture), result.downloads);
  const auto off =
      testbed::ScoreInference(engine_off.Analyze(result.capture), result.downloads);
  EXPECT_GE(on.best + 1e-9, off.best);
}

TEST(Robustness, TruncatedCaptureGivesPartialButConsistentResult) {
  // Chop the capture mid-session: whatever is inferred must still satisfy
  // index contiguity and score well against the truncated ground truth.
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 1, 6 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kCH, 23);
  std::vector<capture::PacketRecord> records(result.capture.begin(), result.capture.end());
  records.resize(records.size() / 2);
  const capture::CaptureTrace half(records.begin(), records.end());
  const TimeUs cut = records.back().timestamp;
  std::vector<player::DownloadRecord> truncated_gt;
  for (const auto& d : result.downloads) {
    if (d.done_time <= cut) {
      truncated_gt.push_back(d);
    }
  }
  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  const infer::InferenceEngine engine(&manifest, config);
  const auto inference = engine.Analyze(half);
  ASSERT_FALSE(inference.sequences.empty());
  const auto accuracy = testbed::ScoreInference(inference, truncated_gt);
  EXPECT_GT(accuracy.best, 0.9);
  // Contiguity within the best sequence.
  int prev = -2;
  for (const auto& slot : inference.sequences[0].slots) {
    if (slot.kind == infer::SlotKind::kVideo) {
      if (prev >= -1) {
        EXPECT_EQ(slot.chunk.index, prev + 1);
      }
      prev = slot.chunk.index;
    }
  }
}

TEST(Robustness, WrongDesignTypeFailsSafely) {
  // Analyzing an SQ capture as CH must not crash; it should just fail to
  // explain things (wrong assumptions), not fabricate a perfect answer.
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 0, 4 * 60 * kUsPerSec);
  const auto result = RunSession(&manifest, DesignType::kSQ, 29, 4 * 60 * kUsPerSec);
  infer::InferenceConfig config;
  config.design = DesignType::kCQ;  // ignores multiplexing
  const infer::InferenceEngine engine(&manifest, config);
  const auto accuracy =
      testbed::ScoreInference(engine.Analyze(result.capture), result.downloads);
  EXPECT_LT(accuracy.best, 1.0);
}

}  // namespace
}  // namespace csi
