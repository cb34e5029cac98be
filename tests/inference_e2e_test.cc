// End-to-end pipeline tests: encode -> stream -> capture -> infer -> score,
// across all four ABR design types of paper Table 2.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/capture/packet_columns.h"
#include "src/capture/pcap_io.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/displayed_info.h"
#include "src/csi/inference.h"
#include "src/csi/qoe.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"

namespace csi {
namespace {

using infer::DesignType;
using testbed::MakeAssetForDesign;
using testbed::RunStreamingSession;
using testbed::SessionConfig;

struct E2e {
  media::Manifest manifest;
  testbed::SessionResult session;
  infer::InferenceResult inference;
  testbed::AccuracyResult accuracy;
};

E2e RunE2e(DesignType design, nettrace::BandwidthTrace trace, uint64_t seed,
           TimeUs duration = 6 * 60 * kUsPerSec) {
  E2e out{MakeAssetForDesign(design, static_cast<int>(seed % 5), duration), {}, {}, {}};
  SessionConfig s;
  s.design = design;
  s.manifest = &out.manifest;
  s.downlink = std::move(trace);
  s.duration = duration;
  s.seed = seed;
  out.session = RunStreamingSession(s);
  infer::InferenceConfig config;
  config.design = design;
  const infer::InferenceEngine engine(&out.manifest, config);
  out.inference = engine.Analyze(capture::PacketColumns::Build(out.session.capture));
  out.accuracy = testbed::ScoreInference(out.inference, out.session.downloads);
  return out;
}

class DesignE2eTest : public ::testing::TestWithParam<DesignType> {};

TEST_P(DesignE2eTest, StableLinkRecoversGroundTruth) {
  const E2e e2e = RunE2e(GetParam(), nettrace::StableTrace("s", 7 * kMbps), 21);
  EXPECT_GT(e2e.session.downloads.size(), 50u);
  EXPECT_TRUE(e2e.accuracy.found_ground_truth)
      << "best=" << e2e.accuracy.best << " n=" << e2e.accuracy.num_sequences;
}

TEST_P(DesignE2eTest, VariableLinkBestOutputAbove95) {
  Rng rng(31);
  const E2e e2e = RunE2e(
      GetParam(),
      nettrace::CellularTrace("c", 5 * kMbps, 0.5, 6 * 60 * kUsPerSec, 2 * kUsPerSec, rng),
      32);
  EXPECT_GT(e2e.accuracy.best, 0.95)
      << "best=" << e2e.accuracy.best << " n=" << e2e.accuracy.num_sequences;
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignE2eTest,
                         ::testing::Values(DesignType::kCH, DesignType::kSH, DesignType::kCQ,
                                           DesignType::kSQ),
                         [](const auto& param_info) {
                           return infer::DesignTypeName(param_info.param);
                         });

TEST(InferenceE2e, DisplayedChunkInfoNeverHurts) {
  Rng rng(41);
  for (DesignType design : {DesignType::kSH, DesignType::kSQ}) {
    const media::Manifest manifest = MakeAssetForDesign(design, 2, 6 * 60 * kUsPerSec);
    SessionConfig s;
    s.design = design;
    s.manifest = &manifest;
    s.downlink = nettrace::CellularTrace("c", 4 * kMbps, 0.6, 6 * 60 * kUsPerSec,
                                         2 * kUsPerSec, rng);
    s.duration = 6 * 60 * kUsPerSec;
    s.seed = 42;
    const auto session = RunStreamingSession(s);
    infer::InferenceConfig config;
    config.design = design;
    const infer::InferenceEngine engine(&manifest, config);
    const capture::PacketColumns columns = capture::PacketColumns::Build(session.capture);
    const auto plain = engine.Analyze(columns);
    Rng ocr_rng(1);
    const auto display = infer::SampleDisplayedChunks(session.displays, s.duration,
                                                      infer::OcrConfig{}, ocr_rng);
    const auto constrained = engine.Analyze(columns, display);
    const auto acc_plain = testbed::ScoreInference(plain, session.downloads);
    const auto acc_display = testbed::ScoreInference(constrained, session.downloads);
    // Screen constraints only remove candidates inconsistent with what was
    // displayed, so the best output never degrades and ground truth stays
    // recoverable.
    EXPECT_GE(acc_display.best + 1e-9, acc_plain.best) << infer::DesignTypeName(design);
    if (acc_plain.found_ground_truth) {
      EXPECT_TRUE(acc_display.found_ground_truth) << infer::DesignTypeName(design);
    }
  }
}

TEST(InferenceE2e, SurvivesPcapRoundTrip) {
  // Inference over a capture that went through pcap serialization must give
  // identical results — everything CSI needs survives the file format.
  const E2e direct = RunE2e(DesignType::kSH, nettrace::StableTrace("s", 6 * kMbps), 51);
  const capture::CaptureTrace round_tripped =
      capture::ParsePcap(capture::SerializePcap(direct.session.capture));
  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  const infer::InferenceEngine engine(&direct.manifest, config);
  const auto inference = engine.Analyze(capture::PacketColumns::Build(round_tripped));
  const auto accuracy = testbed::ScoreInference(inference, direct.session.downloads);
  EXPECT_EQ(accuracy.best, direct.accuracy.best);
  EXPECT_EQ(accuracy.num_sequences, direct.accuracy.num_sequences);
}

TEST(InferenceE2e, LossyLinkStillAccurate) {
  for (DesignType design : {DesignType::kSH, DesignType::kCQ}) {
    const media::Manifest manifest = MakeAssetForDesign(design, 1, 6 * 60 * kUsPerSec);
    SessionConfig s;
    s.design = design;
    s.manifest = &manifest;
    s.downlink = nettrace::StableTrace("s", 6 * kMbps);
    s.downlink_loss = 0.01;
    s.duration = 6 * 60 * kUsPerSec;
    s.seed = 61;
    const auto session = RunStreamingSession(s);
    infer::InferenceConfig config;
    config.design = design;
    const infer::InferenceEngine engine(&manifest, config);
    const auto inference = engine.Analyze(capture::PacketColumns::Build(session.capture));
    const auto accuracy = testbed::ScoreInference(inference, session.downloads);
    EXPECT_GT(accuracy.best, 0.95) << infer::DesignTypeName(design);
  }
}

TEST(InferenceE2e, InferredTimingMatchesGroundTruth) {
  const E2e e2e = RunE2e(DesignType::kCH, nettrace::StableTrace("s", 8 * kMbps), 71);
  ASSERT_TRUE(e2e.accuracy.found_ground_truth);
  // For the best sequence, per-chunk request times must match the player log
  // within a propagation delay.
  const auto& seq = e2e.inference.sequences[0];
  for (const auto& slot : seq.slots) {
    if (slot.kind != infer::SlotKind::kVideo) {
      continue;
    }
    bool matched = false;
    for (const auto& d : e2e.session.downloads) {
      if (d.chunk == slot.chunk) {
        EXPECT_NEAR(static_cast<double>(slot.request_time),
                    static_cast<double>(d.request_time), 50.0 * kUsPerMs);
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(InferenceE2e, QoeFromInferredSequenceMatchesSession) {
  const E2e e2e = RunE2e(DesignType::kCH, nettrace::StableTrace("s", 8 * kMbps), 81);
  ASSERT_FALSE(e2e.inference.sequences.empty());
  const infer::QoeReport qoe = infer::AnalyzeQoe(e2e.inference.sequences[0], e2e.manifest);
  // Inferred data usage equals the player's actual bytes (plus manifest).
  EXPECT_NEAR(static_cast<double>(qoe.data_usage),
              static_cast<double>(e2e.session.total_bytes),
              0.01 * static_cast<double>(e2e.session.total_bytes));
  EXPECT_EQ(qoe.stall_count, static_cast<int>(e2e.session.stalls.size()));
}

TEST(InferenceE2e, EmptyCaptureYieldsNoSequences) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 0, 60 * kUsPerSec);
  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  const infer::InferenceEngine engine(&manifest, config);
  const auto result = engine.Analyze(capture::PacketColumns::Build(capture::CaptureTrace{}));
  EXPECT_TRUE(result.sequences.empty());
}

// Asking for fewer than one sequence is a caller error: both constructors
// reject it up front, with the CLI's wording, instead of returning nothing
// (0) or failing inside the search (negative).
TEST(InferenceE2e, MaxSequencesBelowOneIsRejected) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 0, 60 * kUsPerSec);
  for (const int max_sequences : {0, -5}) {
    SCOPED_TRACE("max_sequences " + std::to_string(max_sequences));
    infer::InferenceConfig config;
    config.design = DesignType::kSQ;
    config.max_sequences = max_sequences;
    try {
      const infer::InferenceEngine engine(&manifest, config);
      ADD_FAILURE() << "InferenceEngine accepted the cap";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "max_sequences must be >= 1");
    }
    EXPECT_THROW(infer::BatchAnalyzer(&manifest, config), std::invalid_argument);
  }
  infer::InferenceConfig config;
  config.max_sequences = 1;
  EXPECT_NO_THROW(infer::InferenceEngine(&manifest, config));
}

// The group search combines at most kMaxOtherObjects known non-media sizes;
// a config with more is rejected by both constructors instead of having its
// extra sizes silently never enter any explanation.
TEST(InferenceE2e, TooManyOtherObjectSizesAreRejected) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSQ, 0, 60 * kUsPerSec);
  infer::InferenceConfig config;
  config.design = DesignType::kSQ;
  for (int i = 0; i < infer::kMaxOtherObjects; ++i) {
    config.other_object_sizes.push_back(1000 + 100 * i);
  }
  EXPECT_NO_THROW(infer::InferenceEngine(&manifest, config));
  EXPECT_NO_THROW(infer::BatchAnalyzer(&manifest, config));
  config.other_object_sizes.push_back(5000);
  try {
    const infer::InferenceEngine engine(&manifest, config);
    ADD_FAILURE() << "InferenceEngine accepted " << config.other_object_sizes.size()
                  << " other-object sizes";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "other_object_sizes holds more than 8 sizes");
  }
  EXPECT_THROW(infer::BatchAnalyzer(&manifest, config), std::invalid_argument);
}

// Multi-service golden digests: the shared fixed batch locked to one constant
// per design path (CH/SH/CQ/SQ), not just SQ. The cache-tier test below and
// the tracing and cold-path identity tests reuse the same helpers, so any
// pipeline change that moves real inference output fails loudly here first —
// and an instrumentation or caching change that moves it fails THERE with the
// same constants.
TEST(InferenceE2e, GoldenDigestsCoverAllDesignPaths) {
  for (const DesignType design :
       {DesignType::kCH, DesignType::kSH, DesignType::kCQ, DesignType::kSQ}) {
    const auto results = testutil::AnalyzeFixedBatch(design);
    EXPECT_EQ(testutil::DigestResults(results), testutil::GoldenBatchDigest(design))
        << infer::DesignTypeName(design);
    // A digest over empty output would lock in nothing; make sure the fixed
    // batch actually infers sequences on every path.
    for (const auto& r : results) {
      EXPECT_FALSE(r.sequences.empty()) << infer::DesignTypeName(design);
    }
  }
}

// Any subset of the three cache tiers set to budget 0 (none, each alone, each
// pair, all three) must leave the golden digests in place, on a cold pass and
// on a warm second pass over the same traces, where every attached tier
// serves hits.
TEST(InferenceE2e, AnyTierSubsetKeepsGoldenDigests) {
  for (const DesignType design :
       {DesignType::kCH, DesignType::kSH, DesignType::kCQ, DesignType::kSQ}) {
    const testutil::FixedBatch fixed = testutil::MakeFixedBatch(design);
    infer::InferenceConfig config;
    config.design = design;
    for (int mask = 0; mask < 8; ++mask) {
      const bool prefix_off = (mask & 1) != 0;
      const bool candidate_off = (mask & 2) != 0;
      const bool result_off = (mask & 4) != 0;
      infer::BatchConfig batch;
      batch.threads = 4;
      if (prefix_off) {
        batch.caches.prefix.budget_mb = 0;
      }
      if (candidate_off) {
        batch.caches.candidate.budget_mb = 0;
      }
      if (result_off) {
        batch.caches.result.budget_mb = 0;
      }
      infer::BatchAnalyzer analyzer(&fixed.manifest, config, batch);
      const auto state = [](bool off) { return off ? "off" : "on"; };
      const std::string shape = infer::DesignTypeName(design) + " prefix " +
                                state(prefix_off) + ", candidate " + state(candidate_off) +
                                ", result " + state(result_off);
      EXPECT_EQ(analyzer.prefix_cache() == nullptr, prefix_off) << shape;
      EXPECT_EQ(analyzer.candidate_cache() == nullptr, candidate_off) << shape;
      EXPECT_EQ(analyzer.result_cache() == nullptr, result_off) << shape;
      for (const char* pass : {"cold", "warm"}) {
        EXPECT_EQ(testutil::DigestResults(analyzer.AnalyzeAll(testutil::Pointers(fixed.columns))),
                  testutil::GoldenBatchDigest(design))
            << shape << ", " << pass << " pass";
      }
    }
  }
}

TEST(InferenceE2e, ForeignTrafficIgnored) {
  // A capture of some other service (different SNI) must match zero flows.
  const E2e e2e = RunE2e(DesignType::kCH, nettrace::StableTrace("s", 8 * kMbps), 91);
  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  config.host_suffix = "unrelated.example.org";
  const infer::InferenceEngine engine(&e2e.manifest, config);
  EXPECT_TRUE(
      engine.Analyze(capture::PacketColumns::Build(e2e.session.capture)).sequences.empty());
}

}  // namespace
}  // namespace csi
