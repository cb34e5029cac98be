// Tests of the benchmark's own machinery: the sample-count rule behind the
// reported percentiles, failure counting (a truncated capture is a failed
// session, not a crashed run), span self times, and the stage replay's
// equivalence with InferenceEngine::Analyze.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "csibench/bench_lib.h"
#include "src/capture/pcap_io.h"
#include "src/csi/candidate_cache.h"
#include "src/testbed/experiment.h"

namespace csibench {
namespace {

using namespace csi;

TEST(PercentileRule, MedianNeedsTwentySamples) {
  EXPECT_LT(HighestPercentileWithTenBeyond(0), 0);
  EXPECT_LT(HighestPercentileWithTenBeyond(19), 0);
  EXPECT_DOUBLE_EQ(HighestPercentileWithTenBeyond(20), 50);
  EXPECT_DOUBLE_EQ(HighestPercentileWithTenBeyond(40), 75);
  EXPECT_DOUBLE_EQ(HighestPercentileWithTenBeyond(100), 90);
  EXPECT_DOUBLE_EQ(HighestPercentileWithTenBeyond(1000), 99);
}

TEST(PercentileRule, LeavesTenSamplesBeyond) {
  for (size_t n : {20u, 24u, 37u, 72u, 500u}) {
    const double p = HighestPercentileWithTenBeyond(n);
    EXPECT_NEAR(static_cast<double>(n) * (1 - p / 100), 10.0, 1e-9) << n;
  }
}

TEST(PercentileRule, InterpolatesBetweenRanks) {
  EXPECT_EQ(PercentileOf({}, 50), 0);
  EXPECT_DOUBLE_EQ(MedianOf({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(MedianOf({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(PercentileOf({1, 2, 3, 4, 5}, 0), 1);
  EXPECT_DOUBLE_EQ(PercentileOf({1, 2, 3, 4, 5}, 100), 5);
  EXPECT_DOUBLE_EQ(PercentileOf({1, 2, 3, 4, 5}, 75), 4);
}

TEST(PercentileRule, HarrellDavisMedianWeighsEverySample) {
  EXPECT_EQ(HarrellDavisMedian({}), 0);
  EXPECT_DOUBLE_EQ(HarrellDavisMedian({7}), 7);
  EXPECT_NEAR(HarrellDavisMedian({4, 4, 4, 4}), 4, 1e-12);
  // Symmetric samples: the estimate is their centre.
  EXPECT_NEAR(HarrellDavisMedian({3, 1, 2}), 2, 1e-9);
  EXPECT_NEAR(HarrellDavisMedian({10, 1, 2, 3, 4, 5, 6, 7, 8, 9}), 5.5, 1e-9);
  // Skewed samples: between the quartiles, and pulled toward the long tail
  // where the sample median is not.
  const std::vector<double> skewed = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100, 200, 400};
  const double hd = HarrellDavisMedian(skewed);
  EXPECT_GT(hd, MedianOf(skewed));
  EXPECT_GT(hd, PercentileOf(skewed, 25));
  EXPECT_LT(hd, PercentileOf(skewed, 75));
}

TEST(FailureCounting, CountsEveryKindAgainstAttempts) {
  FailureTally tally;
  EXPECT_DOUBLE_EQ(tally.completed_share(), 1);
  infer::InferenceResult ok;
  ok.sequences.emplace_back();
  EXPECT_TRUE(CountAnalyzed(ok, "", &tally));
  EXPECT_FALSE(CountAnalyzed(ok, "boom", &tally));
  EXPECT_FALSE(CountAnalyzed(infer::InferenceResult{}, "", &tally));
  IngestedSession unreadable;
  unreadable.error = "pcap: truncated";
  EXPECT_FALSE(CountIngested(unreadable, &tally));
  EXPECT_TRUE(CountIngested(IngestedSession{}, &tally));  // loaded: not counted yet

  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 3u);
  EXPECT_EQ(tally.failed(FailureKind::kAnalyze), 1u);
  EXPECT_EQ(tally.failed(FailureKind::kNoSequence), 1u);
  EXPECT_EQ(tally.failed(FailureKind::kLoad), 1u);
  EXPECT_DOUBLE_EQ(tally.completed_share(), 0.25);
}

// A short session of one design, generated the way the workloads are.
struct ShortSession {
  media::Manifest manifest;
  capture::CaptureTrace capture;
};

ShortSession MakeShortSession(infer::DesignType design, uint64_t seed) {
  const TimeUs duration = 90 * kUsPerSec;
  ShortSession s;
  s.manifest = testbed::MakeAssetForDesign(design, kAssetGenre, duration);
  testbed::SessionConfig config;
  config.design = design;
  config.manifest = &s.manifest;
  Rng rng(seed ^ 0xBEEF);
  config.downlink = nettrace::CellularTrace("t", 6.0 * kMbps, 0.5, duration, 2 * kUsPerSec, rng);
  config.duration = duration;
  config.seed = seed;
  s.capture = testbed::RunStreamingSession(config).capture;
  return s;
}

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() / "csibench_test_tmp";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

using IngestTest = TempDir;

TEST_F(IngestTest, TruncatedPcapCountsAsFailedSession) {
  const ShortSession s = MakeShortSession(infer::DesignType::kCH, 11);
  const std::vector<uint8_t> bytes = capture::SerializePcap(s.capture);
  ASSERT_TRUE(WriteFile(Path("good.pcap"), std::string(bytes.begin(), bytes.end())));
  // Cut mid-record, as a capture rotated while tcpdump was writing.
  ASSERT_TRUE(WriteFile(Path("cut.pcap"),
                        std::string(bytes.begin(), bytes.begin() + bytes.size() / 2 + 7)));

  const IngestedSession good = IngestSession(Path("good.pcap"));
  ASSERT_TRUE(good.error.empty()) << good.error;
  ASSERT_TRUE(good.columns.has_value());
  EXPECT_EQ(good.packets, s.capture.size());
  EXPECT_EQ(good.pcap_bytes, bytes.size());

  const IngestedSession cut = IngestSession(Path("cut.pcap"));
  EXPECT_FALSE(cut.error.empty());
  EXPECT_FALSE(cut.columns.has_value());
  const IngestedSession missing = IngestSession(Path("absent.pcap"));
  EXPECT_FALSE(missing.error.empty());

  // The run goes on: the good capture is analyzed, the other two are failed
  // sessions of the same tally.
  FailureTally tally;
  infer::InferenceConfig config;
  config.design = infer::DesignType::kCH;
  const infer::InferenceEngine engine(&s.manifest, config);
  for (const IngestedSession* session : {&good, &cut, &missing}) {
    if (CountIngested(*session, &tally)) {
      CountAnalyzed(engine.Analyze(*session->columns), "", &tally);
    }
  }
  EXPECT_EQ(tally.attempted(), 3u);
  EXPECT_EQ(tally.failed(FailureKind::kLoad), 2u);
  EXPECT_EQ(tally.failed(), 2u);
}

TEST(SpanRecorderTest, SelfTimeExcludesDirectChildren) {
  SpanRecorder spans;
  {
    const SpanRecorder::Scope session(&spans, "session", 3);
    const SpanRecorder::Scope read(&spans, "capture.read");
    { const SpanRecorder::Scope inner(&spans, "capture.columns"); }
  }
  { const SpanRecorder::Scope untraced(nullptr, "ignored"); }
  ASSERT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[2].parent, 1);
  EXPECT_EQ(spans.spans()[2].session, 3);  // inherited

  const auto self = spans.SelfSeconds();
  const auto total = spans.TotalSeconds();
  EXPECT_NEAR(self.at("session"), total.at("session") - total.at("capture.read"), 1e-12);
  EXPECT_NEAR(self.at("capture.read"), total.at("capture.read") - total.at("capture.columns"),
              1e-12);
  double sum = 0;
  for (const auto& [name, seconds] : self) {
    EXPECT_GE(seconds, 0) << name;
    sum += seconds;
  }
  EXPECT_NEAR(sum, total.at("session"), 1e-12);  // self times add up to the root
  EXPECT_EQ(total.count("ignored"), 0u);
}

void ExpectReplayMatchesAnalyze(infer::DesignType design, uint64_t seed) {
  const ShortSession s = MakeShortSession(design, seed);
  const capture::PacketColumns columns = capture::PacketColumns::Build(s.capture);
  infer::InferenceConfig config;
  config.design = design;
  const infer::InferenceEngine engine(&s.manifest, config);
  infer::GroupCandidateCache cache(64u << 20);
  SpanRecorder spans;
  StageCounts counts;
  const infer::InferenceResult replayed =
      ReplayStages(engine, columns, &cache, &spans, 0, &counts);
  const infer::InferenceResult analyzed = engine.Analyze(columns);
  EXPECT_FALSE(analyzed.sequences.empty());
  EXPECT_TRUE(replayed == analyzed);
  EXPECT_EQ(DigestResults({replayed}), DigestResults({analyzed}));
  EXPECT_EQ(counts.media_flows, 1u);
  EXPECT_EQ(counts.sequences, analyzed.sequences.size());
  for (const char* stage :
       {"csi.flow_classifier", "csi.splitter", "csi.size_estimator", "csi.group_search"}) {
    EXPECT_EQ(spans.TotalSeconds().count(stage), 1u) << stage;
  }
}

TEST(StageReplay, MatchesAnalyzeOnCh) {
  ExpectReplayMatchesAnalyze(infer::DesignType::kCH, 21);
}

TEST(StageReplay, MatchesAnalyzeOnSh) {
  ExpectReplayMatchesAnalyze(infer::DesignType::kSH, 26);
}

TEST(StageReplay, MatchesAnalyzeOnSq) {
  ExpectReplayMatchesAnalyze(infer::DesignType::kSQ, 31);
}

TEST(Digest, ChangesWithAnyResultField) {
  infer::InferenceResult a;
  a.sequences.emplace_back();
  a.sequences[0].slots.push_back(infer::InferredSlot{});
  infer::InferenceResult b = a;
  EXPECT_EQ(DigestResults({a}), DigestResults({b}));
  b.sequences[0].slots[0].chunk.index = 1;
  EXPECT_NE(DigestResults({a}), DigestResults({b}));
  EXPECT_EQ(DigestResults({a}).size(), 16u);
}

}  // namespace
}  // namespace csibench
