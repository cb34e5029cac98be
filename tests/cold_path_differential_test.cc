// Differential harness for the Step-1 cold path.
//
// Inference runs Step 1 once, over PacketColumns with plain loops and one
// per-flow prefix sum. This suite checks it against the deliberately naive
// record-based oracle in tests/naive_oracle.h and locks the engine output in:
//
//   1. Seeded sweep: testbed sessions across all four designs. Each columnar
//      stage — media-flow ids, requests, exchanges, windowed byte sums,
//      SP1/SP2 groups — equals the oracle. CSI_TEST_SCHEDULES raises the
//      sweep for the nightly deep-differential job.
//   2. Sequence wrap: request segments that straddle 2^32 (TCP sequence
//      numbers are 32 bits on the wire) merge into one request, in the
//      engine and in the oracle.
//   3. Batch identity: BatchAnalyzer::AnalyzeAll over pre-built columns
//      equals a serial InferenceEngine::Analyze of each, for serial and
//      threaded pools (the threaded run doubles as TSan coverage for
//      concurrent read-only column access).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"
#include "tests/naive_oracle.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

constexpr DesignType kAllDesigns[] = {DesignType::kCH, DesignType::kSH,
                                      DesignType::kCQ, DesignType::kSQ};

capture::CaptureTrace MakeSession(const media::Manifest& manifest, DesignType design,
                                  uint64_t seed, TimeUs duration) {
  testbed::SessionConfig config;
  config.design = design;
  config.manifest = &manifest;
  Rng rng(7000 + seed);
  config.downlink = (seed % 2 == 0)
                        ? nettrace::StableTrace("s", (2 + seed % 4) * kMbps)
                        : nettrace::CellularTrace("c", 6 * kMbps, 0.5, duration,
                                                  2 * kUsPerSec, rng);
  config.duration = duration;
  config.seed = 100 + seed;
  return testbed::RunStreamingSession(config).capture;
}

InferenceConfig EngineConfig(DesignType design) {
  InferenceConfig config;
  config.design = design;
  return config;
}

TEST(ColdPathDifferential, SeededSweepMatchesOracle) {
  // One testbed session per schedule, round-robin over the designs. The
  // tier-1 default stays small; the nightly deep job raises it via
  // CSI_TEST_SCHEDULES.
  const uint64_t schedules = testutil::ScheduleCount(12);
  const TimeUs duration = 60 * kUsPerSec;
  for (uint64_t s = 0; s < schedules; ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    const DesignType design = kAllDesigns[s % 4];
    const media::Manifest manifest =
        testbed::MakeAssetForDesign(design, static_cast<int>(s % 3), duration);
    const capture::CaptureTrace trace = MakeSession(manifest, design, s, duration);
    oracle::ExpectColumnarMatchesOracle(trace, manifest.host);
  }
}

TEST(ColdPathDifferential, RequestSegmentsStraddlingSequenceWrapAreOneRequest) {
  std::vector<capture::PacketRecord> records;
  auto add_uplink = [&records](TimeUs t, uint64_t seq) {
    capture::PacketRecord r;
    r.timestamp = t;
    r.from_client = true;
    r.client_ip = 1;
    r.server_ip = 2;
    r.client_port = 5000;
    r.server_port = 443;
    r.payload = 100;
    r.tcp_seq = seq;
    records.push_back(r);
  };
  // A 100 B segment ends exactly at 2^32; the next one, 1 ms later, starts at
  // sequence 0.
  add_uplink(0, (uint64_t{1} << 32) - 100);
  add_uplink(kUsPerMs, 0);
  const capture::CaptureTrace trace(records.begin(), records.end());
  const capture::PacketColumns columns = capture::PacketColumns::Build(trace);
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(DetectRequests(columns.flow(0), /*quic=*/false).size(), 1u);
  EXPECT_EQ(oracle::DetectRequests(records, /*quic=*/false).size(), 1u);

  // A gap across the wrap is still a new request.
  records[1].tcp_seq = 50;
  const capture::PacketColumns gapped =
      capture::PacketColumns::Build(capture::CaptureTrace(records.begin(), records.end()));
  EXPECT_EQ(DetectRequests(gapped.flow(0), /*quic=*/false).size(), 2u);
  EXPECT_EQ(oracle::DetectRequests(records, /*quic=*/false).size(), 2u);
}

TEST(ColdPathDifferential, BatchMatchesSerialAnalyze) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCQ, 0, duration);
  std::vector<capture::PacketColumns> columns;
  for (uint64_t s = 0; s < 4; ++s) {
    columns.push_back(
        capture::PacketColumns::Build(MakeSession(manifest, DesignType::kCQ, 20 + s, duration)));
  }

  const InferenceConfig config = EngineConfig(DesignType::kCQ);
  std::vector<InferenceResult> serial;
  {
    const InferenceEngine engine(&manifest, config);
    for (const capture::PacketColumns& c : columns) {
      serial.push_back(engine.Analyze(c));
    }
  }
  // Threaded columns batch: workers share the read-only PacketColumns (TSan
  // coverage) and every out-param slot must land by index.
  for (const int threads : {1, 4}) {
    BatchConfig batch;
    batch.threads = threads;
    BatchAnalyzer analyzer(&manifest, config, batch);
    std::vector<double> seconds;
    std::vector<std::string> errors;
    std::vector<InferenceAudit> audits;
    const auto results =
        analyzer.AnalyzeAll(testutil::Pointers(columns), &seconds, &errors, &audits);
    EXPECT_EQ(results, serial) << "threads " << threads;
    ASSERT_EQ(seconds.size(), columns.size());
    ASSERT_EQ(errors.size(), columns.size());
    ASSERT_EQ(audits.size(), columns.size());
    for (const std::string& e : errors) {
      EXPECT_TRUE(e.empty());
    }
  }
}

}  // namespace
}  // namespace csi::infer
