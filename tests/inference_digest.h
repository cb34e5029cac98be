// Shared fixed-batch + digest harness for instrumentation-invariance tests.
//
// telemetry_test and tracing_test lock inference output with the same golden
// digest: the observability plane (metrics, traces, audits) must never change
// what the pipeline computes. The digest is pure integer arithmetic over a
// deterministic synthetic batch, so it is identical on every platform and
// with or without an active trace session.

#ifndef CSI_TESTS_INFERENCE_DIGEST_H_
#define CSI_TESTS_INFERENCE_DIGEST_H_

#include <cstdint>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"

namespace csi::testutil {

inline std::vector<capture::CaptureTrace> MakeBatch(const media::Manifest& manifest,
                                                    infer::DesignType design, int count,
                                                    TimeUs duration) {
  std::vector<capture::CaptureTrace> traces;
  for (int i = 0; i < count; ++i) {
    testbed::SessionConfig config;
    config.design = design;
    config.manifest = &manifest;
    Rng rng(500 + static_cast<uint64_t>(i));
    config.downlink = (i % 2 == 0)
                          ? nettrace::StableTrace("s", (3 + i % 3) * kMbps)
                          : nettrace::CellularTrace("c", 5 * kMbps, 0.4, duration,
                                                    2 * kUsPerSec, rng);
    config.duration = duration;
    config.seed = 40 + static_cast<uint64_t>(i);
    traces.push_back(RunStreamingSession(config).capture);
  }
  return traces;
}

// Builds each capture's columns once, as every caller of the analysis library
// does before it analyzes.
inline std::vector<capture::PacketColumns> BuildColumns(
    const std::vector<capture::CaptureTrace>& traces) {
  std::vector<capture::PacketColumns> columns;
  columns.reserve(traces.size());
  for (const capture::CaptureTrace& trace : traces) {
    columns.push_back(capture::PacketColumns::Build(trace));
  }
  return columns;
}

// The batch BatchAnalyzer::AnalyzeAll takes: pointers into `columns`, which
// must outlive it.
inline std::vector<const capture::PacketColumns*> Pointers(
    const std::vector<capture::PacketColumns>& columns) {
  std::vector<const capture::PacketColumns*> pointers;
  pointers.reserve(columns.size());
  for (const capture::PacketColumns& c : columns) {
    pointers.push_back(&c);
  }
  return pointers;
}

// FNV-1a over every integer field of the result; pure integer arithmetic, so
// the digest is identical on any platform and in any build mode.
inline uint64_t DigestResults(const std::vector<infer::InferenceResult>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (const infer::InferenceResult& r : results) {
    mix(static_cast<int64_t>(r.sequences.size()));
    mix(r.truncated ? 1 : 0);
    for (const infer::InferredSequence& seq : r.sequences) {
      mix(static_cast<int64_t>(seq.slots.size()));
      for (const infer::InferredSlot& slot : seq.slots) {
        mix(static_cast<int64_t>(slot.kind));
        mix(slot.chunk.track);
        mix(slot.chunk.index);
        mix(slot.request_time);
        mix(slot.done_time);
        mix(slot.estimated_size);
      }
    }
    for (const infer::EstimatedExchange& ex : r.exchanges) {
      mix(ex.request_time);
      mix(ex.last_data_time);
      mix(ex.estimated_size);
      mix(ex.carries_sni ? 1 : 0);
    }
    for (int g : r.group_sizes) {
      mix(g);
    }
  }
  return h;
}

// Golden digests of the fixed batches below, one per design type. Must match
// with and without an active trace session (full or flight mode), and with
// any subset of cache tiers set to budget 0 (inference_e2e_test's
// AnyTierSubsetKeepsGoldenDigests).
inline constexpr uint64_t kChBatchDigest = 0xd4a3acc8aa2025b6ull;
inline constexpr uint64_t kShBatchDigest = 0xb3d468293556d2b8ull;
inline constexpr uint64_t kCqBatchDigest = 0x29a194610a7aadffull;
inline constexpr uint64_t kSqBatchDigest = 0x7d5e98917ed3562bull;

inline uint64_t GoldenBatchDigest(infer::DesignType design) {
  switch (design) {
    case infer::DesignType::kCH:
      return kChBatchDigest;
    case infer::DesignType::kSH:
      return kShBatchDigest;
    case infer::DesignType::kCQ:
      return kCqBatchDigest;
    case infer::DesignType::kSQ:
      return kSqBatchDigest;
  }
  return 0;
}

// The fixed batch every invariance test analyzes: the columns of 4
// deterministic synthetic sessions of a 90 s single-asset manifest.
struct FixedBatch {
  media::Manifest manifest;
  std::vector<capture::PacketColumns> columns;
};

inline FixedBatch MakeFixedBatch(infer::DesignType design) {
  const TimeUs duration = 90 * kUsPerSec;
  FixedBatch fixed{testbed::MakeAssetForDesign(design, 1, duration), {}};
  fixed.columns = BuildColumns(MakeBatch(fixed.manifest, design, 4, duration));
  return fixed;
}

// Analyzes the fixed batch. `batch` lets cache/threading tests vary the
// execution shape — the digest must not move for ANY such shape (output is
// scheduling- and cache-independent by design).
inline std::vector<infer::InferenceResult> AnalyzeFixedBatch(
    infer::DesignType design,
    infer::BatchConfig batch =
        [] {
          infer::BatchConfig b;
          b.threads = 4;
          return b;
        }()) {
  const FixedBatch fixed = MakeFixedBatch(design);
  infer::InferenceConfig config;
  config.design = design;
  infer::BatchAnalyzer analyzer(&fixed.manifest, config, batch);
  return analyzer.AnalyzeAll(Pointers(fixed.columns));
}

inline std::vector<infer::InferenceResult> AnalyzeFixedSqBatch() {
  return AnalyzeFixedBatch(infer::DesignType::kSQ);
}

}  // namespace csi::testutil

#endif  // CSI_TESTS_INFERENCE_DIGEST_H_
