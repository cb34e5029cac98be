// QUIC transport-multiplexing walkthrough (design SQ, paper §5.3.2).
//
// Streams a separate-audio asset over QUIC — audio and video chunks
// multiplexed on one connection — then walks through CSI's pipeline step by
// step: request detection, SP1/SP2 traffic splitting, per-group candidate
// search, and the cross-group sequence chain.
//
// Run: ./build/examples/quic_mux_inference

#include <cstdio>
#include <memory>

#include "src/capture/packet_columns.h"
#include "src/common/table.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/group_search.h"
#include "src/csi/inference.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

using namespace csi;

int main() {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(infer::DesignType::kSQ, 3, 8 * 60 * kUsPerSec);
  Rng rng(99);
  testbed::SessionConfig session;
  session.design = infer::DesignType::kSQ;
  session.manifest = &manifest;
  session.downlink =
      nettrace::CellularTrace("lte", 7 * kMbps, 0.45, 8 * 60 * kUsPerSec, 2 * kUsPerSec, rng);
  session.duration = 8 * 60 * kUsPerSec;
  session.seed = 99;
  const auto result = RunStreamingSession(session);
  std::printf("session: %zu packets, %zu chunk downloads (video+audio multiplexed)\n\n",
              result.capture.size(), result.downloads.size());

  // Step 1.1 — flow classification by SNI, over the capture's columns.
  const capture::PacketColumns columns = capture::PacketColumns::Build(result.capture);
  const auto media = infer::ClassifyMediaFlowIds(columns, manifest.host);
  std::printf("step 1.1: %zu media flow(s); SNI=\"%s\"\n", media.size(),
              media.empty() ? "?" : columns.flow_sni(media[0]).c_str());
  if (media.empty()) {
    return 1;
  }

  // Step 1.2 — request detection (80-byte heuristic) and SP1/SP2 splitting.
  const capture::FlowView flow = columns.flow(media[0]);
  const auto requests = infer::DetectRequests(flow, /*quic=*/true);
  const auto groups = infer::SplitIntoGroups(flow);
  std::printf("step 1.2: %zu uplink requests -> %zu traffic groups\n", requests.size(),
              groups.size());
  TextTable gt;
  gt.SetHeader({"group", "requests", "estimated bytes", "window (s)"});
  for (size_t g = 0; g < groups.size() && g < 10; ++g) {
    gt.AddRow({std::to_string(g), std::to_string(groups[g].num_requests()),
               FormatBytes(static_cast<double>(groups[g].estimated_total)),
               FormatDouble(UsToSeconds(groups[g].start_time), 1) + " - " +
                   FormatDouble(UsToSeconds(groups[g].end_time), 1)});
  }
  std::printf("%s(first 10 groups)\n\n", gt.Render().c_str());

  // Step 2.1 — per-group candidate search (shown for one mid-session group,
  // conditioned on the chained start index as the engine does internally).
  const infer::DbSnapshot db(std::make_shared<const infer::ChunkDatabase>(&manifest));
  infer::GroupSearchConfig gconfig;
  gconfig.other_object_sizes = {manifest.SerializedSize() + 180};
  if (groups.size() > 4) {
    bool truncated = false;
    const auto candidates = infer::EnumerateGroupCandidates(
        groups[4], db, gconfig, {}, 0, db.num_positions() - 1, &truncated);
    std::printf("step 2.1: group 4 has %zu candidate explanations (unconditioned)\n",
                candidates.size());
    for (size_t i = 0; i < candidates.size() && i < 3; ++i) {
      const auto& c = candidates[i];
      std::printf("  #%zu: video", i);
      if (c.video_start < 0) {
        std::printf(" none");
      } else {
        for (size_t j = 0; j < c.tracks.size(); ++j) {
          std::printf(" (T%d,i%d)", c.tracks[j] + 1, c.video_start + static_cast<int>(j));
        }
      }
      std::printf(" + %d audio + %d other\n", c.audio_count, c.other_count);
    }
  }

  // Step 2.2 — full chained inference and scoring.
  infer::InferenceConfig config;
  config.design = infer::DesignType::kSQ;
  const infer::InferenceEngine engine(&manifest, config);
  const auto inference = engine.Analyze(columns);
  const auto accuracy = testbed::ScoreInference(inference, result.downloads);
  std::printf("\nstep 2.2: %d candidate sequence(s); best accuracy %.1f%%, worst %.1f%%\n",
              accuracy.num_sequences, 100 * accuracy.best, 100 * accuracy.worst);
  std::printf("ground truth recovered: %s\n", accuracy.found_ground_truth ? "yes" : "no");
  return accuracy.best > 0.9 ? 0 : 1;
}
