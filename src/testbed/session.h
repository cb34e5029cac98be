// End-to-end streaming session runner (the paper's Fig. 6 testbed).
//
// Wires together: origin server <- (optional token-bucket shaper) <-
// trace-driven emulated downlink <- capture tap <- ABR player over
// HTTPS/QUIC, runs the session for a fixed duration, and returns both the
// encrypted capture (what CSI sees) and the instrumented-player ground truth
// (what CSI is scored against).

#ifndef CSI_SRC_TESTBED_SESSION_H_
#define CSI_SRC_TESTBED_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "src/capture/capture_trace.h"
#include "src/csi/types.h"
#include "src/media/manifest.h"
#include "src/net/token_bucket.h"
#include "src/nettrace/bandwidth_trace.h"
#include "src/player/abr_player.h"

namespace csi::testbed {

struct SessionConfig {
  infer::DesignType design = infer::DesignType::kCH;
  // Manifest must match the design: separate audio tracks for S* designs,
  // none for C* designs (see MakeAssetForDesign in experiment.h).
  const media::Manifest* manifest = nullptr;
  // Downlink bandwidth emulation (the gateway's `tc`).
  nettrace::BandwidthTrace downlink;
  // Optional upstream token-bucket shaper (§7).
  std::optional<net::TokenBucketConfig> shaper;
  // Adaptation policy name (see player::MakeAdaptation).
  std::string adaptation = "hybrid";
  player::PlayerConfig player;
  // Wall-clock duration of the streaming test.
  TimeUs duration = 600 * kUsPerSec;
  // Random downlink packet loss (in addition to queue drops).
  double downlink_loss = 0.002;
  TimeUs downlink_delay = 15 * kUsPerMs;
  TimeUs uplink_delay = 15 * kUsPerMs;
  uint64_t seed = 1;
};

struct SessionResult {
  capture::CaptureTrace capture;
  std::vector<player::DownloadRecord> downloads;  // ground truth
  std::vector<player::DisplayRecord> displays;
  std::vector<player::StallRecord> stalls;
  Bytes total_bytes = 0;
  TimeUs duration = 0;
  BitsPerSec final_throughput_estimate = 0;
};

SessionResult RunStreamingSession(const SessionConfig& config);

}  // namespace csi::testbed

#endif  // CSI_SRC_TESTBED_SESSION_H_
