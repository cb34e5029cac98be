// QoE analysis over an inferred chunk sequence (paper §4.3).
//
// From the inferred identities and download completion times, CSI
// reconstructs the client buffer occupancy over time and derives the QoE
// metrics the paper's use case needs: per-track viewing-time distribution
// (Fig. 10a/c), data usage (Fig. 10b/d), stalls, startup delay, track
// switches, and average delivered bitrate.

#ifndef CSI_SRC_CSI_QOE_H_
#define CSI_SRC_CSI_QOE_H_

#include <vector>

#include "src/csi/types.h"
#include "src/media/manifest.h"

namespace csi::infer {

struct QoeConfig {
  // Playback starts once this much content is buffered (matching the
  // player's startup behaviour).
  TimeUs startup_buffer = 10 * kUsPerSec;
  // Buffer sampling step for the occupancy curve.
  TimeUs sample_step = kUsPerSec;
};

struct BufferSample {
  TimeUs time = 0;
  TimeUs level = 0;  // buffered content ahead of the playhead
};

struct QoeReport {
  // Fraction of *content time* delivered from each video track.
  std::vector<double> track_time_fraction;
  // Bytes downloaded (true chunk sizes of the inferred chunks).
  Bytes data_usage = 0;
  // Average delivered video bitrate, weighted by chunk duration.
  BitsPerSec avg_bitrate = 0;
  int track_switches = 0;
  int stall_count = 0;
  TimeUs total_stall = 0;
  TimeUs startup_delay = 0;
  std::vector<BufferSample> buffer_curve;
};

// Analyzes one inferred sequence. Only video slots drive playback metrics;
// audio contributes to data usage.
QoeReport AnalyzeQoe(const InferredSequence& sequence, const media::Manifest& manifest,
                     const QoeConfig& config = {});

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_QOE_H_
