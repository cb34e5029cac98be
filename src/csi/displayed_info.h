// Displayed-chunk information from screen analysis (paper §4.2).
//
// Players expose the currently displayed track on screen (YouTube
// stats-for-nerds, Netflix test patterns); CSI can OCR it periodically. We
// model the OCR as sampling the player's display log every `period`: any
// chunk displayed for at least one sampling period yields an
// (index -> track) constraint, which prunes inference candidates (§6.2).

#ifndef CSI_SRC_CSI_DISPLAYED_INFO_H_
#define CSI_SRC_CSI_DISPLAYED_INFO_H_

#include <vector>

#include "src/csi/types.h"
#include "src/player/abr_player.h"

namespace csi::infer {

struct OcrConfig {
  // Screen sampling period.
  TimeUs period = kUsPerSec;
  // Fraction of samples the OCR fails to read (noise).
  double miss_rate = 0.0;
};

// Builds constraints from the player's display log (the simulated screen).
DisplayConstraints SampleDisplayedChunks(const std::vector<player::DisplayRecord>& displays,
                                         TimeUs session_end, const OcrConfig& config,
                                         Rng& rng);

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_DISPLAYED_INFO_H_
