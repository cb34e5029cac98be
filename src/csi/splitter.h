// Step 1.2 for transport-MUX designs (SQ): split traffic into groups of
// complete chunks (paper §5.3.2, Fig. 8).
//
// Two kinds of split points:
//   SP1 — an OFF period: an idle gap in the flow's activity longer than a
//         threshold (the player's buffer-full pause);
//   SP2 — two requests issued at the same instant with no intervening
//         downlink data: only possible when all prior downloads finished.
// Each resulting group carries its request count and the total estimated
// bytes of the objects downloaded in it.

#ifndef CSI_SRC_CSI_SPLITTER_H_
#define CSI_SRC_CSI_SPLITTER_H_

#include <functional>
#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/size_estimator.h"
#include "src/csi/types.h"

namespace csi::infer {

struct SplitterConfig {
  // SP1: minimum idle gap identifying an OFF period.
  TimeUs idle_threshold = 1 * kUsPerSec;
  // SP2: maximum spacing for "two requests at the same time".
  TimeUs simultaneity_window = 100 * kUsPerMs;
  // Ablation switches for the two split-point types.
  bool enable_sp1 = true;
  bool enable_sp2 = true;

  // Structural equality: the prefix cache interns splitter configs and must
  // never conflate two engines whose splits could differ.
  friend bool operator==(const SplitterConfig&, const SplitterConfig&) = default;
};

struct TrafficGroup {
  std::vector<DetectedRequest> requests;
  TimeUs start_time = 0;         // first request of the group
  TimeUs end_time = 0;           // start of the next group (or end of flow)
  Bytes estimated_total = 0;     // sum of estimated object bytes in the group
  int num_requests() const { return static_cast<int>(requests.size()); }
};

// Splits a QUIC flow into traffic groups. One pass collects the downlink data
// times; each group's byte total is a CountedDownlink window query.
std::vector<TrafficGroup> SplitIntoGroups(const capture::FlowView& flow,
                                          const SplitterConfig& config = {});

// The layout-free SP1/SP2 split behind SplitIntoGroups, for callers that
// detect requests and sum bytes their own way. `requests` are the flow's
// detected requests in capture order (handshake requests are dropped here),
// `downlink_times` the ascending timestamps of its downlink data packets,
// `last_packet_time` the flow's final timestamp (read only when
// `have_packets`), and `estimate(start, end)` the estimated downlink object
// bytes in the window (start, end], end < 0 meaning "to the end of the flow".
std::vector<TrafficGroup> SplitCore(
    std::vector<DetectedRequest> requests,
    const std::vector<TimeUs>& downlink_times, bool have_packets,
    TimeUs last_packet_time, const SplitterConfig& config,
    const std::function<Bytes(TimeUs, TimeUs)>& estimate);

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_SPLITTER_H_
