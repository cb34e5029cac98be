// Step 1.1: identify video-streaming connections in the capture.
//
// Flows are keyed by 5-tuple; a flow belongs to the video service if its
// ClientHello SNI matches the service's hostname (suffix match, e.g.
// "googlevideo.com"), or — when SNI is absent — if its server IP is in a
// known set (the DNS/IP fallback of paper §5.3.1).

#ifndef CSI_SRC_CSI_FLOW_CLASSIFIER_H_
#define CSI_SRC_CSI_FLOW_CLASSIFIER_H_

#include <set>
#include <string>
#include <vector>

#include "src/capture/packet_columns.h"

namespace csi::infer {

// The ids (first-appearance order) of the flows in `columns` that belong to
// the video service identified by `host_suffix` (or by server IP when the
// flow never showed an SNI). No packets are touched at all — the interning
// pass of PacketColumns::Build already extracted the per-flow SNI and key, and
// downstream stages consume FlowViews over the same columns.
std::vector<uint32_t> ClassifyMediaFlowIds(
    const capture::PacketColumns& columns, const std::string& host_suffix,
    const std::set<uint32_t>& known_server_ips = {});

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_FLOW_CLASSIFIER_H_
