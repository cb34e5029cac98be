// Step 1.2: detect requests and estimate downloaded object sizes from
// encrypted packets (paper §3.2, §5.3.1).
//
// HTTPS: uplink packets with TCP payload are requests (pure ACKs carry no
// payload); retransmissions — both directions — are removed via duplicate
// sequence numbers; the response size estimate is the sum of de-duplicated
// downlink TCP payload bytes (the TLS record stream) between consecutive
// requests.
//
// QUIC: uplink packets with UDP payload >= 80 bytes are requests (ACK-only
// packets are smaller, §5.3.1); retransmissions cannot be removed (new packet
// numbers); the estimate sums downlink QUIC payloads (UDP payload minus the
// public header) between requests. Both estimators satisfy Property (1):
// S <= S~ <= (1+k)S with k ~ 1% (HTTPS) / 5% (QUIC).

#ifndef CSI_SRC_CSI_SIZE_ESTIMATOR_H_
#define CSI_SRC_CSI_SIZE_ESTIMATOR_H_

#include <vector>

#include "src/capture/packet_columns.h"
#include "src/csi/types.h"

namespace csi::infer {

// Request detection threshold for QUIC uplink packets (paper §5.3.1).
inline constexpr Bytes kQuicRequestThreshold = 80;

// Detected request packets of a flow (timestamps, de-duplicated for HTTPS).
struct DetectedRequest {
  TimeUs time = 0;
  bool carries_sni = false;  // the ClientHello (never an HTTP request)
};

// Detected requests of one flow, in capture order (rules above).
std::vector<DetectedRequest> DetectRequests(const capture::FlowView& flow,
                                            bool quic);

// Per-exchange size estimates for designs without transport MUX: downlink
// traffic between consecutive requests is one object (§5.3.1 Step 1.2).
std::vector<EstimatedExchange> EstimateExchanges(const capture::FlowView& flow,
                                                 bool quic);

// Total estimated downlink object bytes in the time window (begin, end].
// Set end < 0 for "until the end of the flow".
Bytes EstimateDownlinkBytes(const capture::FlowView& flow, bool quic,
                            TimeUs begin, TimeUs end);

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_SIZE_ESTIMATOR_H_
