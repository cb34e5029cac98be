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

// Counted downlink traffic of one window (begin, end].
struct DownlinkWindow {
  Bytes bytes = 0;           // estimated object bytes in the window
  TimeUs last_data_time = 0;  // last counted packet in it, or begin if none
};

// The downlink packets of one flow that count toward a size estimate — HTTPS:
// the first data packet with each TCP sequence number (later ones are
// retransmissions); QUIC: every data packet, as its payload minus the public
// header (floored at 0) — in timestamp order with their byte prefix sums.
// Built in two passes per flow, one counting the downlink data packets so the
// arrays are sized once and one filling them (plus a sort only when the
// capture steps back in time), so every window query is two binary searches.
class CountedDownlink {
 public:
  CountedDownlink(const capture::FlowView& flow, bool quic);

  // The counted packets with begin < timestamp <= end; end < 0 means "until
  // the end of the flow".
  DownlinkWindow Window(TimeUs begin, TimeUs end) const;

 private:
  std::vector<TimeUs> times_;   // ascending
  std::vector<Bytes> prefix_;   // prefix_[i] = bytes of the first i packets
};

// Per-exchange size estimates for designs without transport MUX: downlink
// traffic between consecutive requests is one object (§5.3.1 Step 1.2).
std::vector<EstimatedExchange> EstimateExchanges(const capture::FlowView& flow,
                                                 bool quic);

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_SIZE_ESTIMATOR_H_
