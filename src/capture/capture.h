// Gateway capture tap.
//
// The testbed inserts a `GatewayTap` where the paper runs tcpdump on the
// gateway (Fig. 6): every packet traversing either direction is projected
// into a `PacketRecord` and appended to the trace.

#ifndef CSI_SRC_CAPTURE_CAPTURE_H_
#define CSI_SRC_CAPTURE_CAPTURE_H_

#include "src/capture/capture_trace.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace csi::capture {

class GatewayTap {
 public:
  explicit GatewayTap(sim::Simulator* sim) : sim_(sim) {}

  // Wraps `next` so that packets are recorded as they pass through.
  net::PacketSink Tap(net::PacketSink next);

  const CaptureTrace& trace() const { return trace_; }
  CaptureTrace TakeTrace() { return std::move(trace_); }

 private:
  sim::Simulator* sim_;
  CaptureTrace trace_;
};

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_CAPTURE_H_
