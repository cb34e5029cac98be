// Columnar (structure-of-arrays) view of a capture trace, in flow-major
// order.
//
// CSI reads five things per packet: size, timing, direction, the TCP sequence
// number and whether the packet carries an SNI. `PacketColumns` holds exactly
// those, as parallel flat columns at the width a pcap carries them, which the
// cold-path stages (classify, split, request detection, size estimation,
// fingerprinting) scan with plain loops:
//
//   - an int64 timestamp column (microseconds: a pcap's 32-bit seconds times
//     10^6 does not fit in 32 bits),
//   - a uint32 payload column (a pcap's `orig_len` is 32 bits),
//   - a uint32 TCP sequence column (the TCP header's field is 32 bits),
//   - a uint8 flags column: kFromClient (client→server) and kCarriesSni,
//   - a per-flow side table (5-tuple key, first non-empty SNI, downlink byte
//     total, the timestamp of the flow's last captured packet, column span).
//     The flow's first SNI is the only SNI string any stage reads, so no
//     per-packet string is kept.
//
// Only packets that carry payload are held: 17 bytes per payload-carrying
// packet (8 + 4 + 4 + 1). A zero-payload packet (a pure TCP ACK, half of an
// HTTPS capture) is neither a request nor response data, so request
// detection, size estimation and the splitter's downlink scan all skip it.
// The one thing such a packet can still change is the time of its flow's
// last packet, which closes the splitter's final group; the side table keeps
// that time for every flow, whatever its last packet's payload. Flow keys,
// SNIs and downlink totals come from the whole capture.
//
// The `CaptureTrace` these are built from already stores the same columns in
// capture order at the same widths, plus TCP ack, QUIC packet number and flow
// id (29 bytes per packet), and its flow table, which counts each flow's
// payload-carrying packets as they are appended. No stage reads the three
// extra columns. So `Build` of a trace gives the same columns as `Build` of
// that trace written to a pcap and read back.
//
// Storage is *flow-major*: each flow's held packets occupy one contiguous
// span `[flow_begin(f), flow_end(f))` in within-flow capture order, and flow
// ids follow first-appearance order. A `FlowView` is a non-owning
// {columns, flow, span} triple that the estimator/splitter stages consume
// with zero per-flow packet copies. The cross-flow interleaving of the
// capture is not kept: no analysis stage reads it.
//
// `kPacketLayoutVersion` names this layout in `csi_build_info` so metrics and
// traces identify SoA builds.

#ifndef CSI_SRC_CAPTURE_PACKET_COLUMNS_H_
#define CSI_SRC_CAPTURE_PACKET_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/capture/capture_trace.h"

namespace csi::capture {

// Reported by csi_build_info (see src/common/build_info.cc, which duplicates
// the literal to keep csi_common independent of csi_capture).
inline constexpr char kPacketLayoutVersion[] = "soa-v4";

class PacketColumns;

// Non-owning view of one flow's contiguous column span: the flow's
// payload-carrying packets in capture order. Pointer accessors are already
// offset to the flow's first held packet, so stages index 0..size().
// `last_time()` is the timestamp of the flow's last captured packet, held or
// not.
struct FlowView {
  const PacketColumns* columns = nullptr;
  uint32_t flow = 0;
  size_t begin = 0;  // absolute column index of the flow's first held packet
  size_t end = 0;    // one past the flow's last held packet

  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }

  inline const int64_t* timestamps() const;
  inline const uint32_t* payloads() const;
  inline const uint32_t* tcp_seqs() const;
  inline const uint8_t* flags() const;
  inline const FlowKey& key() const;
  inline const std::string& sni() const;  // first non-empty SNI of the flow
  inline TimeUs last_time() const;
};

class PacketColumns {
 public:
  // Takes the flow table (keys, payload-carrying packet counts, downlink
  // totals) and each flow's first SNI from `trace`, reads each flow's last
  // packet time at the end of its last capture-order run, and copies the
  // timestamp, payload, sequence and flags of the packets with payload. When
  // the capture is flow-contiguous (as many capture-order runs of one flow as
  // flows) and every packet carries payload, the columns are copied as they
  // are; else each run's payload-carrying packets are moved into flow-major
  // order. Timed under the `column_build` stage span.
  static PacketColumns Build(const CaptureTrace& trace);

  // Held packets: those with payload > 0.
  size_t packet_count() const { return ts_.size(); }
  size_t flow_count() const { return flow_keys_.size(); }

  // Bytes the columns and the per-flow side tables hold: capacity() times
  // element size, summed.
  size_t held_bytes() const;

  // Flow-major columns (size packet_count()).
  const int64_t* timestamps() const { return ts_.data(); }
  const uint32_t* payloads() const { return payload_.data(); }
  const uint32_t* tcp_seqs() const { return seq_.data(); }
  const uint8_t* flags() const { return flags_.data(); }

  // Per-flow side tables (size flow_count(); ids are first-appearance order).
  const FlowKey& flow_key(uint32_t flow) const { return flow_keys_[flow]; }
  const std::string& flow_sni(uint32_t flow) const { return flow_snis_[flow]; }
  int64_t flow_downlink_bytes(uint32_t flow) const {
    return flow_downlink_[flow];
  }
  // Timestamp of the flow's last captured packet, whatever its payload.
  TimeUs flow_last_time(uint32_t flow) const { return flow_last_ts_[flow]; }
  size_t flow_begin(uint32_t flow) const { return flow_begin_[flow]; }
  size_t flow_end(uint32_t flow) const { return flow_begin_[flow + 1]; }
  FlowView flow(uint32_t f) const {
    return FlowView{this, f, flow_begin(f), flow_end(f)};
  }

 private:
  std::vector<int64_t> ts_;
  std::vector<uint32_t> payload_;
  std::vector<uint32_t> seq_;
  std::vector<uint8_t> flags_;

  std::vector<FlowKey> flow_keys_;
  std::vector<std::string> flow_snis_;
  std::vector<int64_t> flow_downlink_;
  std::vector<int64_t> flow_last_ts_;
  std::vector<size_t> flow_begin_;  // size flow_count() + 1
};

inline const int64_t* FlowView::timestamps() const {
  return columns->timestamps() + begin;
}
inline const uint32_t* FlowView::payloads() const {
  return columns->payloads() + begin;
}
inline const uint32_t* FlowView::tcp_seqs() const {
  return columns->tcp_seqs() + begin;
}
inline const uint8_t* FlowView::flags() const {
  return columns->flags() + begin;
}
inline const FlowKey& FlowView::key() const { return columns->flow_key(flow); }
inline const std::string& FlowView::sni() const {
  return columns->flow_sni(flow);
}
inline TimeUs FlowView::last_time() const { return columns->flow_last_time(flow); }

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_PACKET_COLUMNS_H_
