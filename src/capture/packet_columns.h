// Columnar (structure-of-arrays) view of a capture trace.
//
// A `CaptureTrace` stores one 104-byte `PacketRecord` struct (plus an
// `std::string sni` that is empty for all but the rare ClientHello) per
// packet. CSI reads five things per packet: size, timing, direction, the TCP
// sequence number and the SNI. `PacketColumns` holds exactly those, as
// parallel flat columns that the cold-path stages (classify, split, request
// detection, size estimation, fingerprinting) scan with plain loops:
//
//   - int64 timestamp / payload columns,
//   - a uint64 tcp-seq column,
//   - a uint8 direction column holding exactly 0 or 1 (1 = client→server),
//   - a small-int SNI reference column pointing into a side table of the few
//     distinct SNI strings (SNIs are interned once per trace, not copied per
//     packet),
//   - a per-flow side table (5-tuple key, first non-empty SNI, downlink byte
//     total, column span) built in the same pass.
//
// 29 bytes per packet. Wire size, TCP ack and QUIC packet number stay in the
// records: no stage reads them.
//
// Storage is *flow-major*: each flow's packets occupy one contiguous span
// `[flow_begin(f), flow_end(f))` in within-flow capture order, and flow ids
// follow first-appearance order. A `FlowView` is a non-owning
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

#include "src/capture/packet_record.h"

namespace csi::capture {

// Reported by csi_build_info (see src/common/build_info.cc, which duplicates
// the literal to keep csi_common independent of csi_capture).
inline constexpr char kPacketLayoutVersion[] = "soa-v2";

class PacketColumns;

// Non-owning view of one flow's contiguous column span. Pointer accessors are
// already offset to the flow's first packet, so stages index 0..size().
struct FlowView {
  const PacketColumns* columns = nullptr;
  uint32_t flow = 0;
  size_t begin = 0;  // absolute column index of the flow's first packet
  size_t end = 0;    // one past the flow's last packet

  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }

  inline const int64_t* timestamps() const;
  inline const int64_t* payloads() const;
  inline const uint64_t* tcp_seqs() const;
  inline const uint8_t* from_client() const;
  inline bool has_sni(size_t i) const;  // i is view-relative
  inline const FlowKey& key() const;
  inline const std::string& sni() const;  // first non-empty SNI of the flow
};

class PacketColumns {
 public:
  // Transposes `trace` into columns in one pass over the records: it writes
  // every column in capture order while assigning flow ids in
  // first-appearance order. Only when the capture is not flow-contiguous
  // (flow-id run count != flow count) are the columns then scattered into
  // flow-major order, one column at a time. Timed under the `column_build`
  // stage span.
  static PacketColumns Build(const CaptureTrace& trace);

  size_t packet_count() const { return ts_.size(); }
  size_t flow_count() const { return flow_keys_.size(); }

  // Flow-major columns (size packet_count()).
  const int64_t* timestamps() const { return ts_.data(); }
  const int64_t* payloads() const { return payload_.data(); }
  const uint64_t* tcp_seqs() const { return seq_.data(); }
  const uint8_t* from_client() const { return dir_.data(); }

  // SNI reference column: -1 for no SNI, else an index into sni_table().
  const int32_t* sni_refs() const { return sni_ref_.data(); }
  const std::vector<std::string>& sni_table() const { return sni_table_; }
  // The SNI carried by flow-major slot `i` ("" when none).
  const std::string& sni_at(size_t i) const {
    return sni_ref_[i] < 0 ? empty_sni_ : sni_table_[sni_ref_[i]];
  }

  // Per-flow side tables (size flow_count(); ids are first-appearance order).
  const FlowKey& flow_key(uint32_t flow) const { return flow_keys_[flow]; }
  const std::string& flow_sni(uint32_t flow) const { return flow_snis_[flow]; }
  int64_t flow_downlink_bytes(uint32_t flow) const {
    return flow_downlink_[flow];
  }
  size_t flow_begin(uint32_t flow) const { return flow_begin_[flow]; }
  size_t flow_end(uint32_t flow) const { return flow_begin_[flow + 1]; }
  FlowView flow(uint32_t f) const {
    return FlowView{this, f, flow_begin(f), flow_end(f)};
  }

 private:
  std::vector<int64_t> ts_;
  std::vector<int64_t> payload_;
  std::vector<uint64_t> seq_;
  std::vector<uint8_t> dir_;
  std::vector<int32_t> sni_ref_;

  std::vector<FlowKey> flow_keys_;
  std::vector<std::string> flow_snis_;
  std::vector<int64_t> flow_downlink_;
  std::vector<size_t> flow_begin_;  // size flow_count() + 1

  std::vector<std::string> sni_table_;

  static const std::string empty_sni_;
};

inline const int64_t* FlowView::timestamps() const {
  return columns->timestamps() + begin;
}
inline const int64_t* FlowView::payloads() const {
  return columns->payloads() + begin;
}
inline const uint64_t* FlowView::tcp_seqs() const {
  return columns->tcp_seqs() + begin;
}
inline const uint8_t* FlowView::from_client() const {
  return columns->from_client() + begin;
}
inline bool FlowView::has_sni(size_t i) const {
  return columns->sni_refs()[begin + i] >= 0;
}
inline const FlowKey& FlowView::key() const { return columns->flow_key(flow); }
inline const std::string& FlowView::sni() const {
  return columns->flow_sni(flow);
}

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_PACKET_COLUMNS_H_
