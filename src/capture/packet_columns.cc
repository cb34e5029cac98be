#include "src/capture/packet_columns.h"

#include <map>
#include <numeric>
#include <utility>

#include "src/common/telemetry.h"

namespace csi::capture {

const std::string PacketColumns::empty_sni_;

PacketColumns PacketColumns::Build(const CaptureTrace& trace) {
  CSI_SPAN("column_build", {"packets", static_cast<int64_t>(trace.size())});
  PacketColumns c;
  const size_t n = trace.size();
  std::vector<uint32_t> flow_of(n);

  // Pass 1: intern flow keys in first-appearance order, count packets and
  // downlink bytes per flow and runs of equal flow ids, record first
  // non-empty SNIs, and intern the distinct SNI strings.
  std::map<FlowKey, uint32_t> flow_ids;
  std::map<std::string, int32_t> sni_ids;
  std::vector<uint32_t> counts;
  std::vector<int32_t> sni_of(n, -1);
  size_t runs = 0;
  for (size_t i = 0; i < n; ++i) {
    const PacketRecord& r = trace[i];
    const auto [it, inserted] = flow_ids.try_emplace(
        FlowKeyOf(r), static_cast<uint32_t>(c.flow_keys_.size()));
    if (inserted) {
      c.flow_keys_.push_back(it->first);
      c.flow_snis_.emplace_back();
      c.flow_downlink_.push_back(0);
      counts.push_back(0);
    }
    const uint32_t f = it->second;
    runs += (i == 0 || flow_of[i - 1] != f) ? 1 : 0;
    flow_of[i] = f;
    ++counts[f];
    if (!r.from_client) {
      c.flow_downlink_[f] += r.payload;
    }
    if (!r.sni.empty()) {
      if (c.flow_snis_[f].empty()) {
        c.flow_snis_[f] = r.sni;
      }
      const auto [sit, sni_inserted] = sni_ids.try_emplace(
          r.sni, static_cast<int32_t>(c.sni_table_.size()));
      if (sni_inserted) {
        c.sni_table_.push_back(sit->first);
      }
      sni_of[i] = sit->second;
    }
  }

  const size_t flows = c.flow_keys_.size();
  c.flow_begin_.resize(flows + 1, 0);
  for (size_t f = 0; f < flows; ++f) {
    c.flow_begin_[f + 1] = c.flow_begin_[f] + counts[f];
  }

  // Scatter map: flow-major slot of each capture index. When every flow's
  // packets are already contiguous, the runs appear in first-appearance (= id)
  // order, so the permutation is the identity and no cursors are needed.
  std::vector<uint32_t> slot_of(n);
  if (runs == flows) {
    std::iota(slot_of.begin(), slot_of.end(), 0u);
  } else {
    std::vector<size_t> cursor(c.flow_begin_.begin(),
                               c.flow_begin_.begin() + flows);
    for (size_t i = 0; i < n; ++i) {
      slot_of[i] = static_cast<uint32_t>(cursor[flow_of[i]]++);
    }
  }

  // Pass 2: scatter the scalar fields into the flow-major columns.
  c.ts_.resize(n);
  c.payload_.resize(n);
  c.wire_.resize(n);
  c.seq_.resize(n);
  c.ack_.resize(n);
  c.pn_.resize(n);
  c.dir_.resize(n);
  c.sni_ref_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const PacketRecord& r = trace[i];
    const uint32_t slot = slot_of[i];
    c.ts_[slot] = r.timestamp;
    c.payload_[slot] = r.payload;
    c.wire_[slot] = r.wire_size;
    c.seq_[slot] = r.tcp_seq;
    c.ack_[slot] = r.tcp_ack;
    c.pn_[slot] = r.quic_packet_number;
    c.dir_[slot] = r.from_client ? 1 : 0;
    c.sni_ref_[slot] = sni_of[i];
  }
  return c;
}

}  // namespace csi::capture
