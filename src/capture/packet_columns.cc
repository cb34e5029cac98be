#include "src/capture/packet_columns.h"

#include <string>

#include "src/common/telemetry.h"

namespace csi::capture {
namespace {

// A maximal stretch of consecutive capture-order packets of one flow.
struct Run {
  size_t start = 0;  // capture-order index of the run's first packet
  uint32_t flow = 0;
};

template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

PacketColumns PacketColumns::Build(const CaptureTrace& trace) {
  CSI_SPAN("column_build", {"packets", static_cast<int64_t>(trace.size())});
  PacketColumns c;
  const size_t n = trace.size();
  const size_t flows = trace.flow_keys().size();
  c.flow_keys_ = trace.flow_keys();
  c.flow_downlink_ = trace.flow_downlink_bytes();
  c.flow_snis_.resize(flows);
  for (const CaptureTrace::Sni& sni : trace.snis()) {
    std::string& first = c.flow_snis_[trace.flow_ids()[sni.packet]];
    if (first.empty()) {
      first = sni.name;
    }
  }
  c.flow_begin_.resize(flows + 1, 0);
  for (size_t g = 0; g < flows; ++g) {
    c.flow_begin_[g + 1] = c.flow_begin_[g] + trace.flow_data_packets()[g];
  }
  const size_t held = c.flow_begin_[flows];

  // The capture-order runs, with a sentinel at the end. When every flow's
  // packets are already contiguous, the runs are the flows in
  // first-appearance (= id) order and need no scan.
  const std::vector<uint32_t>& flow = trace.flow_ids();
  const bool contiguous = trace.runs() == flows;
  std::vector<Run> runs;
  runs.reserve(trace.runs() + 1);
  if (contiguous) {
    size_t start = 0;
    for (uint32_t g = 0; g < flows; ++g) {
      runs.push_back(Run{start, g});
      start += trace.flow_packets()[g];
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (i == 0 || flow[i] != flow[i - 1]) {
        runs.push_back(Run{i, flow[i]});
      }
    }
  }
  runs.push_back(Run{n, 0});
  // A flow's last run in capture order ends at its last packet.
  const std::vector<int64_t>& ts = trace.timestamps();
  c.flow_last_ts_.resize(flows);
  for (size_t k = 0; k + 1 < runs.size(); ++k) {
    c.flow_last_ts_[runs[k].flow] = ts[runs[k + 1].start - 1];
  }

  // Capture order is flow-major already: copy the columns as they are.
  if (contiguous && held == n) {
    c.ts_ = ts;
    c.payload_ = trace.payloads();
    c.seq_ = trace.tcp_seqs();
    c.flags_ = trace.flags();
    return c;
  }
  // Otherwise move each run's payload-carrying packets to its flow's cursor.
  // Every packet up to the run's last payload-carrying one is written at the
  // cursor, which moves on only past a kept packet, so the loop has no branch
  // on the payload and never writes past the run's share of the flow's span.
  const int64_t* const time = ts.data();
  const uint32_t* const payload = trace.payloads().data();
  const uint32_t* const seq = trace.tcp_seqs().data();
  const uint8_t* const flags = trace.flags().data();
  c.ts_.resize(held);
  c.payload_.resize(held);
  c.seq_.resize(held);
  c.flags_.resize(held);
  int64_t* const out_ts = c.ts_.data();
  uint32_t* const out_payload = c.payload_.data();
  uint32_t* const out_seq = c.seq_.data();
  uint8_t* const out_flags = c.flags_.data();
  std::vector<size_t> cursor(c.flow_begin_.begin(), c.flow_begin_.begin() + flows);
  for (size_t k = 0; k + 1 < runs.size(); ++k) {
    const size_t begin = runs[k].start;
    size_t end = runs[k + 1].start;
    while (end > begin && payload[end - 1] == 0) {
      --end;
    }
    size_t j = cursor[runs[k].flow];
    for (size_t i = begin; i < end; ++i) {
      out_ts[j] = time[i];
      out_payload[j] = payload[i];
      out_seq[j] = seq[i];
      out_flags[j] = flags[i];
      j += payload[i] != 0 ? 1 : 0;
    }
    cursor[runs[k].flow] = j;
  }
  return c;
}

size_t PacketColumns::held_bytes() const {
  return CapacityBytes(ts_) + CapacityBytes(payload_) + CapacityBytes(seq_) +
         CapacityBytes(flags_) + CapacityBytes(flow_keys_) + CapacityBytes(flow_snis_) +
         CapacityBytes(flow_downlink_) + CapacityBytes(flow_last_ts_) +
         CapacityBytes(flow_begin_);
}

}  // namespace csi::capture
