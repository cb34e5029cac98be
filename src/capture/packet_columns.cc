#include "src/capture/packet_columns.h"

#include <algorithm>
#include <string>

#include "src/common/telemetry.h"

namespace csi::capture {
namespace {

// A maximal stretch of consecutive capture-order packets of one flow.
struct Run {
  size_t start = 0;  // capture-order index of the run's first packet
  uint32_t flow = 0;
};

// Copies run k of `column`, [runs[k].start, runs[k + 1].start), to its
// flow-major start dest[k]. The last run is a sentinel at the column's end.
template <typename T>
std::vector<T> ScatterRuns(const std::vector<Run>& runs, const std::vector<size_t>& dest,
                           const std::vector<T>& column) {
  std::vector<T> out(column.size());
  for (size_t k = 0; k + 1 < runs.size(); ++k) {
    std::copy(column.begin() + static_cast<ptrdiff_t>(runs[k].start),
              column.begin() + static_cast<ptrdiff_t>(runs[k + 1].start),
              out.begin() + static_cast<ptrdiff_t>(dest[k]));
  }
  return out;
}

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
    c.flow_begin_[g + 1] = c.flow_begin_[g] + trace.flow_packets()[g];
  }

  // When every flow's packets are already contiguous, the runs appear in
  // first-appearance (= id) order and capture order is flow-major.
  if (trace.runs() == flows) {
    c.ts_ = trace.timestamps();
    c.payload_ = trace.payloads();
    c.seq_ = trace.tcp_seqs();
    c.flags_ = trace.flags();
    return c;
  }
  // Otherwise give each run its flow-major start and copy every column there.
  const std::vector<uint32_t>& flow = trace.flow_ids();
  std::vector<Run> runs;
  runs.reserve(trace.runs() + 1);
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || flow[i] != flow[i - 1]) {
      runs.push_back(Run{i, flow[i]});
    }
  }
  runs.push_back(Run{n, 0});
  std::vector<size_t> cursor(c.flow_begin_.begin(), c.flow_begin_.begin() + flows);
  std::vector<size_t> dest(runs.size() - 1);
  for (size_t k = 0; k < dest.size(); ++k) {
    dest[k] = cursor[runs[k].flow];
    cursor[runs[k].flow] += runs[k + 1].start - runs[k].start;
  }
  c.ts_ = ScatterRuns(runs, dest, trace.timestamps());
  c.payload_ = ScatterRuns(runs, dest, trace.payloads());
  c.seq_ = ScatterRuns(runs, dest, trace.tcp_seqs());
  c.flags_ = ScatterRuns(runs, dest, trace.flags());
  return c;
}

size_t PacketColumns::held_bytes() const {
  return CapacityBytes(ts_) + CapacityBytes(payload_) + CapacityBytes(seq_) +
         CapacityBytes(flags_) + CapacityBytes(flow_keys_) + CapacityBytes(flow_snis_) +
         CapacityBytes(flow_downlink_) + CapacityBytes(flow_begin_);
}

}  // namespace csi::capture
