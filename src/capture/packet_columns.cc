#include "src/capture/packet_columns.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "src/common/telemetry.h"

namespace csi::capture {
namespace {

// A maximal stretch of consecutive capture-order packets of one flow.
struct Run {
  size_t start = 0;  // capture-order index of the run's first packet
  uint32_t flow = 0;
};

// Moves run k of `column`, [runs[k].start, runs[k + 1].start), to its
// flow-major start dest[k]. The last run is a sentinel at the column's end.
template <typename T>
void ScatterRuns(const std::vector<Run>& runs, const std::vector<size_t>& dest,
                 std::vector<T>* column) {
  std::vector<T> out(column->size());
  for (size_t k = 0; k + 1 < runs.size(); ++k) {
    std::copy(column->begin() + static_cast<ptrdiff_t>(runs[k].start),
              column->begin() + static_cast<ptrdiff_t>(runs[k + 1].start),
              out.begin() + static_cast<ptrdiff_t>(dest[k]));
  }
  column->swap(out);
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
  c.ts_.reserve(n);
  c.payload_.reserve(n);
  c.seq_.reserve(n);
  c.flags_.reserve(n);

  // One pass in capture order: write every column, intern flow keys in
  // first-appearance order (a packet of the previous packet's flow skips the
  // map), count packets and downlink bytes per flow, record the capture-order
  // runs of one flow, and keep each flow's first non-empty SNI.
  std::map<FlowKey, uint32_t> flow_ids;
  std::vector<size_t> counts;
  std::vector<Run> runs;
  FlowKey run_key;
  uint32_t f = 0;
  for (size_t i = 0; i < n; ++i) {
    const PacketRecord& r = trace[i];
    const FlowKey key = FlowKeyOf(r);
    if (i == 0 || key != run_key) {
      const auto [it, inserted] =
          flow_ids.try_emplace(key, static_cast<uint32_t>(c.flow_keys_.size()));
      if (inserted) {
        c.flow_keys_.push_back(key);
        c.flow_snis_.emplace_back();
        c.flow_downlink_.push_back(0);
        counts.push_back(0);
      }
      f = it->second;
      run_key = key;
      runs.push_back(Run{i, f});
    }
    ++counts[f];
    uint8_t flags = 0;
    if (r.from_client) {
      flags |= kFromClient;
    } else {
      c.flow_downlink_[f] += r.payload;
    }
    if (!r.sni.empty()) {
      flags |= kCarriesSni;
      if (c.flow_snis_[f].empty()) {
        c.flow_snis_[f] = r.sni;
      }
    }
    c.ts_.push_back(r.timestamp);
    c.payload_.push_back(r.payload);
    c.seq_.push_back(r.tcp_seq);
    c.flags_.push_back(flags);
  }

  const size_t flows = c.flow_keys_.size();
  c.flow_begin_.resize(flows + 1, 0);
  for (size_t g = 0; g < flows; ++g) {
    c.flow_begin_[g + 1] = c.flow_begin_[g] + counts[g];
  }

  // When every flow's packets are already contiguous, the runs appear in
  // first-appearance (= id) order and capture order is flow-major. Otherwise
  // give each run its flow-major start and move every column there.
  if (runs.size() != flows) {
    runs.push_back(Run{n, 0});
    std::vector<size_t> cursor(c.flow_begin_.begin(), c.flow_begin_.begin() + flows);
    std::vector<size_t> dest(runs.size() - 1);
    for (size_t k = 0; k < dest.size(); ++k) {
      dest[k] = cursor[runs[k].flow];
      cursor[runs[k].flow] += runs[k + 1].start - runs[k].start;
    }
    ScatterRuns(runs, dest, &c.ts_);
    ScatterRuns(runs, dest, &c.payload_);
    ScatterRuns(runs, dest, &c.seq_);
    ScatterRuns(runs, dest, &c.flags_);
  }
  return c;
}

size_t PacketColumns::held_bytes() const {
  return CapacityBytes(ts_) + CapacityBytes(payload_) + CapacityBytes(seq_) +
         CapacityBytes(flags_) + CapacityBytes(flow_keys_) + CapacityBytes(flow_snis_) +
         CapacityBytes(flow_downlink_) + CapacityBytes(flow_begin_);
}

}  // namespace csi::capture
