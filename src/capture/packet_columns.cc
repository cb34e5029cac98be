#include "src/capture/packet_columns.h"

#include <map>
#include <utility>

#include "src/common/telemetry.h"

namespace csi::capture {
namespace {

// Moves column entry i to flow-major slot slot[i].
template <typename T>
void Scatter(const std::vector<uint32_t>& slot, std::vector<T>* column) {
  std::vector<T> out(column->size());
  for (size_t i = 0; i < slot.size(); ++i) {
    out[slot[i]] = (*column)[i];
  }
  column->swap(out);
}

}  // namespace

const std::string PacketColumns::empty_sni_;

PacketColumns PacketColumns::Build(const CaptureTrace& trace) {
  CSI_SPAN("column_build", {"packets", static_cast<int64_t>(trace.size())});
  PacketColumns c;
  const size_t n = trace.size();
  c.ts_.reserve(n);
  c.payload_.reserve(n);
  c.seq_.reserve(n);
  c.dir_.reserve(n);
  c.sni_ref_.reserve(n);
  std::vector<uint32_t> flow_of;
  flow_of.reserve(n);

  // One pass in capture order: write every column, intern flow keys in
  // first-appearance order (a packet of the previous packet's flow skips the
  // map), count packets and downlink bytes per flow and runs of equal flow
  // ids, record first non-empty SNIs, and intern the distinct SNI strings.
  std::map<FlowKey, uint32_t> flow_ids;
  std::map<std::string, int32_t> sni_ids;
  std::vector<size_t> counts;
  size_t runs = 0;
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
      ++runs;
    }
    flow_of.push_back(f);
    ++counts[f];
    if (!r.from_client) {
      c.flow_downlink_[f] += r.payload;
    }
    int32_t sni_ref = -1;
    if (!r.sni.empty()) {
      if (c.flow_snis_[f].empty()) {
        c.flow_snis_[f] = r.sni;
      }
      const auto [sit, sni_inserted] =
          sni_ids.try_emplace(r.sni, static_cast<int32_t>(c.sni_table_.size()));
      if (sni_inserted) {
        c.sni_table_.push_back(sit->first);
      }
      sni_ref = sit->second;
    }
    c.ts_.push_back(r.timestamp);
    c.payload_.push_back(r.payload);
    c.seq_.push_back(r.tcp_seq);
    c.dir_.push_back(r.from_client ? 1 : 0);
    c.sni_ref_.push_back(sni_ref);
  }

  const size_t flows = c.flow_keys_.size();
  c.flow_begin_.resize(flows + 1, 0);
  for (size_t g = 0; g < flows; ++g) {
    c.flow_begin_[g + 1] = c.flow_begin_[g] + counts[g];
  }

  // When every flow's packets are already contiguous, the runs appear in
  // first-appearance (= id) order and capture order is flow-major. Otherwise
  // turn each packet's flow id into its flow-major slot, in place, and move
  // every column there.
  if (runs != flows) {
    std::vector<size_t> cursor(c.flow_begin_.begin(), c.flow_begin_.begin() + flows);
    for (uint32_t& slot : flow_of) {
      slot = static_cast<uint32_t>(cursor[slot]++);
    }
    Scatter(flow_of, &c.ts_);
    Scatter(flow_of, &c.payload_);
    Scatter(flow_of, &c.seq_);
    Scatter(flow_of, &c.dir_);
    Scatter(flow_of, &c.sni_ref_);
  }
  return c;
}

}  // namespace csi::capture
