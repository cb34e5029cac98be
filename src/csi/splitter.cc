#include "src/csi/splitter.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/telemetry.h"

namespace csi::infer {

std::vector<TrafficGroup> SplitCore(
    std::vector<DetectedRequest> requests,
    const std::vector<TimeUs>& downlink_times, bool have_packets,
    TimeUs last_packet_time, const SplitterConfig& config,
    const std::function<Bytes(TimeUs, TimeUs)>& estimate) {
  // The padded Initial (ClientHello) clears the request-size threshold but is
  // handshake, not HTTP: drop it so the first group starts at the first real
  // request and the server's handshake flight stays outside every group
  // window.
  std::erase_if(requests, [](const DetectedRequest& r) { return r.carries_sni; });
  std::vector<TrafficGroup> groups;
  if (requests.empty()) {
    return groups;
  }

  // Any downlink data strictly inside (lo, hi)? Simultaneous request pairs
  // (lo == hi) therefore always pass: data arriving at the same instant the
  // requests go out belongs to the downloads that just completed.
  auto downlink_in = [&downlink_times](TimeUs lo, TimeUs hi) {
    auto it = std::upper_bound(downlink_times.begin(), downlink_times.end(), lo);
    return it != downlink_times.end() && *it < hi;
  };
  auto last_activity_before = [&](TimeUs t, size_t req_idx) {
    TimeUs last = -1;
    auto it = std::lower_bound(downlink_times.begin(), downlink_times.end(), t);
    if (it != downlink_times.begin()) {
      last = *std::prev(it);
    }
    if (req_idx > 0) {
      last = std::max(last, requests[req_idx - 1].time);
    }
    return last;
  };

  // A request starts a new group if it follows an OFF gap (SP1) or begins a
  // simultaneous pair with no downlink data in between (SP2).
  std::vector<size_t> boundaries;
  boundaries.push_back(0);
  int64_t sp1_splits = 0;
  int64_t sp2_splits = 0;
  int64_t ambiguous_splits = 0;
  for (size_t i = 1; i < requests.size(); ++i) {
    const TimeUs t = requests[i].time;
    const TimeUs last = last_activity_before(t, i);
    const bool sp1 =
        config.enable_sp1 && last >= 0 && t - last >= config.idle_threshold;
    const bool sp2 = config.enable_sp2 && i + 1 < requests.size() &&
                     requests[i + 1].time - t <= config.simultaneity_window &&
                     !downlink_in(t, requests[i + 1].time);
    if (sp1 || sp2) {
      sp1_splits += sp1 ? 1 : 0;
      sp2_splits += sp2 ? 1 : 0;
      // Both signals firing on the same request: the paper treats SP1 and
      // SP2 as distinct evidence; agreement is expected, but tracking it
      // shows how often the split decision was over-determined vs. marginal.
      ambiguous_splits += (sp1 && sp2) ? 1 : 0;
      if (boundaries.back() != i) {
        boundaries.push_back(i);
      }
    }
  }
  CSI_COUNTER_INC("csi_splitter_flows_total");
  CSI_COUNTER_ADD("csi_splitter_requests_total", requests.size());
  CSI_COUNTER_ADD("csi_splitter_sp1_splits_total", sp1_splits);
  CSI_COUNTER_ADD("csi_splitter_sp2_splits_total", sp2_splits);
  CSI_COUNTER_ADD("csi_splitter_ambiguous_splits_total", ambiguous_splits);
  CSI_COUNTER_ADD("csi_splitter_groups_total", boundaries.size());

  for (size_t b = 0; b < boundaries.size(); ++b) {
    const size_t first = boundaries[b];
    const size_t next = b + 1 < boundaries.size() ? boundaries[b + 1] : requests.size();
    TrafficGroup group;
    group.requests.assign(requests.begin() + static_cast<long>(first),
                          requests.begin() + static_cast<long>(next));
    group.start_time = requests[first].time;
    group.end_time = next < requests.size() ? requests[next].time : -1;
    group.estimated_total = estimate(group.start_time, group.end_time);
    if (group.end_time < 0 && have_packets) {
      group.end_time = last_packet_time;
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<TrafficGroup> SplitIntoGroups(const capture::FlowView& flow,
                                          const SplitterConfig& config) {
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const uint32_t* payload = flow.payloads();
  const uint8_t* flags = flow.flags();

  // Downlink data packets (payload beyond the QUIC public header), sorted
  // because SplitCore binary-searches them and a capture may step back in
  // time.
  std::vector<TimeUs> downlink_times;
  for (size_t i = 0; i < n; ++i) {
    if ((flags[i] & capture::kFromClient) == 0 && payload[i] > net::kQuicHeaderBytes) {
      downlink_times.push_back(ts[i]);
    }
  }
  if (!std::is_sorted(downlink_times.begin(), downlink_times.end())) {
    std::sort(downlink_times.begin(), downlink_times.end());
  }

  // Every flow of the columns has a captured packet, held or not; the last
  // one closes the final group.
  const CountedDownlink counted(flow, /*quic=*/true);
  return SplitCore(DetectRequests(flow, /*quic=*/true), downlink_times,
                   /*have_packets=*/true, flow.last_time(), config,
                   [&counted](TimeUs begin, TimeUs end) {
                     return counted.Window(begin, end).bytes;
                   });
}

}  // namespace csi::infer
