#include "src/csi/size_estimator.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

namespace csi::infer {
namespace {

// Two uplink TCP data packets closer than this are segments of one request
// message (requests themselves are separated by at least a response RTT).
constexpr TimeUs kRequestMergeGap = 25 * kUsPerMs;

// The TCP sequence numbers a flow has shown so far, for dropping
// retransmissions: the first packet with a number counts, whatever its
// timestamp. Numbers mostly arrive ascending, so a number above every earlier
// one is appended to a sorted vector with no lookup. Any other number is
// binary-searched there, and only the out-of-order first occurrences go into
// a hash set.
class SeenSequences {
 public:
  // Room for `count` ascending numbers.
  void reserve(size_t count) { ascending_.reserve(count); }

  // True the first time `seq` is offered.
  bool Insert(uint32_t seq) {
    if (ascending_.empty() || seq > ascending_.back()) {
      ascending_.push_back(seq);
      return true;
    }
    if (std::binary_search(ascending_.begin(), ascending_.end(), seq)) {
      return false;
    }
    return out_of_order_.insert(seq).second;
  }

 private:
  std::vector<uint32_t> ascending_;  // strictly increasing
  std::unordered_set<uint32_t> out_of_order_;
};

}  // namespace

std::vector<DetectedRequest> DetectRequests(const capture::FlowView& flow,
                                            bool quic) {
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const uint32_t* payload = flow.payloads();
  const uint8_t* flags = flow.flags();
  std::vector<DetectedRequest> requests;
  if (quic) {
    for (size_t i = 0; i < n; ++i) {
      if ((flags[i] & capture::kFromClient) != 0 && payload[i] >= kQuicRequestThreshold) {
        requests.push_back(DetectedRequest{ts[i], (flags[i] & capture::kCarriesSni) != 0});
      }
    }
    return requests;
  }
  // HTTPS: a stateful walk over the uplink data packets that drops
  // retransmissions (duplicate sequence numbers) and merges segments of one
  // multi-segment request message (contiguous in sequence and
  // near-simultaneous). Sequence numbers are 32 bits, so the end of a
  // segment wraps modulo 2^32: a message may straddle the wrap.
  const uint32_t* seq = flow.tcp_seqs();
  SeenSequences seen;
  uint32_t last_end_seq = 0;
  TimeUs last_time = -kUsPerSec;
  bool have_last = false;
  for (size_t i = 0; i < n; ++i) {
    if ((flags[i] & capture::kFromClient) == 0 || payload[i] == 0) {
      continue;
    }
    if (!seen.Insert(seq[i])) {
      continue;  // retransmission
    }
    const bool carries_sni = (flags[i] & capture::kCarriesSni) != 0;
    const bool contiguous = have_last && seq[i] == last_end_seq;
    const bool near = ts[i] - last_time <= kRequestMergeGap;
    last_end_seq = seq[i] + payload[i];
    last_time = ts[i];
    if (contiguous && near) {
      requests.back().carries_sni |= carries_sni;
      continue;
    }
    requests.push_back(DetectedRequest{ts[i], carries_sni});
    have_last = true;
  }
  return requests;
}

CountedDownlink::CountedDownlink(const capture::FlowView& flow, bool quic) {
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const uint32_t* payload = flow.payloads();
  const uint8_t* flags = flow.flags();
  const uint32_t* seq = flow.tcp_seqs();
  auto downlink_data = [&](size_t i) {
    return (flags[i] & capture::kFromClient) == 0 && payload[i] != 0;
  };
  size_t data_packets = 0;
  for (size_t i = 0; i < n; ++i) {
    data_packets += downlink_data(i) ? 1 : 0;
  }
  times_.reserve(data_packets);
  prefix_.reserve(data_packets + 1);
  prefix_.push_back(0);
  // Retransmissions are removed in capture order (§3.2).
  SeenSequences seen;
  if (!quic) {
    seen.reserve(data_packets);
  }
  bool sorted = true;
  for (size_t i = 0; i < n; ++i) {
    if (!downlink_data(i)) {
      continue;
    }
    Bytes bytes = payload[i];
    if (quic) {
      bytes = std::max<Bytes>(bytes - net::kQuicHeaderBytes, 0);
    } else if (!seen.Insert(seq[i])) {
      continue;
    }
    sorted = sorted && (times_.empty() || ts[i] >= times_.back());
    times_.push_back(ts[i]);
    prefix_.push_back(prefix_.back() + bytes);
  }
  if (sorted) {
    return;
  }
  // The capture stepped back in time: order the packets by time. Window sums
  // do not depend on the order of equal times.
  std::vector<std::pair<TimeUs, Bytes>> counted(times_.size());
  for (size_t k = 0; k < times_.size(); ++k) {
    counted[k] = {times_[k], prefix_[k + 1] - prefix_[k]};
  }
  std::sort(counted.begin(), counted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t k = 0; k < counted.size(); ++k) {
    times_[k] = counted[k].first;
    prefix_[k + 1] = prefix_[k] + counted[k].second;
  }
}

DownlinkWindow CountedDownlink::Window(TimeUs begin, TimeUs end) const {
  const auto lo = std::upper_bound(times_.begin(), times_.end(), begin);
  const auto hi = end < 0 ? times_.end()
                          : std::max(lo, std::upper_bound(times_.begin(), times_.end(), end));
  if (hi == lo) {
    return DownlinkWindow{0, begin};
  }
  return DownlinkWindow{prefix_[hi - times_.begin()] - prefix_[lo - times_.begin()],
                        *std::prev(hi)};
}

std::vector<EstimatedExchange> EstimateExchanges(const capture::FlowView& flow,
                                                 bool quic) {
  const std::vector<DetectedRequest> requests = DetectRequests(flow, quic);
  const CountedDownlink counted(flow, quic);
  std::vector<EstimatedExchange> exchanges;
  exchanges.reserve(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    const TimeUs begin = requests[r].time;
    const TimeUs end = r + 1 < requests.size() ? requests[r + 1].time : -1;
    const DownlinkWindow window = counted.Window(begin, end);
    EstimatedExchange ex;
    ex.request_time = begin;
    ex.carries_sni = requests[r].carries_sni;
    ex.estimated_size = window.bytes;
    ex.last_data_time = window.last_data_time;
    exchanges.push_back(ex);
  }
  return exchanges;
}

}  // namespace csi::infer
