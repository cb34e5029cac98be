#include "src/csi/size_estimator.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "src/common/simd.h"

namespace csi::infer {
namespace {

// Two uplink TCP data packets closer than this are segments of one request
// message (requests themselves are separated by at least a response RTT).
constexpr TimeUs kRequestMergeGap = 25 * kUsPerMs;

// Per-thread scratch: candidate indices from the SIMD prefilter, the QUIC effective-payload column, and data-packet masks. Reused
// across calls so the cold batch loop does not churn the allocator.
struct ColumnScratch {
  std::vector<uint32_t> indices;
  std::vector<int64_t> eff;
  std::vector<uint8_t> mask;
};

ColumnScratch& Scratch() {
  static thread_local ColumnScratch scratch;
  return scratch;
}

// First-occurrence mask over a flow view: mask[i] = 1 exactly when packet i is
// the first downlink data packet with its TCP sequence number (duplicates are
// retransmissions, removed per §3.2), as 0/1 bytes for the SIMD kernels.
void FirstOccurrenceMask(const capture::FlowView& flow,
                         std::vector<uint8_t>* mask) {
  const size_t n = flow.size();
  mask->assign(n, 0);
  const uint8_t* dir = flow.from_client();
  const int64_t* payload = flow.payloads();
  const uint64_t* seq = flow.tcp_seqs();
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < n; ++i) {
    if (dir[i] != 0 || payload[i] <= 0) {
      continue;
    }
    (*mask)[i] = seen.insert(seq[i]).second ? 1 : 0;
  }
}

}  // namespace

std::vector<DetectedRequest> DetectRequests(const capture::FlowView& flow,
                                            bool quic) {
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const int64_t* payload = flow.payloads();
  const uint8_t* dir = flow.from_client();
  ColumnScratch& scratch = Scratch();
  scratch.indices.resize(n);
  std::vector<DetectedRequest> requests;
  if (quic) {
    // Uplink packets at or above the request threshold, straight from the
    // SIMD boundary scan.
    const size_t hits = simd::CollectIndices(
        dir, 1, payload, kQuicRequestThreshold, n, scratch.indices.data());
    requests.reserve(hits);
    for (size_t h = 0; h < hits; ++h) {
      const uint32_t i = scratch.indices[h];
      requests.push_back(DetectedRequest{ts[i], flow.has_sni(i)});
    }
    return requests;
  }
  // HTTPS: SIMD prefilter to uplink data packets, then a stateful walk over
  // the (few) candidates that drops retransmissions (duplicate sequence
  // numbers) and merges segments of one multi-segment request message
  // (contiguous in sequence and near-simultaneous).
  const size_t hits =
      simd::CollectIndices(dir, 1, payload, 1, n, scratch.indices.data());
  const uint64_t* seq = flow.tcp_seqs();
  std::unordered_set<uint64_t> seen;
  uint64_t last_end_seq = 0;
  TimeUs last_time = -kUsPerSec;
  bool have_last = false;
  for (size_t h = 0; h < hits; ++h) {
    const uint32_t i = scratch.indices[h];
    if (!seen.insert(seq[i]).second) {
      continue;  // retransmission
    }
    const bool contiguous = have_last && seq[i] == last_end_seq;
    const bool near = ts[i] - last_time <= kRequestMergeGap;
    if (contiguous && near) {
      last_end_seq = seq[i] + static_cast<uint64_t>(payload[i]);
      last_time = ts[i];
      if (flow.has_sni(i)) {
        requests.back().carries_sni = true;
      }
      continue;
    }
    requests.push_back(DetectedRequest{ts[i], flow.has_sni(i)});
    last_end_seq = seq[i] + static_cast<uint64_t>(payload[i]);
    last_time = ts[i];
    have_last = true;
  }
  return requests;
}

Bytes EstimateDownlinkBytes(const capture::FlowView& flow, bool quic,
                            TimeUs begin, TimeUs end) {
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const int64_t* payload = flow.payloads();
  const uint8_t* dir = flow.from_client();
  ColumnScratch& scratch = Scratch();
  scratch.eff.resize(n);
  if (quic) {
    // max(payload - header, 0) is already 0 for uplink and non-data packets,
    // so one masked transform plus one windowed sum gives the estimate.
    simd::MaskedQuicPayload(dir, payload, n, net::kQuicHeaderBytes,
                            scratch.eff.data());
  } else {
    FirstOccurrenceMask(flow, &scratch.mask);
    for (size_t i = 0; i < n; ++i) {
      scratch.eff[i] = scratch.mask[i] != 0 ? payload[i] : 0;
    }
  }
  return simd::SumInWindow(ts, scratch.eff.data(), n, begin, end);
}

std::vector<EstimatedExchange> EstimateExchanges(const capture::FlowView& flow,
                                                 bool quic) {
  const std::vector<DetectedRequest> requests = DetectRequests(flow, quic);
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const int64_t* payload = flow.payloads();
  const uint8_t* dir = flow.from_client();
  ColumnScratch& scratch = Scratch();
  scratch.eff.resize(n);
  if (quic) {
    simd::MaskedQuicPayload(dir, payload, n, net::kQuicHeaderBytes,
                            scratch.eff.data());
    // last_data_time advances for every downlink data packet in the window,
    // even when the header strip leaves 0 bytes — so the time mask is
    // downlink && payload > 0, independent of the size column.
    scratch.mask.resize(n);
    for (size_t i = 0; i < n; ++i) {
      scratch.mask[i] = (dir[i] == 0 && payload[i] > 0) ? 1 : 0;
    }
  } else {
    // HTTPS counts (and timestamps) first-occurrence downlink packets only.
    FirstOccurrenceMask(flow, &scratch.mask);
    for (size_t i = 0; i < n; ++i) {
      scratch.eff[i] = scratch.mask[i] != 0 ? payload[i] : 0;
    }
  }
  std::vector<EstimatedExchange> exchanges;
  exchanges.reserve(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    const TimeUs begin = requests[r].time;
    const TimeUs end = r + 1 < requests.size() ? requests[r + 1].time : -1;
    EstimatedExchange ex;
    ex.request_time = begin;
    ex.carries_sni = requests[r].carries_sni;
    ex.estimated_size = simd::SumInWindow(ts, scratch.eff.data(), n, begin, end);
    const int64_t last =
        simd::MaxTsInWindow(ts, scratch.mask.data(), n, begin, end);
    ex.last_data_time = last == INT64_MIN ? begin : last;
    exchanges.push_back(ex);
  }
  return exchanges;
}

}  // namespace csi::infer
