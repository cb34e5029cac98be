// Deliberately naive reference for Step 1 (paper §5.3.1), test-only.
//
// The production stages run over PacketColumns in one pass per flow, with
// every estimator and splitter window answered from one per-flow prefix sum
// (infer::CountedDownlink). This oracle restates the same definitions over
// plain PacketRecord vectors, in the most direct way:
//
//   - flows are split out of the capture first (one packet vector per
//     5-tuple, in first-appearance order) and only then filtered by the SNI /
//     server-IP rule;
//   - HTTPS retransmissions are found with a std::set of seen sequence
//     numbers, taken modulo 2^32 as the TCP header carries them;
//   - every exchange and every window rescans the whole flow, so size
//     estimation is O(requests × packets) and needs no sorted timestamps;
//   - SP1/SP2 splitting hands oracle requests, sorted downlink times and
//     byte sums to the layout-free split core (infer::SplitCore), so the
//     oracle checks everything the columnar splitter computes before that
//     core.
//
// ExpectColumnarMatchesOracle compares every columnar stage against it on
// one capture. The oracle's stages read every record, zero-payload ones
// included, while the columns hold only the payload-carrying ones.

#ifndef CSI_TESTS_NAIVE_ORACLE_H_
#define CSI_TESTS_NAIVE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/capture_trace.h"
#include "src/capture/packet_columns.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/size_estimator.h"
#include "src/csi/splitter.h"

namespace csi::oracle {

// Two uplink TCP data packets closer than this are segments of one request
// message.
inline constexpr TimeUs kRequestMergeGap = 25 * kUsPerMs;

struct Flow {
  capture::FlowKey key;
  std::string sni;  // first non-empty SNI of the flow
  std::vector<capture::PacketRecord> packets;  // in capture order
  Bytes downlink_bytes = 0;
};

// All flows in the capture, in order of first appearance.
inline std::vector<Flow> SplitFlows(const capture::CaptureTrace& trace) {
  std::vector<Flow> flows;
  for (const capture::PacketRecord& p : trace) {
    const capture::FlowKey key = FlowKeyOf(p);
    auto it = std::find_if(flows.begin(), flows.end(),
                           [&key](const Flow& f) { return f.key == key; });
    if (it == flows.end()) {
      flows.push_back(Flow{key, "", {}, 0});
      it = std::prev(flows.end());
    }
    if (it->sni.empty()) {
      it->sni = p.sni;
    }
    if (!p.from_client) {
      it->downlink_bytes += p.payload;
    }
    it->packets.push_back(p);
  }
  return flows;
}

// The flows whose SNI ends in `host_suffix`, or — when a flow never showed an
// SNI — whose server IP is in `known_server_ips`.
inline std::vector<Flow> ClassifyMediaFlows(const capture::CaptureTrace& trace,
                                            const std::string& host_suffix,
                                            const std::set<uint32_t>& known_server_ips = {}) {
  std::vector<Flow> media;
  for (Flow& flow : SplitFlows(trace)) {
    const bool sni_match = !flow.sni.empty() && flow.sni.ends_with(host_suffix);
    const bool ip_match = flow.sni.empty() && known_server_ips.count(flow.key.server_ip) > 0;
    if (sni_match || ip_match) {
      media.push_back(std::move(flow));
    }
  }
  return media;
}

// HTTPS: uplink packets with payload, minus retransmitted sequence numbers,
// with the segments of one multi-segment message (contiguous in sequence and
// near-simultaneous) merged. QUIC: uplink packets of at least the request
// threshold.
inline std::vector<infer::DetectedRequest> DetectRequests(
    const std::vector<capture::PacketRecord>& flow, bool quic) {
  std::vector<infer::DetectedRequest> requests;
  if (quic) {
    for (const capture::PacketRecord& p : flow) {
      if (p.from_client && p.payload >= infer::kQuicRequestThreshold) {
        requests.push_back(infer::DetectedRequest{p.timestamp, !p.sni.empty()});
      }
    }
    return requests;
  }
  std::set<uint32_t> seen;
  bool have_last = false;
  uint32_t last_end_seq = 0;  // wire sequence numbers wrap at 2^32
  TimeUs last_time = 0;
  for (const capture::PacketRecord& p : flow) {
    if (!p.from_client || p.payload <= 0 ||
        !seen.insert(static_cast<uint32_t>(p.tcp_seq)).second) {
      continue;
    }
    const bool continuation = have_last && static_cast<uint32_t>(p.tcp_seq) == last_end_seq &&
                              p.timestamp - last_time <= kRequestMergeGap;
    if (continuation) {
      requests.back().carries_sni |= !p.sni.empty();
    } else {
      requests.push_back(infer::DetectedRequest{p.timestamp, !p.sni.empty()});
    }
    have_last = true;
    last_end_seq = static_cast<uint32_t>(p.tcp_seq + static_cast<uint64_t>(p.payload));
    last_time = p.timestamp;
  }
  return requests;
}

// True for the downlink data packets that count toward an estimate: every
// one for QUIC, only the first with each sequence number for HTTPS.
inline std::vector<bool> CountedDownlink(const std::vector<capture::PacketRecord>& flow,
                                         bool quic) {
  std::vector<bool> counted(flow.size(), false);
  std::set<uint32_t> seen;
  for (size_t i = 0; i < flow.size(); ++i) {
    const capture::PacketRecord& p = flow[i];
    if (!p.from_client && p.payload > 0) {
      counted[i] = quic || seen.insert(static_cast<uint32_t>(p.tcp_seq)).second;
    }
  }
  return counted;
}

// Estimated object bytes of one counted packet: the UDP payload minus the
// QUIC public header, or the whole TCP payload.
inline Bytes ObjectBytes(const capture::PacketRecord& p, bool quic) {
  return quic ? std::max<Bytes>(p.payload - net::kQuicHeaderBytes, 0) : p.payload;
}

inline bool InWindow(TimeUs t, TimeUs begin, TimeUs end) {
  return t > begin && (end < 0 || t <= end);
}

// Estimated downlink object bytes in (begin, end]; end < 0 = to the end.
inline Bytes EstimateDownlinkBytes(const std::vector<capture::PacketRecord>& flow, bool quic,
                                   TimeUs begin, TimeUs end) {
  const std::vector<bool> counted = CountedDownlink(flow, quic);
  Bytes total = 0;
  for (size_t i = 0; i < flow.size(); ++i) {
    if (counted[i] && InWindow(flow[i].timestamp, begin, end)) {
      total += ObjectBytes(flow[i], quic);
    }
  }
  return total;
}

// One exchange per request: the counted downlink data up to the next request.
inline std::vector<infer::EstimatedExchange> EstimateExchanges(
    const std::vector<capture::PacketRecord>& flow, bool quic) {
  const std::vector<infer::DetectedRequest> requests = DetectRequests(flow, quic);
  const std::vector<bool> counted = CountedDownlink(flow, quic);
  std::vector<infer::EstimatedExchange> exchanges;
  for (size_t r = 0; r < requests.size(); ++r) {
    const TimeUs begin = requests[r].time;
    const TimeUs end = r + 1 < requests.size() ? requests[r + 1].time : -1;
    infer::EstimatedExchange ex;
    ex.request_time = begin;
    ex.last_data_time = begin;
    ex.carries_sni = requests[r].carries_sni;
    for (size_t i = 0; i < flow.size(); ++i) {
      if (counted[i] && InWindow(flow[i].timestamp, begin, end)) {
        ex.estimated_size += ObjectBytes(flow[i], quic);
        ex.last_data_time = std::max(ex.last_data_time, flow[i].timestamp);
      }
    }
    exchanges.push_back(ex);
  }
  return exchanges;
}

// SP1/SP2 traffic groups of a QUIC flow.
inline std::vector<infer::TrafficGroup> SplitIntoGroups(
    const std::vector<capture::PacketRecord>& flow, const infer::SplitterConfig& config = {}) {
  std::vector<TimeUs> downlink_times;
  for (const capture::PacketRecord& p : flow) {
    if (!p.from_client && p.payload > net::kQuicHeaderBytes) {
      downlink_times.push_back(p.timestamp);
    }
  }
  // SplitCore binary-searches the times; a capture may step back in time.
  std::sort(downlink_times.begin(), downlink_times.end());
  return infer::SplitCore(DetectRequests(flow, /*quic=*/true), downlink_times, !flow.empty(),
                          flow.empty() ? 0 : flow.back().timestamp, config,
                          [&flow](TimeUs begin, TimeUs end) {
                            return EstimateDownlinkBytes(flow, /*quic=*/true, begin, end);
                          });
}

// ---- Differential check ----------------------------------------------------

inline void ExpectRequestsEqual(const std::vector<infer::DetectedRequest>& want,
                                const std::vector<infer::DetectedRequest>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].time, got[i].time) << "request " << i;
    EXPECT_EQ(want[i].carries_sni, got[i].carries_sni) << "request " << i;
  }
}

// Compares the columns PacketColumns::Build makes of `trace`, and every
// columnar Step-1 stage over them, with the oracle: flow table and per-flow
// packets, media-flow ids, and — on every flow, as HTTPS and as QUIC —
// requests, exchanges, windowed byte sums and SP1/SP2 groups.
inline void ExpectColumnarMatchesOracle(const capture::CaptureTrace& trace,
                                        const std::string& host_suffix) {
  const capture::PacketColumns columns = capture::PacketColumns::Build(trace);
  const std::vector<Flow> flows = SplitFlows(trace);
  const auto carries_payload = [](const capture::PacketRecord& p) { return p.payload > 0; };
  ASSERT_EQ(columns.packet_count(),
            static_cast<size_t>(std::count_if(trace.begin(), trace.end(), carries_payload)));
  ASSERT_EQ(columns.flow_count(), flows.size());

  const std::vector<Flow> media = ClassifyMediaFlows(trace, host_suffix);
  const std::vector<uint32_t> media_ids = infer::ClassifyMediaFlowIds(columns, host_suffix);
  ASSERT_EQ(media_ids.size(), media.size());
  for (size_t m = 0; m < media.size(); ++m) {
    EXPECT_EQ(columns.flow_key(media_ids[m]), media[m].key) << "media flow " << m;
  }

  for (size_t f = 0; f < flows.size(); ++f) {
    SCOPED_TRACE("flow " + std::to_string(f));
    const uint32_t id = static_cast<uint32_t>(f);
    const std::vector<capture::PacketRecord>& packets = flows[f].packets;
    const capture::FlowView view = columns.flow(id);
    EXPECT_EQ(columns.flow_key(id), flows[f].key);
    EXPECT_EQ(columns.flow_sni(id), flows[f].sni);
    EXPECT_EQ(columns.flow_downlink_bytes(id), flows[f].downlink_bytes);
    // The columns hold the flow's payload-carrying packets, and the time of
    // its last packet whatever its payload.
    ASSERT_FALSE(packets.empty());
    EXPECT_EQ(view.last_time(), packets.back().timestamp);
    std::vector<capture::PacketRecord> held;
    std::copy_if(packets.begin(), packets.end(), std::back_inserter(held), carries_payload);
    ASSERT_EQ(view.size(), held.size());
    for (size_t i = 0; i < view.size(); ++i) {
      const capture::PacketRecord& p = held[i];
      EXPECT_EQ(view.timestamps()[i], p.timestamp);
      EXPECT_EQ(static_cast<Bytes>(view.payloads()[i]), p.payload);
      EXPECT_EQ(view.tcp_seqs()[i], static_cast<uint32_t>(p.tcp_seq));
      EXPECT_EQ((view.flags()[i] & capture::kFromClient) != 0, p.from_client);
      EXPECT_EQ((view.flags()[i] & capture::kCarriesSni) != 0, !p.sni.empty());
      EXPECT_EQ(view.flags()[i] & ~(capture::kFromClient | capture::kCarriesSni), 0);
    }

    // Fixed windows plus windows at the flow's quartiles.
    std::vector<std::pair<TimeUs, TimeUs>> windows;
    for (const TimeUs begin : {TimeUs{-1}, TimeUs{0}, TimeUs{500 * kUsPerMs}}) {
      for (const TimeUs end : {TimeUs{-1}, TimeUs{1 * kUsPerSec}}) {
        windows.emplace_back(begin, end);
      }
    }
    if (!packets.empty()) {
      const TimeUs first = packets.front().timestamp;
      const TimeUs span = packets.back().timestamp - first;
      for (int q = 0; q < 4; ++q) {
        const TimeUs begin = first + span * q / 4;
        windows.emplace_back(begin, begin + span / 3);
        windows.emplace_back(begin, -1);
      }
    }

    for (const bool quic : {false, true}) {
      SCOPED_TRACE(quic ? "as QUIC" : "as HTTPS");
      const infer::CountedDownlink counted(view, quic);
      ExpectRequestsEqual(DetectRequests(packets, quic), infer::DetectRequests(view, quic));

      const auto want_ex = EstimateExchanges(packets, quic);
      const auto got_ex = infer::EstimateExchanges(view, quic);
      ASSERT_EQ(want_ex.size(), got_ex.size());
      for (size_t i = 0; i < want_ex.size(); ++i) {
        EXPECT_EQ(want_ex[i].request_time, got_ex[i].request_time) << "exchange " << i;
        EXPECT_EQ(want_ex[i].last_data_time, got_ex[i].last_data_time) << "exchange " << i;
        EXPECT_EQ(want_ex[i].estimated_size, got_ex[i].estimated_size) << "exchange " << i;
        EXPECT_EQ(want_ex[i].carries_sni, got_ex[i].carries_sni) << "exchange " << i;
      }

      for (const auto& [begin, end] : windows) {
        EXPECT_EQ(EstimateDownlinkBytes(packets, quic, begin, end),
                  counted.Window(begin, end).bytes)
            << "window (" << begin << ", " << end << "]";
      }
    }

    infer::SplitterConfig sp1_only;
    sp1_only.enable_sp2 = false;
    infer::SplitterConfig sp2_only;
    sp2_only.enable_sp1 = false;
    for (const infer::SplitterConfig& config : {infer::SplitterConfig{}, sp1_only, sp2_only}) {
      const auto want_groups = SplitIntoGroups(packets, config);
      const auto got_groups = infer::SplitIntoGroups(view, config);
      ASSERT_EQ(want_groups.size(), got_groups.size());
      for (size_t g = 0; g < want_groups.size(); ++g) {
        SCOPED_TRACE("group " + std::to_string(g));
        EXPECT_EQ(want_groups[g].start_time, got_groups[g].start_time);
        EXPECT_EQ(want_groups[g].end_time, got_groups[g].end_time);
        EXPECT_EQ(want_groups[g].estimated_total, got_groups[g].estimated_total);
        ExpectRequestsEqual(want_groups[g].requests, got_groups[g].requests);
      }
    }
  }
}

}  // namespace csi::oracle

#endif  // CSI_TESTS_NAIVE_ORACLE_H_
