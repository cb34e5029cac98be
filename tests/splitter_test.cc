#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

namespace csi::infer {
namespace {

// SP1/SP2 groups of a capture holding at most one flow.
std::vector<TrafficGroup> SplitTrace(const capture::CaptureTrace& trace) {
  const capture::PacketColumns columns = capture::PacketColumns::Build(trace);
  return columns.flow_count() == 0 ? std::vector<TrafficGroup>{}
                                   : SplitIntoGroups(columns.flow(0));
}

// Builds a synthetic QUIC flow from (time, direction, payload) triples.
struct FlowBuilder {
  capture::CaptureTrace flow;
  uint64_t pkt = 1;

  void Request(TimeUs t, bool sni = false) {
    capture::PacketRecord r;
    r.timestamp = t;
    r.from_client = true;
    r.transport = net::Transport::kUdp;
    r.payload = 400;
    if (sni) {
      r.sni = "cdn.example";
    }
    flow.push_back(r);
  }
  void Ack(TimeUs t) {
    capture::PacketRecord r;
    r.timestamp = t;
    r.from_client = true;
    r.transport = net::Transport::kUdp;
    r.payload = 45;  // under the 80-byte threshold
    flow.push_back(r);
  }
  void Data(TimeUs t, Bytes payload = 1363) {
    capture::PacketRecord r;
    r.timestamp = t;
    r.from_client = false;
    r.transport = net::Transport::kUdp;
    r.payload = payload;
    r.quic_packet_number = pkt++;
    flow.push_back(r);
  }
};

TEST(Splitter, Sp1SplitsAtIdleGap) {
  FlowBuilder b;
  b.Request(0);
  for (TimeUs t = 10; t < 500 * kUsPerMs; t += 10 * kUsPerMs) {
    b.Data(t);
  }
  // OFF period of 3 seconds, then a new request.
  b.Request(3500 * kUsPerMs);
  b.Data(3520 * kUsPerMs);
  const auto groups = SplitTrace(b.flow);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].num_requests(), 1);
  EXPECT_EQ(groups[1].num_requests(), 1);
  EXPECT_EQ(groups[1].start_time, 3500 * kUsPerMs);
}

TEST(Splitter, NoSplitWithoutGapOrSimultaneity) {
  FlowBuilder b;
  b.Request(0);
  b.Data(100 * kUsPerMs);
  b.Request(200 * kUsPerMs);  // data flowed between the requests
  b.Data(300 * kUsPerMs);
  b.Request(400 * kUsPerMs);
  b.Data(420 * kUsPerMs);
  const auto groups = SplitTrace(b.flow);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].num_requests(), 3);
}

TEST(Splitter, Sp2SplitsAtSimultaneousPair) {
  FlowBuilder b;
  b.Request(0);
  b.Data(50 * kUsPerMs);
  b.Data(100 * kUsPerMs);
  // Two requests at the same instant: everything before is complete.
  b.Request(200 * kUsPerMs);
  b.Request(200 * kUsPerMs);
  b.Data(250 * kUsPerMs);
  const auto groups = SplitTrace(b.flow);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].num_requests(), 1);
  EXPECT_EQ(groups[1].num_requests(), 2);
}

TEST(Splitter, Sp2RequiresNoInterveningData) {
  FlowBuilder b;
  b.Request(0);
  b.Data(50 * kUsPerMs);
  b.Request(200 * kUsPerMs);
  b.Data(200 * kUsPerMs + 10);  // data strictly between the near-simultaneous pair
  b.Request(200 * kUsPerMs + 20);
  b.Data(300 * kUsPerMs);
  const auto groups = SplitTrace(b.flow);
  EXPECT_EQ(groups.size(), 1u);
}

TEST(Splitter, DataAtRequestInstantDoesNotBlockSp2) {
  FlowBuilder b;
  b.Request(0);
  // The completing download's last packet shares the pair's timestamp.
  b.Data(200 * kUsPerMs);
  b.Request(200 * kUsPerMs);
  b.Request(200 * kUsPerMs);
  b.Data(260 * kUsPerMs);
  const auto groups = SplitTrace(b.flow);
  ASSERT_EQ(groups.size(), 2u);
}

TEST(Splitter, DropsHandshakeInitial) {
  FlowBuilder b;
  b.Request(0, /*sni=*/true);  // padded Initial
  b.Data(30 * kUsPerMs);       // server flight
  b.Request(60 * kUsPerMs);    // manifest request
  b.Data(90 * kUsPerMs);
  const auto groups = SplitTrace(b.flow);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].num_requests(), 1);
  EXPECT_EQ(groups[0].start_time, 60 * kUsPerMs);
  // The server flight (before the first real request) is outside the group.
  EXPECT_EQ(groups[0].estimated_total, 1363 - net::kQuicHeaderBytes);
}

TEST(Splitter, GroupSizesEstimateWindows) {
  FlowBuilder b;
  b.Request(0);
  b.Data(10 * kUsPerMs, 1000 + net::kQuicHeaderBytes);
  b.Data(20 * kUsPerMs, 2000 + net::kQuicHeaderBytes);
  b.Request(5 * kUsPerSec);  // after an SP1 gap
  b.Data(5 * kUsPerSec + 10 * kUsPerMs, 500 + net::kQuicHeaderBytes);
  const auto groups = SplitTrace(b.flow);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].estimated_total, 3000);
  EXPECT_EQ(groups[1].estimated_total, 500);
}

TEST(Splitter, EmptyFlowYieldsNoGroups) {
  EXPECT_TRUE(SplitTrace({}).empty());
}

TEST(Splitter, RealSqSessionGroupsAreSmall) {
  // The §5.3.2 claim: the two split-point types keep groups small (the paper
  // reports 99.7% of groups <= 10 requests on YouTube).
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 0, 10 * 60 * kUsPerSec);
  testbed::SessionConfig s;
  s.design = DesignType::kSQ;
  s.manifest = &manifest;
  s.downlink = nettrace::StableTrace("s", 8 * kMbps);
  s.duration = 10 * 60 * kUsPerSec;
  s.seed = 11;
  const auto result = testbed::RunStreamingSession(s);
  const capture::PacketColumns columns = capture::PacketColumns::Build(result.capture);
  const std::vector<uint32_t> media = ClassifyMediaFlowIds(columns, "cdn.example");
  ASSERT_EQ(media.size(), 1u);
  const auto groups = SplitIntoGroups(columns.flow(media[0]));
  ASSERT_GT(groups.size(), 20u);
  int small = 0;
  for (const auto& g : groups) {
    if (g.num_requests() <= 10) {
      ++small;
    }
  }
  EXPECT_GE(static_cast<double>(small) / static_cast<double>(groups.size()), 0.95);
}

}  // namespace
}  // namespace csi::infer
