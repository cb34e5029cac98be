// Unit + property tests for the columnar capture layout.
//
// Two layers are locked in here:
//   1. Builder identity: PacketColumns::Build reproduces exactly the flow
//      order, per-flow packet order, SNI and downlink totals of the naive
//      oracle's split flows — on hand-written edge cases (empty trace,
//      single-packet flows, interleaved 5-tuples, SNI on a non-first packet)
//      and on seeded random traces.
//   2. Stage identity: classification, DetectRequests, EstimateExchanges,
//      CountedDownlink windows and SplitIntoGroups over columns match the
//      oracle (tests/naive_oracle.h) field for field on random interleaved
//      traces, including traces whose timestamps step backwards within a
//      flow. (Testbed sessions and engine output live in
//      cold_path_differential_test.)
//   3. Retransmission edge cases: hand-built TCP flows whose sequence numbers
//      step below the running maximum, arrive out of order and are then
//      retransmitted, wrap at 2^32, repeat on every packet, or never carry
//      data, alone and interleaved, against the oracle's std::set dedupe.
//   4. Pcap width: every record field and every column is as wide as its
//      pcap field, so Build of a trace equals Build of the same trace after a
//      pcap round trip, column by column (random traces whose 32-bit
//      sequence numbers wrap, and 60-s CH and SQ sessions, whose analyses
//      must match too), and the widest payload a record holds is kept.
//   5. CaptureTrace: a multi-flow, interleaved trace with a mid-flow TCP
//      ClientHello, a QUIC Initial and a second SNI in one flow gives every
//      field back as appended, numbers its flows in first-appearance order,
//      and builds the oracle's columns and its own pcap round trip's, both
//      when Build copies the columns and when it scatters them.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/capture/pcap_io.h"
#include "src/common/rng.h"
#include "tests/inference_digest.h"
#include "tests/naive_oracle.h"

namespace csi::capture {
namespace {

PacketRecord MakePacket(TimeUs ts, uint16_t client_port, bool from_client,
                        uint32_t payload, net::Transport transport = net::Transport::kUdp,
                        std::string sni = "") {
  PacketRecord r;
  r.timestamp = ts;
  r.from_client = from_client;
  r.transport = transport;
  r.client_ip = 0x0a000001;
  r.server_ip = 0xc0a80001;
  r.client_port = client_port;
  r.server_port = 443;
  r.payload = payload;
  r.tcp_seq = static_cast<uint32_t>(ts * 7);
  r.tcp_ack = static_cast<uint32_t>(ts * 3);
  r.quic_packet_number = static_cast<uint32_t>(ts / 10);
  r.sni = std::move(sni);
  return r;
}

// A random capture with heavy flow interleaving: few distinct 5-tuples,
// occasional duplicate TCP sequence numbers (retransmissions), SNI sometimes
// appearing mid-flow, and both transports mixed. With `backwards` the capture
// clock may also step back (never below 0), as ParsePcap accepts records in
// any timestamp order.
CaptureTrace RandomTrace(Rng* rng, int packets, bool backwards = false) {
  CaptureTrace trace;
  const int flows = static_cast<int>(rng->UniformInt(1, 6));
  TimeUs now = 0;
  std::vector<uint32_t> last_seq(static_cast<size_t>(flows), 0);
  for (int i = 0; i < packets; ++i) {
    now = std::max<TimeUs>(
        now + rng->UniformInt(backwards ? -40 * kUsPerMs : 0, 50 * kUsPerMs), 0);
    const int f = static_cast<int>(rng->UniformInt(0, flows - 1));
    PacketRecord r;
    r.timestamp = now;
    r.from_client = rng->Chance(0.3);
    r.transport = (f % 2 == 0) ? net::Transport::kUdp : net::Transport::kTcp;
    r.client_ip = 0x0a000001;
    r.server_ip = 0xc0a80001 + static_cast<uint32_t>(f % 2);
    r.client_port = static_cast<uint16_t>(40000 + f);
    r.server_port = 443;
    r.payload = rng->Chance(0.15) ? 0 : static_cast<uint32_t>(rng->UniformInt(1, 1500));
    // Duplicate sequence numbers now and then: the HTTPS estimator's
    // retransmission filter must behave identically over columns.
    if (rng->Chance(0.2) && last_seq[static_cast<size_t>(f)] != 0) {
      r.tcp_seq = last_seq[static_cast<size_t>(f)];
    } else {
      r.tcp_seq = static_cast<uint32_t>(rng->NextU64() % 100000);
      last_seq[static_cast<size_t>(f)] = r.tcp_seq;
    }
    r.tcp_ack = static_cast<uint32_t>(rng->NextU64() % 100000);
    r.quic_packet_number = static_cast<uint32_t>(i);
    if (rng->Chance(0.05)) {
      r.sni = (f % 2 == 0) ? "media.cdn.example" : "other.example";
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

// ---- Builder ---------------------------------------------------------------

TEST(PacketColumns, EmptyTrace) {
  const PacketColumns columns = PacketColumns::Build({});
  EXPECT_EQ(columns.packet_count(), 0u);
  EXPECT_EQ(columns.flow_count(), 0u);
}

TEST(PacketColumns, SingleFlowIsIdentityPermutation) {
  CaptureTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(MakePacket(i * 1000, 40000, i % 2 == 0, 100 + i));
  }
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.packet_count(), trace.size());
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(columns.flow_begin(0), 0u);
  EXPECT_EQ(columns.flow_end(0), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(columns.timestamps()[i], trace[i].timestamp);
    EXPECT_EQ(static_cast<Bytes>(columns.payloads()[i]), trace[i].payload);
    EXPECT_EQ(columns.tcp_seqs()[i], static_cast<uint32_t>(trace[i].tcp_seq));
    EXPECT_EQ(columns.flags()[i], trace[i].from_client ? kFromClient : 0);
  }
}

// The reference: flow order, per-flow packet order, SNI and downlink totals
// (and every stage over them) must all match the oracle.
void ExpectMatchesOracle(const CaptureTrace& trace) {
  oracle::ExpectColumnarMatchesOracle(trace, "cdn.example");
}

TEST(PacketColumns, InterleavedFlowsMatchOracle) {
  CaptureTrace trace;
  // Three flows interleaved packet-by-packet; one is single-packet.
  trace.push_back(MakePacket(10, 40000, true, 120, net::Transport::kUdp, "a.example"));
  trace.push_back(MakePacket(20, 40001, false, 1400, net::Transport::kTcp));
  trace.push_back(MakePacket(30, 40002, true, 90));
  trace.push_back(MakePacket(40, 40000, false, 1300));
  trace.push_back(MakePacket(50, 40001, true, 200, net::Transport::kTcp, "b.example"));
  trace.push_back(MakePacket(60, 40000, false, 1200));
  ExpectMatchesOracle(trace);
}

TEST(PacketColumns, SniOnNonFirstPacket) {
  CaptureTrace trace;
  trace.push_back(MakePacket(10, 40000, true, 100));
  trace.push_back(MakePacket(20, 40000, true, 300, net::Transport::kUdp, "late.example"));
  trace.push_back(MakePacket(30, 40000, false, 1400));
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(columns.flow_sni(0), "late.example");
  EXPECT_EQ(columns.flags()[0], kFromClient);
  EXPECT_EQ(columns.flags()[1], kFromClient | kCarriesSni);
  EXPECT_EQ(columns.flags()[2], 0);
  ExpectMatchesOracle(trace);
}

// 17 bytes per payload-carrying packet (timestamp 8, payload 4, sequence 4,
// flags 1), plus one entry per flow in each side table and the end of the
// last span. Every fourth packet is a pure ACK, which takes no bytes.
TEST(PacketColumns, HeldBytesAreSeventeenPerPacketPlusFlowTables) {
  CaptureTrace trace;
  for (int i = 0; i < 1000; ++i) {
    trace.push_back(MakePacket(i * 1000, 40000, i % 3 == 0, i % 4 == 0 ? 0 : 100 + i));
  }
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.packet_count(), 750u);
  EXPECT_EQ(columns.held_bytes(), 17 * columns.packet_count() + sizeof(FlowKey) +
                                      sizeof(std::string) + 2 * sizeof(int64_t) +
                                      2 * sizeof(size_t));
  EXPECT_EQ(PacketColumns::Build({}).held_bytes(), sizeof(size_t));
}

// The widest payload a record holds is kept, and the flow's 64-bit downlink
// total adds it without wrapping. (RecordFrom refuses a payload a pcap cannot
// carry; see capture_test.)
TEST(PacketColumns, WidestPayloadIsKept) {
  const CaptureTrace widest{MakePacket(10, 40000, false, UINT32_MAX),
                            MakePacket(20, 40000, false, UINT32_MAX)};
  const PacketColumns columns = PacketColumns::Build(widest);
  EXPECT_EQ(columns.payloads()[0], UINT32_MAX);
  EXPECT_EQ(columns.flow_downlink_bytes(0), 2 * Bytes{UINT32_MAX});
}

// True when some flow's packets are not contiguous in capture order, so
// Build must scatter the columns into flow-major order.
bool FlowsInterleave(const CaptureTrace& trace) {
  std::vector<FlowKey> closed;
  for (size_t i = 1; i < trace.size(); ++i) {
    const FlowKey key = FlowKeyOf(trace[i]);
    if (key != FlowKeyOf(trace[i - 1])) {
      if (std::find(closed.begin(), closed.end(), key) != closed.end()) {
        return true;
      }
      closed.push_back(FlowKeyOf(trace[i - 1]));
    }
  }
  return false;
}

TEST(PacketColumns, RandomTracesMatchOracle) {
  int interleaved = 0;
  for (const bool backwards : {false, true}) {
    SCOPED_TRACE(backwards ? "timestamps step back" : "timestamps ascend");
    for (uint64_t seed = 0; seed < 40; ++seed) {
      Rng rng(900 + seed);
      SCOPED_TRACE("seed " + std::to_string(seed));
      const CaptureTrace trace =
          RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 200)), backwards);
      interleaved += FlowsInterleave(trace) ? 1 : 0;
      ExpectMatchesOracle(trace);
    }
  }
  // Most of the traces take Build's scatter path; a few stay flow-contiguous.
  EXPECT_GT(interleaved, 40);
  EXPECT_LT(interleaved, 80);
}

// ---- Stage identity --------------------------------------------------------

TEST(PacketColumns, StageOutputsMatchOracle) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(4400 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 250))));
  }
}

// ---- Retransmission edge cases --------------------------------------------

// One packet of a hand-built TCP flow.
struct TcpStep {
  bool from_client = false;
  uint32_t seq = 0;
  uint32_t payload = 0;
};

// A TCP flow from client port `port`, one packet every 40 ms from `start`,
// with the media SNI on its first packet.
CaptureTrace TcpFlow(const std::vector<TcpStep>& steps, uint16_t port = 40000,
                     TimeUs start = 0) {
  CaptureTrace trace;
  TimeUs now = start;
  for (const TcpStep& step : steps) {
    now += 40 * kUsPerMs;
    PacketRecord r = MakePacket(now, port, step.from_client, step.payload,
                                net::Transport::kTcp,
                                trace.empty() ? "media.cdn.example" : "");
    r.tcp_seq = step.seq;
    trace.push_back(std::move(r));
  }
  return trace;
}

constexpr uint64_t kWrap = uint64_t{1} << 32;

// Downlink 2400 and uplink 1 come back after higher numbers were seen.
const std::vector<TcpStep> kBelowRunningMax = {
    {true, 1, 300},      {false, 1000, 1400}, {false, 2400, 1400},
    {false, 3800, 1400}, {false, 2400, 1400}, {true, 301, 300},
    {true, 1, 300},      {false, 5200, 1400}, {false, 1000, 1400},
};

// Downlink 2400 and uplink 301 first appear below the running maximum, and
// then are retransmitted: only a record of out-of-order numbers drops the
// second copy.
const std::vector<TcpStep> kOutOfOrderThenRetransmitted = {
    {true, 1, 300},      {false, 1000, 1400}, {false, 3800, 1400},
    {false, 2400, 1400}, {false, 2400, 1400}, {false, 5200, 1400},
    {true, 601, 300},    {true, 301, 300},    {true, 301, 300},
    {false, 6600, 1400}, {false, 6600, 1400}, {false, 2400, 1400},
};

// Both directions cross 2^32 mid-flow; numbers after the wrap are all below
// the running maximum, and some of them are retransmitted.
const std::vector<TcpStep> kSequenceWrap = {
    {true, kWrap - 600, 300},   {false, kWrap - 3000, 1400},
    {false, kWrap - 1600, 1400}, {false, kWrap - 200, 1400},
    {false, 1200, 1400},        {true, kWrap - 300, 300},
    {true, 0, 300},             {false, 2600, 1400},
    {false, 1200, 1400},        {false, kWrap - 1600, 1400},
    {true, 0, 300},             {false, 4000, 1400},
    {false, 2600, 1400},
};

// Every packet of each direction repeats one sequence number.
const std::vector<TcpStep> kAllDuplicates = {
    {true, 7, 300},     {false, 900, 1400}, {false, 900, 1400},
    {true, 7, 300},     {false, 900, 1400}, {true, 7, 300},
    {false, 900, 1400},
};

// Pure ACKs only, some with repeated numbers: nothing counts.
const std::vector<TcpStep> kNoData = {
    {true, 1, 0},    {false, 900, 0}, {false, 900, 0},
    {true, 1, 0},    {true, 5, 0},    {false, 100, 0},
};

TEST(PacketColumns, TcpRetransmissionBelowRunningMaximum) {
  ExpectMatchesOracle(TcpFlow(kBelowRunningMax));
}

TEST(PacketColumns, TcpOutOfOrderFirstOccurrenceThenItsRetransmission) {
  const CaptureTrace trace = TcpFlow(kOutOfOrderThenRetransmitted);
  ExpectMatchesOracle(trace);
  // Downlink 1000, 3800, 2400, 5200 and 6600 count once each.
  const PacketColumns columns = PacketColumns::Build(trace);
  EXPECT_EQ(infer::CountedDownlink(columns.flow(0), /*quic=*/false).Window(-1, -1).bytes,
            5 * 1400);
}

TEST(PacketColumns, TcpSequenceWrapMidFlow) {
  const CaptureTrace trace = TcpFlow(kSequenceWrap);
  ExpectMatchesOracle(trace);
  // Downlink kWrap - 3000, - 1600, - 200, 1200, 2600 and 4000 count once each.
  const PacketColumns columns = PacketColumns::Build(trace);
  EXPECT_EQ(infer::CountedDownlink(columns.flow(0), /*quic=*/false).Window(-1, -1).bytes,
            6 * 1400);
}

TEST(PacketColumns, TcpAllDuplicateFlow) {
  const CaptureTrace trace = TcpFlow(kAllDuplicates);
  ExpectMatchesOracle(trace);
  const PacketColumns columns = PacketColumns::Build(trace);
  EXPECT_EQ(infer::DetectRequests(columns.flow(0), /*quic=*/false).size(), 1u);
  EXPECT_EQ(infer::CountedDownlink(columns.flow(0), /*quic=*/false).Window(-1, -1).bytes,
            1400);
}

TEST(PacketColumns, TcpFlowWithoutData) {
  const CaptureTrace trace = TcpFlow(kNoData);
  ExpectMatchesOracle(trace);
  const PacketColumns columns = PacketColumns::Build(trace);
  EXPECT_TRUE(infer::DetectRequests(columns.flow(0), /*quic=*/false).empty());
  EXPECT_TRUE(infer::EstimateExchanges(columns.flow(0), /*quic=*/false).empty());
  ExpectMatchesOracle({});
}

// All five flows in one capture, merged by time: the same dedupe per flow,
// through the scatter path.
TEST(PacketColumns, TcpEdgeFlowsInterleaved) {
  std::vector<PacketRecord> records;
  uint16_t port = 41000;
  TimeUs start = 0;
  for (const auto* steps : {&kBelowRunningMax, &kOutOfOrderThenRetransmitted,
                            &kSequenceWrap, &kAllDuplicates, &kNoData}) {
    const CaptureTrace flow = TcpFlow(*steps, port++, start);
    records.insert(records.end(), flow.begin(), flow.end());
    start += 7 * kUsPerMs;
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  const CaptureTrace trace(records.begin(), records.end());
  ASSERT_TRUE(FlowsInterleave(trace));
  ExpectMatchesOracle(trace);
}

// ---- Pcap width --------------------------------------------------------------

// A random capture that SerializePcap can express exactly: server port 443,
// SNIs only on client packets with room for the SNI, no sequence number on
// UDP. Each TCP flow's 32-bit sequence numbers start up to 30000 below 2^32
// and wrap past it, with retransmissions now and then.
CaptureTrace WritableTrace(Rng* rng, int packets) {
  CaptureTrace trace;
  const int flows = static_cast<int>(rng->UniformInt(1, 5));
  std::vector<uint32_t> next_seq;
  for (int f = 0; f < flows; ++f) {
    next_seq.push_back(UINT32_MAX - static_cast<uint32_t>(rng->UniformInt(0, 30000)));
  }
  TimeUs now = 0;
  for (int i = 0; i < packets; ++i) {
    now += rng->UniformInt(0, 30 * kUsPerMs);
    const int f = static_cast<int>(rng->UniformInt(0, flows - 1));
    PacketRecord r;
    r.timestamp = now;
    r.from_client = rng->Chance(0.3);
    r.transport = (f % 2 == 0) ? net::Transport::kTcp : net::Transport::kUdp;
    r.client_ip = 0x0a000001;
    r.server_ip = 0xc0a80001 + static_cast<uint32_t>(f);
    r.client_port = static_cast<uint16_t>(40000 + f);
    r.server_port = 443;
    r.payload = rng->Chance(0.15) ? 0 : static_cast<uint32_t>(rng->UniformInt(1, 1500));
    if (r.transport == net::Transport::kTcp) {
      // A retransmission repeats a number up to 1400 back; new data moves the
      // next number on, modulo 2^32.
      uint32_t& seq = next_seq[static_cast<size_t>(f)];
      r.tcp_seq = rng->Chance(0.1) ? seq - 1400 : seq;
      if (r.tcp_seq == seq) {
        seq += r.payload;
      }
      r.tcp_ack = static_cast<uint32_t>(rng->NextU64());
    }
    r.quic_packet_number = static_cast<uint32_t>(i);
    if (r.from_client && r.payload >= 64 && rng->Chance(0.1)) {
      r.sni = "s" + std::to_string(rng->UniformInt(0, 3)) + ".cdn.example";
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

// Every column, every flow table entry.
void ExpectSameColumns(const PacketColumns& want, const PacketColumns& got) {
  ASSERT_EQ(got.packet_count(), want.packet_count());
  ASSERT_EQ(got.flow_count(), want.flow_count());
  for (uint32_t f = 0; f < want.flow_count(); ++f) {
    EXPECT_EQ(got.flow_key(f), want.flow_key(f)) << "flow " << f;
    EXPECT_EQ(got.flow_sni(f), want.flow_sni(f)) << "flow " << f;
    EXPECT_EQ(got.flow_downlink_bytes(f), want.flow_downlink_bytes(f)) << "flow " << f;
    EXPECT_EQ(got.flow_begin(f), want.flow_begin(f)) << "flow " << f;
    EXPECT_EQ(got.flow_end(f), want.flow_end(f)) << "flow " << f;
  }
  const size_t n = want.packet_count();
  EXPECT_TRUE(std::equal(want.timestamps(), want.timestamps() + n, got.timestamps()));
  EXPECT_TRUE(std::equal(want.payloads(), want.payloads() + n, got.payloads()));
  EXPECT_TRUE(std::equal(want.tcp_seqs(), want.tcp_seqs() + n, got.tcp_seqs()));
  EXPECT_TRUE(std::equal(want.flags(), want.flags() + n, got.flags()));
}

PacketColumns RoundTripColumns(const CaptureTrace& trace) {
  return PacketColumns::Build(ParsePcap(SerializePcap(trace)));
}

// True when some TCP flow's sequence numbers wrap: a number of the flow lies
// in the top quarter of the 32-bit range and a later one in the bottom
// quarter.
bool SequenceWraps(const CaptureTrace& trace) {
  std::map<FlowKey, bool> near_top;
  for (const PacketRecord& r : trace) {
    if (r.transport != net::Transport::kTcp) {
      continue;
    }
    bool& top = near_top[FlowKeyOf(r)];
    if (top && r.tcp_seq < (1u << 30)) {
      return true;
    }
    top = top || r.tcp_seq >= 3u << 30;
  }
  return false;
}

TEST(PacketColumnsPcapWidth, RandomTracesSurviveAPcapRoundTrip) {
  int wrapped = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(7100 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CaptureTrace trace = WritableTrace(&rng, static_cast<int>(rng.UniformInt(0, 300)));
    wrapped += SequenceWraps(trace) ? 1 : 0;
    ExpectSameColumns(PacketColumns::Build(trace), RoundTripColumns(trace));
    ExpectMatchesOracle(trace);
  }
  // Most traces carry a TCP flow whose sequence numbers wrap at 2^32.
  EXPECT_GT(wrapped, 15);
}

TEST(PacketColumnsPcapWidth, SessionsSurviveAPcapRoundTripWithTheSameAnalysis) {
  for (const infer::DesignType design : {infer::DesignType::kCH, infer::DesignType::kSQ}) {
    SCOPED_TRACE(infer::DesignTypeName(design));
    const media::Manifest manifest = testbed::MakeAssetForDesign(design, 1, 60 * kUsPerSec);
    const CaptureTrace session =
        testutil::MakeBatch(manifest, design, 1, 60 * kUsPerSec).front();
    const PacketColumns columns = PacketColumns::Build(session);
    const PacketColumns round_trip = RoundTripColumns(session);
    ExpectSameColumns(columns, round_trip);

    infer::InferenceConfig config;
    config.design = design;
    const infer::InferenceEngine engine(&manifest, config);
    const infer::InferenceResult result = engine.Analyze(columns);
    ASSERT_FALSE(result.sequences.empty());
    EXPECT_EQ(testutil::DigestResults({engine.Analyze(round_trip)}),
              testutil::DigestResults({result}));
  }
}

// ---- CaptureTrace ------------------------------------------------------------

auto Fields(const PacketRecord& r) {
  return std::tuple(r.timestamp, r.from_client, r.transport, r.client_ip, r.server_ip,
                    r.client_port, r.server_port, r.payload, r.tcp_seq, r.tcp_ack,
                    r.quic_packet_number, r.sni);
}

// A packet SerializePcap writes exactly: no TCP numbers on UDP, no QUIC
// packet number on TCP.
PacketRecord WritablePacket(TimeUs ts, uint16_t client_port, bool from_client,
                            uint32_t payload, net::Transport transport, std::string sni = "") {
  PacketRecord r = MakePacket(ts, client_port, from_client, payload, transport, std::move(sni));
  if (transport == net::Transport::kUdp) {
    r.tcp_seq = 0;
    r.tcp_ack = 0;
  } else {
    r.quic_packet_number = 0;
  }
  return r;
}

// Three flows interleaved packet by packet: TCP flow 0 sends its ClientHello
// after two packets without one, QUIC flow 1 opens with an Initial and later
// carries a second SNI, and TCP flow 2 starts mid-capture.
std::vector<PacketRecord> MixedRecords() {
  constexpr net::Transport kTcp = net::Transport::kTcp;
  constexpr net::Transport kUdp = net::Transport::kUdp;
  return {
      WritablePacket(10, 40000, true, 0, kTcp),
      WritablePacket(20, 40001, true, 1200, kUdp, "q.cdn.example"),
      WritablePacket(30, 40000, false, 0, kTcp),
      WritablePacket(40, 40000, true, 330, kTcp, "media.cdn.example"),
      WritablePacket(50, 40001, false, 1300, kUdp),
      WritablePacket(60, 40002, true, 200, kTcp, "other.example"),
      WritablePacket(70, 40000, false, 1400, kTcp),
      WritablePacket(80, 40001, true, 900, kUdp, "second.cdn.example"),
      WritablePacket(90, 40002, false, 1448, kTcp),
      WritablePacket(100, 40001, false, 1350, kUdp),
  };
}

TEST(CaptureTrace, EveryFieldReadsBackAsAppended) {
  const std::vector<PacketRecord> records = MixedRecords();
  CaptureTrace trace;
  for (const PacketRecord& r : records) {
    trace.push_back(r);
  }
  ASSERT_EQ(trace.size(), records.size());
  size_t i = 0;
  for (const PacketRecord& r : trace) {
    EXPECT_EQ(Fields(r), Fields(records[i])) << "iterated packet " << i;
    EXPECT_EQ(Fields(trace[i]), Fields(records[i])) << "indexed packet " << i;
    ++i;
  }
  EXPECT_EQ(i, records.size());
  const CaptureTrace copy(trace.begin(), trace.end());
  const CaptureTrace parsed = ParsePcap(SerializePcap(trace));
  ASSERT_EQ(parsed.size(), records.size());
  for (i = 0; i < records.size(); ++i) {
    EXPECT_EQ(Fields(copy[i]), Fields(records[i])) << "copied packet " << i;
    EXPECT_EQ(Fields(parsed[i]), Fields(records[i])) << "parsed packet " << i;
  }
}

TEST(CaptureTrace, FlowIdsFollowFirstAppearance) {
  const std::vector<PacketRecord> records = MixedRecords();
  for (const CaptureTrace& trace :
       {CaptureTrace(records.begin(), records.end()),
        ParsePcap(SerializePcap(CaptureTrace(records.begin(), records.end())))}) {
    ASSERT_EQ(trace.flow_keys().size(), 3u);
    for (uint32_t f = 0; f < 3; ++f) {
      EXPECT_EQ(trace.flow_keys()[f].client_port, 40000 + f);
    }
    EXPECT_EQ(trace.flow_ids(), (std::vector<uint32_t>{0, 1, 0, 0, 1, 2, 0, 1, 2, 1}));
    EXPECT_EQ(trace.flow_packets(), (std::vector<size_t>{4, 4, 2}));
    EXPECT_EQ(trace.flow_downlink_bytes(), (std::vector<int64_t>{1400, 2650, 1448}));
    EXPECT_EQ(trace.runs(), 9u);
    EXPECT_EQ(trace.flags(), (std::vector<uint8_t>{kFromClient, kFromClient | kCarriesSni, 0,
                                                   kFromClient | kCarriesSni, 0,
                                                   kFromClient | kCarriesSni, 0,
                                                   kFromClient | kCarriesSni, 0, 0}));
    ASSERT_EQ(trace.snis().size(), 4u);
    EXPECT_EQ(trace.snis()[0].packet, 1u);
    EXPECT_EQ(trace.snis()[1].packet, 3u);
    EXPECT_EQ(trace.snis()[2].packet, 5u);
    EXPECT_EQ(trace.snis()[3].packet, 7u);
    EXPECT_EQ(trace.snis()[3].name, "second.cdn.example");
  }
}

// Interleaved, Build scatters the columns run by run; with each flow's
// packets moved together (flows still in first-appearance order) it copies
// them. Either way it builds the oracle's columns, and the same columns as
// the trace's pcap round trip.
TEST(CaptureTrace, BuildMatchesTheOracleAndThePcapRoundTripOnBothPaths) {
  std::vector<PacketRecord> by_flow = MixedRecords();
  std::stable_sort(by_flow.begin(), by_flow.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.client_port < b.client_port;
                   });
  std::vector<PacketRecord> interleaved = MixedRecords();
  for (const auto* records : {&interleaved, &by_flow}) {
    const CaptureTrace trace(records->begin(), records->end());
    const bool scatters = records == &interleaved;
    SCOPED_TRACE(scatters ? "scatter path" : "copy path");
    EXPECT_EQ(trace.runs() != trace.flow_keys().size(), scatters);
    ExpectMatchesOracle(trace);
    const PacketColumns columns = PacketColumns::Build(trace);
    ExpectSameColumns(columns, RoundTripColumns(trace));
    EXPECT_EQ(columns.flow_sni(0), "media.cdn.example");
    EXPECT_EQ(columns.flow_sni(1), "q.cdn.example");
    EXPECT_EQ(columns.flow_sni(2), "other.example");
  }
}

// 29 bytes per packet (timestamp 8; payload, TCP seq, TCP ack, QUIC packet
// number and flow id 4 each; flags 1), plus one entry per flow in the flow
// table (key, packet count, payload-carrying packet count, downlink total)
// and one per SNI.
TEST(CaptureTrace, HeldBytesAreTwentyNinePerPacketPlusTables) {
  CaptureTrace trace;
  trace.reserve(1000);
  trace.push_back(MakePacket(0, 40000, true, 100, net::Transport::kUdp, "a.example"));
  for (int i = 1; i < 1000; ++i) {
    trace.push_back(MakePacket(i * 1000, 40000, i % 3 == 0, 100 + i));
  }
  EXPECT_EQ(trace.capacity(), 1000u);
  EXPECT_EQ(trace.held_bytes(), 29 * trace.capacity() + sizeof(FlowKey) +
                                    2 * sizeof(size_t) + sizeof(int64_t) +
                                    sizeof(CaptureTrace::Sni));
  EXPECT_EQ(CaptureTrace().held_bytes(), 0u);
}

}  // namespace
}  // namespace csi::capture
