#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/capture/capture.h"
#include "src/capture/pcap_io.h"
#include "src/sim/simulator.h"

namespace csi::capture {
namespace {

net::Packet SamplePacket(bool from_client, net::Transport transport) {
  net::Packet p;
  p.flow_id = 9;
  p.from_client = from_client;
  p.transport = transport;
  p.client_ip = 0x0A000002;
  p.server_ip = 0xC0A80001;
  p.client_port = 51234;
  p.server_port = 443;
  p.payload = 1200;
  p.tcp_seq = 777;
  p.tcp_ack = 888;
  p.quic_packet_number = 55;
  return p;
}

TEST(RecordFrom, ProjectsObservableFields) {
  net::Packet p = SamplePacket(false, net::Transport::kTcp);
  const PacketRecord r = RecordFrom(p, 123456);
  EXPECT_EQ(r.timestamp, 123456);
  EXPECT_FALSE(r.from_client);
  EXPECT_EQ(r.payload, 1200);
  EXPECT_EQ(r.wire_size, p.WireSize());
  EXPECT_EQ(r.tcp_seq, 777u);
  EXPECT_EQ(r.tcp_ack, 888u);
  EXPECT_EQ(r.client_port, 51234);
}

TEST(GatewayTap, RecordsAndForwards) {
  sim::Simulator sim;
  GatewayTap tap(&sim);
  int forwarded = 0;
  auto sink = tap.Tap([&](const net::Packet&) { ++forwarded; });
  sim.ScheduleAt(500, [&] { sink(SamplePacket(true, net::Transport::kUdp)); });
  sim.Run();
  EXPECT_EQ(forwarded, 1);
  ASSERT_EQ(tap.trace().size(), 1u);
  EXPECT_EQ(tap.trace()[0].timestamp, 500);
}

TEST(FlowKey, GroupsByFiveTuple) {
  const PacketRecord a = RecordFrom(SamplePacket(true, net::Transport::kTcp), 0);
  const PacketRecord b = RecordFrom(SamplePacket(false, net::Transport::kTcp), 10);
  EXPECT_EQ(FlowKeyOf(a), FlowKeyOf(b));  // direction does not change the flow
  net::Packet other = SamplePacket(true, net::Transport::kTcp);
  other.client_port = 51235;
  EXPECT_NE(FlowKeyOf(RecordFrom(other, 0)), FlowKeyOf(a));
}

CaptureTrace SampleTrace() {
  CaptureTrace trace;
  // TCP ClientHello with SNI.
  net::Packet hello = SamplePacket(true, net::Transport::kTcp);
  hello.sni = "cdn.video.example";
  hello.payload = 330;
  trace.push_back(RecordFrom(hello, 1000));
  // Large TCP data downlink.
  net::Packet data = SamplePacket(false, net::Transport::kTcp);
  data.payload = 1448;
  data.tcp_seq = 4242;
  trace.push_back(RecordFrom(data, kUsPerSec + 2500));
  // Pure ACK uplink.
  net::Packet ack = SamplePacket(true, net::Transport::kTcp);
  ack.payload = 0;
  ack.tcp_ack = 5690;
  trace.push_back(RecordFrom(ack, 2 * kUsPerSec));
  // QUIC Initial with SNI.
  net::Packet initial = SamplePacket(true, net::Transport::kUdp);
  initial.sni = "cdn.video.example";
  initial.payload = 1213;
  initial.quic_packet_number = 1;
  trace.push_back(RecordFrom(initial, 3 * kUsPerSec));
  // QUIC data downlink.
  net::Packet qdata = SamplePacket(false, net::Transport::kUdp);
  qdata.payload = 1363;
  qdata.quic_packet_number = 12345;
  trace.push_back(RecordFrom(qdata, 4 * kUsPerSec + 99));
  return trace;
}

TEST(Pcap, SerializeParseRoundTrip) {
  const CaptureTrace trace = SampleTrace();
  const CaptureTrace parsed = ParsePcap(SerializePcap(trace));
  ASSERT_EQ(parsed.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(parsed[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(parsed[i].from_client, trace[i].from_client);
    EXPECT_EQ(parsed[i].transport, trace[i].transport);
    EXPECT_EQ(parsed[i].client_ip, trace[i].client_ip);
    EXPECT_EQ(parsed[i].server_ip, trace[i].server_ip);
    EXPECT_EQ(parsed[i].client_port, trace[i].client_port);
    EXPECT_EQ(parsed[i].server_port, trace[i].server_port);
    EXPECT_EQ(parsed[i].payload, trace[i].payload);
    EXPECT_EQ(parsed[i].wire_size, trace[i].wire_size);
    EXPECT_EQ(parsed[i].sni, trace[i].sni);
    if (trace[i].transport == net::Transport::kTcp) {
      EXPECT_EQ(parsed[i].tcp_seq, trace[i].tcp_seq);
      EXPECT_EQ(parsed[i].tcp_ack, trace[i].tcp_ack);
    } else {
      EXPECT_EQ(parsed[i].quic_packet_number, trace[i].quic_packet_number);
    }
  }
}

TEST(Pcap, TruncatesAtSnapLength) {
  CaptureTrace trace;
  net::Packet big = SamplePacket(false, net::Transport::kTcp);
  big.payload = 1448;
  trace.push_back(RecordFrom(big, 0));
  const std::vector<uint8_t> bytes = SerializePcap(trace);
  // File = 24B global header + 16B packet header + snaplen bytes.
  EXPECT_EQ(bytes.size(), 24u + 16u + kPcapSnapLen);
  // Original length is preserved.
  const CaptureTrace parsed = ParsePcap(bytes);
  EXPECT_EQ(parsed[0].payload, 1448);
}

TEST(Pcap, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csi_capture_test.pcap";
  WritePcap(path, SampleTrace());
  const CaptureTrace parsed = ReadPcap(path);
  EXPECT_EQ(parsed.size(), SampleTrace().size());
  std::remove(path.c_str());
}

TEST(Pcap, RejectsGarbage) {
  EXPECT_THROW(ParsePcap({1, 2, 3, 4}), std::runtime_error);
  std::vector<uint8_t> bad = SerializePcap(SampleTrace());
  bad.resize(bad.size() - 3);  // truncated body
  EXPECT_THROW(ParsePcap(bad), std::runtime_error);
}

// A pcap file written byte by byte, so a record can lie about its lengths.
class PcapBuilder {
 public:
  PcapBuilder() {
    Le32(0xa1b2c3d4);  // microsecond magic
    Le32(0x00040002);  // version 2.4
    Le32(0);           // thiszone
    Le32(0);           // sigfigs
    Le32(kPcapSnapLen);
    Le32(101);  // raw IP
  }

  // One IPv4/TCP record (downlink, from port 443) whose full 40 header bytes
  // are cut to `incl_len` captured bytes, claiming `orig_len` on the wire.
  PcapBuilder& TcpRecord(uint32_t incl_len, uint32_t orig_len) {
    Le32(1);  // ts_sec
    Le32(0);  // ts_usec
    Le32(incl_len);
    Le32(orig_len);
    std::vector<uint8_t> packet = {
        0x45, 0, 0, 40, 0, 0, 0x40, 0, 64, 6, 0, 0,  // IPv4, proto TCP
        192, 168, 0, 1, 10, 0, 0, 2,                 // src, dst
        0x01, 0xbb, 0xc8, 0x22,                      // 443 -> 51234
        0, 0, 0x10, 0x92, 0, 0, 0x16, 0x22,          // seq, ack
        0x50, 0x10, 0xff, 0xff, 0, 0, 0, 0};         // offset, flags, ...
    packet.resize(incl_len, 0);
    bytes_.insert(bytes_.end(), packet.begin(), packet.end());
    return *this;
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  void Le32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> bytes_;
};

std::string ParseError(const std::vector<uint8_t>& bytes) {
  try {
    ParsePcap(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Pcap, HandBuiltRecordsParse) {
  const CaptureTrace parsed =
      ParsePcap(PcapBuilder().TcpRecord(40, 1040).TcpRecord(40, 40).bytes());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_FALSE(parsed[0].from_client);
  EXPECT_EQ(parsed[0].server_port, 443);
  EXPECT_EQ(parsed[0].client_port, 51234);
  EXPECT_EQ(parsed[0].tcp_seq, 4242u);
  EXPECT_EQ(parsed[0].tcp_ack, 5666u);
  EXPECT_EQ(parsed[0].payload, 1000);
  EXPECT_EQ(parsed[1].payload, 0);
}

TEST(Pcap, RejectsRecordShorterThanItsHeaders) {
  // 30 captured bytes end inside the TCP header: reading its fixed fields
  // would run into the next record.
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(30, 1500).TcpRecord(40, 1040).bytes()),
            "pcap: packet shorter than its headers");
  // Too short for even the IPv4 header.
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(12, 1500).bytes()),
            "pcap: packet shorter than its headers");
}

TEST(Pcap, RejectsOriginalLengthShorterThanItsHeaders) {
  // orig_len 30 < 40 header bytes would give a payload of -10.
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(40, 30).bytes()),
            "pcap: packet shorter than its headers");
}

}  // namespace
}  // namespace csi::capture
