#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/capture/capture.h"
#include "src/capture/pcap_io.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/testbed/experiment.h"
#include "tests/test_env.h"

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
  EXPECT_EQ(r.payload, 1200u);
  EXPECT_EQ(r.wire_size(), p.WireSize());
  EXPECT_EQ(r.tcp_seq, 777u);
  EXPECT_EQ(r.tcp_ack, 888u);
  EXPECT_EQ(r.client_port, 51234);
}

auto Fields(const PacketRecord& r) {
  return std::tuple(r.timestamp, r.from_client, r.transport, r.client_ip, r.server_ip,
                    r.client_port, r.server_port, r.payload, r.tcp_seq, r.tcp_ack,
                    r.quic_packet_number, r.sni);
}

// Every field at the width a pcap carries it: 72 bytes, so a 10-min capture's
// record block stays below glibc's 32 MiB mmap threshold up to 466k packets.
TEST(PacketRecord, IsSeventyTwoBytes) { EXPECT_EQ(sizeof(PacketRecord), 72u); }

// A pcap's orig_len is 32 bits and holds the headers too: a payload whose
// wire size it cannot carry is refused, the widest one it can is kept.
TEST(RecordFrom, RejectsAPayloadAPcapCannotCarry) {
  for (const net::Transport transport : {net::Transport::kTcp, net::Transport::kUdp}) {
    const Bytes headers = transport == net::Transport::kTcp ? 40 : 28;
    net::Packet p = SamplePacket(false, transport);
    for (const Bytes payload : {Bytes{-1}, Bytes{1} << 32, Bytes{UINT32_MAX} - headers + 1}) {
      SCOPED_TRACE(payload);
      p.payload = payload;
      EXPECT_THROW(RecordFrom(p, 0), std::invalid_argument);
    }
    p.payload = Bytes{UINT32_MAX} - headers;
    const PacketRecord widest = RecordFrom(p, 0);
    EXPECT_EQ(widest.payload, UINT32_MAX - headers);
    EXPECT_EQ(widest.wire_size(), Bytes{UINT32_MAX});
  }
}

// Sequence, ack and packet numbers above 2^32 are cut to the 32 bits the
// headers carry, so a record equals its own pcap round trip, field by field,
// up to the widest payload.
TEST(RecordFrom, EqualsItsOwnPcapRoundTrip) {
  net::Packet tcp = SamplePacket(true, net::Transport::kTcp);
  tcp.tcp_seq = (uint64_t{3} << 32) + 12345;
  tcp.tcp_ack = (uint64_t{1} << 40) + 7;
  tcp.quic_packet_number = 0;
  tcp.sni = "cdn.video.example";
  net::Packet udp = SamplePacket(false, net::Transport::kUdp);
  udp.tcp_seq = 0;
  udp.tcp_ack = 0;
  udp.quic_packet_number = (uint64_t{1} << 33) + 99;
  net::Packet widest = tcp;
  widest.payload = Bytes{UINT32_MAX} - 40;
  for (const net::Packet& p : {tcp, udp, widest}) {
    const PacketRecord r = RecordFrom(p, 5 * kUsPerSec + 17);
    const CaptureTrace parsed = ParsePcap(SerializePcap({r}));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(Fields(parsed[0]), Fields(r));
    EXPECT_EQ(parsed[0].wire_size(), p.WireSize());
    EXPECT_EQ(r.tcp_seq, static_cast<uint32_t>(p.tcp_seq));
    EXPECT_EQ(r.tcp_ack, static_cast<uint32_t>(p.tcp_ack));
    EXPECT_EQ(r.quic_packet_number, static_cast<uint32_t>(p.quic_packet_number));
  }
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
  // The whole capture fits in the first window, so the estimate is exact.
  EXPECT_EQ(parsed.capacity(), trace.size() + trace.size() / 64);
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
    EXPECT_EQ(parsed[i].wire_size(), trace[i].wire_size());
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
    return TcpRecord(incl_len, orig_len, {});
  }

  // The same TCP header followed by `payload`, all of it cut to `incl_len`.
  PcapBuilder& TcpRecord(uint32_t incl_len, uint32_t orig_len,
                         const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> packet = {
        0x45, 0, 0, 40, 0, 0, 0x40, 0, 64, 6, 0, 0,  // IPv4, proto TCP
        192, 168, 0, 1, 10, 0, 0, 2,                 // src, dst
        0x01, 0xbb, 0xc8, 0x22,                      // 443 -> 51234
        0, 0, 0x10, 0x92, 0, 0, 0x16, 0x22,          // seq, ack
        0x50, 0x10, 0xff, 0xff, 0, 0, 0, 0};         // offset, flags, ...
    if (tcp_timestamps_) {
      packet[kIpv4Header + 12] = 0x80;  // data offset 8 words
      packet.insert(packet.end(), {1, 1, 8, 10, 0, 0, 0, 1, 0, 0, 0, 2});
    }
    packet.insert(packet.end(), payload.begin(), payload.end());
    return Record(std::move(packet), incl_len, orig_len);
  }

  // One IPv4/UDP record (uplink, to port 443) carrying `payload` after the
  // 8-byte UDP header, cut to `incl_len`.
  PcapBuilder& UdpRecord(uint32_t incl_len, uint32_t orig_len,
                         const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> packet = {
        0x45, 0, 0, 0, 0, 0, 0x40, 0, 64, 17, 0, 0,  // IPv4, proto UDP
        10, 0, 0, 2, 192, 168, 0, 1,                 // src, dst
        0xc8, 0x22, 0x01, 0xbb, 0, 0, 0, 0};         // 51234 -> 443, len, sum
    packet.insert(packet.end(), payload.begin(), payload.end());
    return Record(std::move(packet), incl_len, orig_len);
  }

  // Gives the TCP and UDP records that follow `ip_option_words` 4-byte words
  // of IPv4 options (NOPs; IHL 5 + words) and, when `tcp_timestamps`, the
  // 12-byte TCP timestamp option (NOP, NOP, kind 8, length 10; data offset
  // 8). `incl_len` and `orig_len` count the options. The default is none.
  PcapBuilder& Options(int ip_option_words, bool tcp_timestamps) {
    ip_option_words_ = ip_option_words;
    tcp_timestamps_ = tcp_timestamps;
    return *this;
  }

  // One 40-byte IPv4 record whose protocol byte is `proto`.
  PcapBuilder& ProtoRecord(uint8_t proto) {
    std::vector<uint8_t> packet = {
        0x45, 0, 0, 40, 0, 0, 0x40, 0, 64, proto, 0, 0,  // IPv4, proto
        192, 168, 0, 1, 10, 0, 0, 2};                    // src, dst
    return Record(std::move(packet), 40, 40);
  }

  // Stamps the records that follow with (`ts_sec`, `ts_usec`); the default
  // is (1, 0).
  PcapBuilder& Stamp(uint32_t ts_sec, uint32_t ts_usec) {
    ts_sec_ = ts_sec;
    ts_usec_ = ts_usec;
    return *this;
  }

  // A copy sized exactly, so the sanitizer builds flag a read one byte past
  // the last record.
  std::vector<uint8_t> bytes() const { return bytes_; }

 private:
  static constexpr size_t kIpv4Header = 20;

  PcapBuilder& Record(std::vector<uint8_t> packet, uint32_t incl_len, uint32_t orig_len) {
    if (packet[9] == 6 || packet[9] == 17) {
      packet[0] = static_cast<uint8_t>(0x45 + ip_option_words_);
      packet.insert(packet.begin() + kIpv4Header, 4 * static_cast<size_t>(ip_option_words_), 1);
    }
    Le32(ts_sec_);
    Le32(ts_usec_);
    Le32(incl_len);
    Le32(orig_len);
    packet.resize(incl_len, 0);
    bytes_.insert(bytes_.end(), packet.begin(), packet.end());
    return *this;
  }

  void Le32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  uint32_t ts_sec_ = 1;
  uint32_t ts_usec_ = 0;
  int ip_option_words_ = 0;
  bool tcp_timestamps_ = false;
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
  // One byte short of the TCP and of the UDP header.
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(39, 1500).bytes()),
            "pcap: packet shorter than its headers");
  EXPECT_EQ(ParseError(PcapBuilder().UdpRecord(27, 1500, {}).bytes()),
            "pcap: packet shorter than its headers");
}

TEST(Pcap, RejectsOriginalLengthShorterThanItsHeaders) {
  // orig_len 30 < 40 header bytes would give a payload of -10.
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(40, 30).bytes()),
            "pcap: packet shorter than its headers");
}

TEST(Pcap, RejectsIpProtocolsOtherThanTcpAndUdp) {
  // ICMP and GRE must not come out as plausible-looking UDP packets.
  for (const uint8_t proto : {1, 47}) {
    SCOPED_TRACE(static_cast<int>(proto));
    EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(40, 40).ProtoRecord(proto).bytes()),
              "pcap: unsupported IP protocol");
  }
}

// The "abc" SNI behind a TLS handshake record header whose length field
// claims `claimed` bytes.
std::vector<uint8_t> TlsSni(uint8_t claimed) { return {0x16, 3, 1, 0, claimed, 'a', 'b', 'c'}; }

// The "abc" SNI behind a long-header QUIC public header (flags, 8-byte CID,
// packet number 7) whose SNI length field claims `claimed` bytes.
std::vector<uint8_t> QuicSni(uint8_t claimed) {
  std::vector<uint8_t> bytes = {0xC0};
  bytes.resize(9, 0);
  bytes.insert(bytes.end(), {0, 0, 0, 7, 0, claimed, 'a', 'b', 'c'});
  return bytes;
}

// An SNI whose length field claims one byte more than the record captured
// is dropped, and the record itself still parses; the exact length parses.
TEST(Pcap, TcpSniLengthOnePastTheRecordIsIgnored) {
  const CaptureTrace parsed = ParsePcap(PcapBuilder()
                                            .TcpRecord(48, 100, TlsSni(4))
                                            .TcpRecord(48, 100, TlsSni(3))
                                            .TcpRecord(40, 40)
                                            .bytes());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].sni, "");
  EXPECT_EQ(parsed[0].payload, 60);
  EXPECT_EQ(parsed[1].sni, "abc");

  // The record ends one byte into the TLS record's length field.
  const CaptureTrace last = ParsePcap(PcapBuilder().TcpRecord(44, 100, TlsSni(3)).bytes());
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].sni, "");
}

TEST(Pcap, QuicSniLengthOnePastTheRecordIsIgnored) {
  const CaptureTrace parsed = ParsePcap(PcapBuilder()
                                            .UdpRecord(46, 1200, QuicSni(4))
                                            .UdpRecord(46, 1200, QuicSni(3))
                                            .TcpRecord(40, 40)
                                            .bytes());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].transport, net::Transport::kUdp);
  EXPECT_EQ(parsed[0].quic_packet_number, 7u);
  EXPECT_EQ(parsed[0].sni, "");
  EXPECT_EQ(parsed[1].sni, "abc");

  // The record ends one byte into the SNI length field.
  std::vector<uint8_t> cut = QuicSni(3);
  cut.resize(14);
  const CaptureTrace last = ParsePcap(PcapBuilder().UdpRecord(42, 1200, cut).bytes());
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].quic_packet_number, 7u);
  EXPECT_EQ(last[0].sni, "");
}

TEST(Pcap, UdpRecordShorterThanTheQuicHeaderKeepsNoQuicFields) {
  // 12 bytes after the UDP header, one short of flags + CID + packet number.
  std::vector<uint8_t> short_header = QuicSni(3);
  short_header.resize(12);
  const CaptureTrace parsed = ParsePcap(PcapBuilder().UdpRecord(40, 40, short_header).bytes());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].from_client);
  EXPECT_EQ(parsed[0].client_port, 51234);
  EXPECT_EQ(parsed[0].payload, 12);
  EXPECT_EQ(parsed[0].quic_packet_number, 0u);
  EXPECT_EQ(parsed[0].sni, "");
}

TEST(Pcap, RejectsCapturedLengthAboveOriginalLength) {
  // A headers-only UDP packet on the wire whose record carries 18 more bytes:
  // read as a QUIC header they would give it a packet number and an SNI.
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(40, 40).UdpRecord(46, 28, QuicSni(3)).bytes()),
            "pcap: captured length exceeds original length");
  EXPECT_EQ(ParseError(PcapBuilder().TcpRecord(41, 40).bytes()),
            "pcap: captured length exceeds original length");
  // All of the packet captured parses.
  const CaptureTrace parsed = ParsePcap(PcapBuilder().UdpRecord(46, 46, QuicSni(3)).bytes());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].payload, 18);
  EXPECT_EQ(parsed[0].quic_packet_number, 7u);
  EXPECT_EQ(parsed[0].sni, "abc");
}

TEST(Pcap, RejectsMicrosecondsOfAWholeSecondOrMore) {
  // 2,500,000 µs after second 1 would read as 3.5 s.
  EXPECT_EQ(ParseError(PcapBuilder().Stamp(1, 2'500'000).TcpRecord(40, 40).bytes()),
            "pcap: bad timestamp");
  EXPECT_EQ(ParseError(
                PcapBuilder().TcpRecord(40, 40).Stamp(1, 1'000'000).TcpRecord(40, 40).bytes()),
            "pcap: bad timestamp");
  const CaptureTrace parsed = ParsePcap(PcapBuilder().Stamp(1, 999'999).TcpRecord(40, 40).bytes());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].timestamp, kUsPerSec + 999'999);
}

// IP options and a TCP timestamp option sit between the fixed headers and
// the payload: the ports, sequence numbers, payload length, SNI and QUIC
// fields are read after them.
TEST(Pcap, IpAndTcpOptionsDoNotShiftTheFields) {
  const CaptureTrace parsed = ParsePcap(PcapBuilder()
                                            .Options(1, true)  // 24 + 32 header bytes
                                            .TcpRecord(64, 100, TlsSni(3))
                                            .Options(0, true)  // 20 + 32
                                            .TcpRecord(60, 1500, TlsSni(3))
                                            .Options(2, false)  // 28 + 8
                                            .UdpRecord(54, 54, QuicSni(3))
                                            .bytes());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_FALSE(parsed[0].from_client);
  EXPECT_EQ(parsed[0].server_port, 443);
  EXPECT_EQ(parsed[0].client_port, 51234);
  EXPECT_EQ(parsed[0].tcp_seq, 4242u);
  EXPECT_EQ(parsed[0].tcp_ack, 5666u);
  EXPECT_EQ(parsed[0].payload, 44);
  EXPECT_EQ(parsed[0].sni, "abc");
  EXPECT_EQ(parsed[1].payload, 1448);
  EXPECT_EQ(parsed[1].sni, "abc");
  EXPECT_TRUE(parsed[2].from_client);
  EXPECT_EQ(parsed[2].client_port, 51234);
  EXPECT_EQ(parsed[2].payload, 18);
  EXPECT_EQ(parsed[2].quic_packet_number, 7u);
  EXPECT_EQ(parsed[2].sni, "abc");
}

TEST(Pcap, RejectsHeaderLengthsBelowFiveWords) {
  // Byte 40 is the first record's IPv4 version/IHL byte, byte 72 its TCP
  // data offset byte.
  std::vector<uint8_t> short_ip = PcapBuilder().TcpRecord(40, 40).bytes();
  short_ip[40] = 0x44;
  EXPECT_EQ(ParseError(short_ip), "pcap: bad IP header length");
  std::vector<uint8_t> short_tcp = PcapBuilder().TcpRecord(40, 40).bytes();
  short_tcp[72] = 0x40;
  EXPECT_EQ(ParseError(short_tcp), "pcap: bad TCP data offset");
}

TEST(Pcap, RejectsOptionsLongerThanTheRecord) {
  // Captured bytes end inside the IP options, then inside the TCP options.
  EXPECT_EQ(ParseError(PcapBuilder().Options(10, false).TcpRecord(40, 1500).bytes()),
            "pcap: packet shorter than its headers");
  EXPECT_EQ(ParseError(PcapBuilder().Options(0, true).TcpRecord(48, 1500).bytes()),
            "pcap: packet shorter than its headers");
  // The original length ends inside the TCP options.
  EXPECT_EQ(ParseError(PcapBuilder().Options(0, true).TcpRecord(52, 50).bytes()),
            "pcap: packet shorter than its headers");
  EXPECT_EQ(ParseError(PcapBuilder().Options(1, false).UdpRecord(31, 31, {}).bytes()),
            "pcap: packet shorter than its headers");
}

std::string ReadError(const std::string& path) {
  try {
    ReadPcap(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Pcap, ReadRejectsEmptyMissingAndDirectoryPaths) {
  const std::string dir = ::testing::TempDir() + "/csi_capture_test_dir";
  const std::string empty = dir + "/empty.pcap";
  ::mkdir(dir.c_str(), 0700);
  std::ofstream(empty).close();
  EXPECT_EQ(ReadError(empty), "pcap: bad magic");
  EXPECT_EQ(ReadError(dir + "/missing.pcap"), "pcap: cannot open " + dir + "/missing.pcap");
  EXPECT_EQ(ReadError(dir), "pcap: cannot read " + dir);
  std::remove(empty.c_str());
  ::rmdir(dir.c_str());
}

uint32_t GetLe32(const std::vector<uint8_t>& bytes, size_t at) {
  return bytes[at] | bytes[at + 1] << 8 | bytes[at + 2] << 16 |
         static_cast<uint32_t>(bytes[at + 3]) << 24;
}

// The byte offsets of each record's incl_len field in a well-framed capture,
// such as one SerializePcap wrote or ParsePcap accepted (ts_sec and ts_usec
// sit at -8 and -4, orig_len at +4).
std::vector<size_t> InclLenOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> offsets;
  for (size_t at = 24; at + 16 <= bytes.size();) {
    offsets.push_back(at + 8);
    at += 16 + size_t{GetLe32(bytes, at + 8)};
  }
  return offsets;
}

// Parses a mutated capture: it must either return a trace whose every record
// is self-consistent or throw std::runtime_error. Any other exception fails
// the test, and the sanitizer builds catch an out-of-bounds read.
void ParseMutant(const std::vector<uint8_t>& bytes) {
  CaptureTrace parsed;
  try {
    parsed = ParsePcap(bytes);
  } catch (const std::runtime_error&) {
    return;
  }
  const std::vector<size_t> incl_len_at = InclLenOffsets(bytes);
  ASSERT_EQ(incl_len_at.size(), parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    const PacketRecord& r = parsed[i];
    // The payload is orig_len less the headers: it never wraps below zero.
    ASSERT_LE(r.wire_size(), Bytes{UINT32_MAX});
    ASSERT_LE(r.sni.size(), kPcapSnapLen);
    // No captured byte past the packet's end, no second hidden in ts_usec.
    const size_t at = incl_len_at[i];
    ASSERT_LE(GetLe32(bytes, at), GetLe32(bytes, at + 4));
    const uint32_t ts_usec = GetLe32(bytes, at - 4);
    ASSERT_LT(ts_usec, uint32_t{1'000'000});
    ASSERT_EQ(r.timestamp, TimeUs{GetLe32(bytes, at - 8)} * kUsPerSec + ts_usec);
    // The payload is what follows the IPv4 header (IHL words) and the TCP
    // header (data offset words) or the 8-byte UDP header, all captured.
    const size_t pkt = at + 8;
    const uint32_t incl_len = GetLe32(bytes, at);
    const uint32_t ip_header = (bytes[pkt] & 0x0Fu) * 4u;
    ASSERT_GE(ip_header, 20u);
    uint32_t headers = ip_header + 8;
    if (r.transport == net::Transport::kTcp) {
      ASSERT_LE(ip_header + 20, incl_len);
      headers = ip_header + (bytes[pkt + ip_header + 12] >> 4) * 4u;
      ASSERT_GE(headers, ip_header + 20);
    }
    ASSERT_LE(headers, incl_len);
    ASSERT_EQ(r.payload, GetLe32(bytes, at + 4) - headers);
  }
}

void PutLe32(std::vector<uint8_t>& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// A capture with one legal record longer than the reader's window between
// two short ones, so the window has to grow to parse it.
std::vector<uint8_t> CaptureWithRecordLongerThanTheWindow() {
  constexpr uint32_t kLong = kPcapWindowBytes + 100;
  return PcapBuilder().TcpRecord(40, 40).TcpRecord(kLong, kLong).TcpRecord(40, 1040).bytes();
}

TEST(PcapMutation, TruncationAtEveryOffset) {
  // The serialized sample, four captures whose last bytes are an SNI (two of
  // them behind IP and TCP options), so a cut that the body check let through
  // would read past the buffer, and one longer than the reader's window, so
  // cuts land after a refill.
  const std::vector<std::vector<uint8_t>> bases = {
      SerializePcap(SampleTrace()),
      PcapBuilder().TcpRecord(40, 40).TcpRecord(48, 100, TlsSni(3)).bytes(),
      PcapBuilder().TcpRecord(40, 40).UdpRecord(46, 1200, QuicSni(3)).bytes(),
      PcapBuilder().Options(1, true).TcpRecord(64, 100, TlsSni(3)).bytes(),
      PcapBuilder().Options(2, false).UdpRecord(54, 1200, QuicSni(3)).bytes(),
      CaptureWithRecordLongerThanTheWindow()};
  for (const std::vector<uint8_t>& base : bases) {
    for (size_t len = 0; len <= base.size(); ++len) {
      SCOPED_TRACE(len);
      ParseMutant(
          std::vector<uint8_t>(base.begin(), base.begin() + static_cast<ptrdiff_t>(len)));
    }
  }
}

TEST(PcapMutation, LyingLengthFields) {
  const std::vector<uint8_t> base = SerializePcap(SampleTrace());
  const std::vector<size_t> offsets = InclLenOffsets(base);
  ASSERT_EQ(offsets.size(), SampleTrace().size());
  for (const size_t at : offsets) {
    for (const size_t field : {at, at + 4}) {  // incl_len, orig_len
      for (const uint32_t value : {0u, 19u, 39u, kPcapSnapLen + 1, 0xFFFFFFFFu}) {
        SCOPED_TRACE(testing::Message() << "offset " << field << " value " << value);
        std::vector<uint8_t> mutant = base;
        PutLe32(mutant, field, value);
        ParseMutant(mutant);
      }
    }
  }
}

TEST(PcapMutation, RandomBitFlipsAndLengths) {
  const std::vector<uint8_t> base = SerializePcap(SampleTrace());
  const std::vector<size_t> offsets = InclLenOffsets(base);
  const uint32_t lengths[] = {0, 19, 39, kPcapSnapLen + 1, 0xFFFFFFFF};
  const uint64_t rounds = testutil::ScheduleCount(20);
  for (uint64_t round = 0; round < rounds; ++round) {
    Rng rng(0x9CA9 + round);
    for (int i = 0; i < 100; ++i) {
      std::vector<uint8_t> mutant = base;
      const int64_t flips = rng.UniformInt(1, 8);
      for (int64_t f = 0; f < flips; ++f) {
        const auto at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(base.size()) - 1));
        mutant[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      }
      if (rng.UniformInt(0, 3) == 0) {  // sometimes a lying length as well
        const size_t at = offsets[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(offsets.size()) - 1))];
        PutLe32(mutant, at + 4 * static_cast<size_t>(rng.UniformInt(0, 1)),
                lengths[rng.UniformInt(0, 4)]);
      }
      if (rng.UniformInt(0, 3) == 0) {  // and sometimes a cut
        mutant.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutant.size()))));
      }
      SCOPED_TRACE(testing::Message() << "round " << round << " mutant " << i);
      ParseMutant(mutant);
    }
  }
}

// --- Reading through the window ----------------------------------------------

// A 60-s testbed CH session: several MB of records of varied length, so its
// serialized capture spans many of the reader's windows.
struct LongSession {
  CaptureTrace trace;
  std::vector<uint8_t> bytes;
};

const LongSession& LongCapture() {
  static const LongSession* const session = [] {
    const media::Manifest manifest =
        testbed::MakeAssetForDesign(infer::DesignType::kCH, 1, 60 * kUsPerSec);
    testbed::SessionConfig config;
    config.design = infer::DesignType::kCH;
    config.manifest = &manifest;
    config.downlink = nettrace::StableTrace("s", 5 * kMbps);
    config.duration = 60 * kUsPerSec;
    config.seed = 1;
    auto* out = new LongSession{testbed::RunStreamingSession(config).capture, {}};
    out->bytes = SerializePcap(out->trace);
    return out;
  }();
  return *session;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The record count a read returned, or the message it threw.
std::string Outcome(const std::function<CaptureTrace()>& read) {
  try {
    return "records " + std::to_string(read().size());
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

void ExpectSameRecords(const CaptureTrace& a, const CaptureTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Fields(a[i]), Fields(b[i])) << "record " << i;
  }
}

// The record starts where the reader refills its window while it walks
// `bytes` from a window that starts at `first`: a refill starts at the first
// record that does not fit in the kPcapWindowBytes the window holds. The
// reader's window starts at 0, where the magic check loads it; the edges of a
// window that starts at the first record (byte 24) are tested as well, as
// they cut the records at other offsets.
std::vector<size_t> RefillStarts(const std::vector<uint8_t>& bytes, size_t first) {
  std::vector<size_t> starts;
  size_t base = first;
  for (const size_t incl_at : InclLenOffsets(bytes)) {
    const size_t start = incl_at - 8;
    if (start + 16 + GetLe32(bytes, incl_at) > base + kPcapWindowBytes) {
      starts.push_back(start);
      base = start;
    }
  }
  return starts;
}

TEST(PcapWindow, FileAndMemoryGiveBackALongSession) {
  const std::vector<uint8_t>& bytes = LongCapture().bytes;
  ASSERT_GE(bytes.size(), 4 * kPcapWindowBytes);
  const std::string path = ::testing::TempDir() + "/csi_capture_window.pcap";
  WriteBytes(path, bytes);
  const CaptureTrace from_file = ReadPcap(path);
  // Sized once from the first window: its mean record length is within 1/64
  // of the session's, and the reader adds 1/64 slack.
  EXPECT_LE(from_file.size(), from_file.capacity());
  EXPECT_LE(from_file.capacity(), from_file.size() + from_file.size() / 32);
  // Both entry points give back the session's own records.
  ExpectSameRecords(from_file, LongCapture().trace);
  ExpectSameRecords(ParsePcap(bytes), LongCapture().trace);
  std::remove(path.c_str());
}

TEST(PcapWindow, TruncationAroundWindowEdges) {
  const std::vector<uint8_t>& bytes = LongCapture().bytes;
  // Cuts within 64 bytes of where each of the first four windows from either
  // start ends or its successor starts.
  std::set<size_t, std::greater<>> cuts;
  for (const size_t first : {size_t{0}, size_t{24}}) {
    size_t base = first;
    for (const size_t start : RefillStarts(bytes, first)) {
      if (base >= first + 4 * kPcapWindowBytes) {
        break;
      }
      for (const size_t edge : {base + kPcapWindowBytes, start}) {
        for (size_t cut = edge - 64; cut <= edge + 64; ++cut) {
          cuts.insert(cut);
        }
      }
      base = start;
    }
  }
  ASSERT_GE(cuts.size(), 4 * 129u);
  // Longest first, so one file is cut shorter and shorter.
  const std::string path = ::testing::TempDir() + "/csi_capture_window_cut.pcap";
  WriteBytes(path, bytes);
  for (const size_t cut : cuts) {
    SCOPED_TRACE(cut);
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(cut)), 0);
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_EQ(Outcome([&] { return ReadPcap(path); }),
              Outcome([&] { return ParsePcap(prefix); }));
  }
  std::remove(path.c_str());
}

TEST(PcapWindow, LyingLengthsOnRecordsThatStraddleAWindowEdge) {
  const std::vector<uint8_t>& bytes = LongCapture().bytes;
  std::set<size_t> straddlers;
  for (const size_t first : {size_t{0}, size_t{24}}) {
    for (const size_t start : RefillStarts(bytes, first)) {
      straddlers.insert(start);
    }
  }
  ASSERT_GE(straddlers.size(), 4u);
  const std::string path = ::testing::TempDir() + "/csi_capture_window_lie.pcap";
  for (const size_t start : straddlers) {
    for (const size_t field : {start + 8, start + 12}) {  // incl_len, orig_len
      for (const uint32_t value : {0u, 19u, 39u, kPcapSnapLen + 1, 0xFFFFFFFFu}) {
        SCOPED_TRACE(testing::Message() << "offset " << field << " value " << value);
        std::vector<uint8_t> mutant = bytes;
        PutLe32(mutant, field, value);
        WriteBytes(path, mutant);
        EXPECT_EQ(Outcome([&] { return ReadPcap(path); }),
                  Outcome([&] { return ParsePcap(mutant); }));
      }
    }
  }
  std::remove(path.c_str());
}

// An SNI record ending within 80 bytes either side of the reader's first
// window edge (its window starts at byte 0): the last byte of the SNI is the
// last byte of the record, so a window one byte short garbles it.
TEST(PcapWindow, RecordEndingNearTheWindowEdge) {
  constexpr size_t kFiller = 16 + kPcapSnapLen;  // one full-snap record
  constexpr size_t kSniRecord = 16 + 48;
  const std::string path = ::testing::TempDir() + "/csi_capture_window_edge.pcap";
  for (int delta = -80; delta <= 80; ++delta) {
    SCOPED_TRACE(delta);
    // Fillers, then one record sized so the SNI record ends at edge + delta.
    const size_t to_fill = kPcapWindowBytes + static_cast<size_t>(delta) - kSniRecord - 24;
    PcapBuilder builder;
    for (size_t i = 0; i < to_fill / kFiller - 1; ++i) {
      builder.TcpRecord(kPcapSnapLen, 1500);
    }
    const auto last_filler = static_cast<uint32_t>(to_fill % kFiller + kFiller - 16);
    builder.TcpRecord(last_filler, last_filler).TcpRecord(48, 100, TlsSni(3)).TcpRecord(40, 40);
    const std::vector<uint8_t> bytes = builder.bytes();
    ASSERT_EQ(InclLenOffsets(bytes)[to_fill / kFiller] + 8 + 48,
              kPcapWindowBytes + static_cast<size_t>(delta));
    WriteBytes(path, bytes);
    const CaptureTrace from_file = ReadPcap(path);
    ASSERT_EQ(from_file.size(), to_fill / kFiller + 2);
    EXPECT_EQ(from_file[from_file.size() - 2].sni, "abc");
    EXPECT_EQ(from_file[from_file.size() - 3].wire_size(), last_filler);
    ExpectSameRecords(from_file, ParsePcap(bytes));
  }
  std::remove(path.c_str());
}

TEST(PcapWindow, RecordLongerThanTheWindowGrowsIt) {
  const std::vector<uint8_t> bytes = CaptureWithRecordLongerThanTheWindow();
  const std::string path = ::testing::TempDir() + "/csi_capture_window_long.pcap";
  WriteBytes(path, bytes);
  const CaptureTrace from_file = ReadPcap(path);
  ASSERT_EQ(from_file.size(), 3u);
  EXPECT_EQ(from_file[1].payload, static_cast<Bytes>(kPcapWindowBytes + 100 - 40));
  EXPECT_EQ(from_file[2].payload, 1000);
  ExpectSameRecords(from_file, ParsePcap(bytes));
  std::remove(path.c_str());
}

// --- Sizing the trace from the first window ----------------------------------

constexpr size_t kSnapRecord = 16 + kPcapSnapLen;  // a full-snap TCP record
constexpr size_t kAckRecord = 16 + 40;             // a TCP record without payload

// `snaps` full-snap downlink records, then `acks` pure ACKs, or the ACKs
// first when `acks_first`; one millisecond apart.
CaptureTrace SnapsAndAcks(size_t snaps, size_t acks, bool acks_first) {
  CaptureTrace trace;
  for (int block = 0; block < 2; ++block) {
    const bool ack = (block == 0) == acks_first;
    for (size_t i = 0; i < (ack ? acks : snaps); ++i) {
      net::Packet p = SamplePacket(ack, net::Transport::kTcp);
      p.payload = ack ? 0 : 1448;
      p.quic_packet_number = 0;  // a TCP record carries none
      p.tcp_seq = 1000 + 1448 * trace.size();
      trace.push_back(RecordFrom(p, static_cast<TimeUs>(trace.size()) * 1000));
    }
  }
  return trace;
}

// The trace both entry points give back for `bytes`, after checking that
// they give back `expected`.
CaptureTrace ReadsBack(const std::vector<uint8_t>& bytes, const CaptureTrace& expected) {
  const std::string path = ::testing::TempDir() + "/csi_capture_sizing.pcap";
  WriteBytes(path, bytes);
  CaptureTrace from_file = ReadPcap(path);
  std::remove(path.c_str());
  ExpectSameRecords(from_file, expected);
  ExpectSameRecords(ParsePcap(bytes), expected);
  return from_file;
}

TEST(PcapSizing, LowEstimateGrowsTheTrace) {
  // The first window holds only full-snap records; three windows of ACKs
  // follow, so the capture has more records than the estimate reserves.
  const size_t snaps = kPcapWindowBytes / kSnapRecord + 1;
  const CaptureTrace trace = SnapsAndAcks(snaps, 3 * kPcapWindowBytes / kAckRecord, false);
  const std::vector<uint8_t> bytes = SerializePcap(trace);
  const size_t estimate = (bytes.size() - 24) / kSnapRecord;
  ASSERT_LT(estimate + estimate / 64, trace.size());
  const CaptureTrace parsed = ReadsBack(bytes, trace);
  EXPECT_GE(parsed.capacity(), parsed.size());
}

TEST(PcapSizing, HighEstimateStaysUnderTheSmallestRecordBound) {
  // The reverse: a first window of ACKs, then three windows of full-snap
  // records, so the estimate reserves more than the capture holds.
  const size_t acks = kPcapWindowBytes / kAckRecord + 1;
  const CaptureTrace trace = SnapsAndAcks(3 * kPcapWindowBytes / kSnapRecord, acks, true);
  const std::vector<uint8_t> bytes = SerializePcap(trace);
  const CaptureTrace parsed = ReadsBack(bytes, trace);
  EXPECT_GT(parsed.capacity(), parsed.size());
  // Never more records than the file holds at 44 bytes each, plus the slack.
  const size_t most = (bytes.size() - 24) / 44;
  EXPECT_LE(parsed.capacity(), most + most / 64);
}

TEST(PcapSizing, CaptureSmallerThanOneWindowIsSizedExactly) {
  const CaptureTrace trace = SnapsAndAcks(300, 200, false);
  const std::vector<uint8_t> bytes = SerializePcap(trace);
  ASSERT_LT(bytes.size(), kPcapWindowBytes);
  const CaptureTrace parsed = ReadsBack(bytes, trace);
  EXPECT_EQ(parsed.capacity(), trace.size() + trace.size() / 64);
}

TEST(PcapSizing, HeaderOnlyCaptureReservesNothing) {
  const std::vector<uint8_t> bytes = SerializePcap({});
  ASSERT_EQ(bytes.size(), 24u);
  EXPECT_EQ(ReadsBack(bytes, {}).capacity(), 0u);
}

TEST(PcapSizing, FirstRecordLongerThanTheWindowLeavesNoEstimate) {
  // No complete record in the first window, so the trace starts unsized and
  // grows through the long record and the capture after it.
  constexpr uint32_t kLong = kPcapWindowBytes + 100;
  std::vector<uint8_t> bytes = PcapBuilder().TcpRecord(kLong, kLong).bytes();
  const CaptureTrace rest = SnapsAndAcks(2000, 2000, false);
  const std::vector<uint8_t> rest_bytes = SerializePcap(rest);
  bytes.insert(bytes.end(), rest_bytes.begin() + 24, rest_bytes.end());
  CaptureTrace expected = ParsePcap(PcapBuilder().TcpRecord(kLong, kLong).bytes());
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0].payload, static_cast<Bytes>(kLong - 40));
  expected.insert(expected.end(), rest.begin(), rest.end());
  ReadsBack(bytes, expected);
}

}  // namespace
}  // namespace csi::capture
