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
  EXPECT_EQ(parsed.capacity(), trace.size());  // the header pass sized it once
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

  // One 40-byte IPv4 record whose protocol byte is `proto`.
  PcapBuilder& ProtoRecord(uint8_t proto) {
    std::vector<uint8_t> packet = {
        0x45, 0, 0, 40, 0, 0, 0x40, 0, 64, proto, 0, 0,  // IPv4, proto
        192, 168, 0, 1, 10, 0, 0, 2};                    // src, dst
    return Record(std::move(packet), 40, 40);
  }

  // A copy sized exactly, so the sanitizer builds flag a read one byte past
  // the last record.
  std::vector<uint8_t> bytes() const { return bytes_; }

 private:
  PcapBuilder& Record(std::vector<uint8_t> packet, uint32_t incl_len, uint32_t orig_len) {
    Le32(1);  // ts_sec
    Le32(0);  // ts_usec
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
  for (const PacketRecord& r : parsed) {
    ASSERT_GE(r.payload, 0);
    ASSERT_EQ(r.wire_size - r.payload, r.transport == net::Transport::kTcp ? 40 : 28);
    ASSERT_LE(r.sni.size(), kPcapSnapLen);
  }
}

uint32_t GetLe32(const std::vector<uint8_t>& bytes, size_t at) {
  return bytes[at] | bytes[at + 1] << 8 | bytes[at + 2] << 16 |
         static_cast<uint32_t>(bytes[at + 3]) << 24;
}

// The byte offsets of each record's incl_len field in a capture SerializePcap
// wrote (orig_len follows at +4).
std::vector<size_t> InclLenOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> offsets;
  for (size_t at = 24; at + 16 <= bytes.size();) {
    offsets.push_back(at + 8);
    at += 16 + size_t{GetLe32(bytes, at + 8)};
  }
  return offsets;
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
  // The serialized sample, two captures whose last bytes are an SNI, so a cut
  // that the body check let through would read past the buffer, and one
  // longer than the reader's window, so cuts land after a refill.
  const std::vector<std::vector<uint8_t>> bases = {
      SerializePcap(SampleTrace()),
      PcapBuilder().TcpRecord(40, 40).TcpRecord(48, 100, TlsSni(3)).bytes(),
      PcapBuilder().TcpRecord(40, 40).UdpRecord(46, 1200, QuicSni(3)).bytes(),
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

auto Fields(const PacketRecord& r) {
  return std::tuple(r.timestamp, r.from_client, r.transport, r.client_ip, r.server_ip,
                    r.client_port, r.server_port, r.payload, r.wire_size, r.tcp_seq, r.tcp_ack,
                    r.quic_packet_number, r.sni);
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
// count pass starts its window at 0, the parse pass at the first record.
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
  EXPECT_EQ(from_file.capacity(), from_file.size());
  // Both entry points give back the session's own records.
  ExpectSameRecords(from_file, LongCapture().trace);
  ExpectSameRecords(ParsePcap(bytes), LongCapture().trace);
  std::remove(path.c_str());
}

TEST(PcapWindow, TruncationAroundWindowEdges) {
  const std::vector<uint8_t>& bytes = LongCapture().bytes;
  // Cuts within 64 bytes of where each of the first four windows of either
  // pass ends or its successor starts.
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

// An SNI record ending within 80 bytes either side of the parse pass's first
// window edge (its window starts at the first record, byte 24): the last
// byte of the SNI is the last byte of the record, so a window one byte short
// garbles it.
TEST(PcapWindow, RecordEndingNearTheWindowEdge) {
  constexpr size_t kFiller = 16 + kPcapSnapLen;  // one full-snap record
  constexpr size_t kSniRecord = 16 + 48;
  const std::string path = ::testing::TempDir() + "/csi_capture_window_edge.pcap";
  for (int delta = -80; delta <= 80; ++delta) {
    SCOPED_TRACE(delta);
    // Fillers, then one record sized so the SNI record ends at edge + delta.
    const size_t to_fill = kPcapWindowBytes + static_cast<size_t>(delta) - kSniRecord;
    PcapBuilder builder;
    for (size_t i = 0; i < to_fill / kFiller - 1; ++i) {
      builder.TcpRecord(kPcapSnapLen, 1500);
    }
    const auto last_filler = static_cast<uint32_t>(to_fill % kFiller + kFiller - 16);
    builder.TcpRecord(last_filler, last_filler).TcpRecord(48, 100, TlsSni(3)).TcpRecord(40, 40);
    const std::vector<uint8_t> bytes = builder.bytes();
    ASSERT_EQ(InclLenOffsets(bytes)[to_fill / kFiller] + 8 + 48,
              24 + kPcapWindowBytes + static_cast<size_t>(delta));
    WriteBytes(path, bytes);
    const CaptureTrace from_file = ReadPcap(path);
    ASSERT_EQ(from_file.size(), to_fill / kFiller + 2);
    EXPECT_EQ(from_file[from_file.size() - 2].sni, "abc");
    EXPECT_EQ(from_file[from_file.size() - 3].wire_size, last_filler);
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

}  // namespace
}  // namespace csi::capture
