#include "src/capture/pcap_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace csi::capture {
namespace {

constexpr uint32_t kPcapMagic = 0xa1b2c3d4;  // microsecond timestamps
constexpr uint32_t kLinkTypeRaw = 101;       // raw IPv4/IPv6
constexpr uint32_t kIpv4HeaderBytes = 20;    // no options
constexpr uint32_t kTcpHeaderBytes = 20;     // no options
constexpr uint32_t kUdpHeaderBytes = 8;

void Put8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }
void Put16be(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}
void Put32be(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}
void Put32le(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}
  uint8_t U8() { return data_.at(pos_++); }
  uint16_t U16be() {
    const uint16_t hi = U8();
    return static_cast<uint16_t>(hi << 8 | U8());
  }
  uint32_t U32be() {
    const uint32_t hi = U16be();
    return hi << 16 | U16be();
  }
  uint32_t U32le() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(U8()) << (8 * i);
    }
    return v;
  }
  void Skip(size_t n) {
    if (pos_ + n > data_.size()) {
      throw std::runtime_error("pcap: truncated");
    }
    pos_ += n;
  }
  size_t pos() const { return pos_; }
  void Seek(size_t p) { pos_ = p; }
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<uint8_t> SerializePcap(const CaptureTrace& trace) {
  std::vector<uint8_t> out;
  // Global header.
  Put32le(out, kPcapMagic);
  out.push_back(2);
  out.push_back(0);  // version major = 2 (LE u16)
  out.push_back(4);
  out.push_back(0);  // version minor = 4
  Put32le(out, 0);             // thiszone
  Put32le(out, 0);             // sigfigs
  Put32le(out, kPcapSnapLen);  // snaplen
  Put32le(out, kLinkTypeRaw);  // network

  for (const PacketRecord& r : trace) {
    const bool is_tcp = r.transport == net::Transport::kTcp;
    const uint32_t src_ip = r.from_client ? r.client_ip : r.server_ip;
    const uint32_t dst_ip = r.from_client ? r.server_ip : r.client_ip;
    const uint16_t src_port = r.from_client ? r.client_port : r.server_port;
    const uint16_t dst_port = r.from_client ? r.server_port : r.client_port;

    // Build the (possibly truncated) packet body.
    std::vector<uint8_t> pkt;
    const uint32_t transport_header = is_tcp ? 20u : 8u;
    const uint32_t ip_total = 20u + transport_header + static_cast<uint32_t>(r.payload);
    // IPv4 header.
    Put8(pkt, 0x45);
    Put8(pkt, 0);
    Put16be(pkt, static_cast<uint16_t>(std::min<uint32_t>(ip_total, 0xFFFF)));
    Put16be(pkt, 0);  // id
    Put16be(pkt, 0x4000);  // DF
    Put8(pkt, 64);         // ttl
    Put8(pkt, is_tcp ? 6 : 17);
    Put16be(pkt, 0);  // checksum (unverified)
    Put32be(pkt, src_ip);
    Put32be(pkt, dst_ip);
    if (is_tcp) {
      Put16be(pkt, src_port);
      Put16be(pkt, dst_port);
      Put32be(pkt, static_cast<uint32_t>(r.tcp_seq));
      Put32be(pkt, static_cast<uint32_t>(r.tcp_ack));
      Put8(pkt, 0x50);  // data offset 5
      Put8(pkt, 0x10);  // ACK flag
      Put16be(pkt, 0xFFFF);  // window
      Put16be(pkt, 0);       // checksum
      Put16be(pkt, 0);       // urgent
      if (!r.sni.empty()) {
        // Minimal TLS handshake record exposing the SNI.
        Put8(pkt, 0x16);
        Put8(pkt, 0x03);
        Put8(pkt, 0x01);
        Put16be(pkt, static_cast<uint16_t>(r.sni.size()));
        for (char c : r.sni) {
          Put8(pkt, static_cast<uint8_t>(c));
        }
      }
    } else {
      Put16be(pkt, src_port);
      Put16be(pkt, dst_port);
      Put16be(pkt, static_cast<uint16_t>(std::min<Bytes>(8 + r.payload, 0xFFFF)));
      Put16be(pkt, 0);  // checksum
      // QUIC public header: flags + 8-byte CID + 4-byte packet number.
      Put8(pkt, r.sni.empty() ? 0x40 : 0xC0);
      for (int i = 0; i < 8; ++i) {
        Put8(pkt, 0);
      }
      Put32be(pkt, static_cast<uint32_t>(r.quic_packet_number));
      if (!r.sni.empty()) {
        Put16be(pkt, static_cast<uint16_t>(r.sni.size()));
        for (char c : r.sni) {
          Put8(pkt, static_cast<uint8_t>(c));
        }
      }
    }
    // Zero-fill the rest of the payload up to the snap length.
    const size_t full_len = 20u + transport_header + static_cast<size_t>(r.payload);
    const size_t incl = std::min<size_t>(full_len, kPcapSnapLen);
    if (pkt.size() < incl) {
      pkt.resize(incl, 0);
    } else if (pkt.size() > incl) {
      pkt.resize(incl);
    }

    // Per-packet header.
    Put32le(out, static_cast<uint32_t>(r.timestamp / kUsPerSec));
    Put32le(out, static_cast<uint32_t>(r.timestamp % kUsPerSec));
    Put32le(out, static_cast<uint32_t>(pkt.size()));
    Put32le(out, static_cast<uint32_t>(full_len));
    out.insert(out.end(), pkt.begin(), pkt.end());
  }
  return out;
}

CaptureTrace ParsePcap(const std::vector<uint8_t>& bytes) {
  Reader in(bytes);
  if (in.U32le() != kPcapMagic) {
    throw std::runtime_error("pcap: bad magic");
  }
  in.Skip(2 + 2 + 4 + 4 + 4);  // versions, thiszone, sigfigs, snaplen
  if (in.U32le() != kLinkTypeRaw) {
    throw std::runtime_error("pcap: unsupported link type");
  }

  CaptureTrace trace;
  while (!in.AtEnd()) {
    if (in.Remaining() < 16) {
      throw std::runtime_error("pcap: truncated packet header");
    }
    const uint32_t ts_sec = in.U32le();
    const uint32_t ts_usec = in.U32le();
    const uint32_t incl_len = in.U32le();
    const uint32_t orig_len = in.U32le();
    const size_t pkt_start = in.pos();
    if (in.Remaining() < incl_len) {
      throw std::runtime_error("pcap: truncated packet body");
    }

    // Every record must hold the fixed IPv4 header before any of it is read,
    // and the transport header once the protocol is known (below).
    if (incl_len < kIpv4HeaderBytes) {
      throw std::runtime_error("pcap: packet shorter than its headers");
    }
    PacketRecord r;
    r.timestamp = static_cast<TimeUs>(ts_sec) * kUsPerSec + ts_usec;
    // IPv4 header.
    const uint8_t vihl = in.U8();
    if ((vihl >> 4) != 4) {
      throw std::runtime_error("pcap: not IPv4");
    }
    in.Skip(1 + 2 + 2 + 2 + 1);  // tos, total, id, frag, ttl
    const uint8_t proto = in.U8();
    in.Skip(2);
    const uint32_t src_ip = in.U32be();
    const uint32_t dst_ip = in.U32be();
    const bool is_tcp = proto == 6;
    const uint32_t headers = kIpv4HeaderBytes + (is_tcp ? kTcpHeaderBytes : kUdpHeaderBytes);
    // A short capture length would read the fixed transport fields out of the
    // next record; a short original length would make the payload negative.
    if (incl_len < headers || orig_len < headers) {
      throw std::runtime_error("pcap: packet shorter than its headers");
    }
    const uint16_t src_port = in.U16be();
    const uint16_t dst_port = in.U16be();
    r.transport = is_tcp ? net::Transport::kTcp : net::Transport::kUdp;
    // Client side = the endpoint on the ephemeral port.
    r.from_client = dst_port == 443;
    r.client_ip = r.from_client ? src_ip : dst_ip;
    r.server_ip = r.from_client ? dst_ip : src_ip;
    r.client_port = r.from_client ? src_port : dst_port;
    r.server_port = r.from_client ? dst_port : src_port;
    r.wire_size = static_cast<Bytes>(orig_len);
    r.payload = static_cast<Bytes>(orig_len) - static_cast<Bytes>(headers);
    if (is_tcp) {
      r.tcp_seq = in.U32be();
      r.tcp_ack = in.U32be();
      const uint8_t offset_byte = in.U8();
      in.Skip(1 + 2 + 2 + 2);  // flags, window, checksum, urgent
      (void)offset_byte;
      // SNI marker: TLS handshake record.
      if (r.payload > 0 && in.pos() + 5 <= pkt_start + incl_len) {
        const size_t mark = in.pos();
        if (in.U8() == 0x16 && in.U8() == 0x03 && in.U8() == 0x01) {
          const uint16_t sni_len = in.U16be();
          if (sni_len > 0 && in.pos() + sni_len <= pkt_start + incl_len) {
            std::string sni;
            for (uint16_t i = 0; i < sni_len; ++i) {
              sni.push_back(static_cast<char>(in.U8()));
            }
            r.sni = sni;
          }
        } else {
          in.Seek(mark);
        }
      }
    } else {
      in.Skip(2 + 2);  // udp len, checksum
      if (in.pos() + 13 <= pkt_start + incl_len) {
        const uint8_t flags = in.U8();
        in.Skip(8);  // CID
        r.quic_packet_number = in.U32be();
        if ((flags & 0x80) != 0 && in.pos() + 2 <= pkt_start + incl_len) {
          const uint16_t sni_len = in.U16be();
          if (sni_len > 0 && in.pos() + sni_len <= pkt_start + incl_len) {
            std::string sni;
            for (uint16_t i = 0; i < sni_len; ++i) {
              sni.push_back(static_cast<char>(in.U8()));
            }
            r.sni = sni;
          }
        }
      }
    }
    in.Seek(pkt_start + incl_len);
    trace.push_back(std::move(r));
  }
  return trace;
}

void WritePcap(const std::string& path, const CaptureTrace& trace) {
  const std::vector<uint8_t> bytes = SerializePcap(trace);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("pcap: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

CaptureTrace ReadPcap(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("pcap: cannot open " + path);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return ParsePcap(bytes);
}

}  // namespace csi::capture
